"""Exception hierarchy shared by all modules.

PreconditionError maps to CLI exit code 2, NumericalError (and subclasses)
to exit code 3.
"""
from numbers import Integral


class LemniscateError(Exception):
    pass


class PreconditionError(LemniscateError):
    """Input violates a documented precondition (bad curve, point off-domain, ...)."""


def require_count(n, least: int, what: str):
    """n, if it is an integer >= least (a bool is not); else PreconditionError."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < least:
        raise PreconditionError(f"{what} must be an integer >= {least}, got {n!r}")
    return n


class NumericalError(LemniscateError):
    """A numerical procedure failed to meet its contract."""


class RootFindingError(NumericalError):
    """Root finding failed: the companion eigenvalue solve, or a root that is
    non-finite or fails its residual test; carries the raw roots, if any."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class TraceError(NumericalError):
    """Level/gradient continuation aborted (critical point, budget, ...)."""

    def __init__(self, message, samples=None):
        super().__init__(message)
        self.samples = samples


class ChainClosureError(NumericalError):
    """Boundary chain did not close uniquely; carries per-candidate results."""

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates or []


class SolverError(NumericalError):
    """Conformal map solve failed validation."""
