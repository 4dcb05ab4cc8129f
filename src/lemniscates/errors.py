"""Exception hierarchy shared by all modules.

PreconditionError maps to CLI exit code 2, NumericalError (and subclasses)
to exit code 3.
"""


class LemniscateError(Exception):
    pass


class PreconditionError(LemniscateError):
    """Input violates a documented precondition (bad curve, point off-domain, ...)."""


class NumericalError(LemniscateError):
    """A numerical procedure failed to meet its contract."""


class RootFindingError(NumericalError):
    """Root iteration did not converge; carries the best iterate found."""

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
