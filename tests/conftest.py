import numpy as np
import pytest
from hypothesis import settings

from lemniscates.counterexample import build_d4_chain, f4_polynomial
from lemniscates.curves import ellipse, unit_circle
from lemniscates.polynomials import Polynomial

# property tests draw the same examples on every run, with no per-example
# time limit, so tier-1 runs stay reproducible and time-bounded
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def f4():
    return f4_polynomial()


@pytest.fixture(scope="session")
def d4_chain():
    return build_d4_chain(step=0.01)


@pytest.fixture(scope="session")
def circle_T():
    return unit_circle(512)


@pytest.fixture(scope="session")
def ellipse_E():
    return ellipse(1.0, 0.6, 512)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def criterion6_poly():
    """The index-th polynomial of the criterion-6 generator at the given seed."""

    def draw(seed, index):
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            d = int(rng.integers(2, 5))
            roots = rng.normal(0, 0.75, d) + 1j * rng.normal(0, 0.75, d)
            scale = float(np.exp(rng.uniform(-0.5, 1.6)))
        return Polynomial.from_roots(roots, leading=scale)

    return draw
