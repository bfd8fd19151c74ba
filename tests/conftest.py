import math

import numpy as np
import pytest

from dkl.geometry import HalfSpacePoint
from dkl.oracle import oracle_survival


def pt(*coords) -> HalfSpacePoint:
    return HalfSpacePoint.from_coords(coords)


def survival_slopes(op) -> list[float]:
    """Slopes of log oracle_survival over the decades [1e-6, 1e-5] and
    [1e-5, 1e-4] of the boundary-scaled position."""
    logs = [math.log(oracle_survival(op, xi)) for xi in (1e-6, 1e-5, 1e-4)]
    return [(b - a) / math.log(10.0) for a, b in zip(logs, logs[1:])]


def ulp_close(a: float, b: float, ulps: float = 4.0) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


def dyadic(rng, lo_exp: int = -20, mant_bits: int = 26) -> float:
    """A positive dyadic rational: m * 2^lo_exp with m up to 2^mant_bits.

    Sums and differences of such numbers (and tangential shifts that are
    also multiples of 2^lo_exp) are exact in double precision, so the exact
    symmetry assertions are meaningful down to a few ulp.
    """
    m = int(rng.integers(1, 2**mant_bits))
    return m * 2.0**lo_exp


def dyadic_point(rng, dim: int) -> HalfSpacePoint:
    tang = tuple(
        (dyadic(rng) - dyadic(rng)) for _ in range(dim - 1)
    )
    return HalfSpacePoint(dim, tang, dyadic(rng))


def pow2(rng, span: int = 30) -> float:
    return 2.0 ** int(rng.integers(-span, span + 1))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
