"""Half-space geometry, boundary weights, and elementary kernel factors.

Points live on the closed upper half-space: tangential coordinates plus a
nonnegative height (the last coordinate).  The four-parameter boundary
weight, its space-time variant, the jump kernel built from them, and the
stable / survival profile factors are evaluated here as plain functions.

All evaluators are pure.  Every boundary factor is computed from ratios of
linear-in-scale quantities, so joint rescaling of all lengths by a power of
two is bit-exact; only the stable factor carries an absolute power of the
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "HalfSpacePoint",
    "ModelParams",
    "BoundaryWeight",
    "standard_weight",
    "diagonal_limit",
    "eval_B",
    "eval_A",
    "eval_J",
    "stable_factor",
    "survival_factor",
    "lift_ed",
    "weight_from_heights",
    "weight_from_heights_arr",
]

_E = math.e


class AdmissibilityError(ValueError):
    """Parameter quadruple violates the admissibility constraints."""


@dataclass(frozen=True)
class HalfSpacePoint:
    """A point of the closed upper half-space.

    ``tangential`` holds the first dim-1 coordinates (empty when dim == 1)
    and ``height`` the last coordinate, which must be nonnegative.
    """

    dim: int
    tangential: tuple[float, ...]
    height: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if len(self.tangential) != self.dim - 1:
            raise ValueError(
                f"expected {self.dim - 1} tangential coordinates, got {len(self.tangential)}"
            )
        if not (self.height >= 0.0):
            raise ValueError(f"height must be >= 0, got {self.height}")
        if not all(map(math.isfinite, self.tangential)) or not math.isfinite(self.height):
            raise ValueError("coordinates must be finite")

    @classmethod
    def from_coords(cls, coords: Sequence[float]) -> "HalfSpacePoint":
        coords = tuple(float(c) for c in coords)
        return cls(dim=len(coords), tangential=coords[:-1], height=coords[-1])

    def coords(self) -> tuple[float, ...]:
        return self.tangential + (self.height,)

    def distance_to(self, other: "HalfSpacePoint") -> float:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        diffs = [a - b for a, b in zip(self.tangential, other.tangential)]
        diffs.append(self.height - other.height)
        return math.hypot(*diffs)

    def scaled(self, a: float) -> "HalfSpacePoint":
        if a <= 0.0:
            raise ValueError("scale factor must be positive")
        return HalfSpacePoint(
            self.dim, tuple(c * a for c in self.tangential), self.height * a
        )

    def shifted(self, shift: Sequence[float]) -> "HalfSpacePoint":
        """Translate tangentially; the height is untouched."""
        if len(shift) != self.dim - 1:
            raise ValueError("shift must have dim-1 components")
        return HalfSpacePoint(
            self.dim,
            tuple(c + s for c, s in zip(self.tangential, shift)),
            self.height,
        )


def lift_ed(x: HalfSpacePoint, s: float) -> HalfSpacePoint:
    """Raise the height by ``s`` (vertical lift along the inward unit vector)."""
    if s < 0.0:
        raise ValueError("lift amount must be >= 0")
    return HalfSpacePoint(x.dim, x.tangential, x.height + s)


def _check_quadruple(b: Sequence[float]) -> tuple[float, float, float, float]:
    if len(b) != 4:
        raise AdmissibilityError("weight parameters must be a quadruple")
    b1, b2, b3, b4 = (float(v) for v in b)
    if min(b1, b2, b3, b4) < 0.0:
        raise AdmissibilityError(f"weight exponents must be >= 0, got {b}")
    if b3 > 0.0 and b1 == 0.0:
        raise AdmissibilityError("first exponent must be positive when the third is")
    if b4 > 0.0 and b2 == 0.0:
        raise AdmissibilityError("second exponent must be positive when the fourth is")
    return b1, b2, b3, b4


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: dimension, stability index, weight exponents, killing level."""

    dim: int
    alpha: float
    beta: tuple[float, float, float, float]
    kappa: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie strictly in (0, 2), got {self.alpha}")
        object.__setattr__(self, "beta", _check_quadruple(self.beta))
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")


def weight_from_heights(
    b: Sequence[float], hmin: float, hmax: float, dist: float
) -> float:
    """Four-factor boundary weight from the two heights and the distance.

    Convention at the boundary: a vanishing height with a positive paired
    power exponent gives 0 (the power factor dominates the log blow-up).
    """
    b1, b2, b3, b4 = b
    if hmin <= 0.0:
        # b3 > 0 forces b1 > 0, so the log factor never survives alone
        t13 = 1.0 if b1 == 0.0 else 0.0
    else:
        t13 = min(hmin / dist, 1.0) ** b1
        if b3 > 0.0:
            t13 *= math.log(_E + min(hmax, dist) / min(hmin, dist)) ** b3
    if hmax <= 0.0:
        t24 = 1.0 if b2 == 0.0 else 0.0
    else:
        t24 = min(hmax / dist, 1.0) ** b2
        if b4 > 0.0:
            t24 *= math.log(_E + dist / min(hmax, dist)) ** b4
    return t13 * t24


def weight_from_heights_arr(b, hmin, hmax, dist):
    """Vectorized version of :func:`weight_from_heights` for numpy arrays: a
    zero height keeps its power factor 0 ** b and drops its (infinite) log."""
    b1, b2, b3, b4 = b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t13 = np.minimum(hmin / dist, 1.0) ** b1
        if b3 > 0.0:
            log = np.log(_E + np.minimum(hmax, dist) / np.minimum(hmin, dist)) ** b3
            t13 = np.where(hmin > 0.0, t13 * log, t13)
        t24 = np.minimum(hmax / dist, 1.0) ** b2
        if b4 > 0.0:
            log = np.log(_E + dist / np.minimum(hmax, dist)) ** b4
            t24 = np.where(hmax > 0.0, t24 * log, t24)
    return t13 * t24


def _clamped_weight(b: Sequence[float], u: float, x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Boundary weight of a point pair with both heights clamped below at u.

    ``b`` is taken as given (no admissibility gate).  Coincident points take
    the limit where every ratio argument clamps when u > 0, and raise at u = 0.
    """
    dist = x.distance_to(y)
    if dist == 0.0:
        if u == 0.0:
            raise ValueError("boundary weight is undefined for coincident points")
        # all four ratio arguments clamp; only the log factors survive
        return weight_from_heights(b, 1.0, 1.0, 1.0)
    hmin = max(min(x.height, y.height), u)
    hmax = max(max(x.height, y.height), u)
    return weight_from_heights(b, hmin, hmax, dist)


def eval_B(b: Sequence[float], x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Boundary weight of a point pair.

    Product of two clamped height/distance power factors and two logarithmic
    corrections.  Raises if the points coincide (downstream uses divide by
    the distance, so silent infinities are never produced here).
    """
    return _clamped_weight(_check_quadruple(b), 0.0, x, y)


def eval_A(
    b: Sequence[float],
    t: float,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    alpha: float,
    tscale: Optional[float] = None,
) -> float:
    """Space-time boundary weight: heights enter through ``height | t^(1/alpha)``.

    ``tscale`` optionally supplies a precomputed value of t**(1/alpha); sweeps
    that rescale all lengths by a common factor should pass it explicitly so
    the power round-trip does not enter the factor ratios.  At t = 0 it is
    :func:`eval_B`.
    """
    b = _check_quadruple(b)
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie strictly in (0, 2)")
    u = tscale if tscale is not None else _time_scale(t, alpha)
    return _clamped_weight(b, u, x, y)


def diagonal_limit(beta: Sequence[float]) -> float:
    """Limit of the weight as two points at equal positive heights merge.

    Factored exactly as :func:`weight_from_heights_arr` computes it, so
    differences against this value cancel bitwise where the weight is flat.
    """
    b3, b4 = beta[2], beta[3]
    return (math.log(_E + 1.0) ** b3 if b3 > 0.0 else 1.0) * (
        math.log(_E + 1.0) ** b4 if b4 > 0.0 else 1.0
    )


@dataclass(frozen=True)
class BoundaryWeight:
    """The four-parameter boundary weight of a model: ``eval_B(params.beta, x, y)``.

    Only ``hke_unified`` and ``twojump_ball_integral`` take one; it must be
    built from the model they are given.
    """

    params: ModelParams


def standard_weight(params: ModelParams) -> BoundaryWeight:
    """The concrete four-parameter weight for the given model parameters."""
    return BoundaryWeight(params)


def eval_J(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Jump kernel: boundary weight divided by distance**(dim + alpha)."""
    dist = x.distance_to(y)
    if dist == 0.0:
        raise ValueError("jump kernel is undefined for coincident points")
    return eval_B(params.beta, x, y) * dist ** (-(params.dim + params.alpha))


def stable_factor(d: int, alpha: float, t: float, r: float) -> float:
    """Free stable transition-density profile: min(t^(-d/alpha), t * r^(-d-alpha)).

    Time enters through its alpha-th root and the ratio to r, so the two
    branches agree bitwise at the crossover and a joint power-of-two
    rescaling of (t^(1/alpha), r) is exact.
    """
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    return stable_profile(d, alpha, _time_scale(t, alpha), r)


def _time_scale(t: float, alpha: float) -> float:
    """t^(1/alpha), infinite where it overflows."""
    try:
        return t ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def stable_profile(d: int, alpha: float, u: float, r: float) -> float:
    """:func:`stable_factor` at the time scale u = t^(1/alpha).

    Where u^-d overflows, u = 0 included, the on-diagonal profile is inf.
    """
    try:
        on = u ** (-float(d))
    except (OverflowError, ZeroDivisionError):
        on = math.inf
    if r <= 0.0:
        return on
    try:
        off = (u / r) ** alpha * r ** (-float(d))
    except OverflowError:
        return on
    return min(on, off)


def survival_profile(q: float, u: float, h: float) -> float:
    """:func:`survival_factor` at the time scale u = t^(1/alpha): min(h/u, 1)^q,
    taking its limit as u falls to 0 at u = 0."""
    return min(h / u, 1.0) ** q if u > 0.0 else float(h > 0.0) ** q


def survival_factor(q: float, alpha: float, t: float, h: float) -> float:
    """Boundary survival profile (1 and h/t^(1/alpha), whichever is smaller)**q."""
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    if not 0.0 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 0, got {q}")
    if not h >= 0.0:
        raise ValueError(f"h must be >= 0, got {h}")
    return survival_profile(q, _time_scale(t, alpha), h)
