"""Green-function estimates and their verification by time integration.

The closed forms exhibit a phase transition in the survival exponent at
alpha + (beta1+beta2)/2, expressed through a three-branch prefactor.  The
verifier rescales to unit distance, integrates the killed heat-kernel
estimate numerically over small times, and adds the exact piecewise-power
tail for large times (the estimate is exactly the clamped on-diagonal
profile there).  The small-time integrand is the killed value of the array
kernel ``heatkernel._hke_cells`` on each panel rule's whole node array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .geometry import HalfSpacePoint, ModelParams
from .heatkernel import _hke_cells
from .quadrature import QuadratureSpec, geometric_breaks, integrate_panels, merge_breaks

__all__ = [
    "GreenBreakdown",
    "GreenDivergenceError",
    "GreenRangeError",
    "eval_Hq",
    "green_free",
    "green_estimate",
    "green_by_time_integration",
]

_E = math.e


class GreenDivergenceError(ValueError):
    """The large-time integral diverges for these parameters."""


class GreenRangeError(ArithmeticError):
    """A factor of a Green estimate leaves the float range."""


@dataclass(frozen=True)
class GreenBreakdown:
    """A Green-function value decomposed by provenance."""

    value: float
    q_hat: float
    case_tag: str
    H_factor: Optional[float] = None
    small_time: Optional[float] = None
    large_time: Optional[float] = None


def _qhat(params: ModelParams, q: float) -> float:
    return 2.0 * params.alpha + params.beta[0] + params.beta[1] - q


def eval_Hq(params: ModelParams, q: float, x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Anomalous prefactor of the killed Green estimate (dim >= 2 form).

    Equals 1 below the transition; at the transition a log power appears;
    above, a clamped negative power of the larger height carries the blow-up,
    and the value is inf where that power overflows.
    """
    dist = x.distance_to(y)
    if dist == 0.0:
        raise ValueError("distinct points required")
    threshold = params.alpha + 0.5 * (params.beta[0] + params.beta[1])
    if q < threshold:
        return 1.0
    hmax = max(x.height, y.height)
    b4 = params.beta[3]
    log_term = math.log(_E + dist / min(hmax, dist)) if hmax > 0.0 else math.inf
    if q == threshold:
        return log_term ** (b4 + 1.0)
    expo = _qhat(params, q) - q  # = 2 alpha + b1 + b2 - 2 q < 0 here
    base = min(hmax / dist, 1.0)
    try:
        power = base**expo if base > 0.0 else math.inf
    except OverflowError:
        power = math.inf
    return power * (log_term**b4 if b4 > 0.0 else 1.0)


def _finite_Hq(params: ModelParams, q: float, x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """:func:`eval_Hq`, raising :class:`GreenRangeError` where it overflows."""
    h = eval_Hq(params, q, x, y)
    if not h < math.inf:
        raise GreenRangeError(f"boundary factor H overflows at q = {q}")
    return h


def green_free(params: ModelParams, x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Free-kernel Green value: the Riesz profile when dim > alpha, else inf."""
    dist = x.distance_to(y)
    if dist == 0.0:
        raise ValueError("distinct points required")
    if params.dim > params.alpha:
        return dist ** (params.alpha - params.dim)
    return math.inf


def _branch_tag(q: float, q_hat: float) -> str:
    if q < q_hat:
        return "q<qhat"
    if q == q_hat:
        return "q=qhat"
    return "q>qhat"


def green_estimate(
    params: ModelParams, q: float, x: HalfSpacePoint, y: HalfSpacePoint
) -> GreenBreakdown:
    """Closed-form killed Green estimate.

    For dim 1 the three stability branches are used; alpha <= 1 requires a
    strictly positive survival exponent.
    """
    if not 0.0 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 0, got {q}")
    if x.height <= 0.0 or y.height <= 0.0:
        raise ValueError("interior points required")
    if params.alpha <= 1.0 and q <= 0.0 and params.dim == 1:
        raise ValueError("alpha <= 1 requires q > 0")
    dist = x.distance_to(y)
    if dist == 0.0:
        raise ValueError("distinct points required")
    alpha = params.alpha
    d = params.dim
    q_hat = _qhat(params, q)
    if d >= 2:
        h = _finite_Hq(params, q, x, y)
        hmin = min(x.height, y.height)
        hmax = max(x.height, y.height)
        value = (
            h
            * dist ** (alpha - d)
            * min(hmin / dist, 1.0) ** q
            * min(hmax / dist, 1.0) ** q
        )
        return GreenBreakdown(
            value=value, q_hat=q_hat, case_tag=_branch_tag(q, q_hat), H_factor=h
        )
    hmin = min(x.height, y.height)
    clamp = min(hmin / dist, 1.0)
    if alpha < 1.0:
        value = dist ** (alpha - 1.0) * clamp**q
        tag = "d1:alpha<1"
    elif alpha == 1.0:
        value = clamp**q * math.log(_E + max(hmin, dist) / dist)
        tag = "d1:alpha=1"
    else:
        value = hmin ** (alpha - 1.0) * clamp ** (q - alpha + 1.0)
        tag = "d1:alpha>1"
    return GreenBreakdown(value=value, q_hat=q_hat, case_tag=tag)


def _power_int(lo: float, hi: float, e: float) -> float:
    """Integral of tau^e over [lo, hi], hi possibly infinite."""
    if hi == math.inf:
        if e >= -1.0:
            raise GreenDivergenceError("tail exponent must be below -1")
        return -(lo ** (e + 1.0)) / (e + 1.0)
    if lo >= hi:
        return 0.0
    if e == -1.0:
        return math.log(hi / lo)
    return (hi ** (e + 1.0) - lo ** (e + 1.0)) / (e + 1.0)


def _large_time_exact(d: int, alpha: float, q: float, a: float, b: float) -> float:
    """Exact integral over t >= 1 of t^(-d/alpha) (1^a/t^(1/alpha))^q clamps.

    Written in the tau = t^(1/alpha) variable the integrand is piecewise a
    pure power with breakpoints where the two survival clamps saturate.
    """
    if a > b:
        a, b = b, a
    e0 = alpha - d - 1.0
    ta = max(1.0, a)
    tb = max(1.0, b)
    total = _power_int(1.0, ta, e0)
    try:
        mid = a**q * _power_int(ta, tb, e0 - q)
        tail = a**q * b**q * _power_int(tb, math.inf, e0 - 2.0 * q)
    except OverflowError:
        mid = tail = math.inf
    if not math.isfinite(mid + tail):
        # a^q or b^q overflows: the same two terms with each power of a and
        # b taken over the breakpoint it sits at, every ratio at most 1
        e = e0 + 1.0
        mid = ((a / tb) ** q * tb**e - (a / ta) ** q * ta**e) / (e - q)
        tail = (a / tb) ** q * (b / tb) ** q * tb**e / (2.0 * q - e)
    total += mid
    total += tail
    return alpha * total


def green_by_time_integration(
    params: ModelParams,
    q: float,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    spec: QuadratureSpec | None = None,
) -> GreenBreakdown:
    """Green value as the time integral of the killed heat-kernel estimate.

    Rescales to unit distance, splits at unit time, integrates the small
    times numerically and the large times in closed form, then restores the
    Riesz scaling factor.  Raises when the large-time tail diverges
    (exponent of the integrand at least -1, i.e. d + 2 q <= alpha).
    """
    # comparability verification only needs moderate accuracy; the integrand
    # has clamp kinks that make very tight tolerances needlessly expensive
    spec = spec or QuadratureSpec(rel_tol=1e-6, abs_tol=1e-300, max_subdivisions=4096)
    if not 0.0 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 0, got {q}")
    if x.height <= 0.0 or y.height <= 0.0:
        raise ValueError("interior points required")
    dist = x.distance_to(y)
    if dist == 0.0:
        raise ValueError("distinct points required")
    d = params.dim
    alpha = params.alpha
    if d + 2.0 * q <= alpha:
        raise GreenDivergenceError(
            f"large-time integral diverges: dim + 2q = {d + 2 * q} <= alpha = {alpha}"
        )
    xs = x.scaled(1.0 / dist)
    ys = y.scaled(1.0 / dist)

    hmin = min(xs.height, ys.height)
    # below this the integrand is ~ t * (fixed boundary weight); the omitted
    # mass is a 1e-8 relative fraction of every branch of the small-time part
    t_lo = max(min(1e-8, 1e-4 * hmin**alpha), 1e-280)
    inner = []
    for h in (xs.height, ys.height):
        inner.append(h**alpha)  # survival clamp saturates
        if h < 1.0:
            inner.append((1.0 - h) ** alpha)  # lifted height crosses the gap
    inner = [v for v in inner if t_lo < v < 1.0]
    breaks = merge_breaks(geometric_breaks(t_lo, 1.0, 1.0), inner, t_lo, 1.0)
    hx, hy, unit = xs.height, ys.height, xs.distance_to(ys)
    small = integrate_panels(
        lambda ts: _hke_cells(params, ts ** (1.0 / alpha), hx, hy, unit, q)[3], breaks, spec
    )
    large = _large_time_exact(d, alpha, q, xs.height, ys.height)
    q_hat = _qhat(params, q)
    return GreenBreakdown(
        value=dist ** (alpha - d) * (small + large),
        q_hat=q_hat,
        case_tag=_branch_tag(q, q_hat),
        H_factor=_finite_Hq(params, q, x, y) if d >= 2 else None,
        small_time=small,
        large_time=large,
    )
