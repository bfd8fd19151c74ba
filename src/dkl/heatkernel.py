"""Closed-form heat-kernel estimates, the unified one-plus-two-jump form,
the killed-kernel factorization, and regime/dominance classification.

The free-kernel estimate is a stable profile times a bracket of one-jump
and two-jump boundary terms whose shape depends on how the second weight
exponent compares with alpha plus the first: strictly below (one jump
dominates everywhere), strictly above, or exactly critical, where the
two-jump term picks up an extra logarithm.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    BoundaryWeight,
    HalfSpacePoint,
    ModelParams,
    _time_scale,
    lift_ed,
    stable_profile,
    survival_profile,
    weight_from_heights,
    weight_from_heights_arr,
)
from .quadrature import (
    QuadratureSpec,
    converge,
    integrate_panels,
    integrate_rows,
    merge_breaks,
    panel_nodes,
    row_breaks,
)

__all__ = [
    "Regime",
    "EstimateBreakdown",
    "detect_regime",
    "hke_closed",
    "hke_unified",
    "twojump_ball_integral",
    "killed_hke",
    "dominance_map",
]

_E = math.e


class Regime(enum.Enum):
    ONE_JUMP = "OneJump"
    TWO_JUMP_STRICT = "TwoJumpStrict"
    CRITICAL = "Critical"


def detect_regime(params: ModelParams) -> Regime:
    """Classify by comparing the second exponent with alpha plus the first,
    exactly as the supplied reals compare."""
    gap = params.beta[1] - (params.alpha + params.beta[0])
    if gap == 0.0:
        return Regime.CRITICAL
    return Regime.ONE_JUMP if gap < 0.0 else Regime.TWO_JUMP_STRICT


@dataclass(frozen=True)
class EstimateBreakdown:
    """A heat-kernel estimate split into its factors."""

    regime: Regime
    stable: float
    one_jump: float
    two_jump: float
    survival_x: float
    survival_y: float
    free_value: float
    killed_value: float


def _time_clamp(u: float, dist: float, alpha: float) -> float:
    """(1 and t/dist^alpha), computed from the ratio u/dist so a joint
    power-of-two rescaling of all lengths leaves the bits unchanged."""
    try:
        return min(1.0, (u / dist) ** alpha)
    except OverflowError:
        return 1.0


def _bracket_terms(
    params: ModelParams,
    regime: Regime,
    u: float,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    dist: float,
) -> tuple[float, float]:
    """One-jump and two-jump bracket terms at the lifted point pair."""
    b1, b2, b3, b4 = params.beta
    alpha = params.alpha
    hmin = min(x.height, y.height) + u
    hmax = max(x.height, y.height) + u
    one = weight_from_heights(params.beta, hmin, hmax, dist)
    if regime is Regime.ONE_JUMP:
        return one, 0.0
    b4_eff = b3 if regime is Regime.TWO_JUMP_STRICT else b3 + b4 + 1.0
    two = _time_clamp(u, dist, alpha) * weight_from_heights(
        (b1, b1, 0.0, b4_eff), hmin, hmax, dist
    )
    # two = 0 where u = 0; its log factor may then be infinite (hmin = 0)
    if b3 > 0.0 and two > 0.0:
        two *= math.log(_E + dist / min(hmin, dist)) ** b3
    return one, two


def hke_closed(
    params: ModelParams,
    t: float,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    q: float = 0.0,
    tscale: Optional[float] = None,
) -> EstimateBreakdown:
    """Sharp free-kernel estimate with all factors exposed.

    ``q`` is the survival exponent used for the killed value (0 leaves the
    killed value equal to the free one).  On the diagonal the on-diagonal
    profile is returned with a unit one-jump factor.
    """
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    if not 0.0 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 0, got {q}")
    regime = detect_regime(params)
    d = params.dim
    u = tscale if tscale is not None else _time_scale(t, params.alpha)
    dist = x.distance_to(y)
    sx = survival_profile(q, u, x.height)
    sy = survival_profile(q, u, y.height)
    on = stable_profile(d, params.alpha, u, 0.0)  # u^-d, inf where it overflows
    if dist == 0.0:
        stable, one, two, free = on, 1.0, 0.0, on
    else:
        stable = stable_profile(d, params.alpha, u, dist)
        one, two = _bracket_terms(params, regime, u, x, y, dist)
        free = min(on, stable * (one + two))
    return EstimateBreakdown(
        regime=regime,
        stable=stable,
        one_jump=one,
        two_jump=two,
        survival_x=sx,
        survival_y=sy,
        free_value=free,
        killed_value=sx * sy * free,
    )


def _hke_cells(params: ModelParams, u, hx, hy, dist, q: float = 0.0) -> tuple[np.ndarray, ...]:
    """:func:`hke_closed` on arrays of cells: its one-jump and two-jump
    bracket terms and its free and killed values.

    The time scale ``u``, the heights ``hx`` and ``hy`` and the pair distance
    ``dist`` broadcast against each other; a cell with ``dist == 0`` takes
    the on-diagonal value.  Overflow takes the values of the scalar
    ``OverflowError`` branches: an infinite on-diagonal profile, a unit time
    clamp, and the on-diagonal profile where the off-diagonal one is 0 * inf.
    Where u underflows to 0, a boundary point takes the scalar limits of its
    survival factor and of the two-jump term.  Numpy's ``power`` and ``log``
    may differ from libm by a few ulp, so the values agree with the scalar
    path to a few ulp, not bitwise.
    """
    regime = detect_regime(params)
    d = float(params.dim)
    b1, _, b3, b4 = params.beta
    # numpy scalars where scalars are given: a division by 0 or an overflow
    # then follows errstate, and a power keeps libm's bits
    u, dist = (np.asarray(v, dtype=float)[()] for v in (u, dist))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        # min(h/u, 1)^q, with its limit as u falls to 0 at u = 0
        sx, sy = (np.where(u > 0.0, np.minimum(h / u, 1.0), h > 0.0) ** q for h in (hx, hy))
        on = u ** -d
        ratio = (u / dist) ** params.alpha
        stable = np.fmin(on, ratio * dist ** -d)
        hmin = np.minimum(hx, hy) + u
        hmax = np.maximum(hx, hy) + u
        one = weight_from_heights_arr(params.beta, hmin, hmax, dist)
        two = np.zeros(np.shape(one))
        if regime is not Regime.ONE_JUMP:
            b4_eff = b3 if regime is Regime.TWO_JUMP_STRICT else b3 + b4 + 1.0
            two = np.minimum(1.0, ratio) * weight_from_heights_arr(
                (b1, b1, 0.0, b4_eff), hmin, hmax, dist
            )
            if b3 > 0.0:
                # two = 0 where u = 0; its log factor may then be infinite (hmin = 0)
                log = np.log(_E + dist / np.minimum(hmin, dist)) ** b3
                two = np.where(two > 0.0, two * log, two)
        free = np.minimum(on, stable * (one + two))
        diag = np.equal(dist, 0.0)
        if diag.any():
            one = np.where(diag, 1.0, one)
            two = np.where(diag, 0.0, two)
            free = np.where(diag, on, free)
        return one, two, free, sx * sy * free


def killed_hke(
    params: ModelParams,
    t: float,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    q: float,
) -> float:
    """Killed-kernel estimate: two survival factors times the free estimate."""
    return hke_closed(params, t, x, y, q=q).killed_value


def _radial_two_jump(
    params: ModelParams,
    t: float,
    u: float,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    dist: float,
    spec: QuadratureSpec,
) -> float:
    """The two-jump term: t^2 times the radial integral of the two-jump
    kernel product over the middle range.

    The midpoint travels up the vertical line through x; both jump-kernel
    factors are evaluated between lifted points, so the first factor's
    distance is exactly the integration variable.  Empty range gives 0.

    The integrand is of order L^-(d+2 alpha+1) at the range's scale L.
    Where that leaves the float range, every length is scaled by a power
    of two that brings L near 1 (the weight only sees ratios of lengths),
    and the scale goes back in log space: the integral scales as
    L^-(d+2 alpha).
    """
    lo = min(max(x.height, y.height, u), dist / 4.0)
    hi = dist / 2.0
    if lo >= hi:
        return 0.0
    d = params.dim
    alpha = params.alpha
    _, k = math.frexp(hi)
    if abs(k) * (d + 2.0 * alpha + 1.0) <= 960.0:
        k = 0
    scale = math.ldexp(1.0, -k)
    lo, hi, u = lo * scale, hi * scale, u * scale
    xh = x.height * scale
    yh = y.height * scale
    tang2 = sum(((a - b) * scale) ** 2 for a, b in zip(x.tangential, y.tangential))

    b = params.beta
    ends = np.array([[xh + u], [yh + u]])

    def f(r: np.ndarray) -> np.ndarray:
        # one weight call on both legs: x -> mid at distance r, mid -> y at d2
        mid_h = xh + r + u
        d2 = np.sqrt(tang2 + (xh + r - yh) ** 2)
        w1, w2 = weight_from_heights_arr(
            b, np.minimum(ends, mid_h), np.maximum(ends, mid_h), np.stack([r, d2])
        )
        return w1 * r ** (-(d + alpha)) * w2 * d2 ** (-(d + alpha)) * r ** (d - 1)

    # integrable log singularities and clamp switches sit at the height and
    # time scales and where a lifted height crosses the far separation
    inner = [xh, yh, u, xh + u, yh + u, yh - xh]
    if yh + u > 0.0:
        m = 0.5 * (tang2 / (yh + u) - u + yh)
        inner.append(m - xh)
    root = (yh + u) ** 2 - tang2
    if root > 0.0:
        s = math.sqrt(root)
        inner.extend([yh + s - xh, yh - s - xh])
    breaks = merge_breaks([lo, math.sqrt(lo * hi), hi], inner, lo, hi)
    value = integrate_panels(f, breaks, spec)
    if k == 0:
        return t * t * value
    if value == 0.0:
        return 0.0
    return math.exp(2.0 * math.log(t) - k * (d + 2.0 * alpha) * math.log(2.0) + math.log(value))


def _check_weight(params: ModelParams, w: BoundaryWeight) -> None:
    """Raise unless ``w`` is the weight of ``params``, from which the estimates compute."""
    if w.params is not params and w.params != params:
        raise ValueError("the weight must be built from the same model parameters")


def hke_unified(
    params: ModelParams,
    w: BoundaryWeight,
    t: float,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    spec: QuadratureSpec | None = None,
) -> float:
    """Unified estimate: one-jump kernel plus the radial two-jump integral.

    The two-jump term enters only when the second exponent reaches alpha
    plus the first; the whole bracket is capped by the on-diagonal profile.
    ``w`` must be the weight of ``params``.
    """
    _check_weight(params, w)
    spec = spec or QuadratureSpec()
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    dist = x.distance_to(y)
    if dist == 0.0:
        raise ValueError("distinct points required")
    u = _time_scale(t, params.alpha)
    # the jump kernel between the points lifted by u, at the pair's own
    # distance: lifting both heights by u leaves it unchanged
    one, _ = _bracket_terms(params, Regime.ONE_JUMP, u, x, y, dist)
    bracket = t * (one * dist ** -(params.dim + params.alpha))
    cap = stable_profile(params.dim, params.alpha, u, 0.0)
    # the two-jump term is >= 0: once the one-jump term reaches the cap it
    # cannot move the value
    if bracket < cap and detect_regime(params) is not Regime.ONE_JUMP:
        bracket += _radial_two_jump(params, t, u, x, y, dist, spec)
    return min(cap, bracket)


def _jump_arr(params: ModelParams, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jump kernel between coordinate rows of shape (..., d), height last:
    :func:`eval_J` on arrays of quadrature nodes."""
    diff = a - b
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    ha, hb = a[..., -1], b[..., -1]
    weight = weight_from_heights_arr(params.beta, np.minimum(ha, hb), np.maximum(ha, hb), dist)
    return weight * dist ** (-(params.dim + params.alpha))


def twojump_ball_integral(
    params: ModelParams,
    w: BoundaryWeight,
    t: float,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    spec: QuadratureSpec | None = None,
) -> float:
    """Two-jump product integrated over the mid ball, times t |x-y|^(d+alpha).

    The ball is centered halfway up the vertical line through x with radius
    a quarter of the distance; requires |x-y| > 6 t^(1/alpha).  Full
    quadrature, for dim <= 2 only; in d = 2 a nested Gauss rule with panel
    breaks on the weight's kinks, which raises NonConvergenceError past the
    order budget of ``spec``.  ``w`` must be the weight of ``params``.
    """
    _check_weight(params, w)
    spec = spec or QuadratureSpec()
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    dist = x.distance_to(y)
    alpha = params.alpha
    u = _time_scale(t, alpha)
    if dist <= 6.0 * u:
        raise ValueError("requires |x-y| > 6 t^(1/alpha)")
    d = params.dim
    if d > 2:
        raise ValueError("the mid-ball quadrature supports dim <= 2 only")
    X = np.array(lift_ed(x, u).coords())
    Y = np.array(lift_ed(y, u).coords())
    radius = dist / 4.0
    center = np.array(x.tangential + (x.height + dist / 2.0,))
    scale = t * dist ** (d + alpha)

    def integrand(z: np.ndarray) -> np.ndarray:
        return _jump_arr(params, X, z) * _jump_arr(params, z, Y)

    if d == 1:
        lo, hi = center[0] - radius, center[0] + radius
        return scale * integrate_panels(
            lambda h: integrand(h[:, None]), np.linspace(lo, hi, 5), spec
        )

    # the disk as h = ch + R sin(th), s = ct + R cos(th) v for |th| <= pi/2
    # and |v| <= 1, with Jacobian (R cos(th))^2; the weight kinks where
    # h = P_d and on the circles |z - P| = P_d and |z - P| = h, for P = X, Y,
    # whose tangents to a row lie at h = 2 P_d and h = P_d / 2
    ct, ch = center
    quarter = 0.5 * math.pi
    heights = [k * p for p in (X[1], Y[1]) for k in (0.5, 1.0, 2.0)]
    arcs = [math.asin((k - ch) / radius) for k in heights if abs(k - ch) < radius]
    th_breaks = merge_breaks([-quarter, 0.0, quarter], arcs, -quarter, quarter)

    def estimate(n: int) -> float:
        th, wth = panel_nodes(th_breaks, n)
        h = ch + radius * np.sin(th)
        half = radius * np.cos(th)
        kinks = []
        with np.errstate(invalid="ignore"):  # NaN where a circle misses the row
            for pt, pd in (X, Y):
                for r in (np.sqrt(pd * pd - (h - pd) ** 2), np.sqrt(pd * (2.0 * h - pd))):
                    kinks += [(pt - r - ct) / half, (pt + r - ct) / half]
        breaks = row_breaks([-1.0, 0.0, 1.0], np.stack(kinks, axis=1), -1.0, 1.0)
        inner = integrate_rows(
            lambda v, row: integrand(np.stack([ct + half[row] * v, h[row]], axis=1)), breaks, n
        )
        return float(np.dot(inner * half * half, wth))

    return scale * converge(estimate, 12, spec.max_subdivisions, lambda v: 10.0 * spec.tol(v),
                            "mid-ball integral did not converge")


def dominance_map(
    params: ModelParams,
    t: float,
    x: HalfSpacePoint,
    ys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compare the one-jump and two-jump bracket terms over target rows.

    ``ys`` holds coordinate rows of shape (n, dim), height last.  Returns the
    one-jump and two-jump terms at each target and whether it lies beyond
    6 t^(1/alpha) of x, where the picture is meaningful.  A target at x has
    one = 1, two = 0 and is never valid.
    """
    if detect_regime(params) is Regime.ONE_JUMP:
        raise ValueError("dominance map requires the two-jump regime, beta2 >= alpha + beta1")
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != x.dim:
        raise ValueError(f"targets must be rows of {x.dim} coordinates")
    if not (np.isfinite(ys).all() and (ys[:, -1] >= 0.0).all()):
        raise ValueError("targets must be finite with heights >= 0")
    u = _time_scale(t, params.alpha)
    # math.hypot as in HalfSpacePoint.distance_to: np.hypot and np.linalg.norm
    # may differ from it by an ulp
    dist = np.array(list(map(math.hypot, *(np.array(x.coords()) - ys).T.tolist())))
    one, two, _, _ = _hke_cells(params, u, x.height, ys[:, -1], dist)
    return one, two, dist > 6.0 * u
