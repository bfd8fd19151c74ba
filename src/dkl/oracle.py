"""Exact (quadrature-grade) reference process: subordinate killed Brownian motion.

A Brownian motion on the half-space killed by a critical potential (with a
Dirichlet condition at the boundary), time changed by an independent
one-sided stable subordinator of half the stability index.  Its transition
density, jump kernel, and killing function are computable to quadrature
accuracy and serve as ground truth for the closed-form estimates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import HalfSpacePoint, ModelParams, _time_scale
from .heatkernel import _hke_cells
from .quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    converge,
    converge_rows,
    converged_values,
    geometric_breaks,
    integrate_panels,
    integrate_rows,
    interp_eval,
    interpolate,
    merge_breaks,
    panel_nodes,
)
from .report import ComparabilityReport, ratio_report
from .special import (
    bessel_I_scaled_arr,
    one_minus_scaled_I,
    stable_one_density_arr,
)

__all__ = [
    "OracleParams",
    "killed_bm_density",
    "oracle_p",
    "oracle_J",
    "oracle_kappa",
    "oracle_survival",
    "fit_survival_exponent",
    "compare_oracle_vs_estimate",
]


# largest Bessel order: the killed-BM mass at u = 1e12, where its
# interpolant ends, falls about 7 decades per unit of gamma and leaves the
# normal floats near gamma = 43
_GAMMA_MAX = 40.0


@dataclass(frozen=True)
class OracleParams:
    """Bessel order, dimension, and stability index of the reference process."""

    gamma: float
    dim: int
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.gamma > _GAMMA_MAX:
            raise ValueError(f"gamma must be <= {_GAMMA_MAX:g}, got {self.gamma}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie strictly in (0, 2)")

    @property
    def survival_exponent(self) -> float:
        """gamma + 1/2: the survival probability decays as height^(gamma + 1/2)
        at the boundary, for every alpha.  The killed Brownian motion's does,
        and the independent time change keeps the power (Song & Vondracek,
        PTRF 125, 2003)."""
        return self.gamma + 0.5


def _q_kernel_arr(gamma: float, d: int, s: np.ndarray, xd, yd, dist2) -> np.ndarray:
    """Killed-BM transition density at times s, vectorized and overflow-free.

    The heights ``xd``, ``yd`` and the squared distance ``dist2`` are scalars
    or arrays shaped like ``s``, one value per node.  The Bessel factor
    enters exponentially scaled, which turns the Gaussian exponent into
    -(distance^2)/(4s) exactly.
    """
    # the radial factor, then the tangential and Gaussian ones, multiplied
    # in place in this order; the tangential factor is exactly 1 in d = 1
    two_s, xy = 2.0 * s, xd * yd
    z = xy / two_s
    out = np.sqrt(xy) / two_s
    del two_s, xy
    out *= bessel_I_scaled_arr(gamma, z)
    if d > 1:
        tangential = 4.0 * math.pi * s
        tangential **= -(d - 1) / 2.0
        out *= tangential
    gauss = 4.0 * s
    np.divide(-dist2, gauss, out=gauss)
    out *= np.exp(gauss, out=gauss)
    return out


def killed_bm_density(op: OracleParams, t: float, x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Transition density of the killed Brownian motion before subordination."""
    _check_cell(t, x, y)
    dist = x.distance_to(y)
    return float(
        _q_kernel_arr(op.gamma, op.dim, np.array([t]), x.height, y.height, dist * dist)[0]
    )


def _check_cell(t: float, x: HalfSpacePoint, y: HalfSpacePoint) -> None:
    """Raise unless t is finite and > 0 and both points are interior."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and > 0, got {t}")
    if x.height <= 0.0 or y.height <= 0.0:
        raise ValueError("interior points required")


# ---------------------------------------------------------------------------
# cached evaluators for the subordinator density and the killed-BM mass

# largest error an interpolant allows at a panel end
_INTERP_TOL = 1e-9


def _cached_by_rounded(f):
    """Cache ``f`` per argument rounded to 12 digits, and call it at the rounded value."""
    cached = functools.lru_cache(maxsize=None)(f)
    return functools.wraps(f)(lambda v: cached(round(v, 12)))


@_cached_by_rounded
def _g_interp(a: float):
    """Interpolant of log g against log w, g the unit-time subordinator
    density, from where g is about e^-600 of its scale up to w = 1e14.

    Returns ``(w_left, w_hi, interpolant)``.  The panels are 0.4 wide in
    log w, narrower where the left tail log g ~ -w^(-a/(1-a)) is steep.
    """
    frac = a / (1.0 - a)
    k_left = (1.0 - a) * a**frac
    w_left = (k_left / 600.0) ** (1.0 / frac)
    w_hi = 1e14

    def log_g(v: np.ndarray) -> np.ndarray:
        return np.log(stable_one_density_arr(a, np.exp(v)))

    interp, _ = interpolate(log_g, math.log(w_left), math.log(w_hi),
                            min(0.4, 0.8 / frac), _INTERP_TOL, "subordinator density")
    return w_left, w_hi, interp


def _g_eval(a: float, w: np.ndarray) -> np.ndarray:
    """Unit-time subordinator density on an array of w > 0, via the cached
    interpolant; 0 left of it, a tail series right of it."""
    lo, hi, interp = _g_interp(a)
    w = np.asarray(w, dtype=float)
    out = np.exp(interp_eval(interp, np.log(w)))
    out[w < lo] = 0.0
    big = w > hi
    if np.any(big):
        # three-term tail series; relative error below w^(-3a) here
        wb = w[big]
        acc = np.zeros_like(wb)
        sign = 1.0
        for k in (1, 2, 3):
            coef = math.gamma(a * k + 1.0) / math.gamma(k + 1.0) * math.sin(
                math.pi * a * k
            )
            acc += sign * coef * wb ** (-a * k - 1.0)
            sign = -sign
        out[big] = acc / math.pi
    return out


def _defect_rows(gamma: float, xd: float, t: np.ndarray) -> tuple:
    """The mass defect 1 - (killed-BM mass) from height xd at times t, as
    rows of the row rule: ``(breaks, f, tail)``, the defect of row i being
    the integral of f over ``breaks[i]`` plus ``tail[i]``.

    Uses the identity mass defect = integral of the free Gaussian times
    (1 - scaled Bessel ratio) plus the Gaussian tail past the boundary,
    which does not cancel.  Each time has breakpoints 0, hi 1e-6, hi 1e-3,
    hi, and xd/2, xd, xd - 10 sig where inside (0, hi).
    """
    t = np.asarray(t, dtype=float)
    sig = np.sqrt(t)
    hi = xd + 42.0 * sig
    kinks = np.column_stack([np.full_like(t, xd / 2.0), np.full_like(t, xd), xd - 10.0 * sig])
    kinks[~((kinks > 0.0) & (kinks < hi[:, None]))] = np.nan
    breaks = np.column_stack([np.zeros_like(t), hi * 1e-6, hi * 1e-3, hi, kinks])
    breaks.sort(axis=1)  # NaN last
    repeated = breaks[:, 1:] == breaks[:, :-1]
    breaks[:, 1:][repeated] = np.nan
    breaks.sort(axis=1)

    def f(x: np.ndarray, row: np.ndarray) -> np.ndarray:
        ti = t[row]
        phi = np.exp(-((xd - x) ** 2) / (4.0 * ti)) / np.sqrt(4.0 * math.pi * ti)
        return phi * one_minus_scaled_I(gamma, xd * x / (2.0 * ti))

    tail = np.array([0.5 * math.erfc(v) for v in xd / (2.0 * sig)])
    return breaks, f, tail


def _mass_F(gamma: float, xd: float, t: np.ndarray, n: int) -> np.ndarray:
    """1 - (killed-BM mass) from height xd at times t, cancellation-free,
    at the fixed order n: all times go through one row rule."""
    breaks, f, tail = _defect_rows(gamma, xd, t)
    return integrate_rows(f, breaks, n) + tail


# tolerance of every knot of the mass interpolant
_MASS_TOL = 1e-11


def _mass_knots(gamma: float, u: np.ndarray) -> np.ndarray:
    """Killed-BM mass from height 1 at times u, each converged to
    :data:`_MASS_TOL` relative or :class:`NonConvergenceError` raised.

    Where the mass is below 1/2 it is the integral of the killed density
    q(u, 1, y) over y > 0, and 1 - (defect) above, so neither cancels.  Times
    from 1 on start with the density integral, the earlier ones with the
    defect; a time whose mass lands on the other side of 1/2 goes again.
    """
    direct = u >= 1.0
    mass = _mass_by(gamma, u, direct)
    wrong = (mass < 0.5) != direct
    if np.any(wrong):
        mass[wrong] = _mass_by(gamma, u[wrong], ~direct[wrong])
    return mass


def _mass_by(gamma: float, u: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """:func:`_mass_knots` at times u, by the density integral where
    ``direct`` and by the defect elsewhere."""
    out = np.empty_like(u)
    if np.any(direct):
        ud = u[direct]
        rows = []
        for ui in ud:
            hi = 1.0 + 42.0 * math.sqrt(ui)
            rows.append([0.0] + merge_breaks(geometric_breaks(hi * 1e-9, hi), [1.0], hi * 1e-9, hi))

        def q(y: np.ndarray, row: np.ndarray) -> np.ndarray:
            return _q_kernel_arr(gamma, 1, ud[row], 1.0, y, (1.0 - y) ** 2)

        spec = QuadratureSpec(rel_tol=_MASS_TOL, abs_tol=1e-300)
        out[direct] = converged_values(converge_rows(q, rows, spec))
    if not np.all(direct):
        breaks, f, tail = _defect_rows(gamma, 1.0, u[~direct])
        # the mass is at least 1/2: a defect error of tol/2 is tol of the mass
        spec = QuadratureSpec(rel_tol=_MASS_TOL, abs_tol=_MASS_TOL / 2.0)
        out[~direct] = 1.0 - (converged_values(converge_rows(f, breaks, spec)) + tail)
    return out


@_cached_by_rounded
def _mass_interp(gamma: float):
    """Interpolant of the log of the killed-BM mass from height 1 against
    log time, on u in [1e-9, 1e12] with panels 0.75 wide, and its tail.

    Returns ``(interpolant, eta, tail_coef)``: past 1e12 the mass is
    ``tail_coef * u^-eta``, its coefficient from the converged mass at 1e12.
    """
    def log_mass(v: np.ndarray) -> np.ndarray:
        return np.log(_mass_knots(gamma, np.exp(v)))

    u_hi = 1e12
    interp, at_ends = interpolate(log_mass, math.log(1e-9), math.log(u_hi), 0.75,
                                 _INTERP_TOL, "mass")
    eta = (gamma + 0.5) / 2.0  # large-time mass decay exponent
    tail_coef = math.exp(at_ends[-1]) * u_hi**eta
    return interp, eta, tail_coef


def _mass_eval(gamma: float, v: np.ndarray) -> np.ndarray:
    """Killed-BM mass from height 1 on an array of log-times v = log u, via
    the cached interpolant; its linear term before it, its power tail after.
    Any finite v is in range, although u itself may not be."""
    interp, eta, tail_coef = _mass_interp(gamma)
    v = np.asarray(v, dtype=float)
    out = np.exp(interp_eval(interp, v))
    small = v < interp.lo
    if np.any(small):
        out[small] = 1.0 - (4.0 * gamma * gamma - 1.0) / 4.0 * np.exp(v[small])
    big = v > interp.hi
    if np.any(big):
        out[big] = tail_coef * np.exp(-eta * v[big])
    return out


# ---------------------------------------------------------------------------
# subordinated quantities


def oracle_p(
    op: OracleParams,
    t: float,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    spec: QuadratureSpec | None = None,
) -> float:
    """Transition density of the subordinate process by time-change mixing."""
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-300)
    _check_cell(t, x, y)
    dist = x.distance_to(y)
    (val,) = _p_rows(op, [(t, x.height, y.height, dist * dist)], spec)
    if isinstance(val, NonConvergenceError):
        raise val
    return val


def _p_rows(op: OracleParams, cells: Sequence[tuple], spec: QuadratureSpec) -> list:
    """:func:`oracle_p` at each cell ``(t, x height, y height, squared
    distance)``, every cell a row of one :func:`converge_rows` call.

    Returns one entry per cell: its density, or the
    :class:`NonConvergenceError` of a cell whose orders ran out.
    """
    a = op.alpha / 2.0
    w_left, _, _ = _g_interp(a)
    tsc, rows = [], []
    for t, xd, yd, dist2 in cells:
        ts = _time_scale(t, a)
        s_lo = max(w_left * ts * 0.9, dist2 / 2800.0, 1e-300)
        scale = max(dist2, xd * yd, ts)
        s_hi = scale * 1e10
        if not (ts > 0.0 and s_hi / s_lo < math.inf):
            raise ValueError(
                f"the time change at t = {t}, heights {xd}, {yd} spans more than the float range"
            )
        inner = [v for v in (dist2, xd * yd, ts) if s_lo < v < s_hi]
        tsc.append(ts)
        rows.append(merge_breaks(geometric_breaks(s_lo, s_hi, 2.0), inner, s_lo, s_hi))
    _, xds, yds, dist2s = zip(*cells)
    tss, xds, yds, dist2s = (np.array(v, dtype=float) for v in (tsc, xds, yds, dist2s))
    gamma, d = op.gamma, op.dim

    def f(s: np.ndarray, row: np.ndarray) -> np.ndarray:
        # one cell takes its scalars as they are, several their per-node
        # values, each gathered only while it is needed
        def at(v: np.ndarray):
            return v[0] if len(v) == 1 else v[row]

        out = _q_kernel_arr(gamma, d, s, at(xds), at(yds), at(dist2s))
        ts = at(tss)
        out *= _g_eval(a, s / ts)
        out /= ts
        return out

    # near s = ts the integrand is about ts^(-1 - d/2), which passes the float
    # range for a tiny time scale (t ~ 1e-101 to 1e-150 at alpha = 1, d = 1)
    # although the density, about ts^(-d/2), does not
    try:
        with np.errstate(over="raise"):
            return converge_rows(f, rows, spec)
    except FloatingPointError:
        raise NonConvergenceError(
            f"the oracle integrand overflows at t = {min(c[0] for c in cells)!r}"
        ) from None


def oracle_J(
    op: OracleParams,
    x: HalfSpacePoint,
    y: HalfSpacePoint,
    spec: QuadratureSpec | None = None,
) -> float:
    """Jump kernel of the subordinate process: time integral against the
    subordinator's jump intensity.

    Where the time range would leave the float range, every length is scaled
    by a power of two that brings the largest near 1, and the scale goes
    back in log space: J(lam x, lam y) = lam^(-d-alpha) J(x, y).
    """
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-300)
    if x.height <= 0.0 or y.height <= 0.0:
        raise ValueError("interior points required")
    dist = x.distance_to(y)
    if dist == 0.0:
        raise ValueError("distinct points required")
    a, d, gamma = op.alpha / 2.0, op.dim, op.gamma
    _, k = math.frexp(max(dist, x.height, y.height))
    if abs(k) * (d + op.alpha + 2.0) <= 960.0:
        k = 0
    xd, yd, dist = (math.ldexp(v, -k) for v in (x.height, y.height, dist))
    dist2 = dist * dist
    nu_coef = a / math.gamma(1.0 - a)
    s_lo = dist2 / 2800.0
    scale = max(dist2, xd * yd)
    s_hi = scale * 1e12
    if not (s_lo > 0.0 and s_hi / s_lo < math.inf):
        raise ValueError(
            f"the jump kernel at heights {x.height}, {y.height} spans more than the float range"
        )
    inner = [v for v in (dist2, xd * yd) if s_lo < v < s_hi]

    def f(s: np.ndarray) -> np.ndarray:
        return _q_kernel_arr(gamma, d, s, xd, yd, dist2) * nu_coef * s ** (-1.0 - a)

    breaks = merge_breaks(geometric_breaks(s_lo, s_hi, 2.0), inner, s_lo, s_hi)
    try:
        with np.errstate(over="raise"):
            value = integrate_panels(f, breaks, spec)
    except FloatingPointError:
        raise NonConvergenceError(
            f"the jump-kernel integrand overflows at heights {x.height}, {y.height}"
        ) from None
    if k == 0 or value == 0.0:
        return value
    try:
        return math.exp(math.log(value) - k * (d + op.alpha) * math.log(2.0))
    except OverflowError:
        raise ValueError(
            f"the jump kernel at heights {x.height}, {y.height} passes the float range"
        ) from None


def oracle_kappa(
    op: OracleParams, x: HalfSpacePoint, spec: QuadratureSpec | None = None
) -> float:
    """Killing function of the subordinate process at x.

    The tangential Gaussians integrate to one exactly, so only the vertical
    mass defect enters.  Small times are handled by the exact linear
    leading term, large times by a power-law extrapolated mass tail.
    """
    spec = spec or QuadratureSpec(rel_tol=1e-8, abs_tol=1e-300)
    if x.height <= 0.0:
        raise ValueError("interior point required")
    a = op.alpha / 2.0
    gamma = op.gamma
    xd = x.height
    pref = a / math.gamma(1.0 - a)
    t0 = 1e-6 * xd * xd
    t1 = 1e7 * xd * xd

    breaks = geometric_breaks(t0, t1, 2.0)
    # exact leading mass defect below t0: F ~ (4 g^2 - 1)/(4 xd^2) t
    small = (4.0 * gamma * gamma - 1.0) / (4.0 * xd * xd) * t0 ** (1.0 - a) / (1.0 - a)
    eta = (gamma + 0.5) / 2.0

    def estimate(n: int) -> float:
        nodes, wts = panel_nodes(breaks, n)
        # the last row is t1, for the tail
        fvals = _mass_F(gamma, xd, np.append(nodes, t1), n=max(n, 24))
        body = float(np.dot(fvals[:-1] * nodes ** (-1.0 - a), wts))
        m1 = 1.0 - float(fvals[-1])
        tail = t1 ** (-a) / a - m1 * t1 ** (-a) / (a + eta)
        return pref * (body + small + tail)

    return converge(
        estimate, 16, spec.max_subdivisions, lambda v: 10.0 * spec.tol(v),
        "killing-function integral did not converge",
    )


def oracle_survival(op: OracleParams, xi: float, spec: QuadratureSpec | None = None) -> float:
    """Survival probability as a function of the boundary-scaled position
    xi = height / t^(1/alpha); scale invariance removes both arguments."""
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-300)
    if not 0.0 < xi < math.inf:
        raise ValueError(f"xi must be finite and > 0, got {xi}")
    a = op.alpha / 2.0
    gamma = op.gamma
    w_left, _, _ = _g_interp(a)
    lo = w_left * 0.9
    hi = 1e12
    log_xi2 = 2.0 * math.log(xi)

    def f(w: np.ndarray) -> np.ndarray:
        # the mass at time w / xi^2, in log time so xi^2 is never formed
        return _mass_eval(gamma, np.log(w) - log_xi2) * _g_eval(a, w)

    inner = [v for v in (xi * xi, 1.0) if lo < v < hi]
    breaks = merge_breaks(geometric_breaks(lo, hi, 2.0), inner, lo, hi)
    return integrate_panels(f, breaks, spec)


# the boundary-scaled positions of the survival fit
_FIT_XIS = np.geomspace(1e-3, 3e-2, 12)


def fit_survival_exponent(
    op: OracleParams, spec: QuadratureSpec | None = None
) -> tuple[float, float]:
    """Log-log slope of the survival probability deep in the boundary layer.

    Returns (exponent, R^2).  A measurement only: the exact exponent is
    :attr:`OracleParams.survival_exponent`, and over these positions the
    slope is within a few 1e-4 of it.
    """
    surv = np.array([oracle_survival(op, float(v), spec) for v in _FIT_XIS])
    lx = np.log(_FIT_XIS)
    ly = np.log(surv)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return float(slope), r2


def compare_oracle_vs_estimate(
    op: OracleParams,
    spec: QuadratureSpec | None = None,
    ts: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    xs: Optional[Sequence[float]] = None,
    ys: Optional[Sequence[float]] = None,
) -> tuple[ComparabilityReport, float, float]:
    """Ratio of the exact subordinate density to the closed-form killed
    estimate over a (t, x, y) grid; dim restricted to quadrature reach.

    The estimate takes the exact survival exponent gamma + 1/2.  Returns
    (report, q_fit, fit R^2), the last two from
    :func:`fit_survival_exponent` as a measurement beside the report.
    """
    report, _cells = _comparison(op, spec, ts, xs, ys)
    q_fit, r2 = fit_survival_exponent(op, spec)
    return report, q_fit, r2


def _comparison(op, spec, ts, xs, ys):
    """:func:`compare_oracle_vs_estimate`'s report and its cells, each
    ``(t, x height, y height, oracle, estimate)`` with t and the heights as
    floats; a cell whose oracle density did not converge holds the
    :class:`NonConvergenceError` in place of the oracle value."""
    if op.dim not in (1, 2):
        raise ValueError("full-quadrature comparison supports dim 1 and 2 only")
    if xs is None:
        xs = np.geomspace(0.05, 20.0, 20)
    if ys is None:
        ys = np.geomspace(0.05, 20.0, 20)
    for what, v in (("times", ts), ("heights", np.append(xs, ys))):
        v = np.asarray(v, dtype=float)
        if not np.all((v > 0.0) & (v < math.inf)):
            raise ValueError(f"{what} must be finite and > 0")
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-300)
    q = op.survival_exponent
    params = ModelParams(op.dim, op.alpha, (q, q, 0.0, 0.0))
    # x sits at tangential 0 and y at tangential (1, 0, ...): the differences
    # of HalfSpacePoint.distance_to
    lead = (-1.0,) if op.dim == 2 else ()
    rows = []  # per cell: t, x height, y height, squared distance
    cols = []  # per cell: time scale, x height, y height, distance
    for t in ts:
        u = _time_scale(float(t), op.alpha)
        for xh in xs:
            for yh in ys:
                xf, yf = float(xh), float(yh)
                dist = math.hypot(*lead, xf - yf)
                rows.append((float(t), xf, yf, dist * dist))
                cols.append((u, xf, yf, dist))
    nums = _p_rows(op, rows, spec)
    est = _hke_cells(params, *np.array(cols, dtype=float).T, q)[3].tolist()
    cells = [
        (t, xh, yh, num, None if isinstance(num, NonConvergenceError) else e)
        for (t, xh, yh, _), num, e in zip(rows, nums, est)
    ]
    report = ratio_report("oracle_vs_estimate", cells, _cell_ratio)
    return report, cells


def _cell_ratio(cell) -> float:
    """Oracle over estimate in one comparison cell; raises the cell's error."""
    t, x, y, num, den = cell
    if isinstance(num, NonConvergenceError):
        raise num
    if den == 0.0:
        raise ValueError(f"the estimate underflows to 0 at t = {t}, heights {x}, {y}")
    return num / den
