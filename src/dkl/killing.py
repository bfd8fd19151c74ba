"""The killing-constant map, its shape scan, and its inversion.

For admissible q the map is a weighted integral over the unit interval of

    (s^q - 1)(1 - s^(alpha-q-1)) / (1-s)^(1+alpha)

against the boundary weight evaluated at an interior point pair whose
heights are 1 and s; for dim >= 2 an outer integral over the tangential
offset is taken as well.  The integrand is singular at both endpoints:
near s = 1 it behaves like (1-s)^(1-alpha), handled by a power-graded
substitution (with explicit subtraction of the leading term for alpha >=
1.5); near s = 0 it behaves like s^(delta-1) with delta = alpha+beta1-q
possibly arbitrarily close to 0, handled on a logarithmic axis whose reach
is chosen from delta and beta3, with the power factors assembled in log
space so no intermediate quantity overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import BoundaryWeight, ModelParams, weight_from_heights_arr
from .quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    converge,
    decaying_log_breaks,
    merge_breaks,
    panel_nodes,
)

__all__ = [
    "CShapeTable",
    "ShapeViolationError",
    "compute_C",
    "solve_q",
    "scan_shape",
]


class ShapeViolationError(RuntimeError):
    """The sampled killing-constant map violated its expected shape."""

    def __init__(self, message: str, offending: list):
        super().__init__(message)
        self.offending = offending


def _delta_eff(alpha: float, q: float, beta1: float) -> float:
    """Power of s in the s -> 0 integrand: s^(delta_eff - 1) up to logs."""
    return 1.0 + beta1 + min(0.0, q) + min(0.0, alpha - q - 1.0)


def _left_values(m: np.ndarray, alpha: float, q: float, ln_w: np.ndarray) -> np.ndarray:
    """Integrand * s on the log axis, s = exp(-m), assembled overflow-free.

    The two numerator factors are split into a bounded bracket and a pure
    exponential whose rate joins the weight's log so only exp of a
    nonpositive combination is ever taken.  ``ln_w`` is the log of the
    weight value along the pair.
    """
    e2 = alpha - q - 1.0
    ln_pow = np.zeros_like(m)
    if q < 0.0:
        fa = -np.expm1(-abs(q) * m)  # 1 - s^|q| in [0, 1)
        ln_pow = ln_pow + abs(q) * m
    else:
        fa = np.expm1(-q * m)  # s^q - 1 in (-1, 0]
    if e2 < 0.0:
        fb = np.expm1(-abs(e2) * m)  # -(1 - s^|e2|) in (-1, 0]
        ln_pow = ln_pow + abs(e2) * m
    else:
        fb = -np.expm1(-e2 * m)  # 1 - s^e2 in [0, 1)
    s = np.exp(-m)
    expo = ln_pow + ln_w - m - (1.0 + alpha) * np.log1p(-s)
    return fa * fb * np.exp(expo)


def _log_weight_left(b, wv: np.ndarray, c: float) -> np.ndarray:
    """log of the four-parameter weight at heights (e^w, 1), distance (1-e^w)c.

    Valid for w <= log(1/2); stays accurate arbitrarily deep (w ~ -1e5)
    where e^w itself would underflow.
    """
    b1, b2, b3, b4 = b
    s = np.exp(wv)  # underflows harmlessly; only used via log1p
    ln_dist = math.log(c) + np.log1p(-s)
    out = b1 * np.minimum(wv - ln_dist, 0.0) + b2 * np.minimum(-ln_dist, 0.0)
    if b3 > 0.0:
        k3 = np.minimum(np.exp(ln_dist), 1.0)
        small = wv < -30.0
        arg = np.where(
            small,
            np.log(k3) - wv,
            np.log(math.e + k3 * np.exp(np.where(small, 0.0, -wv))),
        )
        out = out + b3 * np.log(arg)
    if b4 > 0.0:
        dist = np.exp(ln_dist)
        out = out + b4 * np.log(np.log(math.e + dist / np.minimum(dist, 1.0)))
    return out


def _bracket_minus_limit(u: np.ndarray, alpha: float, q: float) -> np.ndarray:
    """a1(u)*a2(u) - (-q)(alpha-q-1), stable down to u = 0.

    The direct difference loses all precision below u ~ 1e-6 (both factors
    approach their limits only linearly), so a two-term Taylor expansion
    takes over there; its leading coefficient is (3-alpha)/2 times the limit
    and never vanishes.
    """
    e2 = alpha - q - 1.0
    limit = (-q) * e2
    out = np.empty_like(u)
    big = u >= 1e-6
    if np.any(big):
        ub = u[big]
        ls = np.log1p(-ub)
        a1 = np.expm1(q * ls) / ub
        a2 = -np.expm1(e2 * ls) / ub
        out[big] = a1 * a2 - limit
    if np.any(~big):
        us = u[~big]
        c1 = (3.0 - alpha) / 2.0
        c2 = (
            (1.0 - q) * (1.0 - e2) / 4.0
            + (1.0 / 3.0 - q / 2.0 + q * q / 6.0)
            + (1.0 / 3.0 - e2 / 2.0 + e2 * e2 / 6.0)
        )
        out[~big] = limit * (c1 * us + c2 * us * us)
    return out


def _kernel_right(u: np.ndarray, alpha: float, q: float) -> np.ndarray:
    """Integrand kernel at s = 1 - u for u <= 1/2, written cancellation-free.

    Both numerator factors vanish linearly in u, so dividing them by u first
    keeps every intermediate finite: the remaining power is u^(1-alpha),
    which cannot overflow for alpha < 2.
    """
    ls = np.log1p(-u)
    a1 = np.expm1(q * ls) / u
    a2 = -np.expm1((alpha - q - 1.0) * ls) / u
    return a1 * a2 * u ** (1.0 - alpha)


def _s_value(
    alpha: float,
    q: float,
    beta: Sequence[float],
    c: float,
    diagonal_limit: float,
    n: int,
) -> float:
    """The s-integral at fixed panel order n for one tangential offset.

    The weight is taken along the pair with heights (1, s) at distance
    (1-s)*c, where c = sqrt(rho^2+1) for the tangential offset rho.
    """
    b1, b2, b3, b4 = beta
    delta = _delta_eff(alpha, q, b1)

    # left half (0, 1/2] on the log axis; reach set by delta and beta3
    reach = 60.0 + 3.0 * (b3 + 1.0) * max(math.log(60.0 / delta), 0.0)
    w_lo = -reach / delta
    w_hi = math.log(0.5)
    kinks = []
    if 1.0 < c <= 2.0:
        s_star = 1.0 - 1.0 / c  # distance crosses 1: log-factor form switches
        if 0.0 < s_star < 0.5:
            kinks.append(math.log(s_star))
    breaks_l = merge_breaks(decaying_log_breaks(w_lo, w_hi, delta), kinks, w_lo, w_hi)
    nodes_l, wts_l = panel_nodes(breaks_l, n)
    ln_w = _log_weight_left(beta, nodes_l, c)
    left = float(np.dot(_left_values(-nodes_l, alpha, q, ln_w), wts_l))

    # right half, u = 1 - s = (1/2) v^g: power grading tames u^(1-alpha)
    g = max(1.5, 2.0 / (2.0 - alpha))
    u_kinks = []
    for u_star in (1.0 / (1.0 + c), 1.0 / c):  # clamp and log-form switches
        if 0.0 < u_star < 0.5:
            u_kinks.append((2.0 * u_star) ** (1.0 / g))
    breaks_r = merge_breaks([0.0, 0.25, 0.5, 0.75, 1.0], u_kinks, 0.0, 1.0)
    nodes_r, wts_r = panel_nodes(breaks_r, n)
    v = nodes_r
    u = 0.5 * v**g
    jac = (0.5 * g) * v ** (g - 1.0)
    # from u, not s: forming 1-s from s near 1 would lose all precision
    wvals = weight_from_heights_arr(beta, 1.0 - u, np.ones_like(u), u * c)
    if alpha >= 1.5:
        # remainder split so each bracket is individually cancellation-free:
        # K W - L diag u^(1-a) = u^(1-a) [P (W - diag) + diag (P - L)]
        ls = np.log1p(-u)
        pvals = (np.expm1(q * ls) / u) * (-np.expm1((alpha - q - 1.0) * ls) / u)
        rem = u ** (1.0 - alpha) * (
            pvals * (wvals - diagonal_limit)
            + diagonal_limit * _bracket_minus_limit(u, alpha, q)
        )
        right = float(np.dot(rem * jac, wts_r))
        coef = -q * (alpha - q - 1.0) * diagonal_limit
        right += coef * 0.5 ** (2.0 - alpha) / (2.0 - alpha)
    else:
        vals = _kernel_right(u, alpha, q) * wvals
        right = float(np.dot(vals * jac, wts_r))
    return left + right


def _sphere_area(k: int) -> float:
    """Surface area of the unit sphere in R^(k+1)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


_OUTER_BREAKS = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]


def compute_C(
    params: ModelParams,
    q: float,
    w: BoundaryWeight,
    spec: QuadratureSpec | None = None,
) -> float:
    """Evaluate the killing-constant map at q.

    Requires q strictly inside (-1, alpha + beta1), where the integral is
    finite.
    """
    spec = spec or QuadratureSpec()
    alpha = params.alpha
    beta = params.beta
    if not (-1.0 < q < alpha + beta[0]):
        raise ValueError(
            f"q must lie in (-1, alpha+beta1) = (-1, {alpha + beta[0]}), got {q}"
        )
    d = params.dim
    diag = w.diagonal_limit

    msg = "killing-constant integral did not converge"
    if d == 1:
        return converge(
            lambda n: _s_value(alpha, q, beta, 1.0, diag, n),
            16, spec.max_subdivisions, spec.tol, msg,
        )

    surface = _sphere_area(d - 2) if d > 2 else 2.0

    def total_at(n_in: int) -> float:
        # the outer order grows at half the inner rate: the first test never sees it
        nodes, wts = panel_nodes(_OUTER_BREAKS, 32 * math.isqrt(n_in // 16))
        acc = 0.0
        for th, wt in zip(nodes, wts):
            rho = math.tan(th)
            c = math.hypot(rho, 1.0)
            inner = _s_value(alpha, q, beta, c, diag, n_in)
            # rho^(d-2) (rho^2+1)^(-(d+alpha)/2) sec^2 == sin^(d-2) cos^alpha
            acc += wt * inner * math.sin(th) ** (d - 2) * math.cos(th) ** alpha
        return surface * acc

    return converge(total_at, 16, spec.max_subdivisions, spec.tol, msg)


def solve_q(
    params: ModelParams,
    w: BoundaryWeight,
    spec: QuadratureSpec | None = None,
    kappa: Optional[float] = None,
) -> float:
    """Invert the killing-constant map on its increasing branch.

    Returns the unique q in [(alpha-1)_+, alpha+beta1) whose killing constant
    equals ``kappa`` (defaulting to the model's).  Bracketed bisection; the
    upper bracket expands geometrically toward alpha+beta1, where the map
    diverges.
    """
    spec = spec or QuadratureSpec()
    kappa = params.kappa if kappa is None else float(kappa)
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    alpha = params.alpha
    top = alpha + params.beta[0]
    lo = max(alpha - 1.0, 0.0)
    if kappa == 0.0:
        return lo
    gap = (top - lo) / 2.0
    hi = top - gap
    while compute_C(params, hi, w, spec) < kappa:
        lo = hi
        gap /= 8.0
        if gap < 1e-12:
            raise NonConvergenceError(
                "no bracket below the divergence endpoint alpha+beta1"
            )
        hi = top - gap
    res_tol = max(spec.abs_tol, spec.rel_tol * (1.0 + kappa))
    # the width test ends the loop within about 60 halvings of the bounded bracket
    while True:
        mid = 0.5 * (lo + hi)
        val = compute_C(params, mid, w, spec)
        if abs(val - kappa) <= res_tol or (hi - lo) < 1e-14 * max(1.0, abs(mid)):
            return mid
        if val < kappa:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class CShapeTable:
    """Sampled shape of the killing-constant map on a q-grid."""

    alpha: float
    qs: tuple[float, ...]
    values: tuple[float, ...]
    zeros: tuple[float, float]
    minimizer: float
    min_value: float
    decreasing_ok: bool
    increasing_ok: bool
    zeros_ok: bool
    min_ok: bool

    @property
    def passed(self) -> bool:
        return self.decreasing_ok and self.increasing_ok and self.zeros_ok and self.min_ok


def _refine_zero(params, w, spec, qa, qb, va) -> float:
    # sign changes lie in grid cells near the zeros 0 and alpha-1, where the
    # width test ends the loop within about 40 halvings
    while True:
        qm = 0.5 * (qa + qb)
        vm = compute_C(params, qm, w, spec)
        if vm == 0.0 or (qb - qa) < 1e-12:
            return qm
        if (va < 0.0) == (vm < 0.0):
            qa, va = qm, vm
        else:
            qb = qm


def scan_shape(
    params: ModelParams,
    w: BoundaryWeight,
    grid_size: int,
    spec: QuadratureSpec | None = None,
    strict: bool = True,
    edge_margin: float = 1e-3,
) -> CShapeTable:
    """Sample the killing-constant map and verify its qualitative shape.

    Checks monotone decrease up to (alpha-1)/2 and increase beyond, zeros at
    0 and alpha-1, and a nonpositive minimum at (alpha-1)/2, all up to
    quadrature noise.  With ``strict`` a violation raises
    :class:`ShapeViolationError` listing the offending grid pairs.
    """
    spec = spec or QuadratureSpec()
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    alpha = params.alpha
    top = alpha + params.beta[0]
    qs = np.linspace(-1.0 + edge_margin, top - edge_margin, grid_size)
    vals = np.array([compute_C(params, float(q), w, spec) for q in qs])

    q_mid = (alpha - 1.0) / 2.0
    c_mid = compute_C(params, q_mid, w, spec)
    scale = float(np.max(np.abs(vals)))
    noise = 10.0 * (spec.rel_tol * scale + spec.abs_tol)
    z_tol = 10.0 * spec.rel_tol * max(abs(c_mid), scale * 1e-3) + 10.0 * spec.abs_tol

    offending: list[tuple[float, float, float, float]] = []
    dec_ok = True
    inc_ok = True
    for i in range(len(qs) - 1):
        q0, q1 = float(qs[i]), float(qs[i + 1])
        v0, v1 = float(vals[i]), float(vals[i + 1])
        if q1 <= q_mid and not (v1 < v0 + noise):
            dec_ok = False
            offending.append((q0, v0, q1, v1))
        if q0 >= q_mid and not (v1 > v0 - noise):
            inc_ok = False
            offending.append((q0, v0, q1, v1))

    zeros_ok = True
    for z in {min(alpha - 1.0, 0.0), max(alpha - 1.0, 0.0)}:
        if -1.0 + edge_margin < z < top - edge_margin:
            if abs(compute_C(params, z, w, spec)) > z_tol:
                zeros_ok = False

    detected = []
    for i in range(len(qs) - 1):
        if (vals[i] < 0.0) != (vals[i + 1] < 0.0):
            detected.append(
                _refine_zero(
                    params, w, spec, float(qs[i]), float(qs[i + 1]), float(vals[i])
                )
            )
    if len(detected) >= 2:
        zeros = (detected[0], detected[-1])
    elif c_mid >= -z_tol:
        zeros = (q_mid, q_mid)
    elif len(detected) == 1:
        zeros = (detected[0], detected[0])
    else:
        zeros = (min(alpha - 1.0, 0.0), max(alpha - 1.0, 0.0))

    i_min = int(np.argmin(vals))
    minimizer = float(qs[i_min])
    min_value = float(vals[i_min])
    if c_mid < min_value:
        minimizer, min_value = q_mid, c_mid
    step = float(qs[1] - qs[0])
    min_ok = c_mid <= z_tol and abs(minimizer - q_mid) <= step + 1e-9

    table = CShapeTable(
        alpha=alpha,
        qs=tuple(float(q) for q in qs),
        values=tuple(float(v) for v in vals),
        zeros=(float(zeros[0]), float(zeros[1])),
        minimizer=minimizer,
        min_value=min_value,
        decreasing_ok=dec_ok,
        increasing_ok=inc_ok,
        zeros_ok=zeros_ok,
        min_ok=min_ok,
    )
    if strict and not table.passed:
        raise ShapeViolationError(
            f"shape verification failed (decrease={dec_ok}, increase={inc_ok}, "
            f"zeros={zeros_ok}, minimum={min_ok})",
            offending,
        )
    return table
