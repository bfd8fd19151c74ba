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

In d = 1 the map is evaluated for many q at once, each q a row
(``_c_rows``); ``compute_C`` is its one-row case and ``scan_shape`` passes
its grid, its midpoint and its zero checks in one call.  A row's left half
has its own log-axis breakpoints, since delta sets the reach, and the rows
are laid out one after another; the right half's nodes, Jacobian and
weight do not depend on q, so each order computes them once for all rows.
Orders 16 and 32 share one call, and each row stops at its own order by
the rule of ``quadrature.refine_rows``, so a q's value is the same bits
whatever else is in the batch.  Nothing is kept from one call to the next.

For dim >= 2 the outer integrand over theta = arctan(rho) carries
cos^alpha theta, singular at pi/2: its panels shrink fourfold toward pi/2
and its order is the inner order, so the convergence test refines both.
The s-integral takes a whole array of offsets, one row of breakpoints and
nodes per offset, through the row rule of :mod:`dkl.quadrature`: kinks are
padded into zero-width panels so that rows share a length, and rows go in
blocks of at most about ``quadrature.BLOCK_ELEMENTS`` elements.
``solve_q`` and the zero refinement of ``scan_shape`` find roots with
Brent's method on a bracket.
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
    panel_nodes,
    refine_rows,
    row_blocks,
    row_breaks,
    row_dot,
    row_nodes,
    rows_at,
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


_MSG = "killing-constant integral did not converge"


def _delta_eff(alpha: float, q: float, beta1: float) -> float:
    """Power of s in the s -> 0 integrand: s^(delta_eff - 1) up to logs."""
    return 1.0 + beta1 + min(0.0, q) + min(0.0, alpha - q - 1.0)


def _left_breaks(alpha: float, q: float, b1: float, b3: float) -> list[float]:
    """Log-axis breakpoints of the left half (0, 1/2] for one q.

    The reach is set by delta and beta3; the first breakpoint is its lower
    end and the last is log(1/2).
    """
    delta = _delta_eff(alpha, q, b1)
    reach = 60.0 + 3.0 * (b3 + 1.0) * max(math.log(60.0 / delta), 0.0)
    return decaying_log_breaks(-reach / delta, math.log(0.5), delta)


def _left_values(m: np.ndarray, alpha: float, q, ln_w: np.ndarray) -> np.ndarray:
    """Integrand * s on the log axis, s = exp(-m), assembled overflow-free.

    The two numerator factors are split into a bounded bracket and a pure
    exponential whose rate joins the weight's log so only exp of a
    nonpositive combination is ever taken.  ``ln_w`` is the log of the
    weight value along the pair; ``q`` is a number or an array of one q
    per node.
    """
    e2 = alpha - q - 1.0
    neg_q = q < 0.0
    neg_e2 = e2 < 0.0
    qm = np.abs(q) * m
    em = np.abs(e2) * m
    # the brackets: 1 - s^|q| in [0, 1) for q < 0, else s^q - 1 in (-1, 0];
    # -(1 - s^|e2|) in (-1, 0] for e2 < 0, else 1 - s^e2 in [0, 1); their
    # product is expm1(-qm) expm1(-em), negated unless one exponent is < 0
    fab = np.expm1(-qm) * np.expm1(-em)
    fab = np.where(neg_q != neg_e2, fab, -fab)
    ln_pow = np.where(neg_q, qm, 0.0) + np.where(neg_e2, em, 0.0)
    s = np.exp(-m)
    expo = ln_pow + ln_w - m - (1.0 + alpha) * np.log1p(-s)
    return fab * np.exp(expo)


def _log_weight_left(b, wv: np.ndarray, ln_c) -> np.ndarray:
    """log of the four-parameter weight at heights (e^w, 1), distance (1-e^w)c.

    ``ln_c`` is log c, broadcast against ``wv``.  Valid for w <= log(1/2);
    stays accurate arbitrarily deep (w ~ -1e5) where e^w itself would
    underflow.
    """
    b1, b2, b3, b4 = b
    s = np.exp(wv)  # underflows harmlessly; only used via log1p
    ln_dist = ln_c + np.log1p(-s)
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


def _grade(alpha: float) -> float:
    """Power of the right half's substitution u = 1 - s = (1/2) v^g."""
    return max(1.5, 2.0 / (2.0 - alpha))


def _graded(v: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """u = (1/2) v^g and du/dv: the power grading tames u^(1-alpha) at u = 0."""
    g = _grade(alpha)
    return 0.5 * v**g, (0.5 * g) * v ** (g - 1.0)


def _bracket_minus_limit(u: np.ndarray, alpha: float, q, pvals: np.ndarray) -> np.ndarray:
    """a1(u)*a2(u) - (-q)(alpha-q-1), stable down to u = 0.

    ``pvals`` is a1(u)*a2(u).  The direct difference loses all precision
    below u ~ 1e-6 (both factors approach their limits only linearly), so a
    two-term Taylor expansion takes over there; its leading coefficient is
    (3-alpha)/2 times the limit and never vanishes.
    """
    e2 = alpha - q - 1.0
    limit = (-q) * e2
    c1 = (3.0 - alpha) / 2.0
    c2 = (
        (1.0 - q) * (1.0 - e2) / 4.0
        + (1.0 / 3.0 - q / 2.0 + q * q / 6.0)
        + (1.0 / 3.0 - e2 / 2.0 + e2 * e2 / 6.0)
    )
    return np.where(u >= 1e-6, pvals - limit, limit * (c1 * u + c2 * u * u))


def _right_values(u: np.ndarray, wvals: np.ndarray, jac: np.ndarray, alpha: float, q,
                  diagonal_limit: float) -> np.ndarray:
    """Right-half integrand times du/dv at s = 1 - u, u <= 1/2, cancellation-free.

    Both numerator factors vanish linearly in u, so dividing them by u first
    keeps every intermediate finite: the remaining power is u^(1-alpha),
    which cannot overflow for alpha < 2.  For alpha >= 1.5 the leading term
    L diag u^(1-alpha) is left out here; :func:`_leading_term` is its
    integral.  ``q`` broadcasts against ``u``.

    Near alpha = 2 the grading sends the smallest u to 0 or below the
    normal range, where u^(1-alpha) overflows.  The remainder is
    O(u^(2-alpha)), 0 to double precision there, so it is 0 wherever
    u <= exp(-700/(alpha-1)).
    """
    ls = np.log1p(-u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pvals = (np.expm1(q * ls) / u) * (-np.expm1((alpha - q - 1.0) * ls) / u)
        if alpha < 1.5:
            return pvals * u ** (1.0 - alpha) * wvals * jac
        # remainder split so each bracket is individually cancellation-free:
        # K W - L diag u^(1-a) = u^(1-a) [P (W - diag) + diag (P - L)]
        rem = u ** (1.0 - alpha) * (
            pvals * (wvals - diagonal_limit)
            + diagonal_limit * _bracket_minus_limit(u, alpha, q, pvals)
        )
    return np.where(u > math.exp(-700.0 / (alpha - 1.0)), rem * jac, 0.0)


def _leading_term(alpha: float, q, diagonal_limit: float):
    """Integral over u in (0, 1/2] of the term that alpha >= 1.5 subtracts."""
    coef = -q * (alpha - q - 1.0) * diagonal_limit
    return coef * 0.5 ** (2.0 - alpha) / (2.0 - alpha)


_RIGHT_BREAKS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _s_value(
    alpha: float,
    q: float,
    beta: Sequence[float],
    c: np.ndarray,
    diagonal_limit: float,
    n: int,
) -> np.ndarray:
    """The s-integral at fixed panel order n, one value per entry of ``c``.

    The weight is taken along the pair with heights (1, s) at distance
    (1-s)*c, where c = sqrt(rho^2+1) for the tangential offset rho.  The
    offsets are evaluated together as (offset x node) arrays, in row blocks
    of at most about ``quadrature.BLOCK_ELEMENTS`` elements.
    """
    base_l = _left_breaks(alpha, q, beta[0], beta[2])
    w_lo, w_hi = base_l[0], base_l[-1]
    g = _grade(alpha)

    def block(cb: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            # distance crosses 1 at s* = 1 - 1/c: the log-factor form switches
            kinks_l = np.log(1.0 - 1.0 / cb)
        nodes_l, wts_l = row_nodes(row_breaks(base_l, kinks_l, w_lo, w_hi), n)
        ln_w = _log_weight_left(beta, nodes_l, np.log(cb))
        left = row_dot(_left_values(-nodes_l, alpha, q, ln_w), wts_l)

        # clamp and log-form switches at u* = 1/(1+c) and 1/c, kinks for u* < 1/2
        u_star = np.concatenate([1.0 / (1.0 + cb), 1.0 / cb], axis=1)
        kinks_r = (2.0 * u_star) ** (1.0 / g)
        v, wts_r = row_nodes(row_breaks(_RIGHT_BREAKS, kinks_r, 0.0, 1.0), n)
        u, jac = _graded(v, alpha)
        # from u, not s: forming 1-s from s near 1 would lose all precision
        wvals = weight_from_heights_arr(beta, 1.0 - u, np.ones_like(u), u * cb)
        right = row_dot(_right_values(u, wvals, jac, alpha, q, diagonal_limit), wts_r)
        if alpha >= 1.5:
            right += _leading_term(alpha, q, diagonal_limit)
        return left + right

    c = np.asarray(c, dtype=float)[:, None]
    # panels per row: the left base, the right base and at most three kinks
    sizes = np.full(len(c), n * (len(base_l) + len(_RIGHT_BREAKS) + 1))
    return np.concatenate([block(c[i:j]) for i, j in row_blocks(sizes)])


def _c_rows(params: ModelParams, qs: Sequence[float], w: BoundaryWeight,
            spec: QuadratureSpec) -> list:
    """The d = 1 map at every q of ``qs`` at once, each q a row.

    Each row is refined on its own by :func:`quadrature.refine_rows`, the
    rule of :func:`compute_C`, so its value is the same bits whatever else
    is in the batch.  The left half's breakpoints depend on q and are laid
    out row after row; the right half's nodes, Jacobian and weight do not,
    so every order computes them once for all rows.  Rows go in blocks of
    at most about ``quadrature.BLOCK_ELEMENTS`` nodes.  Every q must lie in
    (-1, alpha + beta1).  Returns one entry per q: C(q), or the
    :class:`NonConvergenceError` that :func:`compute_C` would raise.
    """
    alpha, beta = params.alpha, params.beta
    diag = w.diagonal_limit
    qs = np.asarray(qs, dtype=float)
    bases = [_left_breaks(alpha, q, beta[0], beta[2]) for q in qs.tolist()]
    panels = np.array([len(b) - 1 for b in bases])
    edges = np.array([(lo, hi) for b in bases for lo, hi in zip(b[:-1], b[1:])])

    def left(x: np.ndarray, row: np.ndarray) -> np.ndarray:
        return _left_values(-x, alpha, qs[row], _log_weight_left(beta, x, 0.0))

    def at(live: Sequence[int], orders: tuple[int, ...]) -> list:
        out = rows_at(left, edges, panels, live, orders)
        # right half: one set of nodes, Jacobian and weight for every row
        right_rules = [panel_nodes(_RIGHT_BREAKS, n) for n in orders]
        u, jac = _graded(np.concatenate([v for v, _ in right_rules]), alpha)
        # from u, not s: forming 1-s from s near 1 would lose all precision
        wvals = weight_from_heights_arr(beta, 1.0 - u, np.ones_like(u), u)
        for start, stop in row_blocks(np.full(len(live), len(u))):
            q = qs[live[start:stop]]
            rv = _right_values(u, wvals, jac, alpha, q[:, None], diag)
            at_r = 0
            for k, (_, wr) in enumerate(right_rules):
                right = row_dot(rv[:, at_r:at_r + len(wr)], wr)
                if alpha >= 1.5:
                    right += _leading_term(alpha, q, diag)
                out[k, start:stop] += right
                at_r += len(wr)
        return out.tolist()

    return refine_rows(at, len(qs), 16, spec.max_subdivisions, spec.tol, _MSG)


def _sphere_area(k: int) -> float:
    """Surface area of the unit sphere in R^(k+1)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


# the outer integrand carries cos^alpha theta, singular at theta = pi/2: panels
# shrink fourfold toward it, the last one 2.3e-8 wide
_OUTER_BREAKS = (
    [0.0, math.pi / 8, math.pi / 4]
    + [math.pi / 2 - (math.pi / 8) * 4.0**-k for k in range(13)]
    + [math.pi / 2]
)


def compute_C(
    params: ModelParams,
    q: float,
    w: BoundaryWeight,
    spec: QuadratureSpec | None = None,
) -> float:
    """Evaluate the killing-constant map at q.

    Requires q strictly inside (-1, alpha + beta1), where the integral is
    finite.  For dim >= 2 the outer rule over theta = arctan(rho) has panels
    shrinking fourfold toward pi/2 and the inner rule's order, so the
    convergence test refines both; all outer nodes of one order go through
    one batched s-integral.
    """
    spec = spec or QuadratureSpec()
    alpha = params.alpha
    beta = params.beta
    if not (-1.0 < q < alpha + beta[0]):
        raise ValueError(
            f"q must lie in (-1, alpha+beta1) = (-1, {alpha + beta[0]}), got {q}"
        )
    d = params.dim
    if d == 1:
        return _map_values(params, [q], w, spec)[0]

    diag = w.diagonal_limit
    surface = _sphere_area(d - 2) if d > 2 else 2.0

    def total_at(n: int) -> float:
        th, wts = panel_nodes(_OUTER_BREAKS, n)
        inner = _s_value(alpha, q, beta, np.hypot(np.tan(th), 1.0), diag, n)
        # rho^(d-2) (rho^2+1)^(-(d+alpha)/2) sec^2 == sin^(d-2) cos^alpha
        return surface * float(np.dot(wts * np.sin(th) ** (d - 2) * np.cos(th) ** alpha, inner))

    return converge(total_at, 16, spec.max_subdivisions, spec.tol, _MSG)


def _map_values(params: ModelParams, qs: list[float], w: BoundaryWeight,
                spec: QuadratureSpec) -> list[float]:
    """C at every q of ``qs``: one :func:`_c_rows` call in d = 1 (the
    d = 1 path of :func:`compute_C`), :func:`compute_C` per q otherwise.
    Raises the first row's error, as a loop would."""
    if params.dim != 1:
        return [compute_C(params, q, w, spec) for q in qs]
    values = _c_rows(params, qs, w, spec)
    for v in values:
        if isinstance(v, NonConvergenceError):
            raise v
    return values


def _bracketed_root(g, a: float, ga: float, b: float, gb: float, res_tol: float, width):
    """Brent's method (Brent 1973, ch. 4) for a root of g in the bracket [a, b].

    ``ga`` and ``gb`` are g(a) and g(b), of opposite signs (zero counts as
    positive).  Returns ``(x, g(x))`` at the better end of the bracket once
    ``|g(x)| <= res_tol`` or the bracket is narrower than ``width(x)``.  A
    step interpolates (secant or inverse quadratic) only when that lands
    inside the bracket and shrinks it fast enough; otherwise it bisects, so
    the bracket guarantee of bisection is kept.
    """
    c, gc = b, gb
    d = e = b - a
    while True:
        if (gb < 0.0) == (gc < 0.0):  # the root lies between a and b
            c, gc = a, ga
            d = e = b - a
        if abs(gc) < abs(gb):  # keep the better end in b
            a, b, c = b, c, b
            ga, gb, gc = gb, gc, gb
        w = width(b)
        m = 0.5 * (c - b)
        if abs(gb) <= res_tol or 2.0 * abs(m) < w:
            return b, gb
        min_step = 0.25 * w  # once the root is this close, one step closes the bracket
        if abs(e) >= min_step and abs(ga) > abs(gb):
            s = gb / ga
            if a == c:  # secant
                p, r = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic
                t, u = ga / gc, gb / gc
                p = s * (2.0 * m * t * (t - u) - (b - a) * (u - 1.0))
                r = (t - 1.0) * (u - 1.0) * (s - 1.0)
            if p > 0.0:
                r = -r
            p = abs(p)
            if 2.0 * p < min(3.0 * m * r - abs(min_step * r), abs(e * r)):
                e, d = d, p / r
            else:
                d = e = m
        else:
            d = e = m
        a, ga = b, gb
        b += d if abs(d) > min_step else math.copysign(min_step, m)
        gb = g(b)


def _solve_q(params, w, spec, kappa) -> tuple[float, float]:
    """:func:`solve_q` together with the residual C(q) - kappa at its answer."""
    spec = spec or QuadratureSpec()
    kappa = params.kappa if kappa is None else float(kappa)
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    alpha = params.alpha
    top = alpha + params.beta[0]
    lo = max(alpha - 1.0, 0.0)
    if kappa == 0.0:
        return lo, 0.0
    g_lo = -kappa  # C vanishes at the branch start
    gap = (top - lo) / 2.0
    hi = top - gap
    while (g_hi := compute_C(params, hi, w, spec) - kappa) < 0.0:
        lo, g_lo = hi, g_hi
        gap /= 8.0
        if gap < 1e-12:
            raise NonConvergenceError(
                "no bracket below the divergence endpoint alpha+beta1"
            )
        hi = top - gap
    res_tol = max(spec.abs_tol, spec.rel_tol * (1.0 + kappa))
    return _bracketed_root(
        lambda q: compute_C(params, q, w, spec) - kappa,
        lo, g_lo, hi, g_hi, res_tol, lambda q: 1e-14 * max(1.0, abs(q)),
    )


def solve_q(
    params: ModelParams,
    w: BoundaryWeight,
    spec: QuadratureSpec | None = None,
    kappa: Optional[float] = None,
) -> float:
    """Invert the killing-constant map on its increasing branch.

    Returns the unique q in [(alpha-1)_+, alpha+beta1) whose killing constant
    equals ``kappa`` (defaulting to the model's).  The upper bracket expands
    geometrically toward alpha+beta1, where the map diverges; Brent's method
    then narrows the bracket until |C(q) - kappa| <= max(abs_tol, rel_tol
    (1 + kappa)) or the bracket is narrower than 1e-14 max(1, |q|).
    """
    return _solve_q(params, w, spec, kappa)[0]


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


def _refine_zero(params, w, spec, qa, qb, va, vb) -> float:
    # a sign change of C between grid points qa and qb (C(qa) = va, C(qb) = vb);
    # C == 0 or a bracket narrower than 1e-12 ends the search
    return _bracketed_root(
        lambda q: compute_C(params, q, w, spec), qa, va, qb, vb, 0.0, lambda q: 1e-12
    )[0]


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
    q_mid = (alpha - 1.0) / 2.0
    # the zeros of C, where they lie inside the grid's span
    zs = [z for z in {min(alpha - 1.0, 0.0), max(alpha - 1.0, 0.0)}
          if -1.0 + edge_margin < z < top - edge_margin]
    # grid, midpoint and zero checks in one evaluation of the map
    every = _map_values(params, [*qs.tolist(), q_mid, *zs], w, spec)
    vals = np.array(every[:grid_size])
    c_mid = every[grid_size]
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

    zeros_ok = not any(abs(v) > z_tol for v in every[grid_size + 1:])

    detected = []
    for i in range(len(qs) - 1):
        if (vals[i] < 0.0) != (vals[i + 1] < 0.0):
            detected.append(
                _refine_zero(
                    params, w, spec, float(qs[i]), float(qs[i + 1]),
                    float(vals[i]), float(vals[i + 1]),
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
