"""The killing-constant map, its shape scan, and its inversion.

For admissible q the map is a weighted integral over the unit interval of

    (s^q - 1)(1 - s^(alpha-q-1)) / (1-s)^(1+alpha)

against the boundary weight evaluated at an interior point pair whose
heights are 1 and s; for dim >= 2 the weight is averaged over the
tangential offset first.  The integrand is singular at both endpoints:
near s = 1 it behaves like (1-s)^(1-alpha), handled by a power-graded
substitution (with explicit subtraction of the leading term for alpha >=
1.5); near s = 0 it behaves like s^(delta-1) with delta = alpha+beta1-q
possibly arbitrarily close to 0, handled on a logarithmic axis whose reach
is chosen from delta and beta3, with the power factors assembled in log
space so no intermediate quantity overflows.

The map is evaluated for many q at once, each q a row (``_c_rows``);
``compute_C`` is its one-row case and ``scan_shape`` passes its grid, its
midpoint and its zero checks in one call.  A row's left half has its own
log-axis breakpoints, since delta sets the reach, and the rows are laid out
one after another; the right half's nodes, Jacobian and weight do not
depend on q, so each public call computes them once per order, for all its
rows and Brent steps (``_MapWeight.right``).  Orders 16 and 32 share one
call, and each row stops at its own order by the rule of
``quadrature.refine_rows``, so a q's value is the same bits whatever else
is in the batch.

For dim >= 2 the order of integration is swapped: the map is the d = 1 map
with the weight replaced by its tangential average W(s), an integral over
theta = arctan(rho) carrying cos^alpha theta (:class:`_MapWeight`).  W does
not depend on q, so each call of ``compute_C``, ``solve_q`` or
``scan_shape`` builds it once and every q, Brent step and grid point then
costs a d = 1 evaluation.  On each half W comes from a checked piecewise
Chebyshev interpolant of converged theta integrals, built once per call.
Nothing is kept from one call to the next.
``solve_q`` and the zero refinement of ``scan_shape`` find roots with
Brent's method on a bracket.  ``scan_shape`` starts each from the tightest
bracket its one batch gives: the grid points around a sign change, narrowed
by the midpoint and zero checks that lie inside them.  A check that is
exactly 0, as C(0) and C(alpha - 1) usually are, ends the search there.

Each public function takes the whole model from its ``ModelParams``: beta
fixes the weight and ``kappa`` the level that ``solve_q`` inverts at.
``scan_shape`` always returns its table, and ``CShapeTable.passed`` says
whether the shape held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import ModelParams, diagonal_limit, weight_from_heights_arr
from .quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    converge_rows,
    converged_values,
    decaying_log_breaks,
    interp_eval,
    interpolate,
    panel_nodes,
    refine_rows,
    row_blocks,
    row_dot,
    rows_at,
)

__all__ = [
    "CShapeTable",
    "compute_C",
    "solve_q",
    "scan_shape",
]


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

    ``ln_c`` is log c, a number or an array shaped like ``wv``.  Valid for
    w <= log(1/2); stays accurate arbitrarily deep (w ~ -1e5) where e^w
    itself would underflow.  The power factors are formed in place, which
    keeps the arrays of a block few.
    """
    b1, b2, b3, b4 = b
    ln_dist = np.exp(wv)  # underflows harmlessly; only used via log1p
    np.negative(ln_dist, out=ln_dist)
    np.log1p(ln_dist, out=ln_dist)
    ln_dist += ln_c
    out = wv - ln_dist
    np.minimum(out, 0.0, out=out)
    out *= b1
    term = np.negative(ln_dist)
    np.minimum(term, 0.0, out=term)
    term *= b2
    out += term
    del term
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


def _right_values(u: np.ndarray, wvals: np.ndarray, wdiff: np.ndarray, jac: np.ndarray,
                  alpha: float, q, diag: float) -> np.ndarray:
    """Right-half integrand times du/dv at s = 1 - u, u <= 1/2, cancellation-free.

    Both numerator factors vanish linearly in u, so dividing them by u first
    keeps every intermediate finite: the remaining power is u^(1-alpha),
    which cannot overflow for alpha < 2.  For alpha >= 1.5 the leading term
    L diag u^(1-alpha) is left out here; :func:`_leading_term` is its
    integral.  ``wvals`` is the weight W and ``wdiff`` is W - diag, formed
    without cancellation by the caller.  ``q`` broadcasts against ``u``.

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
            pvals * wdiff
            + diag * _bracket_minus_limit(u, alpha, q, pvals)
        )
    return np.where(u > math.exp(-700.0 / (alpha - 1.0)), rem * jac, 0.0)


def _leading_term(alpha: float, q, diag: float):
    """Integral over u in (0, 1/2] of the term that alpha >= 1.5 subtracts."""
    coef = -q * (alpha - q - 1.0) * diag
    return coef * 0.5 ** (2.0 - alpha) / (2.0 - alpha)


_RIGHT_BREAKS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _sphere_area(k: int) -> float:
    """Surface area of the unit sphere in R^(k+1)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


# the tangential average's left half is interpolated on [_W_CUT, log(1/2)] in
# the variable log(-w), on panels at most _A_WIDTH wide; below _W_CUT it is
# constant, which each build checks at _W_DEEP.  Its right half is
# interpolated in sqrt(1/2 - u) for u in [_U_MIN, 1/2], on panels at most
# _R_WIDTH wide.  Below _U_MIN the interpolated ratio, analytic at u = 0,
# takes its value at _U_MIN; the term it scales is below _U_MIN W(1) there.
_W_CUT = -40.0
_W_DEEP = -1e4
_A_WIDTH = 0.5
_U_MIN = 1e-12
_R_WIDTH = 0.2


def _phi_rows(top: np.ndarray, kink: np.ndarray, alpha: float, tol: float) -> np.ndarray:
    """One row of breakpoints in phi = pi/2 - theta per entry of ``top``:
    [0, top] and the row's kink in it.  Toward phi = 0, where the integrand
    carries sin^alpha phi, the panels shrink fourfold down to a first panel
    of relative width (100 tol)^(1/(1+alpha)), which holds about 100 tol of
    the integral."""
    k = math.ceil(math.log(0.01 / tol) / ((1.0 + alpha) * math.log(4.0)))
    grading = np.append(0.0, 4.0 ** -np.arange(float(k), -1.0, -1.0))
    return np.sort(np.column_stack([top[:, None] * grading, kink]), axis=1)


class _MapWeight:
    """The weight of the map's s-integral, for one call of :func:`compute_C`,
    :func:`solve_q` or :func:`scan_shape`; nothing outlives the call.  Within
    it, the right half is built once per order tuple and reused by every
    batch of rows and every Brent step.

    In d = 1 it is B at heights (s, 1) and distance 1 - s.  In d >= 2 it is
    the tangential average, in phi = pi/2 - theta,

        W(s) = |S^(d-2)| int_0^(pi/2) cos^(d-2) phi sin^alpha phi
               B(s, 1, (1-s)/sin phi) dphi,

    and the map is the d = 1 map with W in place of B.  W is built here from
    two checked piecewise Chebyshev interpolants
    (:func:`quadrature.interpolate`), one per half of the s-range, each to
    a tenth of the call's rel_tol.  Each of their values is an integral in
    phi, converged by :func:`quadrature.converge_rows` to the same
    tolerance with at least the default order budget.  Either raises
    :class:`NonConvergenceError` where it falls short.

    ``log_left(x)`` is log W(e^x) on the left half, x <= log(1/2).  In d >= 2
    it interpolates A(w) = log W(e^w) - beta1 w - beta3 log log(e + e^-w) in
    the variable log(-w).  A is analytic on the left half but singular at
    w = 0, where the distance vanishes; equal panels in log(-w) are narrow
    next to it and wide where A flattens out.  Below ``_W_CUT`` A is
    constant to double precision; the build checks that at ``_W_DEEP``.

    ``right(orders)`` gives u = 1 - s, the Jacobian of u, W and W - W(1) at
    the right half's nodes of those orders.  W(1) is ``diag``; in d >= 2
    it is B's diagonal limit times
    |S^(d-2)| G((d-1)/2) G((alpha+1)/2) / (2 G((d+alpha)/2)), and W - W(1)
    is the integral of B - diag, which vanishes where the distance is below
    1 - u, so nothing cancels.  W - W(1) is interpolated as
    (W - W(1)) / (u^(1+alpha) W(1)), which is analytic in u at u = 0 and
    has a (1/2 - u)^(3/2) term at u = 1/2, where the kink distance = s
    enters the phi-range; the variable sqrt(1/2 - u) makes that term
    smooth.  For the same term the nodes are graded quadratically toward
    u = 1/2 as well: u = (1/2) v^g with v = 1 - (1 - t)^2.
    """

    def __init__(self, params: ModelParams, spec: QuadratureSpec):
        self.alpha, self.beta, self.dim = params.alpha, params.beta, params.dim
        self._diag1 = diagonal_limit(self.beta)
        self._right: dict[tuple[int, ...], tuple] = {}
        if self.dim == 1:
            self.diag = self._diag1
            return
        d, alpha = self.dim, self.alpha
        self._surface = _sphere_area(d - 2) if d > 2 else 2.0
        self.diag = self._diag1 * self._surface * math.gamma((d - 1) / 2.0) * math.gamma(
            (alpha + 1.0) / 2.0) / (2.0 * math.gamma((d + alpha) / 2.0))
        self._tol = tol = spec.rel_tol / 10.0
        self._budget = max(spec.max_subdivisions, QuadratureSpec().max_subdivisions)
        lo, hi = math.log(-math.log(0.5)), math.log(-_W_CUT)
        self._a, at_ends = interpolate(lambda v: self._a_values(-np.exp(v)), lo, hi, _A_WIDTH,
                                       tol, "tangential weight")
        deep = self._a_values(np.array([_W_DEEP]))[0]
        if not abs(deep - at_ends[-1]) <= tol:
            raise NonConvergenceError(
                f"tangential weight is not constant below w = {_W_CUT:g}: "
                f"off by {abs(deep - at_ends[-1]):.3g} at w = {_W_DEEP:g}")
        self._r, _ = interpolate(lambda v: self._r_values(0.5 - v * v), 0.0,
                                 math.sqrt(0.5 - _U_MIN), _R_WIDTH, tol, "tangential weight")

    def _norm(self, w: np.ndarray) -> np.ndarray:
        """beta1 w + beta3 log log(e + e^-w), overflow-free for w <= log(1/2)."""
        b1, b3 = self.beta[0], self.beta[2]
        out = b1 * w
        if b3 > 0.0:
            out += b3 * np.log(-w + np.log1p(np.exp(1.0 + w)))
        return out

    def _integrals(self, f, rows: np.ndarray, abs_tol: float) -> np.ndarray:
        """The integral of ``f`` over each row of ``rows`` in phi."""
        spec = QuadratureSpec(rel_tol=self._tol, abs_tol=abs_tol, max_subdivisions=self._budget)
        return np.array(converged_values(converge_rows(f, rows, spec, 8)))

    def _cos_power(self, phi: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """``vals`` times cos^(d-2) phi."""
        if self.dim > 2:
            vals *= np.cos(phi) ** (self.dim - 2)
        return vals

    def _a_values(self, wv: np.ndarray) -> np.ndarray:
        """A at each w of ``wv``."""
        alpha, beta = self.alpha, self.beta
        norm = self._norm(wv)
        # the distance crosses 1 at sin phi = 1 - s
        kink = math.pi / 2.0 - 2.0 * np.arcsin(np.sqrt(0.5 * np.exp(wv)))

        def f(phi: np.ndarray, row: np.ndarray) -> np.ndarray:
            # log sec theta = -log sin phi, formed in place to keep the
            # block's arrays few
            ln_c = np.log(np.sin(phi))
            np.negative(ln_c, out=ln_c)
            ln_b = _log_weight_left(beta, wv[row], ln_c)
            ln_b -= norm[row]
            ln_c *= alpha
            ln_b -= ln_c
            return self._cos_power(phi, np.exp(ln_b, out=ln_b))

        rows = _phi_rows(np.full(len(wv), math.pi / 2.0), kink, alpha, self._tol)
        # A is a log, so its tolerance is relative to W
        return np.log(self._surface * self._integrals(f, rows, 1e-300))

    def _r_values(self, u: np.ndarray) -> np.ndarray:
        """(W - W(1)) / (u^(1+alpha) W(1)) at each u of ``u``, 0 < u <= 1/2."""
        alpha, beta, diag1 = self.alpha, self.beta, self._diag1
        scale = self._surface / (u ** (1.0 + alpha) * self.diag)

        def f(phi: np.ndarray, row: np.ndarray) -> np.ndarray:
            sp = np.sin(phi)
            ur = u[row]
            b = weight_from_heights_arr(beta, 1.0 - ur, 1.0, ur / sp)
            return self._cos_power(phi, (b - diag1) * sp**alpha * scale[row])

        # B = diag where the distance u/sin phi is at most 1 - u; the other
        # kink is at distance 1.  The values are of order 1 and may pass
        # through 0, so the tolerance is absolute.
        rows = _phi_rows(np.arcsin(u / (1.0 - u)), np.arcsin(u), alpha, self._tol)
        return self._integrals(f, rows, self._tol)

    def log_left(self, x: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            return _log_weight_left(self.beta, x, 0.0)
        return interp_eval(self._a, np.log(-x)) + self._norm(x)

    def right(self, orders: tuple[int, ...]) -> tuple:
        """u, the Jacobian of u, W and W - W(1) at the right half's nodes of
        every order of ``orders``, joined, and each order's weights.

        None of these depend on q, so each ``orders`` is built once per
        instance and later calls return the same read-only arrays.
        """
        if orders not in self._right:
            arrays = self._right_arrays(orders)
            for a in (*arrays[:4], *arrays[4]):
                a.flags.writeable = False
            self._right[orders] = arrays
        return self._right[orders]

    def _right_arrays(self, orders: tuple[int, ...]) -> tuple:
        alpha, beta = self.alpha, self.beta
        rules = [panel_nodes(_RIGHT_BREAKS, n) for n in orders]
        t = np.concatenate([x for x, _ in rules])
        wts = [w for _, w in rules]
        if self.dim == 1:
            u, jac = _graded(t, alpha)
            # from u, not s: forming 1-s from s near 1 would lose all precision
            wvals = weight_from_heights_arr(beta, 1.0 - u, np.ones_like(u), u)
            return u, jac, wvals, wvals - self.diag, wts
        v = t * (2.0 - t)
        u, jac = _graded(v, alpha)
        jac *= 2.0 * (1.0 - t)
        wdiff = self.diag * u ** (1.0 + alpha) * interp_eval(self._r, np.sqrt(0.5 - u))
        return u, jac, self.diag + wdiff, wdiff, wts


def _c_rows(mw: _MapWeight, qs: Sequence[float], spec: QuadratureSpec) -> list:
    """The map at every q of ``qs`` at once, each q a row, with the weight
    ``mw``: in d >= 2 the d = 1 map with the tangential average.

    Each row is refined on its own by :func:`quadrature.refine_rows`, the
    rule of :func:`compute_C`, so its value is the same bits whatever else
    is in the batch.  The left half's breakpoints depend on q and are laid
    out row after row; the right half's nodes, Jacobian and weight do not,
    so every order computes them once for all rows.  Rows go in blocks of
    at most about ``quadrature.BLOCK_ELEMENTS`` nodes.  Every q must lie in
    (-1, alpha + beta1).  Returns one entry per q: C(q), or the
    :class:`NonConvergenceError` that :func:`compute_C` would raise.
    """
    alpha, beta, diag = mw.alpha, mw.beta, mw.diag
    qs = np.asarray(qs, dtype=float)
    bases = [_left_breaks(alpha, q, beta[0], beta[2]) for q in qs.tolist()]
    panels = np.array([len(b) - 1 for b in bases])
    edges = np.array([(lo, hi) for b in bases for lo, hi in zip(b[:-1], b[1:])])

    def left(x: np.ndarray, row: np.ndarray) -> np.ndarray:
        return _left_values(-x, alpha, qs[row], mw.log_left(x))

    def at(live: Sequence[int], orders: tuple[int, ...]) -> list:
        out = rows_at(left, edges, panels, live, orders)
        # right half: one set of nodes, Jacobian and weight for every row
        u, jac, wvals, wdiff, right_wts = mw.right(orders)
        for start, stop in row_blocks(np.full(len(live), len(u))):
            q = qs[live[start:stop]]
            rv = _right_values(u, wvals, wdiff, jac, alpha, q[:, None], diag)
            at_r = 0
            for k, wr in enumerate(right_wts):
                right = row_dot(rv[:, at_r:at_r + len(wr)], wr)
                if alpha >= 1.5:
                    right += _leading_term(alpha, q, diag)
                out[k, start:stop] += right
                at_r += len(wr)
        return out.tolist()

    return refine_rows(at, len(qs), 16, spec.max_subdivisions, spec.tol, _MSG)


def compute_C(params: ModelParams, q: float, spec: QuadratureSpec | None = None) -> float:
    """Evaluate the killing-constant map at q.

    Requires q strictly inside (-1, alpha + beta1), where the integral is
    finite.  For dim >= 2 the tangential average of the weight is built
    first (see :class:`_MapWeight`); the s-integral is then the d = 1 one.
    """
    spec = spec or QuadratureSpec()
    alpha = params.alpha
    beta = params.beta
    if not (-1.0 < q < alpha + beta[0]):
        raise ValueError(
            f"q must lie in (-1, alpha+beta1) = (-1, {alpha + beta[0]}), got {q}"
        )
    return _map_values(_MapWeight(params, spec), [q], spec)[0]


def _map_values(mw: _MapWeight, qs: list[float], spec: QuadratureSpec) -> list[float]:
    """C at every q of ``qs`` through one :func:`_c_rows` call; raises the
    first row's error, as a loop would."""
    return converged_values(_c_rows(mw, qs, spec))


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


def _solve_q(params: ModelParams, spec: QuadratureSpec | None) -> tuple[float, float]:
    """:func:`solve_q` together with the residual C(q) - kappa at its answer."""
    spec = spec or QuadratureSpec()
    kappa = params.kappa
    alpha = params.alpha
    top = alpha + params.beta[0]
    lo = max(alpha - 1.0, 0.0)
    if kappa == 0.0:
        return lo, 0.0
    g_lo = -kappa  # C vanishes at the branch start
    mw = _MapWeight(params, spec)

    def g(q: float) -> float:
        return _map_values(mw, [q], spec)[0] - kappa

    gap = (top - lo) / 2.0
    hi = top - gap
    while (g_hi := g(hi)) < 0.0:
        lo, g_lo = hi, g_hi
        gap /= 8.0
        if gap < 1e-12:
            raise NonConvergenceError(
                "no bracket below the divergence endpoint alpha+beta1"
            )
        hi = top - gap
    res_tol = max(spec.abs_tol, spec.rel_tol * (1.0 + kappa))
    return _bracketed_root(g, lo, g_lo, hi, g_hi, res_tol, lambda q: 1e-14 * max(1.0, abs(q)))


def solve_q(params: ModelParams, spec: QuadratureSpec | None = None) -> float:
    """Invert the killing-constant map on its increasing branch.

    Returns the unique q in [(alpha-1)_+, alpha+beta1) whose killing constant
    equals the model's kappa.  The upper bracket expands geometrically toward
    alpha+beta1, where the map diverges; Brent's method then narrows the
    bracket until |C(q) - kappa| <= max(abs_tol, rel_tol (1 + kappa)) or the
    bracket is narrower than 1e-14 max(1, |q|).
    """
    return _solve_q(params, spec)[0]


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


def _refine_zero(mw, spec, qa, qb, va, vb) -> float:
    # a sign change of C between grid points qa and qb (C(qa) = va, C(qb) = vb);
    # C == 0 or a bracket narrower than 1e-12 ends the search
    return _bracketed_root(
        lambda q: _map_values(mw, [q], spec)[0], qa, va, qb, vb, 0.0, lambda q: 1e-12
    )[0]


# the scan's grid stops this far inside (-1, alpha + beta1), where C diverges
_EDGE_MARGIN = 1e-3


def scan_shape(
    params: ModelParams, grid_size: int, spec: QuadratureSpec | None = None
) -> CShapeTable:
    """Sample the killing-constant map and check its qualitative shape.

    Checks monotone decrease up to (alpha-1)/2 and increase beyond, zeros at
    0 and alpha-1, and a nonpositive minimum at (alpha-1)/2, all up to
    quadrature noise.  The table records each check; a violation raises
    nothing, and :attr:`CShapeTable.passed` is false.

    The grid, the midpoint and the zero checks are one batch of the map.
    Each sign change between grid points is refined by Brent's method from
    the tightest bracket that batch gives, so a check where C is exactly 0
    is the zero itself.
    """
    spec = spec or QuadratureSpec()
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    alpha = params.alpha
    top = alpha + params.beta[0]
    qs = np.linspace(-1.0 + _EDGE_MARGIN, top - _EDGE_MARGIN, grid_size)
    q_mid = (alpha - 1.0) / 2.0
    # the zeros of C, where they lie inside the grid's span
    zs = [z for z in {min(alpha - 1.0, 0.0), max(alpha - 1.0, 0.0)}
          if -1.0 + _EDGE_MARGIN < z < top - _EDGE_MARGIN]
    # grid, midpoint and zero checks in one evaluation of the map
    mw = _MapWeight(params, spec)
    every = _map_values(mw, [*qs.tolist(), q_mid, *zs], spec)
    vals = np.array(every[:grid_size])
    c_mid = every[grid_size]
    scale = float(np.max(np.abs(vals)))
    noise = 10.0 * (spec.rel_tol * scale + spec.abs_tol)
    z_tol = 10.0 * spec.rel_tol * max(abs(c_mid), scale * 1e-3) + 10.0 * spec.abs_tol

    dec_ok = True
    inc_ok = True
    for i in range(len(qs) - 1):
        q0, q1 = float(qs[i]), float(qs[i + 1])
        v0, v1 = float(vals[i]), float(vals[i + 1])
        if q1 <= q_mid and not (v1 < v0 + noise):
            dec_ok = False
        if q0 >= q_mid and not (v1 > v0 - noise):
            inc_ok = False

    zeros_ok = not any(abs(v) > z_tol for v in every[grid_size + 1:])

    # the midpoint and zero checks narrow a sign change's grid bracket; one
    # that lands on C == 0 ends the search at once
    checked = list(zip([q_mid, *zs], every[grid_size:]))
    detected = []
    for i in range(len(qs) - 1):
        qa, qb, va, vb = float(qs[i]), float(qs[i + 1]), float(vals[i]), float(vals[i + 1])
        if (va < 0.0) != (vb < 0.0):
            for q, v in checked:
                if qa < q < qb:
                    if (v < 0.0) == (va < 0.0):
                        qa, va = q, v
                    else:
                        qb, vb = q, v
            detected.append(_refine_zero(mw, spec, qa, qb, va, vb))
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

    return CShapeTable(
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
