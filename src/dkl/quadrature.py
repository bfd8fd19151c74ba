"""Deterministic panel quadrature with endpoint grading.

Everything here is composite Gauss-Legendre on explicit panel breakpoints,
refined by doubling the per-panel order until two successive estimates
agree.  Breakpoints are deterministic functions of the problem scales, so
repeated runs are bit-identical.

One driver, :func:`refine_rows`, does every order-doubling refinement in
``dkl``: each row stops once ``abs(cur - prev) <= tol(cur)`` or holds a
:class:`NonConvergenceError` once its budget runs out.  The first two
orders, ``n0`` and ``2*n0``, share one call, which saves a call's fixed cost
on the many small integrals that stop at ``2*n0``.  :func:`converge` is its
one-row case.  :func:`integrate_panels` calls its integrand once on the
nodes of the orders asked, joined, so integrands must be pointwise: each
value depends only on its own node.

The row rule integrates many 1-D integrals at once, one per row, each over
its own breakpoints.  :func:`integrate_rows` takes the rows' breakpoints as
one 2-D array whose rows may end in NaN padding, or as a list of rows of
unequal lengths, which it pads with NaN; the padding is dropped, so
each row's value is bit-identical to integrating that row alone with
:func:`panel_nodes` and ``np.dot``.  Rows go in consecutive blocks
(:func:`row_blocks`) of at most :data:`BLOCK_ELEMENTS` nodes, a bound on the
memory of every array call.  The lower-level pieces serve callers that
need their own blocks: :func:`row_breaks` adds per-row kinks to shared
breakpoints, padding a missing kink into a zero-width panel so that rows
have equal length, :func:`row_nodes` lays out nodes as (rows, nodes per
row), :func:`row_dot` takes the per-row dot products and :func:`rows_at`
integrates a subset of NaN-padded rows at several orders, one call of the
integrand per block.

:func:`converge_rows` is :func:`integrate_panels` for every row of
NaN-padded breakpoints at once, refined by the same driver: every row's
value is the bits of :func:`integrate_panels` on that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "NonConvergenceError",
    "converge",
    "panel_nodes",
    "integrate_panels",
    "geometric_breaks",
    "power_graded_breaks",
    "BLOCK_ELEMENTS",
    "row_blocks",
    "row_breaks",
    "row_nodes",
    "row_dot",
    "rows_at",
    "integrate_rows",
    "converge_rows",
    "refine_rows",
]


class NonConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its budget without meeting tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and refinement limits for the quadrature routines."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2048

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 16:
            raise ValueError("max_subdivisions must be >= 16")

    def tol(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


@lru_cache(maxsize=64)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def converge(estimate: Callable[[int], float], n0: int, n_max: int,
             tol: Callable[[float], float], msg: str = "quadrature did not converge") -> float:
    """Refine ``estimate(n)`` over the orders n0, 2*n0, ... up to n_max.

    Returns the first estimate within ``tol(cur)`` of the one before it;
    raises :class:`NonConvergenceError` with ``msg`` once the orders run out.
    The one-row case of :func:`refine_rows`.
    """
    return _one_row(refine_rows(lambda live, orders: [[estimate(n)] for n in orders],
                                1, n0, n_max, tol, msg))


def _one_row(values: list) -> float:
    """The value of a one-row :func:`refine_rows`, or its error raised."""
    (value,) = values
    if isinstance(value, NonConvergenceError):
        raise value
    return value


def panel_nodes(breaks: Sequence[float], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each panel of ``breaks``.

    ``breaks`` may also be a 2-D array with one set of breakpoints per row;
    the nodes then come row after row, so reshape them to (rows, -1).
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim not in (1, 2) or breaks.shape[-1] < 2:
        raise ValueError("need at least two breakpoints")
    x, w = _gl(n)
    lo = breaks[..., :-1, None]
    hi = breaks[..., 1:, None]
    half = 0.5 * (hi - lo)
    nodes = (lo + half) + half * x[None, :]
    weights = half * w[None, :]
    return nodes.ravel(), weights.ravel()


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    breaks: Sequence[float],
    spec: QuadratureSpec,
    n0: int = 16,
) -> float:
    """Integrate a vectorized integrand over the given panels.

    The per-panel order doubles until two successive estimates agree to the
    spec tolerance; raises :class:`NonConvergenceError` past the refinement
    budget.

    ``f`` must be pointwise: each value depends only on its own node, not
    on the other nodes of the array.  The orders ``n0`` and ``2*n0`` share
    one call of ``f`` on both node sets joined (unless the budget stops
    short of ``2*n0``); each later order gets a call of its own.  The
    estimates are the same bits as with one call per order.
    """
    return _one_row(refine_rows(_panels_at(f, breaks), 1, n0, spec.max_subdivisions, spec.tol))


def _panels_at(f: Callable[[np.ndarray], np.ndarray], breaks: Sequence[float]):
    """The ``at`` of :func:`refine_rows` for the integral of a pointwise ``f``
    over ``breaks``: one call of ``f`` on the nodes of every order asked."""
    breaks = np.asarray(breaks, dtype=float)  # once, not once per order

    def at(live: Sequence[int], orders: tuple[int, ...]) -> list:
        nodes, wts = panel_nodes(breaks, orders[0])
        if len(orders) == 1:
            return [[float(np.dot(np.asarray(f(nodes), dtype=float), wts))]]
        nodes2, wts2 = panel_nodes(breaks, orders[1])
        vals = np.asarray(f(np.concatenate([nodes, nodes2])), dtype=float)
        return [[float(np.dot(vals[:len(nodes)], wts))], [float(np.dot(vals[len(nodes):], wts2))]]

    return at


# nodes per array call of the row rule; rows beyond it go in further blocks
BLOCK_ELEMENTS = 16384


def row_blocks(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive row ranges ``(start, stop)`` holding at most
    :data:`BLOCK_ELEMENTS` elements, ``sizes`` giving each row's count.

    A block takes rows while they fit; a row larger than the cap gets a
    block of its own.  Rows of equal size s thus go BLOCK_ELEMENTS // s
    (at least one) to a block.
    """
    ends = np.cumsum(sizes)
    out = []
    start = 0
    while start < len(ends):
        before = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, before + BLOCK_ELEMENTS, side="right")), start + 1)
        out.append((start, stop))
        start = stop
    return out


def row_breaks(base: Sequence[float], kinks: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """One row of breakpoints per row of ``kinks``: ``base`` plus that row's kinks.

    ``base`` runs from ``lo`` to ``hi``.  A kink outside (lo, hi) becomes
    ``hi``, whose zero-width panel has weight 0; a kink column outside for
    every row is dropped, so rows without kinks keep exactly ``base``.
    """
    inside = (kinks > lo) & (kinks < hi)
    kinks = np.where(inside, kinks, hi)[:, inside.any(axis=0)]
    out = np.empty((len(kinks), len(base) + kinks.shape[1]))
    out[:, :len(base)] = base
    out[:, len(base):] = kinks
    out.sort(axis=1)
    return out


def row_nodes(breaks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`panel_nodes` for 2-D ``breaks``, shaped (rows, nodes per row)."""
    nodes, wts = panel_nodes(breaks, n)
    return nodes.reshape(len(breaks), -1), wts.reshape(len(breaks), -1)


def row_dot(vals: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Per-row dot products, each bit-identical to ``np.dot`` of its row.

    ``wts`` has one row per row of ``vals``, or is one row shared by all.
    """
    return np.matmul(vals[:, None, :], wts[..., None])[:, 0, 0]


def integrate_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], breaks: np.ndarray, n: int
) -> np.ndarray:
    """One integral per row of ``breaks`` at Gauss-Legendre order n per panel.

    Row i runs over the panels of ``breaks[i]``, whose trailing entries may
    be NaN (at least two must not be); ``breaks`` may also be a list of
    rows of unequal lengths, padded with NaN.  For each block of rows from
    :func:`row_blocks`, ``f(x, row)`` is called once with the block's nodes
    ``x``, flat and row after row, and ``row``, the row index of each node;
    it returns the integrand at ``x``.  Each row's value is ``np.dot`` of
    its own values and weights, padding never enters.
    """
    edges, panels = _row_panels(breaks)
    return rows_at(f, edges, panels, np.arange(len(panels)), (n,))[0]


def _row_panels(breaks) -> tuple[np.ndarray, np.ndarray]:
    """The panels of NaN-padded row breakpoints, or of a list of rows of
    any lengths: their ends, shape (panels, 2) row after row, and each
    row's panel count."""
    if not isinstance(breaks, np.ndarray):
        rows = breaks
        breaks = np.full((len(rows), max(map(len, rows))), np.nan)
        for i, row in enumerate(rows):
            breaks[i, :len(row)] = row
    breaks = np.asarray(breaks, dtype=float)
    real = ~np.isnan(breaks[:, 1:])
    panels = np.count_nonzero(real, axis=1)
    if np.any(panels < 1) or np.any(np.isnan(breaks[:, 0])):
        raise ValueError("need at least two breakpoints per row")
    return np.stack([breaks[:, :-1][real], breaks[:, 1:][real]], axis=1), panels


def rows_at(f, edges: np.ndarray, panels: np.ndarray, rows: Sequence[int],
            orders: tuple[int, ...]) -> np.ndarray:
    """Integrals of the rows ``rows`` at each of ``orders``, shape
    (len(orders), len(rows)).

    ``edges`` holds the panel ends of every row, shape (panels, 2) row after
    row, and ``panels`` each row's panel count (:func:`_row_panels` makes
    both from NaN-padded breakpoints).  ``rows`` are sorted row indices;
    ``f(x, row)`` sees them as the row of each node.  For each block of rows
    all orders share one call of ``f``, on their nodes joined, and each
    row's value is ``np.dot`` of its own values and weights.
    """
    if len(rows) < len(panels):
        picked = np.zeros(len(panels), dtype=bool)
        picked[rows] = True
        edges, panels = edges[np.repeat(picked, panels)], panels[rows]
    out = np.empty((len(orders), len(panels)))
    ends = np.cumsum(panels)
    for start, stop in row_blocks(panels * sum(orders)):
        p = panels[start:stop]
        rules = [panel_nodes(edges[ends[start] - p[0]:ends[stop - 1]], n) for n in orders]
        x = rules[0][0] if len(orders) == 1 else np.concatenate([nodes for nodes, _ in rules])
        row = np.concatenate([np.repeat(rows[start:stop], p * n) for n in orders])
        vals = np.asarray(f(x, row), dtype=float)
        at = 0
        for k, (n, (_, wts)) in enumerate(zip(orders, rules)):
            out[k, start:stop] = _chunk_dots(vals[at:at + len(wts)], wts, p * n)
            at += len(wts)
    return out


def _chunk_dots(vals: np.ndarray, wts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``np.dot`` of ``vals`` and ``wts`` over consecutive chunks of ``sizes``.

    Chunks of equal size stack into one :func:`row_dot`, so each value is
    bit-identical to ``np.dot`` of its chunk alone.
    """
    if np.all(sizes == sizes[0]):
        return row_dot(vals.reshape(len(sizes), -1), wts.reshape(len(sizes), -1))
    out = np.empty(len(sizes))
    first = np.cumsum(sizes) - sizes
    for size in np.unique(sizes):
        pick = np.flatnonzero(sizes == size)
        idx = first[pick][:, None] + np.arange(size)
        out[pick] = row_dot(vals[idx], wts[idx])
    return out


def converge_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    breaks: np.ndarray,
    spec: QuadratureSpec,
) -> list:
    """:func:`integrate_panels` for each row of ``breaks``, all rows at once.

    ``f`` and ``breaks`` are as in :func:`integrate_rows`; the rows are
    refined by :func:`refine_rows`.  Each row's value is bit-identical to
    :func:`integrate_panels` on that row alone, and a row whose orders ran
    out holds the :class:`NonConvergenceError` that :func:`integrate_panels`
    would have raised.  A single row takes the ``at`` of
    :func:`integrate_panels`, which has less bookkeeping per order.
    """
    edges, panels = _row_panels(breaks)
    if len(panels) == 1:
        row = np.append(edges[:, 0], edges[-1, 1])
        at = _panels_at(lambda x: f(x, np.zeros(len(x), dtype=int)), row)
    else:
        def at(live: Sequence[int], orders: tuple[int, ...]) -> list:
            return rows_at(f, edges, panels, live, orders).tolist()
    return refine_rows(at, len(panels), 16, spec.max_subdivisions, spec.tol)


def refine_rows(
    at: Callable[[Sequence[int], tuple[int, ...]], list],
    rows: int,
    n0: int,
    n_max: int,
    tol: Callable[[float], float],
    msg: str = "quadrature did not converge",
) -> list:
    """Refine ``rows`` estimates, each on its own, over the orders n0,
    2*n0, ... up to n_max.

    ``at(live, orders)`` returns, per order, the list of the estimates of
    the rows ``live`` (sorted row indices, a sequence).  Orders n0 and 2*n0
    are asked for in one call (n0 alone if 2*n0 > n_max); after that only
    the rows still open, one order per call.  A row stops at the first
    order where ``abs(cur - prev) <= tol(cur)``.

    Returns a list with one entry per row: its value, or, for a row whose
    orders ran out, a :class:`NonConvergenceError` with ``msg``.
    """
    # each row's latest estimate, until it settles or its orders run out
    out: list = [None] * rows
    live = range(rows)
    n = 2 * n0
    if n > n_max:
        at(live, (n0,))
    else:
        prev, cur = at(live, (n0, n))
        while True:
            still = []
            for i, p, c in zip(live, prev, cur):
                out[i] = c
                if not abs(c - p) <= tol(c):
                    still.append(i)
            live = still
            n *= 2
            if not live or n > n_max:
                break
            prev = [out[i] for i in live]
            cur = at(live, (n,))[0]
    for i in live:
        out[i] = NonConvergenceError(f"{msg} (order {n} exceeds budget)")
    return out


def geometric_breaks(lo: float, hi: float, per_decade: float = 2.0) -> list[float]:
    """Geometrically spaced breakpoints on (lo, hi], lo > 0."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    n = max(1, int(math.ceil(math.log10(hi / lo) * per_decade)))
    ratio = (hi / lo) ** (1.0 / n)
    out = [lo]
    for _ in range(n - 1):
        out.append(out[-1] * ratio)
    out.append(hi)
    return out


def power_graded_breaks(lo: float, hi: float, grade: float, n: int = 8) -> list[float]:
    """Breakpoints on [lo, hi] clustered at ``lo`` with the given power grading."""
    if not (lo < hi):
        raise ValueError("need lo < hi")
    frac = (np.arange(n + 1) / n) ** grade
    return list(lo + (hi - lo) * frac)


def merge_breaks(base: Iterable[float], extra: Iterable[float], lo: float, hi: float) -> list[float]:
    """Sorted union of breakpoints clipped to (lo, hi), endpoints included."""
    pts = {lo, hi}
    for p in list(base) + list(extra):
        if lo < p < hi:
            pts.add(float(p))
    return sorted(pts)


def decaying_log_breaks(w_lo: float, w_hi: float, rate: float) -> list[float]:
    """Panels on [w_lo, w_hi] (log axis) for integrands behaving like exp(rate*w).

    Widths grow geometrically away from ``w_hi`` but are capped so that a
    16-point panel still resolves the exponential of the given rate.
    """
    if not (w_lo < w_hi):
        raise ValueError("need w_lo < w_hi")
    cap = 8.0 / max(rate, 1e-300)
    out = [w_hi]
    h = 0.5
    w = w_hi
    while w > w_lo:
        h = min(h * 2.0, cap)
        w = max(w - h, w_lo)
        out.append(w)
    out.reverse()
    return out
