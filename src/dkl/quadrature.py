"""Deterministic panel quadrature with endpoint grading.

Everything here is composite Gauss-Legendre on explicit panel breakpoints,
refined by doubling the per-panel order until two successive estimates
agree.  Breakpoints are deterministic functions of the problem scales, so
repeated runs are bit-identical.

Every order-doubling refinement in ``dkl`` goes through :func:`converge`,
which either meets its tolerance or raises :class:`NonConvergenceError`.
The one exception is ``heatkernel._tensor_integral``, which still returns
its last estimate once its order passes 96.
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
    """
    n = n0
    prev = estimate(n)
    while True:
        n *= 2
        if n > n_max:
            raise NonConvergenceError(f"{msg} (order {n} exceeds budget)")
        cur = estimate(n)
        if abs(cur - prev) <= tol(cur):
            return cur
        prev = cur


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
    """

    def estimate(n: int) -> float:
        nodes, weights = panel_nodes(breaks, n)
        return float(np.dot(np.asarray(f(nodes), dtype=float), weights))

    return converge(estimate, n0, spec.max_subdivisions, spec.tol)


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
