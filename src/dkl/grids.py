"""The registry of frozen constants and their seeded sample sets.

``SWEEPS`` holds one :class:`dkl.report.Sweep` per frozen constant: the 16
lemma entries of :mod:`dkl.inequalities` and the other comparability
constants defined here.  Each entry gives its sample set, its per-sample
ratio and which extreme of the ratios is frozen.  The freezing script stores
each entry's measured extreme; the tests and the lemma checks hold the same
extreme to that value times 1.10 (divided by it for a floor), with no sample
excluded (see :mod:`dkl.report`).  The sample sets are deterministic.  For
the seeded per-index samplers a test's smaller count sweeps a prefix of the
freezing run's samples; for the grid entries (Bessel, stable mass, oracle)
the count sets the grid's resolution, so the tests sweep them at the
freezing run's count.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Iterator, Optional

import numpy as np

from . import oracle
from .geometry import (
    HalfSpacePoint,
    ModelParams,
    eval_A,
    stable_factor,
    standard_weight,
)
from .green import green_by_time_integration, green_estimate
from .heatkernel import (
    Regime,
    _bracket_terms,
    _time_scale,
    detect_regime,
    hke_closed,
    hke_unified,
    twojump_ball_integral,
)
from .inequalities import _eval_comp_AB, _quadruple, lemma_sweeps
from .quadrature import QuadratureSpec, integrate_panels
from .report import CEILING, FLOOR, ComparabilityReport, Sweep, sweep
from .special import bessel_I_scaled
from .util import log_uniform

STANDARD_SEED = 20260809


def _rng(tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([STANDARD_SEED, tag, i])


def _point(rng, dim: int) -> HalfSpacePoint:
    h = log_uniform(rng, 1e-3, 1e3)
    if dim == 1:
        return HalfSpacePoint(1, (), h)
    off = (log_uniform(rng, 1e-3, 1e3) - log_uniform(rng, 1e-3, 1e3),)
    return HalfSpacePoint(dim, off + (0.0,) * (dim - 2), h)


def standard_grid(n: int) -> Iterator[dict]:
    """The standard seeded grid: weight quadruple, time scale, point pair."""
    for i in range(n):
        rng = _rng(1, i)
        alpha = float(rng.uniform(0.15, 1.95))
        dim = int(rng.integers(1, 4))
        tsc = log_uniform(rng, 1e-3, 1e3)
        yield {
            "alpha": alpha,
            "dim": dim,
            "b": _quadruple(rng),
            "tsc": tsc,
            "t": tsc**alpha,
            "x": _point(rng, dim),
            "y": _point(rng, dim),
        }


def _regime_consistency(smp) -> Optional[float]:
    """The two-jump term, evaluated in the one-jump regime, over the one-jump term."""
    params = ModelParams(smp["dim"], smp["alpha"], smp["b"])
    if detect_regime(params) is not Regime.ONE_JUMP:
        return None
    x, y = smp["x"], smp["y"]
    dist = x.distance_to(y)
    if dist == 0.0:
        return None
    one, two = _bracket_terms(params, Regime.TWO_JUMP_STRICT, smp["tsc"], x, y, dist)
    return two / one if one > 0.0 else None


def _interior_ondiag(smp) -> Optional[float]:
    """The free value of deep, nearby pairs in units of the on-diagonal profile."""
    x, y, tsc = smp["x"], smp["y"], smp["tsc"]
    if x.distance_to(y) > tsc or min(x.height, y.height) < tsc:
        return None
    params = ModelParams(smp["dim"], smp["alpha"], smp["b"])
    return hke_closed(params, smp["t"], x, y, tscale=tsc).free_value * tsc ** smp["dim"]


QSPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-300)

UNIFIED_PARAM_SETS: dict[str, list[ModelParams]] = {
    "onejump": [
        ModelParams(1, 0.5, (1.0, 1.0, 0.5, 0.5)),
        ModelParams(2, 1.2, (0.0, 0.6, 0.0, 0.3)),
        ModelParams(1, 1.7, (2.0, 3.0, 1.0, 1.0)),
    ],
    "twojump": [
        ModelParams(1, 0.5, (1.0, 2.0, 0.5, 0.5)),
        ModelParams(2, 1.2, (0.0, 1.5, 0.0, 0.4)),
        ModelParams(1, 0.8, (0.5, 2.5, 1.0, 1.0)),
    ],
    "critical": [
        ModelParams(1, 0.5, (1.0, 1.5, 0.5, 0.5)),
        ModelParams(2, 1.2, (0.0, 1.2, 0.0, 0.4)),
        ModelParams(1, 0.8, (0.5, 1.3, 1.0, 1.0)),
    ],
}


def unified_points(regime: str, n: int):
    """Space-time points for the unified-vs-closed comparison, n per parameter set."""
    for params in UNIFIED_PARAM_SETS[regime]:
        w = standard_weight(params)
        for i in range(n):
            rng = _rng(2, i)
            tsc = log_uniform(rng, 1e-2, 1e2)
            yield params, w, tsc**params.alpha, _point(rng, params.dim), _point(rng, params.dim)


def _unified(smp) -> Optional[float]:
    params, w, t, x, y = smp
    if x.distance_to(y) == 0.0:
        return None
    return hke_unified(params, w, t, x, y, QSPEC) / hke_closed(params, t, x, y).free_value


def ball_samples(dim: int, n: int):
    """Two-jump-regime parameter/point tuples with |x-y| > 6 t^(1/alpha)."""
    i = 0
    k = 0
    while i < n:
        rng = _rng(3 + dim, k)
        k += 1
        alpha = float(rng.uniform(0.2, 1.8))
        b1 = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.05, 2.0))
        b2 = alpha + b1 + float(rng.uniform(0.05, 1.5))
        b3 = 0.0 if b1 == 0.0 else float(rng.uniform(0.0, 1.0))
        b4 = float(rng.uniform(0.0, 1.0))
        params = ModelParams(dim, alpha, (b1, b2, b3, b4))
        x = _point(rng, dim)
        y = _point(rng, dim)
        dist = x.distance_to(y)
        if dist <= 0.0:
            continue
        tsc = (dist / 6.0) * 10.0 ** (-rng.uniform(0.1, 3.0))
        yield params, tsc**alpha, x, y
        i += 1


def _ball(smp) -> float:
    """The mid-ball integral over the closed form of its second term."""
    params, t, x, y = smp
    val = twojump_ball_integral(params, standard_weight(params), t, x, y, QSPEC)
    u = _time_scale(t, params.alpha)
    _, closed = _bracket_terms(params, Regime.TWO_JUMP_STRICT, u, x, y, x.distance_to(y))
    return val / closed


GREEN_COMBOS: list[tuple[ModelParams, float, str]] = []
for _dim, _alpha in [(1, 0.6), (2, 1.0), (2, 1.5)]:
    _beta = (2.0, 0.5, 0.0, 0.0)
    _q_crit = _alpha + 0.5 * (_beta[0] + _beta[1])  # the phase transition
    for _q, _tag in [
        (max(_alpha - 1.0, 0.0) + 0.3, "q<qhat"),
        (_q_crit, "q=qhat"),
        (_q_crit + 0.5, "q>qhat"),
    ]:
        GREEN_COMBOS.append((ModelParams(_dim, _alpha, _beta), _q, _tag))


def green_geometry(idx: int, n: int):
    """Interior point pairs for the Green cross-check of one combination, scale-spanning."""
    params, q, _tag = GREEN_COMBOS[idx]
    dim = params.dim
    for i in range(n):
        rng = _rng(6 + dim, i)
        x = _point(rng, dim)
        y = _point(rng, dim)
        if x.distance_to(y) == 0.0:
            y = HalfSpacePoint(dim, y.tangential, y.height * 2.0 + 1.0)
        yield params, q, x, y


def _green(smp) -> float:
    params, q, x, y = smp
    return green_by_time_integration(params, q, x, y).value / green_estimate(params, q, x, y).value


ORACLE_CONFIGS = [(0.5, 1.0), (0.0, 0.6), (1.0, 1.4)]  # (gamma, alpha) in d = 1


@lru_cache(maxsize=None)
def oracle_fit(idx: int) -> tuple[float, float]:
    """Survival exponent and its fit R^2 for one oracle configuration,
    fitted once per process."""
    gamma, alpha = ORACLE_CONFIGS[idx]
    return oracle.fit_survival_exponent(oracle.OracleParams(gamma, 1, alpha), spec=QSPEC)


def _oracle_cells(idx: int, n: int) -> list:
    """The oracle comparison cells on an n x n grid of heights in [0.05, 20]."""
    gamma, alpha = ORACLE_CONFIGS[idx]
    heights = np.geomspace(0.05, 20.0, n)
    op = oracle.OracleParams(gamma, 1, alpha)
    ts = (0.25, 0.5, 1.0, 2.0, 4.0)
    return oracle._comparison(op, QSPEC, ts, heights, heights, oracle_fit(idx)[0])[3]


def interior_samples(a: float, n: int):
    """Samples with min height + t^(1/alpha) >= a |x-y| (interior regime)."""
    for i in range(n):
        rng = _rng(8, i)
        alpha = float(rng.uniform(0.15, 1.95))
        dim = int(rng.integers(1, 4))
        b = _quadruple(rng)
        x = _point(rng, dim)
        y = _point(rng, dim)
        dist = x.distance_to(y)
        if dist == 0.0:
            continue
        # enforce the interior condition, often only barely, so the recorded
        # constant reflects the tight corner rather than the deep interior
        need = a * dist - min(x.height, y.height)
        tsc = max(need, 0.0) + log_uniform(rng, 1e-4, 10.0) * a * dist
        yield {"a": a, "alpha": alpha, "b": b, "x": x, "y": y, "tsc": tsc, "t": tsc**alpha}


def _interior_lb(smp) -> float:
    val = eval_A(smp["b"], smp["t"], smp["x"], smp["y"], smp["alpha"], tscale=smp["tsc"])
    return val / min(smp["a"], 1.0) ** (smp["b"][0] + smp["b"][1])


def _stable_mass(d: int, alpha: float) -> float:
    """The mass of the stable profile at unit time (it is scale invariant in t)."""
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
    breaks = [0.0, 1.0, 10.0, 1e4, 1e8]
    if d == 1:
        return 2.0 * integrate_panels(
            lambda z: np.minimum(1.0, np.abs(z) ** (-(1.0 + alpha))), breaks, spec
        )
    return integrate_panels(
        lambda r: np.minimum(1.0, r ** (-(2.0 + alpha))) * 2.0 * math.pi * r, breaks, spec
    )


def _convolution_samples(n: int):
    rng = np.random.default_rng([STANDARD_SEED, 9])
    for _ in range(n):
        alpha = float(rng.uniform(0.2, 1.9))
        t = log_uniform(rng, 1e-3, 1e3)
        s = log_uniform(rng, 1e-3, 1e3)
        xv = log_uniform(rng, 1e-3, 1e3) * (1 if rng.random() < 0.5 else -1)
        yv = log_uniform(rng, 1e-3, 1e3) * (1 if rng.random() < 0.5 else -1)
        yield alpha, t, s, xv, yv


def _convolution(smp) -> float:
    """Two d = 1 stable profiles convolved, over the profile at the summed time."""
    alpha, t, s, xv, yv = smp

    def conv(z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        for i, zi in enumerate(z):
            out[i] = stable_factor(1, alpha, t, abs(xv - zi)) * stable_factor(
                1, alpha, s, abs(yv - zi)
            )
        return out

    span = abs(xv - yv) + (t ** (1 / alpha) + s ** (1 / alpha)) * 10 + 10
    breaks = sorted({xv, yv, xv - span, xv + span, yv - span, yv + span, (xv + yv) / 2})
    val = integrate_panels(conv, breaks, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-300))
    return val / stable_factor(1, alpha, t + s, abs(xv - yv))


def _bessel_samples(n: int):
    for g in (0.0, 0.5, 1.5, 3.0):
        for r in np.geomspace(1e-4, 50.0, n):
            yield g, r


def _bessel(smp) -> float:
    """The scaled modified Bessel function over its two-sided profile."""
    g, r = smp
    return bessel_I_scaled(g, float(r)) / (min(1.0, r) ** (g + 0.5) * r**-0.5)


SWEEPS: dict[str, Sweep] = lemma_sweeps()
SWEEPS["acc_comp_ab"] = Sweep(standard_grid, partial(_eval_comp_AB, spec=None), 10_000)
for _regime in UNIFIED_PARAM_SETS:
    SWEEPS[f"acc_unified_{_regime}"] = Sweep(partial(unified_points, _regime), _unified, 1000)
for _d in (1, 2):
    SWEEPS[f"acc_ball_d{_d}"] = Sweep(partial(ball_samples, _d), _ball, 200)
for _idx in range(len(GREEN_COMBOS)):
    SWEEPS[f"acc_green_{_idx}"] = Sweep(partial(green_geometry, _idx), _green, 100)
for _idx in range(len(ORACLE_CONFIGS)):
    SWEEPS[f"acc_oracle_{_idx}"] = Sweep(
        partial(_oracle_cells, _idx), oracle._cell_ratio, 20, skip_unconverged=True
    )
for _a in (0.1, 1.0, 10.0):
    SWEEPS[f"int_lb_a{_a:g}"] = Sweep(partial(interior_samples, _a), _interior_lb, 2000, FLOOR)
SWEEPS["acc_regime_consistency"] = Sweep(standard_grid, _regime_consistency, 4000, CEILING)
for _d in (1, 2):
    SWEEPS[f"acc_stableu1_d{_d}"] = Sweep(
        partial(np.linspace, 0.3, 1.9), partial(_stable_mass, _d), 9, CEILING
    )
SWEEPS["acc_stableu2_d1"] = Sweep(
    _convolution_samples, _convolution, 400, CEILING, skip_unconverged=True
)
SWEEPS["acc_interior_ondiag"] = Sweep(standard_grid, _interior_ondiag, 30_000, FLOOR)
SWEEPS["acc_bessel"] = Sweep(_bessel_samples, _bessel, 200)


def check_frozen(
    name: str, n: Optional[int] = None
) -> tuple[bool, float, float, ComparabilityReport]:
    """Sweep a named constant over n samples (the freezing run's count when
    n is None) against its frozen value.

    Returns (passed, measured value, bound, report); see
    :class:`dkl.report.ComparabilityReport` for the verdict.
    """
    rep = sweep(name, SWEEPS[name], n)
    return rep.passed, rep.value, rep.ceiling, rep
