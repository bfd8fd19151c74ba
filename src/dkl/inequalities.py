"""Numerical verification corpus for the comparability and inequality lemmas.

Each lemma is one :class:`dkl.report.Sweep` of the frozen-constant registry
``dkl.grids.SWEEPS``.  Its samples are parameter tuples from the lemma's
admissible region (log-uniform over six decades per positive scale); its
ratio evaluates the left side by quadrature where it is an integral and the
right side in closed form.  One-sided claims freeze only the upper ratio;
two-sided claims also bound the lower one.
"""

from __future__ import annotations

import math
import zlib
from functools import partial

import numpy as np

from .geometry import (
    HalfSpacePoint,
    _clamped_weight,
    eval_A,
    eval_B,
    lift_ed,
    weight_from_heights,
    weight_from_heights_arr,
)
from .quadrature import (
    QuadratureSpec,
    decaying_log_breaks,
    geometric_breaks,
    integrate_panels,
    integrate_rows,
    merge_breaks,
    panel_nodes,
    power_graded_breaks,
)
from .report import CEILING, TWO_SIDED, ComparabilityReport, Sweep, sweep
from .util import log_uniform

__all__ = ["check", "lemma_ids", "lemma_sweeps"]

_E = math.e


# ---------------------------------------------------------------------------
# samplers


def _alpha(rng) -> float:
    return float(rng.uniform(0.15, 1.95))


def _expo(rng, zero_prob: float = 0.3, hi: float = 3.0) -> float:
    if rng.random() < zero_prob:
        return 0.0
    return float(rng.uniform(0.05, hi))


def _quadruple(rng) -> tuple[float, float, float, float]:
    b1 = _expo(rng)
    b2 = _expo(rng)
    b3 = _expo(rng) if b1 > 0.0 else 0.0
    b4 = _expo(rng) if b2 > 0.0 else 0.0
    return (b1, b2, b3, b4)


def _scale(rng) -> float:
    return log_uniform(rng, 1e-3, 1e3)


def _point_pair(rng, dim: int, around: float = 1.0):
    """Two interior points with heights and separation spanning the scales."""
    xd = _scale(rng) * around
    yd = _scale(rng) * around
    if dim == 1:
        return HalfSpacePoint(1, (), xd), HalfSpacePoint(1, (), yd)
    off = _scale(rng) * around
    pad = (0.0,) * (dim - 2)
    return (
        HalfSpacePoint(dim, (0.0,) + pad, xd),
        HalfSpacePoint(dim, (off,) + pad, yd),
    )


# ---------------------------------------------------------------------------
# simple scalar lemmas


def _sample_slowly_varying(rng) -> dict:
    return {"eps": log_uniform(rng, 1e-2, 1e2), "r": log_uniform(rng, 1.0, 1e6)}


def _eval_slowly_varying(p, spec):
    # assembled in logs: r^eps alone can overflow while the ratio is tiny
    log_ratio = (
        math.log(math.log(_E + p["r"]))
        - math.log(2.0 + 1.0 / p["eps"])
        - p["eps"] * math.log(p["r"])
    )
    return math.exp(max(log_ratio, -700.0))


def _sample_slowly_varying_2(rng) -> dict:
    return {
        "eps": log_uniform(rng, 1e-2, 1e2),
        "a": log_uniform(rng, 1.0, 1e6),
        "r": log_uniform(rng, 1e-6, 1e6),
    }


def _eval_slowly_varying_2(p, spec):
    log_ratio = (
        math.log(math.log(_E + p["a"] * p["r"]) / math.log(_E + p["r"]))
        - math.log(1.0 + 1.0 / p["eps"])
        - p["eps"] * math.log(p["a"])
    )
    return math.exp(max(log_ratio, -700.0))


# ---------------------------------------------------------------------------
# space-time weight comparisons


def _sample_weight_pair(rng) -> dict:
    alpha = _alpha(rng)
    dim = int(rng.integers(1, 4))
    x, y = _point_pair(rng, dim)
    tsc = _scale(rng)
    return {
        "alpha": alpha,
        "dim": dim,
        "b": _quadruple(rng),
        "x": x,
        "y": y,
        "t": tsc**alpha,
        "tsc": tsc,
    }


def _eval_comp_AB(p, spec):
    u = p["tsc"]
    num = eval_A(p["b"], p["t"], p["x"], p["y"], p["alpha"], tscale=u)
    den = eval_B(p["b"], lift_ed(p["x"], u), lift_ed(p["y"], u))
    return num / den


def _sample_kill_log(rng) -> dict:
    p = _sample_weight_pair(rng)
    b1 = float(rng.uniform(0.1, 3.0))
    b2 = float(rng.uniform(0.1, 3.0))
    b3 = _expo(rng)
    b4 = _expo(rng)
    p["b"] = (b1, b2, b3, b4)
    p["eps1"] = float(rng.uniform(0.05, 1.0)) * b1
    p["eps2"] = float(rng.uniform(0.05, 1.0)) * b2
    return p


def _eval_kill_log(p, spec):
    b1, b2, b3, b4 = p["b"]
    args = (p["t"], p["x"], p["y"], p["alpha"])
    kw = {"tscale": p["tsc"]}
    full = eval_A(p["b"], *args, **kw)
    r1 = full / eval_A((b1 - p["eps1"], b2, 0.0, b4), *args, **kw)
    reduced2 = (b1, b2 - p["eps2"], b3, 0.0)
    if reduced2[1] == 0.0 and b4 > 0.0:
        r2 = 0.0  # admissibility would fail; part applies with b4 dropped too
    else:
        r2 = full / eval_A(reduced2, *args, **kw)
    return max(r1, r2)


def _sample_kill_log_2(rng) -> dict:
    p = _sample_weight_pair(rng)
    b1 = float(rng.uniform(0.1, 3.0))
    b3 = _expo(rng)
    p["b"] = (b1, 0.0, b3, 0.0)
    return p


def _eval_kill_log_2(p, spec):
    u = p["tsc"]
    dist = p["x"].distance_to(p["y"])
    lhs = eval_A(p["b"], p["t"], p["x"], p["y"], p["alpha"], tscale=u)
    # the same weight (b1, 0, b3, 0) with x's clamped height in the first slot
    rhs = weight_from_heights(p["b"], max(p["x"].height, u), max(p["y"].height, u), dist)
    return lhs / rhs


# ---------------------------------------------------------------------------
# clamped time integrals


def _sample_cal_00(rng) -> dict:
    alpha = _alpha(rng)
    tsc = _scale(rng)
    t = tsc**alpha
    branch_k = rng.random() < 0.5
    if branch_k:
        gamma = float(rng.uniform(-3.0, alpha + 4.0))
        k = tsc * log_uniform(rng, 1.0, 1e3)
    else:
        gamma = float(rng.uniform(-3.0, alpha - 0.02))
        k = _scale(rng)
    return {
        "alpha": alpha,
        "t": t,
        "tsc": tsc,
        "gamma": gamma,
        "b": _expo(rng),
        "k": k,
        "l": _scale(rng),
    }


def _eval_cal_00(p, spec):
    alpha, t, g, b, k, l = p["alpha"], p["t"], p["gamma"], p["b"], p["k"], p["l"]
    ka = min(k**alpha, t)
    lhs = ka * math.log(_E + l / k) ** b
    if ka < t:

        def f(s: np.ndarray) -> np.ndarray:
            s1a = s ** (1.0 / alpha)
            return (k / s1a) ** g * np.log(_E + l / s1a) ** b

        lhs += integrate_panels(f, geometric_breaks(ka, t, 2.0), spec)
    rhs = t * min(k / p["tsc"], 1.0) ** g * math.log(_E + l / max(k, p["tsc"])) ** b
    return lhs / rhs


def _sample_cal_0(rng) -> dict:
    alpha = _alpha(rng)
    q = float(rng.uniform(0.0, alpha + 3.0))
    tsc = _scale(rng)
    # cycle through the four either/or sub-regions explicitly
    region = int(rng.integers(0, 4))
    if region in (0, 1):
        b1 = q - alpha + float(rng.uniform(0.05, 3.0))
        xd = _scale(rng) * tsc
    else:
        b1 = q - alpha - float(rng.uniform(0.0, 3.0))
        xd = tsc * log_uniform(rng, 1.0, 1e3)
    if region in (0, 2):
        b2 = q - alpha + float(rng.uniform(0.05, 3.0))
        yd = _scale(rng) * tsc
    else:
        b2 = q - alpha - float(rng.uniform(0.0, 3.0))
        yd = tsc * log_uniform(rng, 1.0, 1e3)
    return {
        "alpha": alpha,
        "q": q,
        "t": tsc**alpha,
        "tsc": tsc,
        "b1": b1,
        "b2": b2,
        "b3": _expo(rng),
        "b4": _expo(rng),
        "xd": xd,
        "yd": yd,
        "region": region,
    }


def _cal0_integrand(p):
    alpha, q = p["alpha"], p["q"]
    b1, b2, b3, b4 = p["b1"], p["b2"], p["b3"], p["b4"]
    xd, yd, t = p["xd"], p["yd"], p["t"]

    def f(s: np.ndarray) -> np.ndarray:
        rem = (t - s) ** (1.0 / alpha)
        s1a = s ** (1.0 / alpha)
        v = np.minimum(xd / rem, 1.0) ** (q - b1)
        v = v * np.minimum(yd / s1a, 1.0) ** (q - b2)
        if b3 > 0.0:
            v = v * np.log(_E + np.maximum(yd, s1a) / np.maximum(xd, rem)) ** b3
        if b4 > 0.0:
            v = v * np.log(_E + 1.0 / np.maximum(yd, s1a)) ** b4
        return v

    return f


def _cal0_breaks(p) -> list[float]:
    """Panels on [0, t] for the cal_0 and l_cal1 time integrals.

    The clamps switch at s = yd^alpha and s = t - xd^alpha.  Past its switch
    a clamped factor is a power of s (of t - s), so where the switch lies
    below t/2 the panels grade toward it, one break per two decades.
    """
    t, xa, ya = p["t"], p["xd"] ** p["alpha"], p["yd"] ** p["alpha"]
    inner = [v for v in (ya, t - xa, t / 2.0) if 0.0 < v < t]
    if ya < t / 2.0:
        inner += geometric_breaks(ya, t / 2.0, 0.5)
    if xa < t / 2.0:
        inner += [t - w for w in geometric_breaks(xa, t / 2.0, 0.5)]
    return merge_breaks([0.0, t], inner, 0.0, t)


def _eval_cal_0(p, spec):
    lhs = integrate_panels(_cal0_integrand(p), _cal0_breaks(p), spec)
    alpha, q = p["alpha"], p["q"]
    tsc, t = p["tsc"], p["t"]
    xd, yd = p["xd"], p["yd"]
    rhs = t * min(xd / tsc, 1.0) ** (q - p["b1"]) * min(yd / tsc, 1.0) ** (q - p["b2"])
    if p["b3"] > 0.0:
        rhs *= math.log(_E + max(yd, tsc) / max(xd, tsc)) ** p["b3"]
    if p["b4"] > 0.0:
        rhs *= math.log(_E + 1.0 / max(yd, tsc)) ** p["b4"]
    return lhs / rhs


def _sample_l_cal1(rng) -> dict:
    alpha = _alpha(rng)
    q = float(rng.uniform(0.0, alpha + 3.0))
    tsc = log_uniform(rng, 1e-3, 1.9)
    yd = log_uniform(rng, 1e-3, 1.9)
    region = int(rng.integers(0, 4))
    if region in (0, 1):
        b1 = q - alpha + float(rng.uniform(0.05, 3.0))
        xd = _scale(rng) * tsc
    else:
        b1 = q - alpha - float(rng.uniform(0.0, 3.0))
        xd = tsc * log_uniform(rng, 1.0, 1e3)
    if region in (0, 2):
        b2 = q - alpha + float(rng.uniform(0.05, 3.0))
    else:
        b2 = q - alpha - float(rng.uniform(0.0, 3.0))
        yd = tsc * log_uniform(rng, 1.0, min(1.9 / tsc, 1e3))
        if max(yd, tsc) >= 2.0:
            yd = min(yd, 1.9)
    return {
        "alpha": alpha,
        "q": q,
        "t": tsc**alpha,
        "tsc": tsc,
        "b1": b1,
        "b2": b2,
        "b3": _expo(rng),
        "b4": _expo(rng),
        "xd": xd,
        "yd": yd,
        "region": region,
    }


def _l_cal1_outer(p):
    """The outer integrand of l_cal1; the order-16 inner rules of all its
    times go in one row rule."""
    alpha, q = p["alpha"], p["q"]
    b1, b2, b3, b4 = p["b1"], p["b2"], p["b3"], p["b4"]
    xd, yd, t = p["xd"], p["yd"], p["t"]

    def inner_log(r: np.ndarray, au, bu) -> np.ndarray:
        v = np.ones_like(r)
        if b3 > 0.0:
            v = np.log(_E + r / au) ** b3 * np.log(_E + r / bu) ** b3
        if b4 > 0.0:
            v = v * np.log(_E + 1.0 / r) ** b4
        return v

    def outer(s: np.ndarray) -> np.ndarray:
        live = []
        for i, si in enumerate(s):
            rem = (t - si) ** (1.0 / alpha)
            s1a = si ** (1.0 / alpha)
            lo = max(yd, s1a)
            pref = (
                si
                * min(xd / rem, 1.0) ** (q - b1)
                * min(yd / s1a, 1.0) ** (q - b2)
            )
            if lo < 2.0 and pref != 0.0:
                live.append((i, pref, lo, max(xd, rem)))
        out = np.zeros_like(s)
        if live:
            idx, pref, au, bu = map(np.array, zip(*live))
            rows = [geometric_breaks(lo, 2.0, 3.0) for lo in au.tolist()]
            out[idx] = pref * integrate_rows(lambda r, row: inner_log(r, au[row], bu[row]) / r, rows, 16)
        return out

    return outer


def _eval_l_cal1(p, spec):
    alpha, q = p["alpha"], p["q"]
    b1, b2, b3, b4 = p["b1"], p["b2"], p["b3"], p["b4"]
    xd, yd, t, tsc = p["xd"], p["yd"], p["t"], p["tsc"]
    lhs = integrate_panels(_l_cal1_outer(p), _cal0_breaks(p), spec, n0=8)

    def rhs_inner(r: np.ndarray) -> np.ndarray:
        v = np.minimum(r**alpha, t)
        if b3 > 0.0:
            v = v * np.log(_E + r / max(xd, tsc)) ** b3 * np.log(_E + r / max(yd, tsc)) ** b3
        if b4 > 0.0:
            v = v * np.log(_E + 1.0 / r) ** b4
        return v / r

    inner_breaks = merge_breaks(geometric_breaks(yd, 2.0, 3.0), [tsc], yd, 2.0)
    rhs = (
        t
        * min(xd / tsc, 1.0) ** (q - b1)
        * min(yd / tsc, 1.0) ** (q - b2)
        * integrate_panels(rhs_inner, inner_breaks, spec)
    )
    return lhs / rhs


# ---------------------------------------------------------------------------
# half-space ball and shell integrals


def _sphere_slice(d: int):
    """Angular integral of f(height) over the unit sphere directions.

    Returns a callable T(r, x, f) computing, for each radius of the array
    ``r``, the surface integral of f(x + r * omega_d) over the unit sphere,
    restricted to positive heights; radial factors are left to the caller.
    Each radius's panel breaks are fixed fractions of its angular (d = 2) or
    height (d = 3) span, so one rule on [0, 1], scaled per radius, evaluates
    all radii as one (radius x node) array.
    """
    if d == 1:

        def T(r: np.ndarray, x: float, f) -> np.ndarray:
            total = f(x + r)
            low = x - r
            total[low > 0.0] += f(low[low > 0.0])
            return total

        return T

    if d == 2:
        # the height x + r sin(phi) is symmetric about phi = pi/2, so one half
        # of the circle is integrated and doubled; its minimum-height end gets
        # graded panels since f may spike there
        fn, fw = panel_nodes(power_graded_breaks(0.0, 0.5, 3.0, 5) + [0.625, 0.75, 0.875, 1.0], 20)

        def T(r: np.ndarray, x: float, f) -> np.ndarray:
            phi0 = -np.arcsin(np.minimum(x / r, 1.0))
            span = (math.pi / 2.0 - phi0)[:, None]
            h = x + r[:, None] * np.sin(phi0[:, None] + span * fn)
            mask = h > 0.0
            vals = np.zeros_like(h)
            vals[mask] = f(h[mask])
            return 2.0 * np.sum(vals * (span * fw), axis=1)

        return T

    even_n, even_w = panel_nodes(np.linspace(0.0, 1.0, 9), 16)
    graded_n, graded_w = panel_nodes(power_graded_breaks(0.0, 1.0, 3.0, 8), 16)

    def T(r: np.ndarray, x: float, f) -> np.ndarray:
        # height substitution: d sigma = (2 pi / r) dh on the 2-sphere; the
        # height range is graded toward the boundary when it reaches it
        lo = np.maximum(x - r, 0.0)
        span = (x + r - lo)[:, None]
        touch = (lo == 0.0)[:, None]
        nodes = lo[:, None] + span * np.where(touch, graded_n, even_n)
        wts = span * np.where(touch, graded_w, even_w)
        return np.sum(f(nodes) * wts, axis=1) * 2.0 * math.pi / r

    return T


def _sample_cal_new1(rng) -> dict:
    return {
        "dim": int(rng.integers(1, 4)),
        "xd": _scale(rng),
        "A": _scale(rng),
    }


def _eval_cal_new1(p, spec):
    d, xd, A = p["dim"], p["xd"], p["A"]
    vols = {1: 2.0, 2: 2.0, 3: math.pi}
    lo = max(xd - A, 0.0)
    hi = xd + A

    def f(z: np.ndarray) -> np.ndarray:
        if d == 1:
            return z**-0.5
        width = np.sqrt(np.maximum(A * A - (z - xd) ** 2, 0.0))
        return z**-0.5 * vols[d] * width ** (d - 1)

    if lo == 0.0:
        # z = v^2 removes the inverse square-root endpoint exactly
        def g(v: np.ndarray) -> np.ndarray:
            return f(v * v) * 2.0 * v

        lhs = integrate_panels(g, np.linspace(0.0, math.sqrt(hi), 7), spec)
    else:
        lhs = integrate_panels(f, np.linspace(lo, hi, 7), spec)
    rhs = A**d * max(xd, A) ** -0.5
    return lhs / rhs


def _sample_cal_new2(rng) -> dict:
    part = int(rng.integers(0, 2))
    d = int(rng.integers(1, 4))
    xd = _scale(rng)
    if part == 0:
        A = xd / log_uniform(rng, 1.0 + 1e-9, 1e3)
        return {"part": 0, "dim": d, "xd": xd, "A": A, "alpha": _alpha(rng)}
    A = xd * log_uniform(rng, 1.0, 1e3)
    return {
        "part": 1,
        "dim": d,
        "xd": xd,
        "A": A,
        "eps": float(rng.uniform(0.05, 0.95)),
        "delta": log_uniform(rng, 1e-2, 3.0),
    }


def _eval_cal_new2(p, spec):
    d, xd, A = p["dim"], p["xd"], p["A"]
    T = _sphere_slice(d)
    if p["part"] == 0:
        alpha = p["alpha"]

        def shell(r: np.ndarray) -> np.ndarray:
            return T(r, xd, lambda h: h**-0.5) * r ** (d - 1.0 - d - alpha)

        # split where the sphere grazes the boundary: the top piece carries an
        # inverse square-root of (xd - r), removed by r = xd - v^2
        r_star = xd - min((xd - A) / 2.0, xd / 2.0)
        lhs = integrate_panels(shell, np.linspace(A, r_star, 5), spec, n0=8)

        def top(v: np.ndarray) -> np.ndarray:
            return shell(xd - v * v) * 2.0 * v

        v_hi = math.sqrt(xd - r_star)
        lhs += integrate_panels(top, np.linspace(0.0, v_hi, 5), spec, n0=8)
        rhs = xd**-0.5 * A**-alpha
        return lhs / rhs
    eps, delta = p["eps"], p["delta"]

    def shell_w(wv: np.ndarray) -> np.ndarray:
        # r = A e^(-w) maps the infinite shell onto the log axis; the
        # integrand decays like e^((eps+delta) w) toward -inf
        r = A * np.exp(-wv)
        return T(r, xd, lambda h: h**-eps) * r ** (d - 1.0 - d - delta) * r

    rate = eps + delta
    # reach capped so the radius stays representable; the omitted tail is a
    # (R/A)^-(eps+delta) <= 1e-16 relative fraction
    w_lo = max(-60.0 / rate, math.log(A) - 640.0)
    breaks = decaying_log_breaks(w_lo, 0.0, rate)
    lhs = integrate_panels(shell_w, breaks, spec, n0=8)
    rhs = A ** (-eps - delta)
    return lhs / rhs


def _f_profile(gamma, e1, e2, k, l, r):
    out = r**gamma
    if e1 > 0.0:
        out = out * np.log(_E + k / r) ** e1
    if e2 > 0.0:
        out = out * np.log(_E + r / l) ** e2
    return out


def _sample_cal_basic(rng) -> dict:
    return {
        "gamma": _expo(rng),
        "e1": _expo(rng),
        "e2": _expo(rng),
        "k": _scale(rng),
        "l": _scale(rng),
        "r": _scale(rng),
        "a": log_uniform(rng, 1.0, 1e6),
        "eps": log_uniform(rng, 1e-2, 1e1),
    }


def _eval_cal_basic(p, spec):
    g, e1, e2, k, l, r, a, eps = (
        p["gamma"], p["e1"], p["e2"], p["k"], p["l"], p["r"], p["a"], p["eps"],
    )
    ratio = float(_f_profile(g, e1, e2, k, l, np.array([a * r]))[0]) / float(
        _f_profile(g, e1, e2, k, l, np.array([r]))[0]
    )
    return ratio / a ** (g - eps), ratio / a ** (g + eps)


def _sample_cal_2(rng) -> dict:
    alpha = _alpha(rng)
    b1 = _expo(rng)
    case = int(rng.integers(0, 3))
    if case == 0:
        gamma = float(rng.uniform(0.0, alpha + b1))
    elif case == 1:
        gamma = alpha + b1
    else:
        gamma = alpha + b1 + float(rng.uniform(0.05, 2.0))
    return {
        "dim": int(rng.integers(1, 4)),
        "alpha": alpha,
        "b1": b1,
        "b2": _expo(rng),
        "gamma": gamma,
        "e1": _expo(rng),
        "e2": _expo(rng),
        "k": _scale(rng),
        "l": _scale(rng),
        "s": _scale(rng) ** alpha,
        "xd": _scale(rng),
        "case": case,
    }


def _eval_cal_2(p, spec):
    d, alpha = p["dim"], p["alpha"]
    b1, b2, gamma = p["b1"], p["b2"], p["gamma"]
    e1, e2, k, l, s, xd = p["e1"], p["e2"], p["k"], p["l"], p["s"], p["xd"]
    u = s ** (1.0 / alpha)
    xu = max(xd, u)
    T = _sphere_slice(d)

    def shell(r: np.ndarray) -> np.ndarray:
        v = np.minimum(xu / r, 1.0) ** b1
        if b2 > 0.0:
            v = v * np.log(_E + r / np.minimum(xu, r)) ** b2
        radial = v * np.minimum(s ** (-d / alpha), s * r ** (-d - alpha)) * r ** (d - 1)
        return radial * T(r, xd, lambda h: _f_profile(gamma, e1, e2, k, l, h))

    inner = [v for v in (xd, u, xu, 2.0 * xd) if 0.0 < v < 2.0]
    if d == 1 and xd < 2.0:
        # f(xd - r) carries (xd - r)^gamma: grade toward r = xd from below
        inner += [xd - v for v in geometric_breaks(xd * 1e-8, xd / 2.0, 1.0)]
    breaks = merge_breaks(geometric_breaks(2e-5, 2.0, 2.0), inner, 0.0, 2.0)
    lhs = integrate_panels(shell, breaks, spec, n0=8)

    rhs = float(_f_profile(gamma, e1, e2, k, l, np.array([xu]))[0])
    if xu < 2.0:
        extra = 0.0
        if gamma > alpha + b1:
            extra = (
                math.log(_E + 2.0 / xu) ** b2
                * math.log(_E + k) ** e1
                * math.log(_E + 1.0 / l) ** e2
            )
        elif gamma == alpha + b1:

            def crit(r: np.ndarray) -> np.ndarray:
                v = np.ones_like(r)
                if b2 > 0.0:
                    v = np.log(_E + r / xu) ** b2
                if e1 > 0.0:
                    v = v * np.log(_E + k / r) ** e1
                if e2 > 0.0:
                    v = v * np.log(_E + r / l) ** e2
                return v / r

            extra = integrate_panels(crit, geometric_breaks(xu, 2.0, 3.0), spec)
        rhs += s * xu**b1 * extra
    return lhs / rhs


def _sample_cal_3(rng) -> dict:
    l = log_uniform(rng, 1e-6, 0.9)
    return {
        "b1": _expo(rng),
        "b2": _expo(rng),
        "l": l,
        "k": l * 10.0 ** (-rng.uniform(0.0, 6.0)),
    }


def _eval_cal_3(p, spec):
    b1, b2, k, l = p["b1"], p["b2"], p["k"], p["l"]

    def f(r: np.ndarray) -> np.ndarray:
        v = np.log(_E + 1.0 / r) ** b2 if b2 > 0.0 else np.ones_like(r)
        if b1 > 0.0:
            v = v * np.log(_E + r / k) ** b1 * np.log(_E + r / l) ** b1
        return v / r

    lhs = integrate_panels(f, geometric_breaks(l, 2.0, 2.0), spec)
    rhs = math.log(_E + 1.0 / k) ** b1 * math.log(_E + 1.0 / l) ** (b1 + b2 + 1.0)
    return lhs / rhs


def _sample_cal_green(rng) -> dict:
    return {
        "gamma": 1.0 + log_uniform(rng, 5e-2, 4.0),
        "b1": _expo(rng),
        "b2": _expo(rng),
        "a": _scale(rng),
        "k": _scale(rng),
        "l": _scale(rng),
    }


def _eval_cal_green(p, spec):
    g, b1, b2, a, k, l = p["gamma"], p["b1"], p["b2"], p["a"], p["k"], p["l"]
    la, lk, ll = math.log(a), math.log(k), math.log(l)

    def f(wv: np.ndarray) -> np.ndarray:
        # t = a e^(-w), assembled in logs; decays like e^((g-1+b1+b2) w)
        lt = la - wv
        expo = (1.0 - g) * lt
        expo = expo + b1 * np.minimum(lk - lt, 0.0) + b2 * np.minimum(ll - lt, 0.0)
        return np.exp(expo)

    rate = g - 1.0 + b1 + b2
    inner = [w for w in (la - lk, la - ll) if w < 0.0]  # clamp switches in w
    w_lo = -60.0 / rate + min(inner, default=0.0)
    breaks = merge_breaks(decaying_log_breaks(w_lo, 0.0, rate), inner, w_lo, 0.0)
    lhs = integrate_panels(f, breaks, spec)
    rhs = a ** (1.0 - g) * min(k / a, 1.0) ** b1 * min(l / a, 1.0) ** b2
    return lhs / rhs


# ---------------------------------------------------------------------------
# two-jump radial comparisons


def _vertical_A(beta, alpha, tsc, xd, yd, tang2, r):
    """A-weight along the vertical path: pair (x, x + r e_d) and (x + r e_d, y)."""
    midh = xd + r
    w1 = weight_from_heights_arr(
        beta, np.maximum(np.minimum(xd, midh), tsc), np.maximum(np.maximum(xd, midh), tsc), r
    )
    d2 = np.sqrt(tang2 + (midh - yd) ** 2)
    w2 = weight_from_heights_arr(
        beta, np.maximum(np.minimum(midh, yd), tsc), np.maximum(np.maximum(midh, yd), tsc), d2
    )
    return w1 * w2


def _vertical_kinks(xd: float, yd: float, tang2: float, tsc: float) -> list[float]:
    """Radii where a clamp or a min/max in the vertical-path weights switches."""
    ks = [xd, yd, tsc, max(xd, tsc), tsc - xd, yd - xd]
    if yd > 0.0:
        ks.append((tang2 + yd * yd) / (2.0 * yd) - xd)  # mid height = separation
    for h in (yd, tsc):  # far height or clamp = separation of the second leg
        root = h * h - tang2
        if root > 0.0:
            s = math.sqrt(root)
            ks.extend([yd + s - xd, yd - s - xd])
    return [k for k in ks if k > 0.0]


def _sample_two_jump(rng, critical: bool) -> dict:
    alpha = _alpha(rng)
    b1 = _expo(rng)
    if critical:
        b2 = alpha + b1
    else:
        b2 = _expo(rng)
    b3 = _expo(rng) if b1 > 0.0 else 0.0
    b4 = _expo(rng) if b2 > 0.0 else 0.0
    dim = int(rng.integers(1, 4))
    x, y = _point_pair(rng, dim)
    tsc = _scale(rng)
    return {
        "alpha": alpha,
        "beta": (b1, b2, b3, b4),
        "dim": dim,
        "x": x,
        "y": y,
        "t": tsc**alpha,
        "tsc": tsc,
    }


def _vertical_integral(p, lo: float, spec) -> float:
    """The vertical-path A-weight times r^(-1-alpha), integrated over
    [min(lo, |x-y|/4), |x-y|/2] with a panel break at |x-y|/4."""
    alpha, beta, tsc = p["alpha"], p["beta"], p["tsc"]
    x, y = p["x"], p["y"]
    dist = x.distance_to(y)
    tang2 = sum((a - b) ** 2 for a, b in zip(x.tangential, y.tangential))
    lo, hi = min(lo, dist / 4.0), dist / 2.0

    def f(r: np.ndarray) -> np.ndarray:
        return _vertical_A(beta, alpha, tsc, x.height, y.height, tang2, r) * r ** (-1.0 - alpha)

    inner = _vertical_kinks(x.height, y.height, tang2, tsc) + [dist / 4.0]
    return integrate_panels(f, merge_breaks([lo, hi], inner, lo, hi), spec)


def _eval_two_jump_region(p, spec):
    alpha, beta, tsc = p["alpha"], p["beta"], p["tsc"]
    x, y = p["x"], p["y"]
    dist = x.distance_to(y)
    lhs = _vertical_integral(p, math.inf, spec)
    rhs = (
        dist**-alpha
        * _clamped_weight((beta[0], beta[0], 0.0, beta[2]), tsc, x, y)
        * math.log(_E + dist / min(max(min(x.height, y.height), tsc), dist)) ** beta[2]
    )
    return lhs / rhs


def _eval_lower_2(p, spec):
    alpha, beta, tsc, t = p["alpha"], p["beta"], p["tsc"], p["t"]
    x, y = p["x"], p["y"]
    dist = x.distance_to(y)
    lhs = min(dist**alpha, t) * _vertical_integral(p, max(x.height, y.height, tsc), spec)
    rhs = (
        min(1.0, t * dist**-alpha)
        * _clamped_weight((beta[0], beta[0], 0.0, beta[2] + beta[3] + 1.0), tsc, x, y)
        * math.log(_E + dist / min(max(min(x.height, y.height), tsc), dist)) ** beta[2]
    )
    return lhs / rhs


# ---------------------------------------------------------------------------
# registry entries and driver

# lemma id -> (frozen kind, sampler, evaluator of the ratio or cal_basic's pair)
_LEMMAS = {
    "slowly_varying": (CEILING, _sample_slowly_varying, _eval_slowly_varying),
    "slowly_varying_2": (CEILING, _sample_slowly_varying_2, _eval_slowly_varying_2),
    "kill_log": (CEILING, _sample_kill_log, _eval_kill_log),
    "kill_log_2": (CEILING, _sample_kill_log_2, _eval_kill_log_2),
    "cal_00": (CEILING, _sample_cal_00, _eval_cal_00),
    "cal_0": (CEILING, _sample_cal_0, _eval_cal_0),
    "l_cal1": (CEILING, _sample_l_cal1, _eval_l_cal1),
    "cal_new1": (CEILING, _sample_cal_new1, _eval_cal_new1),
    "cal_new2": (CEILING, _sample_cal_new2, _eval_cal_new2),
    "cal_basic": (TWO_SIDED, _sample_cal_basic, _eval_cal_basic),
    "cal_2": (CEILING, _sample_cal_2, _eval_cal_2),
    "cal_3": (TWO_SIDED, _sample_cal_3, _eval_cal_3),
    "cal_green": (TWO_SIDED, _sample_cal_green, _eval_cal_green),
    "comp_AB": (TWO_SIDED, _sample_weight_pair, _eval_comp_AB),
    "two_jump_region": (TWO_SIDED, partial(_sample_two_jump, critical=False),
                        _eval_two_jump_region),
    "lower_2": (TWO_SIDED, partial(_sample_two_jump, critical=True), _eval_lower_2),
}


def _lemma(lemma_id: str, seed: int, spec: QuadratureSpec | None) -> Sweep:
    kind, sampler, evaluate = _LEMMAS[lemma_id]
    crc = zlib.crc32(lemma_id.encode())

    def samples(n: int):
        return (sampler(np.random.default_rng([seed, crc, i])) for i in range(n))

    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-12)
    return Sweep(samples, partial(evaluate, spec=spec), 10_000, kind)


def lemma_sweeps(seed: int = 0, spec: QuadratureSpec | None = None) -> dict[str, Sweep]:
    """The 16 lemma entries, sampled at ``seed`` and evaluated at ``spec``.

    Sample i of a lemma draws from ``default_rng([seed, crc32(lemma id), i])``,
    so a smaller count sweeps a prefix of a larger one.  The defaults (seed 0,
    rel 1e-7 and abs 1e-12) are those of the freezing run.
    """
    return {lid: _lemma(lid, seed, spec) for lid in _LEMMAS}


def lemma_ids() -> list[str]:
    return sorted(_LEMMAS)


def check(
    lemma_id: str,
    sampler_seed: int = 0,
    budget: int = 1000,
    spec: QuadratureSpec | None = None,
) -> ComparabilityReport:
    """Sweep one lemma over ``budget`` samples against its frozen constant.

    Deterministic in (lemma_id, sampler_seed, budget, spec); see
    :func:`lemma_sweeps` for the samples.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if lemma_id not in _LEMMAS:
        raise KeyError(f"unknown lemma id: {lemma_id}")
    return sweep(lemma_id, _lemma(lemma_id, sampler_seed, spec), budget)
