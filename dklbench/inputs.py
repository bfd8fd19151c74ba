"""Input lists of the three workloads, generated by the benchmark's own code.

Nothing here imports ``dkl``: a change to the program cannot change the
inputs.  Each generator returns plain dicts.  Inputs whose references are
expensive (the ball integrals, stored in ``data/ball_refs.json``), the
inputs that expose the two counted faults, and the lemma checks are fixed;
the rest are drawn from ``numpy.random.default_rng([seed, tag, i])``, so the
same seed gives the same inputs.

The Green, unified and oracle-grid comparisons are gated against frozen
comparability constants, which bound the ratios only on the sample sets
they were frozen from.  Those items therefore draw their points as a
seeded subset of the same sets (criteria 06, 10 and 11 of the acceptance
suite), regenerated here from their definition.
"""

from __future__ import annotations

import math

import numpy as np

# fixed seed of the stored ball-integral cases
BALL_SEED = 271828
BALL_COUNT = {1: 80, 2: 5}

# seed of the acceptance suite's sample sets (criteria 06 and 11)
STANDARD_SEED = 20260809

# frozen comparability constants (ceilings.txt when this benchmark was
# defined); the gates allow the acceptance suite's 10% slack on top
FROZEN = {
    "acc_unified_onejump": 1.000000000000003,
    "acc_unified_twojump": 4.378222198598164,
    "acc_unified_critical": 3.5662945759983624,
    "acc_green_0": 1.4888093618963394,
    "acc_green_1": 1.6926393839113545,
    "acc_green_2": 1.6123806486840797,
    "acc_green_3": 1.3519692348922054,
    "acc_green_4": 2.358453310460606,
    "acc_green_5": 4.848228817592711,
    "acc_green_6": 2.059757610864886,
    "acc_green_7": 3.331480696300961,
    "acc_green_8": 6.5472224294567125,
    "acc_oracle_0": 7.370333279521853,
    "acc_oracle_1": 9.584641960310242,
    "acc_oracle_2": 8.247154895024465,
}
SLACK = 1.10


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** rng.random())


def _point(rng, dim: int) -> tuple:
    """Height log-uniform over 1e-3..1e3; one tangential offset, the
    difference of two such draws (the acceptance suite's point law)."""
    h = _log_uniform(rng, 1e-3, 1e3)
    if dim == 1:
        return (h,)
    off = _log_uniform(rng, 1e-3, 1e3) - _log_uniform(rng, 1e-3, 1e3)
    return (off,) + (0.0,) * (dim - 2) + (h,)


def _subset(seed: int, tag: int, n: int, k: int) -> list[int]:
    """k of the indices 0..n-1, sorted, chosen by the seed."""
    return sorted(int(i) for i in _rng(seed, tag).choice(n, size=k, replace=False))


def _quadruple(rng, b1_zero: bool = False) -> tuple:
    """Admissible weight exponents: a positive b3 (b4) needs a positive b1 (b2)."""
    b1 = 0.0 if b1_zero or rng.random() < 0.3 else float(rng.uniform(0.05, 2.0))
    b2 = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 3.0))
    b3 = float(rng.uniform(0.0, 1.0)) if b1 > 0.0 and rng.random() < 0.5 else 0.0
    b4 = float(rng.uniform(0.0, 1.0)) if b2 > 0.0 and rng.random() < 0.5 else 0.0
    return (b1, b2, b3, b4)


def _dyadic(rng, lo_exp: int = -12, hi_exp: int = 4) -> float:
    """m 2^e with a 12-bit mantissa: its square and fourth power are exact."""
    return float(rng.integers(1, 2**12)) * 2.0 ** int(rng.integers(lo_exp, hi_exp))


def _fmt(v: float) -> str:
    return repr(float(v))


def _coords(p) -> str:
    return ",".join(_fmt(c) for c in p)


def _beta(b) -> str:
    return ",".join(_fmt(v) for v in b)


# ---------------------------------------------------------------------------
# queries: single-answer CLI calls

# the two program faults the benchmark counts (README.md, "The two counted faults")
FAULT_KILLING = "compute_C-outer-rule"
FAULT_BALL = "tensor_integral-unconverged"

QUERY_TOL = 1e-9  # the CLI's default --tol: rel_tol 1e-9, abs_tol 1e-12
# the killing-map identity C_d = C_1 * factor holds for beta = 0; at
# alpha = 0.6 and 1.3 the d >= 2 map is checked through it
FAULT_SOLVE = {"dim": 2, "alpha": 0.6, "kappa": 1.0}
IDENTITY_GREEN = {"dim": 3, "alpha": 1.3, "kappa": 0.8, "x": (0.25, 0.5, 0.75), "y": (0.0, 0.0, 2.0)}
# scale factors 2^s with s a multiple of 4 keep t^(1/alpha) exact for these alphas
EXACT_ALPHAS = (0.25, 0.5, 1.0)


def query_items(seed: int) -> list[dict]:
    """Fixed-size list of CLI invocations with what their gates need."""
    items: list[dict] = []

    def add(cls, argv, **meta):
        items.append({"cls": cls, "argv": argv, "key": f"{cls}-{len(items)}", **meta})

    # solve-q: d = 1 round trips on seeded parameters, plus the fixed d = 2 case
    for i in range(12):
        rng = _rng(seed, 101, i)
        alpha = float(rng.uniform(0.3, 1.9))
        beta = _quadruple(rng)
        kappa = _log_uniform(rng, 0.05, 5.0)
        add("solve-q", ["solve-q", "--alpha", _fmt(alpha), "--beta", _beta(beta),
                        "--kappa", _fmt(kappa)], dim=1, alpha=alpha, beta=beta, kappa=kappa)
    f = FAULT_SOLVE
    add("solve-q", ["solve-q", "--alpha", _fmt(f["alpha"]), "--beta", "0,0,0,0",
                    "--kappa", _fmt(f["kappa"]), "--dim", str(f["dim"])],
        dim=f["dim"], alpha=f["alpha"], beta=(0.0, 0.0, 0.0, 0.0), kappa=f["kappa"],
        fault=FAULT_KILLING)

    # c-shape: d = 1 scans of 24 points; even items have beta1 = 0 (mirror symmetry)
    for i in range(20):
        rng = _rng(seed, 102, i)
        alpha = float(rng.uniform(0.3, 1.9))
        beta = _quadruple(rng, b1_zero=(i % 2 == 0))
        add("c-shape", ["c-shape", "--alpha", _fmt(alpha), "--beta", _beta(beta),
                        "--grid-size", "24"], dim=1, alpha=alpha, beta=beta)

    # hke --kappa: (x, y), (y, x) and a power-of-two rescaling of both
    for i in range(14):
        rng = _rng(seed, 103, i)
        dim = 1 if i < 10 else 2 + i % 2
        alpha = EXACT_ALPHAS[int(rng.integers(0, 3))]
        beta = _quadruple(rng)
        kappa = _log_uniform(rng, 0.1, 3.0) if dim == 1 else 0.0
        x = tuple(_dyadic(rng) for _ in range(dim))
        y = tuple(_dyadic(rng) for _ in range(dim))
        t = _dyadic(rng)
        s = 4 * int(rng.choice([-2, -1, 1, 2]))
        r = 2.0**s
        base = ["hke", "--alpha", _fmt(alpha), "--beta", _beta(beta), "--kappa", _fmt(kappa),
                "--dim", str(dim)]
        meta = dict(dim=dim, alpha=alpha, beta=beta, group=f"hke{i}", scale=s)
        add("hke", base + ["--t", _fmt(t), "--x", _coords(x), "--y", _coords(y)], role="base", **meta)
        add("hke", base + ["--t", _fmt(t), "--x", _coords(y), "--y", _coords(x)], role="swap", **meta)
        add("hke", base + ["--t", _fmt(t * 2.0 ** (s * alpha)), "--x", _coords(c * r for c in x),
                           "--y", _coords(c * r for c in y)], role="scaled", **meta)

    # green --kappa: (x, y), (y, x), rescaled; plus the fixed d = 3 identity case
    for i in range(6):
        rng = _rng(seed, 104, i)
        alpha = float(rng.uniform(0.3, 1.9))
        beta = _quadruple(rng)
        kappa = _log_uniform(rng, 0.1, 3.0)
        x = (_dyadic(rng),)
        y = (_dyadic(rng),)
        while y == x:
            y = (_dyadic(rng),)
        s = 4 * int(rng.choice([-2, -1, 1, 2]))
        base = ["green", "--alpha", _fmt(alpha), "--beta", _beta(beta), "--kappa", _fmt(kappa)]
        meta = dict(dim=1, alpha=alpha, beta=beta, group=f"green{i}", scale=s)
        add("green", base + ["--x", _coords(x), "--y", _coords(y)], role="base", **meta)
        add("green", base + ["--x", _coords(y), "--y", _coords(x)], role="swap", **meta)
        add("green", base + ["--x", _coords((x[0] * 2.0**s,)), "--y", _coords((y[0] * 2.0**s,))],
            role="scaled", **meta)
    g = IDENTITY_GREEN
    add("green", ["green", "--alpha", _fmt(g["alpha"]), "--beta", "0,0,0,0", "--kappa",
                  _fmt(g["kappa"]), "--dim", str(g["dim"]), "--x", _coords(g["x"]),
                  "--y", _coords(g["y"])],
        dim=g["dim"], alpha=g["alpha"], beta=(0.0, 0.0, 0.0, 0.0), kappa=g["kappa"], role="identity")

    # map: dominance maps on 24 x 24 grids and their power-of-two rescaling
    for i in range(16):
        rng = _rng(seed, 105, i)
        dim = 1 + i % 3
        alpha = EXACT_ALPHAS[int(rng.integers(0, 3))]
        b1 = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.05, 1.5))
        b2 = alpha + b1 + float(rng.uniform(0.0, 1.5)) * (rng.random() < 0.8)
        b3 = float(rng.uniform(0.0, 1.0)) if b1 > 0.0 else 0.0
        beta = (b1, b2, b3, float(rng.uniform(0.0, 1.0)))
        x = tuple(_dyadic(rng) for _ in range(dim))
        t = _dyadic(rng, -16, -4)
        extent = _dyadic(rng, -2, 3)
        s = 4 * int(rng.choice([-2, -1, 1, 2]))
        r = 2.0**s
        base = ["map", "--alpha", _fmt(alpha), "--beta", _beta(beta), "--dim", str(dim),
                "--grid-n", "24"]
        meta = dict(dim=dim, alpha=alpha, beta=beta, group=f"map{i}", scale=s)
        add("map", base + ["--t", _fmt(t), "--x", _coords(x), "--extent", _fmt(extent)],
            role="base", **meta)
        add("map", base + ["--t", _fmt(t * 2.0 ** (s * alpha)), "--x", _coords(c * r for c in x),
                           "--extent", _fmt(extent * r)], role="scaled", **meta)
    return items


# ---------------------------------------------------------------------------
# estimates: quadrature checks of the paper's estimates


def ball_cases(dim: int, n: int | None = None) -> list[dict]:
    """Two-jump-regime cases with |x-y| > 6 t^(1/alpha), spanning six decades
    of heights and offsets and three of the time scale."""
    n = BALL_COUNT[dim] if n is None else n
    out = []
    for i in range(n):
        rng = _rng(BALL_SEED, dim, i)
        alpha = float(rng.uniform(0.2, 1.8))
        b1 = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.05, 2.0))
        b2 = alpha + b1 + float(rng.uniform(0.05, 1.5))
        b3 = 0.0 if b1 == 0.0 else float(rng.uniform(0.0, 1.0))
        b4 = float(rng.uniform(0.0, 1.0))
        x = _point(rng, dim)
        y = _point(rng, dim)
        tsc = (math.dist(x, y) / 6.0) * 10.0 ** (-rng.uniform(0.1, 3.0))
        out.append(
            {
                "id": f"d{dim}-{i}",
                "dim": dim,
                "alpha": alpha,
                "beta": [b1, b2, b3, b4],
                "t": tsc**alpha,
                "x": list(x),
                "y": list(y),
            }
        )
    return out


# criterion 06's parameter sets (dim, alpha, beta) per regime
UNIFIED_SETS = {
    "onejump": [(1, 0.5, (1.0, 1.0, 0.5, 0.5)), (2, 1.2, (0.0, 0.6, 0.0, 0.3)),
                (1, 1.7, (2.0, 3.0, 1.0, 1.0))],
    "twojump": [(1, 0.5, (1.0, 2.0, 0.5, 0.5)), (2, 1.2, (0.0, 1.5, 0.0, 0.4)),
                (1, 0.8, (0.5, 2.5, 1.0, 1.0))],
    "critical": [(1, 0.5, (1.0, 1.5, 0.5, 0.5)), (2, 1.2, (0.0, 1.2, 0.0, 0.4)),
                 (1, 0.8, (0.5, 1.3, 1.0, 1.0))],
}
UNIFIED_PER_SET = 450


def unified_items(seed: int) -> list[dict]:
    """Seeded subsets of criterion 06's 1000 space-time points per parameter set."""
    out = []
    for k, (regime, sets) in enumerate(UNIFIED_SETS.items()):
        for j, (dim, alpha, beta) in enumerate(sets):
            for i in _subset(seed, 201 + 3 * k + j, 1000, UNIFIED_PER_SET):
                rng = _rng(STANDARD_SEED, 2, i)
                tsc = _log_uniform(rng, 1e-2, 1e2)
                x = _point(rng, dim)
                y = _point(rng, dim)
                out.append({"cls": "unified", "key": f"unified-{regime}{j}-{i}", "regime": regime,
                            "dim": dim, "alpha": alpha, "beta": beta, "t": tsc**alpha,
                            "x": x, "y": y})
    return out


def green_combos() -> list[tuple]:
    """Criterion 11's (dim, alpha, beta, q): below, at and above the phase
    transition q = alpha + (beta1 + beta2)/2."""
    out = []
    for dim, alpha in [(1, 0.6), (2, 1.0), (2, 1.5)]:
        beta = (2.0, 0.5, 0.0, 0.0)
        q_crit = alpha + 0.5 * (beta[0] + beta[1])
        for q in (max(alpha - 1.0, 0.0) + 0.3, q_crit, q_crit + 0.5):
            out.append((dim, alpha, beta, q))
    return out


GREEN_PER_COMBO = 16


def green_items(seed: int) -> list[dict]:
    """Seeded subsets of criterion 11's 100 point pairs per combination."""
    out = []
    for idx, (dim, alpha, beta, q) in enumerate(green_combos()):
        for i in _subset(seed, 210 + idx, 100, GREEN_PER_COMBO):
            rng = _rng(STANDARD_SEED, 6 + dim, i)
            x = _point(rng, dim)
            y = _point(rng, dim)
            if x == y:
                y = y[:-1] + (y[-1] * 2.0 + 1.0,)
            out.append({"cls": "green", "key": f"green-{idx}-{i}", "combo": idx, "dim": dim,
                        "alpha": alpha, "beta": beta, "q": q, "x": x, "y": y})
    return out


CHECK_SEED = 0
CHECK_BUDGET = 20
CHECK_TOL = 1e-8  # what `dkl check` passes: rel_tol max(--tol, 1e-8), abs_tol 1e-12


# ---------------------------------------------------------------------------
# oracle: the exact reference process

ORACLE_TOL = 1e-7  # criteria 09 and 10
# heights of the killing-function items per (gamma, alpha)
KAPPA_HEIGHTS = {(0.5, 1.0): (0.1, 1.0, 10.0), (1.5, 1.0): (0.1, 10.0)}
# criterion 10's parameters; index i pairs with acc_oracle_i
COMPARE_PARAMS = [(0.5, 1.0), (0.0, 0.6), (1.0, 1.4)]
COMPARE_TS = (0.25, 0.5, 1.0, 2.0, 4.0)
COMPARE_HEIGHTS = 12  # of the 20 heights geomspace(0.05, 20, 20)


def compare_items(seed: int) -> list[dict]:
    """Seeded sub-grids of criterion 10's (t, x, y) grid, one call per parameter."""
    out = []
    for idx, (gamma, alpha) in enumerate(COMPARE_PARAMS):
        xs = _subset(seed, 301 + 2 * idx, 20, COMPARE_HEIGHTS)
        ys = _subset(seed, 302 + 2 * idx, 20, COMPARE_HEIGHTS)
        out.append({"cls": "compare", "key": f"compare-{idx}", "idx": idx, "gamma": gamma,
                    "alpha": alpha, "xs": xs, "ys": ys})
    return out


CAUCHY_P, CAUCHY_SURVIVAL = 400, 400
CAUCHY_GRID = [(t, x, y) for t in (0.25, 1.0, 4.0) for x in (0.1, 1.0, 5.0) for y in (0.2, 2.0, 7.0)]


def cauchy_items(seed: int) -> list[dict]:
    """Points for the closed forms of the killed Cauchy process: a fixed
    27-point grid plus seeded points, survival arguments and density
    arguments.  There are as many (cheap) density items as transition-density
    and heavy items together, so the workload's median item is a survival
    call, whose cost varies little between arguments."""
    out = []
    pts = list(CAUCHY_GRID)
    for i in range(CAUCHY_P - len(CAUCHY_GRID)):
        rng = _rng(seed, 310, i)
        pts.append((_log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.05, 20.0),
                    _log_uniform(rng, 0.05, 20.0)))
    for j, (t, x, y) in enumerate(pts):
        out.append({"cls": "cauchy", "key": f"cauchy-p-{j}", "kind": "p", "t": t, "x": x, "y": y})
    for i in range(CAUCHY_SURVIVAL):
        rng = _rng(seed, 311, i)
        out.append({"cls": "cauchy", "key": f"cauchy-surv-{i}", "kind": "survival",
                    "xi": _log_uniform(rng, 1e-3, 1e2)})
    heavy = sum(map(len, KAPPA_HEIGHTS.values())) + len(COMPARE_PARAMS)
    for i in range(CAUCHY_P + heavy):
        rng = _rng(seed, 312, i)
        out.append({"cls": "cauchy", "key": f"cauchy-levy-{i}", "kind": "levy",
                    "w": _log_uniform(rng, 1e-2, 1e4)})
    return out
