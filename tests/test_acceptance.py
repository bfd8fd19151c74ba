"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The comparability criteria assert the constants frozen in the package data
file with 10% slack; the analytic identities are asserted at their stated
tolerances directly.  Stated runtime limits are enforced.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dkl.constants import load_constants
from dkl.geometry import ModelParams, eval_A, eval_B
from dkl.green import green_by_time_integration, green_estimate, green_free
from dkl.grids import (
    GREEN_COMBOS,
    ORACLE_CONFIGS,
    STANDARD_SEED,
    SWEEPS,
    UNIFIED_PARAM_SETS,
    check_frozen,
    oracle_fit,
)
from dkl.heatkernel import hke_closed
from dkl.inequalities import check, lemma_ids
from dkl.killing import compute_C, scan_shape, solve_q
from dkl.oracle import OracleParams, oracle_kappa
from dkl.quadrature import NonConvergenceError, QuadratureSpec
from dkl.special import stable_one_density

from conftest import dyadic, dyadic_point, pow2, pt

SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
QSPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-300)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def killing_samples():
    """20 (alpha, weight) pairs with alpha spanning 0.3 to 1.9.

    Near s -> 0 the integrand behaves like s^(alpha+beta1-q-1) log(1/s)^beta3,
    so C(alpha+beta1-eps) grows like eps^-(1+beta3).  The first weight
    exponent is kept at zero so the q -> -1 endpoint is a genuine divergence
    too (for positive first exponent the map stays finite there).
    """
    rng = np.random.default_rng(STANDARD_SEED)
    out = []
    for i, alpha in enumerate(np.linspace(0.3, 1.9, 20)):
        dim = 1 if i % 2 == 0 else 2
        b2 = float(rng.uniform(0.0, 3.0))
        b4 = float(rng.uniform(0.0, 1.5)) if b2 > 0 else 0.0
        out.append(ModelParams(dim, float(alpha), (0.0, b2, 0.0, b4)))
    return out


def test_every_frozen_constant_has_its_code():
    """Each name in the frozen file is a registry sweep or an oracle fit."""
    fits = {f"acc_oracle_qfit_{idx}" for idx in range(len(ORACLE_CONFIGS))}
    assert set(load_constants()) == set(SWEEPS) | fits


def test_unconverged_sample_fails_the_bound(monkeypatch):
    """A sweep sample that does not converge is never dropped silently."""
    entry = SWEEPS["acc_bessel"]

    def flaky(smp):
        if smp[1] > 1.0:
            raise NonConvergenceError("series did not converge")
        return entry.ratio(smp)

    def patch(ratio, skip):
        monkeypatch.setitem(SWEEPS, "acc_bessel", replace(entry, ratio=ratio, skip_unconverged=skip))

    patch(flaky, False)
    with pytest.raises(NonConvergenceError):
        check_frozen("acc_bessel")
    patch(flaky, True)
    holds, worst, bound, rep = check_frozen("acc_bessel")
    assert rep.excluded > 0 and rep.samples > 0 and worst <= bound and not holds
    patch(lambda smp: flaky((0.0, 2.0)), True)
    holds, _, _, rep = check_frozen("acc_bessel")
    assert rep.samples == 0 and not holds


def test_criterion_01_killing_constant_zeros():
    t0 = time.time()
    abs_tol = 1e-8
    worst = 0.0
    for params in killing_samples():
        scale = max(abs(compute_C(params, (params.alpha - 1.0) / 2.0, SPEC)), 1.0)
        for z in {0.0, params.alpha - 1.0}:
            worst = max(worst, abs(compute_C(params, z, SPEC)) / scale)
    elapsed = time.time() - t0
    ok = worst <= 10.0 * abs_tol and elapsed < 30.0
    report(1, ok, f"max |C(zero)|/scale = {worst:.3g} (tol {10 * abs_tol:g}), {elapsed:.1f}s")


DIVERGENCE_EPS = (1e-3, 1e-4, 1e-5)
SLOPE_TOL = 1e-2


def endpoint_divergence(params, side: str, c_edge: float):
    """Check that C diverges at one end of (-1, alpha+beta1) at the predicted rate.

    ``c_edge`` is C at offset ``DIVERGENCE_EPS[0]`` from the endpoint; C is
    evaluated at the remaining offsets.  Returns ``(ok, deviation, values)``:
    the values must be positive and strictly increase as the offset shrinks,
    and the log-log slope over the last decade must lie within ``SLOPE_TOL``
    of -(1+beta3), the deviation from which is returned.
    """
    end = -1.0 if side == "left" else params.alpha + params.beta[0]
    sign = 1.0 if side == "left" else -1.0
    vals = [c_edge] + [
        compute_C(params, end + sign * eps, SPEC) for eps in DIVERGENCE_EPS[1:]
    ]
    growing = all(v > 0.0 for v in vals) and all(
        b > a for a, b in zip(vals, vals[1:])
    )
    if not growing:
        return False, math.inf, vals
    slope = math.log(vals[-1] / vals[-2]) / math.log(DIVERGENCE_EPS[-1] / DIVERGENCE_EPS[-2])
    deviation = abs(slope + 1.0 + params.beta[2])
    return deviation <= SLOPE_TOL, deviation, vals


def test_criterion_02_shape_table():
    t0 = time.time()
    failures = []
    worst = {"left": 0.0, "right": 0.0}
    for params in killing_samples():
        table = scan_shape(params, 24, SPEC)
        if not table.passed:
            failures.append((params.alpha, "shape verdicts"))
            continue
        edges = {"left": table.values[0], "right": table.values[-1]}
        for side, c_edge in edges.items():
            ok, deviation, vals = endpoint_divergence(params, side, c_edge)
            worst[side] = max(worst[side], deviation)
            if not ok:
                failures.append((params.alpha, f"{side} divergence {vals}"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    report(
        2,
        ok,
        f"{20 - len({alpha for alpha, _ in failures})}/20 samples hold; worst |slope + 1 + beta3| "
        f"left {worst['left']:.2e}, right {worst['right']:.2e} (tol {SLOPE_TOL:g}), "
        f"{elapsed:.1f}s" + (f"; failing: {failures}" if failures else ""),
    )


def test_criterion_02_rejects_finite_endpoint():
    """The divergence check fails where the map stays finite (q -> -1, beta1 > 0)."""
    params = ModelParams(1, 1.0, (1.0, 1.0, 0.0, 0.0))
    c_edge = compute_C(params, -1.0 + DIVERGENCE_EPS[0], SPEC)
    ok, _, _ = endpoint_divergence(params, "left", c_edge)
    assert not ok


def test_criterion_03_q_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(STANDARD_SEED + 3)
    worst = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(0.3, 1.9))
        b1 = float(rng.uniform(0.0, 2.0))
        params = ModelParams(1, alpha, (b1, float(rng.uniform(0.0, 2.0)), 0.0, 0.0))
        lo = max(alpha - 1.0, 0.0)
        q_star = lo + (alpha + b1 - lo) * float(rng.uniform(0.05, 0.9))
        kappa = compute_C(params, q_star, SPEC)
        if kappa <= 0.0:
            continue
        q_back = solve_q(replace(params, kappa=kappa), SPEC)
        worst = max(worst, abs(q_back - q_star))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    report(3, ok, f"max |q_back - q*| = {worst:.2e}, {elapsed:.1f}s")


def _ulps(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_criterion_04_exact_symmetries():
    t0 = time.time()
    rng = np.random.default_rng(STANDARD_SEED)
    worst = 0.0
    count = 0
    while count < 10_000:
        dim = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.2, 1.9))
        params = ModelParams(dim, alpha, (1.0, 1.5, 0.5, 0.5))
        x, y = dyadic_point(rng, dim), dyadic_point(rng, dim)
        if x.distance_to(y) == 0.0 or x.height == 0.0 or y.height == 0.0:
            continue
        count += 1
        q = float(rng.uniform(0.1, alpha + 0.9))
        b = tuple(rng.uniform(0.1, 3.0, size=4))
        u = dyadic(rng)
        r = pow2(rng, 20)
        t = u**alpha
        # x <-> y symmetry (bitwise)
        worst = max(worst, _ulps(eval_B(b, x, y), eval_B(b, y, x)))
        worst = max(worst, _ulps(eval_A(b, t, x, y, alpha, tscale=u),
                                 eval_A(b, t, y, x, alpha, tscale=u)))
        h1 = hke_closed(params, t, x, y, q=q, tscale=u)
        h2 = hke_closed(params, t, y, x, q=q, tscale=u)
        worst = max(worst, _ulps(h1.free_value, h2.free_value))
        worst = max(worst, _ulps(h1.killed_value, h2.killed_value))
        g1 = green_estimate(params, q, x, y)
        worst = max(worst, _ulps(g1.value, green_estimate(params, q, y, x).value))
        # joint rescaling by a power of two
        xs, ys = x.scaled(1.0 / r), y.scaled(1.0 / r)
        worst = max(worst, _ulps(eval_B(b, x, y), eval_B(b, xs, ys)))
        worst = max(worst, _ulps(
            eval_A(b, t, x, y, alpha, tscale=u),
            eval_A(b, (u / r) ** alpha, xs, ys, alpha, tscale=u / r),
        ))
        h2 = hke_closed(params, (u / r) ** alpha, xs, ys, q=q, tscale=u / r)
        worst = max(worst, _ulps(h1.free_value, h2.free_value * r ** -float(dim)))
        worst = max(worst, _ulps(h1.killed_value, h2.killed_value * r ** -float(dim)))
        g2 = green_estimate(params, q, xs, ys)
        dist = x.distance_to(y)
        worst = max(worst, _ulps(
            g1.value * dist ** (dim - alpha),
            g2.value * (dist / r) ** (dim - alpha),
        ))
        # tangential shift (bitwise)
        if dim >= 2:
            shift = tuple(
                float(m) * 2.0**-20 for m in rng.integers(-(2**40), 2**40, dim - 1)
            )
            xsh, ysh = x.shifted(shift), y.shifted(shift)
            worst = max(worst, _ulps(eval_B(b, x, y), eval_B(b, xsh, ysh)))
            worst = max(worst, _ulps(
                h1.free_value, hke_closed(params, t, xsh, ysh, q=q, tscale=u).free_value
            ))
            worst = max(worst, _ulps(g1.value, green_estimate(params, q, xsh, ysh).value))
    elapsed = time.time() - t0
    ok = worst <= 4.0 and elapsed < 10.0
    report(4, ok, f"worst deviation = {worst:.2f} ulp over {count} inputs, {elapsed:.1f}s")


def test_criterion_05_comp_ab_standard_grid():
    t0 = time.time()
    holds, worst, ceiling, _ = check_frozen("acc_comp_ab")
    elapsed = time.time() - t0
    ok = holds and elapsed < 10.0
    report(5, ok, f"two-sided ratio bound {worst:.4g} vs frozen {ceiling:.4g}, {elapsed:.1f}s")


def test_criterion_06_unified_vs_closed():
    t0 = time.time()
    details = []
    ok = True
    for regime in UNIFIED_PARAM_SETS:
        holds, worst, ceiling, _ = check_frozen(f"acc_unified_{regime}")
        details.append(f"{regime}:{worst:.3g}<={ceiling:.3g}")
        ok = ok and holds
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(6, ok, f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_07_critical_radial_integral():
    t0 = time.time()
    rep = check("lower_2", sampler_seed=0, budget=1000, spec=QSPEC)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 120.0
    report(
        7,
        ok,
        f"lower_2 [{rep.min_ratio:.3g},{rep.max_ratio:.3g}] vs ceiling "
        f"{rep.ceiling:.4g}, excluded={rep.excluded}, {elapsed:.1f}s",
    )


def test_criterion_08_ball_integral():
    t0 = time.time()
    details = []
    ok = True
    for d in (1, 2):
        holds, worst, ceiling, _ = check_frozen(f"acc_ball_d{d}", 100)
        details.append(f"d={d}:{worst:.3g}<={ceiling:.3g}")
        ok = ok and holds
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(8, ok, f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_09_oracle_self_consistency():
    t0 = time.time()
    ok = True
    details = []
    worst_spread = 0.0
    for gamma in (0.0, 0.5, 1.5):
        for alpha in (0.6, 1.0, 1.4):
            op = OracleParams(gamma, 1, alpha)
            vals = [oracle_kappa(op, pt(h)) * h**alpha for h in (0.1, 1.0, 10.0)]
            spread = (max(vals) - min(vals)) / abs(float(np.mean(vals)))
            worst_spread = max(worst_spread, spread)
    ok = ok and worst_spread < 1e-3
    details.append(f"kappa homogeneity spread {worst_spread:.2e}")
    # two-sided profile bound for the modified Bessel function
    holds, worst, ceiling, _ = check_frozen("acc_bessel")
    ok = ok and holds
    details.append(f"bessel bound {worst:.3g}<={ceiling:.3g}")
    # subordinator density normalization
    from scipy.integrate import quad

    worst_norm = 0.0
    for alpha in (0.6, 1.0, 1.4):
        val, _ = quad(lambda s: stable_one_density(alpha / 2.0, s), 0, np.inf, limit=400)
        worst_norm = max(worst_norm, abs(val - 1.0))
    ok = ok and worst_norm <= 1e-6
    details.append(f"normalization off by {worst_norm:.2e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 180.0
    report(9, ok, f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_10_oracle_vs_estimate():
    t0 = time.time()
    ok = True
    details = []
    for idx, (gamma, alpha) in enumerate(ORACLE_CONFIGS):
        holds, two_sided, ceiling, _ = check_frozen(f"acc_oracle_{idx}")
        r2 = oracle_fit(idx)[1]
        ok = ok and holds and r2 >= 0.99
        details.append(f"(g={gamma},a={alpha}): {two_sided:.3g}<={ceiling:.3g}, R2={r2:.4f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    report(10, ok, f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_11_green_cross_check():
    t0 = time.time()
    ok = True
    worst_all = 0.0
    for idx in range(len(GREEN_COMBOS)):
        holds, worst, _, _ = check_frozen(f"acc_green_{idx}")
        ok = ok and holds
        worst_all = max(worst_all, worst)
    # critical-branch log slope
    p_log = ModelParams(2, 1.0, (1.0, 1.0, 0.0, 0.7))
    ys = np.geomspace(1e-8, 1e-20, 9)
    vals = [
        green_by_time_integration(p_log, 2.0, pt(0.0, float(yd)), pt(1.0, float(yd))).small_time
        / yd**4.0
        for yd in ys
    ]
    slope, _ = np.polyfit(np.log(np.log(math.e + 1.0 / ys)), np.log(vals), 1)
    slope_ok = abs(slope - 1.7) / 1.7 <= 0.15
    ok = ok and slope_ok
    # recurrent free kernel reports infinity
    inf_ok = (
        green_free(ModelParams(1, 1.0, (0, 0, 0, 0)), pt(1.0), pt(2.0)) == math.inf
        and green_free(ModelParams(1, 1.5, (0, 0, 0, 0)), pt(1.0), pt(2.0)) == math.inf
    )
    ok = ok and inf_ok
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    report(
        11,
        ok,
        f"9 combos worst ratio {worst_all:.3g}, log-slope {slope:.3f} (target 1.7), "
        f"free-kernel inf={inf_ok}, {elapsed:.1f}s",
    )


def test_criterion_12_full_appendix_suite():
    t0 = time.time()
    failures = []
    for lid in lemma_ids():
        rep = check(lid, sampler_seed=0, budget=1000, spec=QSPEC)
        if not rep.passed:
            failures.append((lid, rep.min_ratio, rep.max_ratio, rep.ceiling, rep.excluded))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 900.0
    report(
        12,
        ok,
        f"{len(lemma_ids()) - len(failures)}/{len(lemma_ids())} lemmas pass at "
        f"budget 1000, {elapsed:.1f}s" + (f"; failing: {failures}" if failures else ""),
    )


def test_criterion_13_determinism(tmp_path):
    t0 = time.time()
    from dkl.cli import main

    invocations = {
        "map": [
            "map", "--alpha", "0.5", "--beta", "0.5,2,0,0", "--dim", "2",
            "--t", "0.01", "--x", "0,1", "--grid-n", "6", "--extent", "2",
        ],
        "oracle": [
            "oracle", "--gamma", "0.5", "--alpha", "1.0", "--dim", "1",
            "--grid-n", "4", "--t-list", "0.5,2.0",
        ],
        "check": ["check", "--lemma", "all", "--budget", "25", "--seed", "5"],
    }
    ok = True
    for name, args in invocations.items():
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        code_a = main(args + ["--out", str(a)])
        code_b = main(args + ["--out", str(b)])
        same = a.read_bytes() == b.read_bytes()
        ok = ok and same and code_a == code_b
    elapsed = time.time() - t0
    report(13, ok, f"map/oracle/check byte-identical across reruns, {elapsed:.1f}s")
