import math

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

import dkl.killing as killing
import dkl.quadrature as quadrature
from dkl.geometry import ModelParams, standard_weight
from dkl.killing import (
    _bracketed_root,
    _c_rows,
    _refine_zero,
    _s_value,
    compute_C,
    scan_shape,
    solve_q,
)
from dkl.quadrature import NonConvergenceError, QuadratureSpec

SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)


def brute_force_C_d1(
    alpha: float, q: float, b, nodes: int = 1_000_000, c: float = 1.0
) -> float:
    """Independent oracle: trapezoid rule on a graded mesh over (0, 1).

    The pair has heights (s, 1) at distance (1-s)c; the kernel keeps its
    (1-s)^(1+alpha) denominator, so c > 1 gives the inner integral of the
    d >= 2 map at tangential offset sqrt(c^2-1).
    """
    # mesh graded toward both endpoints via a smooth double-power map
    v = np.linspace(1e-9, 1.0 - 1e-9, nodes)
    s = v**3 * (10.0 - 15.0 * v + 6.0 * v * v)  # quintic smoothstep^3-like
    s = np.clip(s, 1e-300, 1.0 - 1e-16)
    b1, b2, b3, b4 = b
    one_m = 1.0 - s
    dist = one_m * c
    w = np.minimum(s / dist, 1.0) ** b1 * np.minimum(1.0 / dist, 1.0) ** b2
    if b3 > 0:
        w *= np.log(math.e + np.minimum(1.0, dist) / np.minimum(s, dist)) ** b3
    if b4 > 0:
        w *= np.log(math.e + dist / np.minimum(1.0, dist)) ** b4
    kern = (s**q - 1.0) * (1.0 - s ** (alpha - q - 1.0)) / one_m ** (1.0 + alpha)
    return float(trapezoid(kern * w, s))


def brute_force_C(d: int, alpha: float, q: float, b) -> float:
    """Independent oracle in any dimension.

    For d >= 2 the tangential offset rho = tan(theta) is integrated by
    adaptive quadrature over theta in (0, pi/2), with weight
    sin^(d-2) cos^alpha times the mesh value at c = sec(theta), times the
    area of the unit sphere S^(d-2).
    """
    if d == 1:
        return brute_force_C_d1(alpha, q, b)
    surface = {2: 2.0, 3: 2.0 * math.pi}[d]

    def f(th: float) -> float:
        inner = brute_force_C_d1(alpha, q, b, nodes=200_000, c=1.0 / math.cos(th))
        return math.sin(th) ** (d - 2) * math.cos(th) ** alpha * inner

    val, _ = quad(f, 0.0, math.pi / 2.0, epsabs=0.0, epsrel=1e-11)
    return surface * val


class TestComputeC:
    def test_zero_at_trivial_exponents(self):
        for alpha, b in [(0.5, (1, 1, 0, 0)), (1.5, (2, 3, 1, 1)), (1.9, (0, 0, 0, 0))]:
            p = ModelParams(1, alpha, b)
            w = standard_weight(p)
            assert compute_C(p, 0.0, w, SPEC) == 0.0
            if -1.0 < alpha - 1.0:
                assert compute_C(p, alpha - 1.0, w, SPEC) == 0.0

    @pytest.mark.parametrize(
        "d, alpha, b, q",
        [
            (1, 0.5, (1.0, 1.0, 0.0, 0.0), 0.25),
            (2, 0.9, (1.0, 1.5, 0.5, 0.0), 0.5),
            (3, 1.1, (1.0, 1.0, 0.0, 0.0), 0.8),
        ],
        ids=["d1", "d2", "d3"],
    )
    def test_against_brute_force_mesh(self, d, alpha, b, q):
        p = ModelParams(d, alpha, b)
        w = standard_weight(p)
        mine = compute_C(p, q, w, SPEC)
        ref = brute_force_C(d, alpha, q, p.beta)
        assert mine > 0.0
        assert abs(mine - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.3, 1.8])
    def test_unit_weight_dimension_identity(self, alpha):
        # beta = 0: C_d = C_1 |S^(d-2)| G((d-1)/2) G((alpha+1)/2) / (2 G((d+alpha)/2)),
        # which needs the outer rule resolved at its cos^alpha singularity
        q = 0.5 * alpha - 0.25
        p1 = ModelParams(1, alpha, (0.0, 0.0, 0.0, 0.0))
        c1 = compute_C(p1, q, standard_weight(p1), SPEC)
        for d in (2, 3):
            p = ModelParams(d, alpha, (0.0, 0.0, 0.0, 0.0))
            sphere = 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
            factor = sphere * math.gamma((d - 1) / 2.0) * math.gamma((alpha + 1.0) / 2.0) / (
                2.0 * math.gamma((d + alpha) / 2.0)
            )
            want = c1 * factor
            assert abs(compute_C(p, q, standard_weight(p), SPEC) - want) <= 10.0 * SPEC.tol(want)

    @pytest.mark.parametrize("block", [1, 16384], ids=["row-per-block", "default"])
    def test_batched_offsets_match_one_at_a_time(self, block, monkeypatch):
        # rows sharing a block get zero-width padding panels, so sums regroup
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", block)
        cs = np.array([1.0, 1.0 + 1e-7, 1.2, 1.9, 2.0, 2.5, 40.0, 3e7])
        for alpha, b, q in [(0.7, (1.0, 1.5, 0.5, 0.3), 0.4), (1.7, (0.5, 2.0, 0.0, 1.0), 0.9)]:
            diag = standard_weight(ModelParams(2, alpha, b)).diagonal_limit
            batched = _s_value(alpha, q, b, cs, diag, 32)
            single = np.array([_s_value(alpha, q, b, np.array([c]), diag, 32)[0] for c in cs])
            assert np.all(np.abs(batched - single) <= 1e-14 * np.abs(single))

    def test_symmetry_in_q(self):
        p = ModelParams(1, 1.5, (2.0, 3.0, 1.0, 1.0))
        w = standard_weight(p)
        for q in (0.9, -0.3, 1.3):
            v1 = compute_C(p, q, w, SPEC)
            v2 = compute_C(p, 1.5 - 1.0 - q, w, SPEC)
            assert abs(v1 - v2) <= 2e-10 * max(abs(v1), 1e-12)

    def test_sign_structure(self):
        p = ModelParams(1, 1.5, (1.0, 1.0, 0.0, 0.0))
        w = standard_weight(p)
        assert compute_C(p, 0.25, w, SPEC) < 0.0  # between the zeros
        assert compute_C(p, -0.5, w, SPEC) > 0.0
        assert compute_C(p, 1.5, w, SPEC) > 0.0

    def test_domain_errors(self):
        p = ModelParams(1, 0.5, (1.0, 1.0, 0.0, 0.0))
        w = standard_weight(p)
        with pytest.raises(ValueError):
            compute_C(p, -1.0, w, SPEC)
        with pytest.raises(ValueError):
            compute_C(p, 1.5, w, SPEC)


# (alpha, beta, qs) for the d = 1 rows: q < 0, q in (0, alpha - 1), q within
# 1e-3 of alpha + beta1, alpha >= 1.5 (the subtracted leading term), beta3
# and beta4 > 0
MAP_ROWS = [
    (0.7, (1.0, 1.5, 0.5, 0.3), [-0.9, -0.4, -1e-3, 0.2, 1.0, 1.7 - 5e-4, 1.7 - 1e-6]),
    (1.4, (0.5, 1.0, 0.0, 0.0), [-0.5, 0.1, 0.25, 0.39, 1.2, 1.9 - 2e-4, 1.9 - 1e-3]),
    (1.8, (0.8, 2.0, 1.0, 0.5), [-0.7, 0.2, 0.5, 0.79, 2.0, 2.6 - 1e-3, 2.6 - 3e-5]),
    (1.5, (0.0, 0.0, 0.0, 0.0), [-0.99, -0.2, 0.0, 0.25, 0.5, 1.2, 1.5 - 1e-3]),
]


def _alone(p, w, q, spec):
    """compute_C on q alone: its value or its error message."""
    try:
        return compute_C(p, q, w, spec)
    except NonConvergenceError as exc:
        return str(exc)


class TestMapRows:
    @pytest.mark.parametrize("alpha, b, qs", MAP_ROWS, ids=["q-neg-b3b4", "q-mid", "subtract", "plain"])
    @pytest.mark.parametrize("block", [64, 16384], ids=["small-blocks", "default"])
    @pytest.mark.parametrize("spec", [SPEC, QuadratureSpec()], ids=["tight", "default-spec"])
    def test_rows_are_bit_identical_to_each_q_alone(self, alpha, b, qs, block, spec, monkeypatch):
        p = ModelParams(1, alpha, b)
        w = standard_weight(p)
        alone = [compute_C(p, q, w, spec) for q in qs]
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", block)
        assert _c_rows(p, qs, w, spec) == alone
        # reversed and repeated rows: a value does not depend on its neighbours
        assert _c_rows(p, qs[::-1] + qs[:2], w, spec) == alone[::-1] + alone[:2]

    @pytest.mark.parametrize("alpha, b, qs", MAP_ROWS, ids=["q-neg-b3b4", "q-mid", "subtract", "plain"])
    @pytest.mark.parametrize("n_max", [16, 32, 64], ids=["one-round", "n32", "n64"])
    def test_rows_out_of_budget_hold_the_error(self, alpha, b, qs, n_max):
        spec = QuadratureSpec(max_subdivisions=n_max)
        p = ModelParams(1, alpha, b)
        w = standard_weight(p)
        got = [v if isinstance(v, float) else str(v) for v in _c_rows(p, qs, w, spec)]
        assert got == [_alone(p, w, q, spec) for q in qs]
        if n_max == 16:
            assert got == ["killing-constant integral did not converge (order 32 exceeds budget)"] * len(qs)

    @pytest.mark.parametrize("alpha, b", [(0.6, (1.0, 0.5, 0.5, 0.0)), (1.7, (0.5, 2.0, 0.0, 1.0))])
    def test_scan_values_are_the_map(self, alpha, b):
        p = ModelParams(1, alpha, b)
        w = standard_weight(p)
        table = scan_shape(p, w, 24, SPEC, strict=False)
        assert table.values == tuple(compute_C(p, q, w, SPEC) for q in table.qs)
        c_mid = compute_C(p, (alpha - 1.0) / 2.0, w, SPEC)
        assert table.min_value == min(min(table.values), c_mid)

    def test_scan_makes_no_single_q_call_outside_the_zero_search(self, monkeypatch):
        seen = []

        def counted(params, q, *rest):
            seen.append(q)
            return compute_C(params, q, *rest)

        p = ModelParams(1, 1.5, (1.0, 1.0, 0.0, 0.0))
        w = standard_weight(p)
        monkeypatch.setattr(killing, "compute_C", counted)
        monkeypatch.setattr(killing, "_refine_zero", lambda *args: 0.0)
        scan_shape(p, w, 24, SPEC, strict=False)
        assert seen == []


class TestSolveQ:
    def test_kappa_zero_branch_start(self):
        p = ModelParams(1, 1.5, (1.0, 1.0, 0.0, 0.0), kappa=0.0)
        assert solve_q(p, standard_weight(p), SPEC) == 0.5
        p2 = ModelParams(1, 0.8, (1.0, 1.0, 0.0, 0.0), kappa=0.0)
        assert solve_q(p2, standard_weight(p2), SPEC) == 0.0

    def test_round_trip(self):
        p = ModelParams(1, 1.0, (1.0, 0.0, 0.0, 0.0))
        w = standard_weight(p)
        q_star = 1.2
        kappa = compute_C(p, q_star, w, SPEC)
        assert abs(solve_q(p, w, SPEC, kappa=kappa) - q_star) <= 1e-8

    def test_monotone_in_kappa(self):
        p = ModelParams(1, 0.7, (1.5, 1.0, 0.5, 0.0))
        w = standard_weight(p)
        qs = [solve_q(p, w, SPEC, kappa=k) for k in (0.0, 0.1, 1.0, 10.0, 1e4)]
        assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))
        assert qs[-1] < p.alpha + p.beta[0]


class TestBracketedRoot:
    def test_stays_inside_its_bracket(self):
        seen = []

        def g(x):
            seen.append(x)
            return math.atan(20.0 * (x - 0.73)) + 0.1 * x

        g_lo, g_hi = g(0.0), g(5.0)
        seen.clear()
        x, gx = _bracketed_root(g, 0.0, g_lo, 5.0, g_hi, 0.0, lambda x: 1e-13)
        assert seen and all(0.0 < p < 5.0 for p in seen)
        assert gx == g(x) and abs(gx) < 1e-12

    def test_stops_on_the_residual(self):
        calls = []

        def g(x):
            calls.append(x)
            return x**3 - 2.0

        x, gx = _bracketed_root(g, 0.0, -2.0, 2.0, 6.0, 1e-6, lambda x: 1e-15)
        assert abs(gx) <= 1e-6 and calls[-1] == x
        # bisection would need about 20 halvings to get there
        assert len(calls) <= 12

    @pytest.mark.parametrize("width", [1e-3, 1e-12])
    def test_stops_on_the_width_of_a_step(self, width):
        calls = []

        def g(x):
            calls.append(x)
            return -1.0 if x < 0.3 else 1.0

        x, gx = _bracketed_root(g, 0.0, -1.0, 1.0, 1.0, 0.0, lambda x: width)
        assert abs(x - 0.3) < width and gx == g(x)
        # interpolation cannot help on a step; the bisection fallback bounds the cost
        assert len(calls) <= 2 * math.ceil(math.log2(1.0 / width))

    @pytest.mark.parametrize(
        "alpha, b, kappa",
        [(0.5, (1.0, 1.0, 0.0, 0.0), 1.0), (1.5, (2.0, 3.0, 1.0, 1.0), 0.3),
         (0.7, (1.5, 1.0, 0.5, 0.0), 10.0)],
    )
    def test_solve_q_call_count(self, alpha, b, kappa, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return compute_C(*args, **kwargs)

        p = ModelParams(1, alpha, b, kappa=kappa)
        w = standard_weight(p)
        monkeypatch.setattr(killing, "compute_C", counted)
        q = solve_q(p, w, SPEC)
        monkeypatch.undo()
        # bisection took about 31 calls on these
        assert len(calls) <= 14
        res_tol = max(SPEC.abs_tol, SPEC.rel_tol * (1.0 + kappa))
        assert abs(compute_C(p, q, w, SPEC) - kappa) <= res_tol

    def test_refine_zero_finds_both_zeros(self):
        p = ModelParams(1, 1.5, (1.0, 1.0, 0.0, 0.0))
        w = standard_weight(p)
        for qa, qb, zero in [(-0.13, 0.07, 0.0), (0.41, 0.62, 0.5)]:
            va, vb = compute_C(p, qa, w, SPEC), compute_C(p, qb, w, SPEC)
            assert abs(_refine_zero(p, w, SPEC, qa, qb, va, vb) - zero) <= 1e-12


class TestScanShape:
    def test_collapsed_zeros_at_alpha_one(self):
        p = ModelParams(1, 1.0, (1.0, 1.0, 0.0, 0.0))
        table = scan_shape(p, standard_weight(p), 32, SPEC)
        assert table.passed
        assert abs(table.zeros[0]) < 1e-6 and abs(table.zeros[1]) < 1e-6
        assert abs(table.min_value) < 1e-9

    def test_plain_weight_minimizer(self):
        p = ModelParams(1, 1.5, (0.0, 0.0, 0.0, 0.0))
        table = scan_shape(p, standard_weight(p), 64, SPEC)
        assert table.passed
        assert abs(table.minimizer - 0.25) < 0.05
        assert table.min_value < 0.0
        assert abs(table.zeros[0] - 0.0) < 1e-6
        assert abs(table.zeros[1] - 0.5) < 1e-6

    def test_verdicts_stable_under_grid_doubling(self):
        p = ModelParams(1, 0.7, (2.0, 3.0, 1.0, 1.0))
        t64 = scan_shape(p, standard_weight(p), 64, SPEC)
        t128 = scan_shape(p, standard_weight(p), 128, SPEC)
        assert t64.passed and t128.passed
        assert abs(t64.minimizer - t128.minimizer) < 0.1

    def test_grid_invariants(self):
        p = ModelParams(1, 1.2, (1.0, 1.0, 0.0, 0.0))
        table = scan_shape(p, standard_weight(p), 16, SPEC)
        qs = np.array(table.qs)
        assert np.all(np.diff(qs) > 0)
        assert qs[0] > -1.0 and qs[-1] < p.alpha + p.beta[0]

    def test_grid_size_validation(self):
        p = ModelParams(1, 1.2, (1.0, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            scan_shape(p, standard_weight(p), 4, SPEC)
