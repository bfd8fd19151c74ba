import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

import dkl.killing as killing
import dkl.quadrature as quadrature
from dkl.geometry import ModelParams
from dkl.killing import (
    _bracketed_root,
    _c_rows,
    _MapWeight,
    _refine_zero,
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


def qaws_C_d1(alpha: float, q: float, b) -> float:
    """Independent reference for alpha near 2: SciPy's ``quad`` on s in
    (0, 1/2), and QAWS with the algebraic weight u^(1-alpha) on u = 1 - s in
    (0, 1/2), the rest of the integrand formed through expm1/log1p."""
    b1, b2, b3, b4 = b
    e2 = alpha - q - 1.0

    def weight(s, dist):
        w = min(s / dist, 1.0) ** b1 * min(1.0 / dist, 1.0) ** b2
        if b3 > 0:
            w *= math.log(math.e + min(1.0, dist) / min(s, dist)) ** b3
        if b4 > 0:
            w *= math.log(math.e + dist / min(1.0, dist)) ** b4
        return w

    def left(s):
        return (s**q - 1.0) * (1.0 - s**e2) / (1.0 - s) ** (1.0 + alpha) * weight(s, 1.0 - s)

    def right(u):
        u = max(u, 1e-300)  # QAWS samples the endpoint, where this factor is continuous
        ls = math.log1p(-u)
        return (math.expm1(q * ls) / u) * (-math.expm1(e2 * ls) / u) * weight(1.0 - u, u)

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    return (quad(left, 0.0, 0.5, **opts)[0]
            + quad(right, 0.0, 0.5, weight="alg", wvar=(1.0 - alpha, 0.0), **opts)[0])


class TestComputeC:
    def test_zero_at_trivial_exponents(self):
        for alpha, b in [(0.5, (1, 1, 0, 0)), (1.5, (2, 3, 1, 1)), (1.9, (0, 0, 0, 0))]:
            p = ModelParams(1, alpha, b)
            assert compute_C(p, 0.0, SPEC) == 0.0
            if -1.0 < alpha - 1.0:
                assert compute_C(p, alpha - 1.0, SPEC) == 0.0

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
        mine = compute_C(p, q, SPEC)
        ref = brute_force_C(d, alpha, q, p.beta)
        assert mine > 0.0
        assert abs(mine - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.3, 1.8])
    def test_unit_weight_dimension_identity(self, alpha):
        # beta = 0: C_d = C_1 |S^(d-2)| G((d-1)/2) G((alpha+1)/2) / (2 G((d+alpha)/2)),
        # which needs the outer rule resolved at its cos^alpha singularity
        q = 0.5 * alpha - 0.25
        p1 = ModelParams(1, alpha, (0.0, 0.0, 0.0, 0.0))
        c1 = compute_C(p1, q, SPEC)
        for d in (2, 3):
            p = ModelParams(d, alpha, (0.0, 0.0, 0.0, 0.0))
            sphere = 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
            factor = sphere * math.gamma((d - 1) / 2.0) * math.gamma((alpha + 1.0) / 2.0) / (
                2.0 * math.gamma((d + alpha) / 2.0)
            )
            want = c1 * factor
            assert abs(compute_C(p, q, SPEC) - want) <= 10.0 * SPEC.tol(want)

    @pytest.mark.parametrize("block", [1, 16384], ids=["row-per-block", "default"])
    def test_tangential_weight_does_not_depend_on_blocks(self, block, monkeypatch):
        # every node's phi-integral is a row of its own, whatever shares its block
        x = -np.geomspace(0.7, 1e4, 9)
        for d, alpha, b in [(2, 0.7, (1.0, 1.5, 0.5, 0.3)), (3, 1.7, (0.5, 2.0, 0.0, 1.0))]:
            p = ModelParams(d, alpha, b)
            want = _MapWeight(p, SPEC)
            monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", block)
            got = _MapWeight(p, SPEC)
            monkeypatch.undo()
            assert np.array_equal(got.log_left(x), want.log_left(x))
            got_r, want_r = got.right((16, 32)), want.right((16, 32))
            assert all(np.array_equal(g, h) for g, h in zip(got_r[:4], want_r[:4]))

    @pytest.mark.parametrize("alpha", [1.98, 1.985, 1.99, 1.995, 1.999])
    @pytest.mark.parametrize("q, b", [(0.5, (0.5, 1.0, 0.0, 0.0)), (1.2, (1.0, 1.5, 0.5, 0.3))],
                             ids=["b2", "b1234"])
    def test_alpha_near_two(self, alpha, q, b):
        # the grading sends the smallest u to 0, where the right half's remainder is 0
        params = ModelParams(1, alpha, b)
        got = compute_C(params, q)
        want = qaws_C_d1(alpha, q, b)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_symmetry_in_q(self):
        p = ModelParams(1, 1.5, (2.0, 3.0, 1.0, 1.0))
        for q in (0.9, -0.3, 1.3):
            v1 = compute_C(p, q, SPEC)
            v2 = compute_C(p, 1.5 - 1.0 - q, SPEC)
            assert abs(v1 - v2) <= 2e-10 * max(abs(v1), 1e-12)

    def test_sign_structure(self):
        p = ModelParams(1, 1.5, (1.0, 1.0, 0.0, 0.0))
        assert compute_C(p, 0.25, SPEC) < 0.0  # between the zeros
        assert compute_C(p, -0.5, SPEC) > 0.0
        assert compute_C(p, 1.5, SPEC) > 0.0

    def test_domain_errors(self):
        p = ModelParams(1, 0.5, (1.0, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            compute_C(p, -1.0, SPEC)
        with pytest.raises(ValueError):
            compute_C(p, 1.5, SPEC)


def direct_log_W(d: int, alpha: float, b, w: float) -> float:
    """Independent reference for log W(e^w), the tangential average of the
    weight at heights (s, 1), s = e^w, and distance (1-s) sec(theta):
    SciPy's ``quad`` over theta, split at the kinks distance = 1 and
    distance = s, with the weight in log space so that deep w do not
    underflow."""
    b1, b2, b3, b4 = b
    s = math.exp(w)
    norm = b1 * w + b3 * math.log(-w + math.log1p(math.exp(1.0 + w)))

    def f(th):
        ln_dist = math.log1p(-s) - math.log(math.cos(th))
        ln_b = b1 * min(w - ln_dist, 0.0) + b2 * min(-ln_dist, 0.0)
        if b3 > 0:
            ln_k = min(0.0, ln_dist)  # log min(1, dist); min(s, dist) = s below
            ln_k_s = ln_k - w if w < ln_dist else 0.0
            ln_b += b3 * math.log(ln_k_s + math.log1p(math.exp(1.0 - ln_k_s)))
        if b4 > 0:
            ln_b += b4 * math.log(math.log(math.e + math.exp(max(ln_dist, 0.0))))
        return math.exp(ln_b - norm) * math.sin(th) ** (d - 2) * math.cos(th) ** alpha

    cuts = [0.0, math.pi / 2.0]
    cuts.append(2.0 * math.asin(math.sqrt(s / 2.0)))  # distance 1
    if s > 0.5:
        cuts.append(math.acos((1.0 - s) / s))  # distance s
    cuts = sorted(c for c in set(cuts) if 0.0 <= c <= math.pi / 2.0)
    total = sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:]))
    surface = {2: 2.0, 3: 2.0 * math.pi}[d]
    return math.log(surface * total) + norm


def identity_factor(d: int, alpha: float) -> float:
    """|S^(d-2)| G((d-1)/2) G((alpha+1)/2) / (2 G((d+alpha)/2)): W for beta = 0."""
    sphere = 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
    return sphere * math.gamma((d - 1) / 2.0) * math.gamma((alpha + 1.0) / 2.0) / (
        2.0 * math.gamma((d + alpha) / 2.0))


class TestTangentialWeight:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.3, 1.3, 1.8])
    def test_unit_weight_is_the_identity_factor(self, d, alpha):
        p = ModelParams(d, alpha, (0.0, 0.0, 0.0, 0.0))
        mw = _MapWeight(p, SPEC)
        want = identity_factor(d, alpha)
        assert mw.diag == pytest.approx(want, rel=1e-15)
        # the left half down to s = e^-1e4, the right half at every node
        left = np.exp(mw.log_left(-np.geomspace(math.log(2.0), 1e4, 200)))
        assert np.abs(left / want - 1.0).max() <= 1e-13
        _, _, wvals, wdiff, _ = mw.right((16, 32, 64))
        assert np.all(wdiff == 0.0) and np.all(wvals == mw.diag)

    def test_build_checks_the_constant_tail(self, monkeypatch):
        # cut at w = -3, where A is still e^-3-ish away from its deep value
        monkeypatch.setattr(killing, "_W_CUT", -3.0)
        p = ModelParams(2, 0.9, (1.0, 1.5, 0.5, 0.0))
        with pytest.raises(NonConvergenceError, match="not constant below w = -3"):
            _MapWeight(p, SPEC)

    @pytest.mark.parametrize("d, alpha, b", [
        (2, 0.9, (1.0, 1.5, 0.5, 0.0)),
        (3, 1.7, (0.5, 1.5, 0.3, 0.2)),
        (2, 0.3, (2.0, 3.0, 1.0, 1.5)),
    ], ids=["d2-b123", "d3-b1234", "d2-large-b"])
    def test_against_direct_theta_quadrature(self, d, alpha, b):
        p = ModelParams(d, alpha, b)
        mw = _MapWeight(p, SPEC)
        bound = 3.0 * SPEC.rel_tol / 10.0
        # the left half: near s = 1/2, across the interpolant, and below its cut
        ws = [math.log(0.5 - 1e-6), math.log(0.49), -2.0, -7.5, -39.0, -45.0, -300.0, -1e4]
        got = mw.log_left(np.array(ws))
        for w, g in zip(ws, got):
            assert abs(g - direct_log_W(d, alpha, b, w)) <= bound, w
        # the right half at nodes next to u = 1/2 (s just above 1/2) and further in
        u, _, wvals, wdiff, _ = mw.right((32,))
        for i in [len(u) - 1, len(u) - 5, len(u) // 2, 10]:
            want = math.exp(direct_log_W(d, alpha, b, math.log1p(-u[i])))
            assert abs(wvals[i] - want) <= bound * want, u[i]
            assert wdiff[i] == wvals[i] - mw.diag or abs(wdiff[i] - (want - mw.diag)) <= bound * want


# (dim, alpha, beta, qs) for the rows: in d = 1 q < 0, q in (0, alpha - 1), q
# within 1e-3 of alpha + beta1, alpha >= 1.5 (the subtracted leading term),
# beta3 and beta4 > 0; in d = 2 and 3 the tangential average, with and
# without the subtracted term
MAP_ROWS = [
    (1, 0.7, (1.0, 1.5, 0.5, 0.3), [-0.9, -0.4, -1e-3, 0.2, 1.0, 1.7 - 5e-4, 1.7 - 1e-6]),
    (1, 1.4, (0.5, 1.0, 0.0, 0.0), [-0.5, 0.1, 0.25, 0.39, 1.2, 1.9 - 2e-4, 1.9 - 1e-3]),
    (1, 1.8, (0.8, 2.0, 1.0, 0.5), [-0.7, 0.2, 0.5, 0.79, 2.0, 2.6 - 1e-3, 2.6 - 3e-5]),
    (1, 1.5, (0.0, 0.0, 0.0, 0.0), [-0.99, -0.2, 0.0, 0.25, 0.5, 1.2, 1.5 - 1e-3]),
    (2, 0.7, (1.0, 1.5, 0.5, 0.3), [-0.9, -0.2, 0.2, 1.0, 1.7 - 1e-3]),
    (3, 1.7, (0.5, 2.0, 0.0, 1.0), [-0.6, 0.3, 0.7, 1.5, 2.2 - 1e-3]),
]
MAP_IDS = ["q-neg-b3b4", "q-mid", "subtract", "plain", "d2", "d3-subtract"]


def _alone(p, q, spec):
    """compute_C on q alone: its value or its error message."""
    try:
        return compute_C(p, q, spec)
    except NonConvergenceError as exc:
        return str(exc)


class TestMapRows:
    @pytest.mark.parametrize("d, alpha, b, qs", MAP_ROWS, ids=MAP_IDS)
    @pytest.mark.parametrize("block", [64, 16384], ids=["small-blocks", "default"])
    @pytest.mark.parametrize("spec", [SPEC, QuadratureSpec()], ids=["tight", "default-spec"])
    def test_rows_are_bit_identical_to_each_q_alone(self, d, alpha, b, qs, block, spec, monkeypatch):
        p = ModelParams(d, alpha, b)
        alone = [compute_C(p, q, spec) for q in qs]
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", block)
        mw = _MapWeight(p, spec)
        assert _c_rows(mw, qs, spec) == alone
        # reversed and repeated rows: a value does not depend on its neighbours
        assert _c_rows(mw, qs[::-1] + qs[:2], spec) == alone[::-1] + alone[:2]

    @pytest.mark.parametrize("d, alpha, b, qs", MAP_ROWS, ids=MAP_IDS)
    @pytest.mark.parametrize("n_max", [16, 32, 64], ids=["one-round", "n32", "n64"])
    def test_rows_out_of_budget_hold_the_error(self, d, alpha, b, qs, n_max):
        spec = QuadratureSpec(max_subdivisions=n_max)
        p = ModelParams(d, alpha, b)
        got = [v if isinstance(v, float) else str(v) for v in _c_rows(_MapWeight(p, spec), qs, spec)]
        assert got == [_alone(p, q, spec) for q in qs]
        if n_max == 16:
            assert got == ["killing-constant integral did not converge (order 32 exceeds budget)"] * len(qs)

    @pytest.mark.parametrize("alpha, b", [(0.6, (1.0, 0.5, 0.5, 0.0)), (1.7, (0.5, 2.0, 0.0, 1.0))])
    def test_scan_values_are_the_map(self, alpha, b):
        p = ModelParams(1, alpha, b)
        table = scan_shape(p, 24, SPEC)
        assert table.values == tuple(compute_C(p, q, SPEC) for q in table.qs)
        c_mid = compute_C(p, (alpha - 1.0) / 2.0, SPEC)
        assert table.min_value == min(min(table.values), c_mid)

    def test_scan_makes_no_single_q_call_outside_the_zero_search(self, monkeypatch):
        seen = []

        def counted(params, q, *rest):
            seen.append(q)
            return compute_C(params, q, *rest)

        p = ModelParams(1, 1.5, (1.0, 1.0, 0.0, 0.0))
        monkeypatch.setattr(killing, "compute_C", counted)
        monkeypatch.setattr(killing, "_refine_zero", lambda *args: 0.0)
        scan_shape(p, 24, SPEC)
        assert seen == []

    @pytest.mark.parametrize("d", [2, 3])
    def test_higher_dimension_scan_builds_one_weight_and_one_batch(self, d, monkeypatch):
        # outside the zero search, the scan builds the tangential average once
        # and passes every q through one batch of rows
        built, batches = [], []
        make, rows = killing._MapWeight, killing._c_rows

        def counted_weight(*args):
            built.append(args)
            return make(*args)

        def counted_rows(mw, qs, spec):
            batches.append(len(qs))
            return rows(mw, qs, spec)

        p = ModelParams(d, 1.4, (0.0, 1.5, 0.0, 0.5))
        monkeypatch.setattr(killing, "_MapWeight", counted_weight)
        monkeypatch.setattr(killing, "_c_rows", counted_rows)
        monkeypatch.setattr(killing, "compute_C", None)
        monkeypatch.setattr(killing, "_refine_zero", lambda *args: 0.0)
        scan_shape(p, 8, SPEC)
        assert len(built) == 1 and batches == [8 + 1 + 2]


class TestRightHalf:
    @pytest.mark.parametrize("d", [1, 2])
    def test_second_call_returns_the_same_read_only_arrays(self, d):
        mw = _MapWeight(ModelParams(d, 1.4, (0.0, 1.5, 0.0, 0.5)), SPEC)
        first = mw.right((16, 32))
        again = mw.right((16, 32))
        arrays = [*first[:4], *first[4]]
        assert all(a is b for a, b in zip(arrays, [*again[:4], *again[4]]))
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            first[0][0] = 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_warmed_weight_gives_the_bits_of_a_fresh_one(self, d):
        # one-q calls warm the right half up to order 128, as Brent steps do
        p = ModelParams(d, 0.6, (1.0, 0.5, 0.5, 0.0))
        qs = [-0.9, 0.3, 1.5]
        warm = _MapWeight(p, SPEC)
        for q in qs:
            _c_rows(warm, [q], SPEC)
        assert max(max(orders) for orders in warm._right) >= 64
        assert _c_rows(warm, qs, SPEC) == _c_rows(_MapWeight(p, SPEC), qs, SPEC)


class TestSolveQ:
    @pytest.mark.parametrize(
        "d, alpha, b, kappa, q, residual",
        [
            (1, 0.5, (1.0, 1.0, 0.0, 0.0), 1.0, 0.6744408531249361, -1.220223921905017e-11),
            (1, 1.5, (2.0, 3.0, 1.0, 1.0), 0.3, 0.6382244777359226, -6.661726725809558e-12),
            (1, 1.7, (0.5, 2.0, 0.0, 1.0), 2.0, 1.0711207053499507, -1.5587531265737198e-13),
            (2, 1.2, (0.5, 2.0, 0.3, 0.0), 0.7, 0.5529316292930652, -4.427569422205124e-12),
        ],
    )
    def test_pinned_answer_and_residual(self, d, alpha, b, kappa, q, residual):
        # reusing the right half between Brent steps keeps every bit
        assert killing._solve_q(ModelParams(d, alpha, b, kappa=kappa), SPEC) == (q, residual)

    def test_kappa_zero_branch_start(self):
        p = ModelParams(1, 1.5, (1.0, 1.0, 0.0, 0.0), kappa=0.0)
        assert solve_q(p, SPEC) == 0.5
        p2 = ModelParams(1, 0.8, (1.0, 1.0, 0.0, 0.0), kappa=0.0)
        assert solve_q(p2, SPEC) == 0.0

    def test_round_trip(self):
        p = ModelParams(1, 1.0, (1.0, 0.0, 0.0, 0.0))
        q_star = 1.2
        kappa = compute_C(p, q_star, SPEC)
        assert abs(solve_q(replace(p, kappa=kappa), SPEC) - q_star) <= 1e-8

    def test_monotone_in_kappa(self):
        p = ModelParams(1, 0.7, (1.5, 1.0, 0.5, 0.0))
        qs = [solve_q(replace(p, kappa=k), SPEC) for k in (0.0, 0.1, 1.0, 10.0, 1e4)]
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

        def counted(mw, qs, spec):
            calls.append(qs)
            return rows(mw, qs, spec)

        rows = killing._c_rows
        p = ModelParams(1, alpha, b, kappa=kappa)
        monkeypatch.setattr(killing, "_c_rows", counted)
        q = solve_q(p, SPEC)
        monkeypatch.undo()
        # bisection took about 31 calls on these; each evaluates one q
        assert len(calls) <= 14 and all(len(qs) == 1 for qs in calls)
        res_tol = max(SPEC.abs_tol, SPEC.rel_tol * (1.0 + kappa))
        assert abs(compute_C(p, q, SPEC) - kappa) <= res_tol

    def test_refine_zero_finds_both_zeros(self):
        p = ModelParams(1, 1.5, (1.0, 1.0, 0.0, 0.0))
        for qa, qb, zero in [(-0.13, 0.07, 0.0), (0.41, 0.62, 0.5)]:
            va, vb = compute_C(p, qa, SPEC), compute_C(p, qb, SPEC)
            assert abs(_refine_zero(_MapWeight(p, SPEC), SPEC, qa, qb, va, vb) - zero) <= 1e-12


class TestScanShape:
    def test_collapsed_zeros_at_alpha_one(self):
        p = ModelParams(1, 1.0, (1.0, 1.0, 0.0, 0.0))
        table = scan_shape(p, 32, SPEC)
        assert table.passed
        assert abs(table.zeros[0]) < 1e-6 and abs(table.zeros[1]) < 1e-6
        assert abs(table.min_value) < 1e-9

    def test_plain_weight_minimizer(self):
        p = ModelParams(1, 1.5, (0.0, 0.0, 0.0, 0.0))
        table = scan_shape(p, 64, SPEC)
        assert table.passed
        assert abs(table.minimizer - 0.25) < 0.05
        assert table.min_value < 0.0
        assert abs(table.zeros[0] - 0.0) < 1e-6
        assert abs(table.zeros[1] - 0.5) < 1e-6

    def test_verdicts_stable_under_grid_doubling(self):
        p = ModelParams(1, 0.7, (2.0, 3.0, 1.0, 1.0))
        t64 = scan_shape(p, 64, SPEC)
        t128 = scan_shape(p, 128, SPEC)
        assert t64.passed and t128.passed
        assert abs(t64.minimizer - t128.minimizer) < 0.1

    def test_grid_invariants(self):
        p = ModelParams(1, 1.2, (1.0, 1.0, 0.0, 0.0))
        table = scan_shape(p, 16, SPEC)
        assert table.passed
        qs = np.array(table.qs)
        assert np.all(np.diff(qs) > 0)
        assert qs[0] > -1.0 and qs[-1] < p.alpha + p.beta[0]

    @pytest.mark.parametrize(
        "d, alpha, b",
        [(1, 1.5, (1.0, 1.0, 0.0, 0.0)), (1, 0.6, (1.0, 0.5, 0.5, 0.0)),
         (2, 1.4, (0.0, 1.5, 0.0, 0.5))],
    )
    def test_exact_zero_checks_end_the_zero_search(self, d, alpha, b, monkeypatch):
        # C is exactly 0 at both zero checks, so both brackets close on them
        # with no evaluation past the one batch
        batches = []
        rows = killing._c_rows

        def counted(mw, qs, spec):
            batches.append(len(qs))
            return rows(mw, qs, spec)

        monkeypatch.setattr(killing, "_c_rows", counted)
        table = scan_shape(ModelParams(d, alpha, b), 24)
        assert batches == [24 + 1 + 2]
        assert table.zeros == (min(alpha - 1.0, 0.0), max(alpha - 1.0, 0.0))

    @pytest.mark.parametrize("nudge", [1e-300, -1e-300])
    def test_nonzero_check_still_refines(self, nudge, monkeypatch):
        # the zero checks read a tiny nonzero value: each bracket narrows to
        # one end at the check and Brent's method refines from there
        batches = []
        rows = killing._c_rows

        def nudged(mw, qs, spec):
            batches.append(len(qs))
            out = rows(mw, qs, spec)
            if len(qs) > 1:
                assert out[-2:] == [0.0, 0.0]
                out[-2:] = [nudge, nudge]
            return out

        monkeypatch.setattr(killing, "_c_rows", nudged)
        table = scan_shape(ModelParams(1, 1.5, (1.0, 1.0, 0.0, 0.0)), 24, SPEC)
        assert len(batches) > 1
        assert abs(table.zeros[0]) <= 1e-12 and abs(table.zeros[1] - 0.5) <= 1e-12

    def test_grid_size_validation(self):
        p = ModelParams(1, 1.2, (1.0, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            scan_shape(p, 4, SPEC)
