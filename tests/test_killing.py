import math

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from dkl.geometry import ModelParams, standard_weight
from dkl.killing import compute_C, scan_shape, solve_q
from dkl.quadrature import QuadratureSpec

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
