import math

import mpmath as mp
import numpy as np
import pytest

from dkl.geometry import ModelParams
from dkl.green import (
    GreenDivergenceError,
    GreenRangeError,
    _large_time_exact,
    eval_Hq,
    green_by_time_integration,
    green_estimate,
    green_free,
)
from conftest import dyadic_point, pow2, pt, ulp_close

E = math.e


class TestEvalHq:
    def test_below_transition(self):
        p = ModelParams(2, 0.5, (1, 1, 0, 0))
        assert eval_Hq(p, 0.6, pt(0.0, 1.0), pt(1.0, 1.5)) == 1.0

    def test_at_transition_clamped(self):
        p = ModelParams(2, 0.5, (1, 1, 0, 0.3))
        q = 0.5 + 1.0  # alpha + (b1+b2)/2
        x, y = pt(0.0, 5.0), pt(1.0, 5.2)  # max height >= distance
        assert eval_Hq(p, q, x, y) == math.log(E + 1.0) ** 1.3

    def test_above_transition(self):
        p = ModelParams(2, 0.5, (1, 1, 0, 0))
        q = 1.5 + 0.25
        x, y = pt(0.0, 0.0), pt(2.0, 1.0)  # max height = dist/2 roughly
        dist = x.distance_to(y)
        expect = (1.0 / dist) ** (2 * 0.5 + 2 - 2 * q)
        assert eval_Hq(p, q, x, y) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("q", [1e3, 1e300, 1e308])
    def test_overflow_is_infinite(self, q):
        # min(hmax/dist, 1)^(2 alpha + b1 + b2 - 2q) passes the float range
        p = ModelParams(2, 1.2, (0.5, 2.0, 0.3, 0.0))
        assert eval_Hq(p, q, pt(0.0, 1.0), pt(3.0, 0.5)) == math.inf


class TestGreenFree:
    def test_transient(self):
        p = ModelParams(2, 1.0, (0, 0, 0, 0))
        assert green_free(p, pt(0.0, 1.0), pt(4.0, 1.0)) == 0.25

    def test_recurrent_is_infinite(self):
        assert green_free(ModelParams(1, 1.0, (0, 0, 0, 0)), pt(1.0), pt(2.0)) == math.inf
        assert green_free(ModelParams(1, 1.5, (0, 0, 0, 0)), pt(1.0), pt(2.0)) == math.inf


class TestGreenEstimate:
    def test_d2_clamped(self):
        p = ModelParams(2, 0.5, (1, 1, 0, 0))
        x, y = pt(0.0, 2.0), pt(1.0, 2.5)  # both heights above the distance
        g = green_estimate(p, 0.6, x, y)
        assert g.value == pytest.approx(x.distance_to(y) ** -1.5, rel=1e-14)
        assert g.H_factor == 1.0

    def test_d1_log_branch(self):
        p = ModelParams(1, 1.0, (1, 1, 0, 0))
        x, y = pt(8.0), pt(9.0)  # deep pair: min height 8, distance 1
        g = green_estimate(p, 0.5, x, y)
        assert g.value == pytest.approx(math.log(E + 8.0), rel=1e-14)

    def test_d1_supercritical_branch(self):
        p = ModelParams(1, 1.5, (1, 1, 0, 0))
        g = green_estimate(p, 0.7, pt(0.1), pt(5.1))
        assert g.value == pytest.approx(0.1**0.5 * (0.1 / 5.0) ** 0.2, rel=1e-14)

    def test_alpha_le_one_requires_positive_q(self):
        p = ModelParams(1, 0.8, (1, 1, 0, 0))
        with pytest.raises(ValueError):
            green_estimate(p, 0.0, pt(1.0), pt(2.0))

    @pytest.mark.parametrize("q", [1e3, 1e300, 1e308])
    def test_infinite_boundary_factor_raises(self, q):
        p = ModelParams(2, 1.2, (0.5, 2.0, 0.3, 0.0))
        with pytest.raises(GreenRangeError, match="boundary factor H overflows"):
            green_estimate(p, q, pt(0.0, 1.0), pt(3.0, 0.5))

    def test_qhat_field(self):
        p = ModelParams(2, 0.7, (1.0, 0.5, 0, 0))
        g = green_estimate(p, 0.9, pt(0.0, 1.0), pt(1.0, 1.0))
        assert g.q_hat == 2 * 0.7 + 1.5 - 0.9

    def test_symmetry_exact(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            p = ModelParams(dim, float(rng.uniform(0.2, 1.9)), (1.0, 0.5, 0.0, 0.5))
            q = float(rng.uniform(0.1, p.alpha + 0.9))
            x, y = dyadic_point(rng, dim), dyadic_point(rng, dim)
            if x.distance_to(y) == 0.0:
                continue
            assert green_estimate(p, q, x, y).value == green_estimate(p, q, y, x).value

    def test_scaling_of_normalized_value(self, rng):
        # value * dist^(d - alpha) is scale free
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            alpha = float(rng.uniform(0.2, 1.9))
            p = ModelParams(dim, alpha, (1.0, 0.5, 0.0, 0.5))
            q = float(rng.uniform(0.1, alpha + 0.9))
            x, y = dyadic_point(rng, dim), dyadic_point(rng, dim)
            if x.distance_to(y) == 0.0:
                continue
            a = pow2(rng, 20)
            g1 = green_estimate(p, q, x, y)
            g2 = green_estimate(p, q, x.scaled(a), y.scaled(a))
            n1 = g1.value * x.distance_to(y) ** (dim - alpha)
            n2 = g2.value * (x.distance_to(y) * a) ** (dim - alpha)
            assert ulp_close(n1, n2, 8.0)

    def test_monotone_in_heights_at_fixed_distance(self):
        # equal heights at unit tangential separation keep |x-y| fixed;
        # every printed height exponent is then nonnegative in both branches
        heights = np.linspace(0.05, 3.0, 12)
        for q in (1.0, 2.2):  # below and above the transition at 1.8
            p = ModelParams(2, 0.8, (1.0, 1.0, 0.0, 0.0))
            vals = [
                green_estimate(p, q, pt(0.0, float(h)), pt(1.0, float(h))).value
                for h in heights
            ]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_phase_transition_continuity(self):
        p = ModelParams(2, 0.7, (1.0, 0.5, 0.0, 0.5))
        q_star = 0.7 + 0.75
        x, y = pt(0.0, 0.3), pt(1.0, 0.4)
        lo = green_estimate(p, q_star - 1e-6, x, y).value
        hi = green_estimate(p, q_star + 1e-6, x, y).value
        mid = green_estimate(p, q_star, x, y).value
        # adjacent branches stay within a modest factor of the critical one
        assert 0.1 < lo / mid < 10.0
        assert 0.1 < hi / mid < 10.0


class TestGreenByTimeIntegration:
    def test_interior_small_time_is_order_one(self):
        # scaled min height >= 1: the small-time part integrates t over (0,1)
        p = ModelParams(2, 1.0, (1, 1, 0, 0))
        x, y = pt(0.0, 5.0), pt(1.0, 5.0)
        gi = green_by_time_integration(p, 1.5, x, y)
        assert 0.1 < gi.small_time < 10.0

    def test_matches_closed_form_within_constants(self, rng):
        for d, alpha, q in [(1, 1.5, 0.7), (2, 0.9, 1.1), (2, 1.3, 2.2)]:
            p = ModelParams(d, alpha, (1.0, 1.0, 0.0, 0.0))
            for _ in range(8):
                x, y = dyadic_point(rng, d), dyadic_point(rng, d)
                if x.distance_to(y) == 0.0:
                    continue
                gi = green_by_time_integration(p, q, x, y)
                gc = green_estimate(p, q, x, y)
                assert 0.05 < gi.value / gc.value < 20.0

    def test_bit_symmetric_under_swap(self):
        rng = np.random.default_rng(64)
        cases = [(1, 0.6, 0.5), (2, 1.0, 2.25), (2, 1.5, 3.25), (3, 0.8, 0.4)]
        for d, alpha, q in cases:
            p = ModelParams(d, alpha, (2.0, 0.5, 0.3, 0.2))
            for _ in range(16):
                x, y = dyadic_point(rng, d), dyadic_point(rng, d)
                if x.distance_to(y) == 0.0:
                    continue
                assert green_by_time_integration(p, q, x, y) == green_by_time_integration(
                    p, q, y, x
                )

    @pytest.mark.parametrize("q", [1023.0, 1024.0, 1e10])
    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (1000.0, 1001.0)])
    def test_large_time_past_the_power_overflow(self, a, b, q):
        # from q = 1024 on b^q, or the product a^q b^q, overflows; the
        # reference integrates the clamped power with mpmath, the layers of
        # width a/q and b/q past the clamp ends split off
        with mp.workdps(40):
            e0, mq = mp.mpf(1.2) - 2, mp.mpf(q)
            pts = sorted({mp.mpf(1), mp.inf, *(max(h, 1.0) * (1 + k / mq) for h in (a, b)
                                               for k in (0, 1, 30))})
            ref = 1.2 * mp.quad(lambda t: t**e0 * min(1, a / t) ** q * min(1, b / t) ** q, pts)
        assert _large_time_exact(1, 1.2, q, a, b) == pytest.approx(float(ref), rel=1e-12)

    def test_boundary_factor_overflow_raises(self):
        p = ModelParams(2, 1.2, (0.5, 2.0, 0.3, 0.0))
        with pytest.raises(GreenRangeError, match="boundary factor H overflows at q = 322"):
            green_by_time_integration(p, 322.0, pt(0.0, 1.0), pt(3.0, 0.5))

    def test_divergent_tail_raises(self):
        p = ModelParams(1, 1.5, (0, 0, 0, 0))
        with pytest.raises(GreenDivergenceError):
            green_by_time_integration(p, 0.2, pt(1.0), pt(2.0))

    def test_critical_log_slope(self):
        # at q = qhat the small-time part gains a log^(b4+1) factor
        p = ModelParams(2, 1.0, (1.0, 1.0, 0.0, 0.7))
        q = 2.0
        ys = np.geomspace(1e-8, 1e-20, 9)
        vals = []
        for yd in ys:
            gi = green_by_time_integration(p, q, pt(0.0, float(yd)), pt(1.0, float(yd)))
            vals.append(gi.small_time / yd ** (2 * q))
        lx = np.log(np.log(E + 1.0 / ys))
        slope, _ = np.polyfit(lx, np.log(vals), 1)
        assert abs(slope - 1.7) / 1.7 < 0.15
