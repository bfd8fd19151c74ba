import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkl.geometry import (
    AdmissibilityError,
    HalfSpacePoint,
    ModelParams,
    eval_A,
    eval_B,
    eval_J,
    lift_ed,
    stable_factor,
    stable_profile,
    survival_factor,
    weight_from_heights,
    weight_from_heights_arr,
)

from conftest import dyadic_point, pow2, pt, ulp_close

E = math.e


class TestHalfSpacePoint:
    def test_distance_euclidean(self):
        x = pt(1.0, 2.0, 3.0)
        y = pt(4.0, 6.0, 3.0)
        assert x.distance_to(y) == 5.0
        assert x.distance_to(x) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HalfSpacePoint(2, (0.0,), -1.0)
        with pytest.raises(ValueError):
            HalfSpacePoint(2, (), 1.0)
        with pytest.raises(ValueError):
            HalfSpacePoint(1, (), math.inf)

    def test_lift(self):
        x = pt(1.0, 0.0)
        assert lift_ed(x, 0.0) == x
        assert lift_ed(pt(0.0), 1.0) == pt(1.0)
        a, b = 0.3, 1.4
        assert lift_ed(lift_ed(x, a), b).height == lift_ed(x, a + b).height


class TestEvalB:
    def test_all_zero_exponents(self):
        assert eval_B((0, 0, 0, 0), pt(0.5), pt(3.0)) == 1.0

    def test_clamped_ratios(self):
        # both heights 1 at distance 1: both power ratios clamp
        x = pt(0.0, 1.0)
        y = pt(1.0, 1.0)
        val = eval_B((1, 1, 0, 0), x, y)
        assert val == 1.0

    def test_high_precision_value(self):
        # direct substitution, 50-digit reference
        x = pt(0.0, 0.1)
        y = pt(1.0, 0.5)
        val = eval_B((1, 2, 1, 1), x, y)
        assert abs(val - 0.064756900964483812415) < 1e-16

    def test_coincident_points_raise(self):
        with pytest.raises(ValueError):
            eval_B((1, 1, 0, 0), pt(1.0), pt(1.0))

    def test_admissibility(self):
        with pytest.raises(AdmissibilityError):
            eval_B((0, 1, 1, 0), pt(1.0), pt(2.0))
        with pytest.raises(AdmissibilityError):
            eval_B((1, 0, 0, 1), pt(1.0), pt(2.0))
        with pytest.raises(AdmissibilityError):
            eval_B((-1, 0, 0, 0), pt(1.0), pt(2.0))

    def test_boundary_convention(self):
        # vanishing height with positive paired exponent gives 0
        assert eval_B((1, 1, 0, 0), pt(0.0), pt(2.0)) == 0.0
        assert eval_B((2, 1, 1, 0), pt(0.0), pt(2.0)) == 0.0
        # with zero first exponent the factor is just absent
        assert eval_B((0, 1, 0, 0), pt(0.0, 0.0), pt(4.0, 3.0)) == 0.6
        # both heights zero
        assert eval_B((0, 1, 0, 1), pt(0.0, 0.0), pt(3.0, 0.0)) == 0.0
        assert eval_B((0, 0, 0, 0), pt(0.0, 0.0), pt(3.0, 0.0)) == 1.0

    def test_bounded_by_constant(self, rng):
        b = (1.5, 2.0, 1.0, 0.5)
        # each power <= 1 and each log is dominated by its paired power
        cap = (2.0 / 1.0 + 2.0) ** 1.0 * (2.0 / 2.0 + 2.0) ** 0.5 * 4.0
        for _ in range(500):
            x = dyadic_point(rng, 2)
            y = dyadic_point(rng, 2)
            if x.distance_to(y) == 0.0:
                continue
            assert eval_B(b, x, y) <= cap

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        x = dyadic_point(rng, dim)
        y = dyadic_point(rng, dim)
        if x.distance_to(y) == 0.0:
            return
        b = tuple(rng.uniform(0.1, 3.0, size=4))
        assert eval_B(b, x, y) == eval_B(b, y, x)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_scaling_exact(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        x = dyadic_point(rng, dim)
        y = dyadic_point(rng, dim)
        if x.distance_to(y) == 0.0:
            return
        b = tuple(rng.uniform(0.1, 3.0, size=4))
        a = pow2(rng)
        v1 = eval_B(b, x, y)
        v2 = eval_B(b, x.scaled(a), y.scaled(a))
        assert ulp_close(v1, v2, 4.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_shift_exact(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 4))
        x = dyadic_point(rng, dim)
        y = dyadic_point(rng, dim)
        if x.distance_to(y) == 0.0:
            return
        b = tuple(rng.uniform(0.1, 3.0, size=4))
        shift = tuple(float(m) * 2.0**-20 for m in rng.integers(-(2**40), 2**40, dim - 1))
        assert eval_B(b, x, y) == eval_B(b, x.shifted(shift), y.shifted(shift))


class TestWeightArray:
    @pytest.mark.parametrize("pattern", range(16))
    def test_matches_scalar(self, pattern):
        # bit k of the pattern makes exponent k + 1 positive, the rest are zero
        rng = np.random.default_rng(pattern)
        b = tuple(float(rng.uniform(0.05, 3.0)) if pattern >> k & 1 else 0.0 for k in range(4))
        n = 400
        h1, h2, dist = 10.0 ** rng.uniform(-4.0, 4.0, (3, n))
        hmin, hmax = np.minimum(h1, h2), np.maximum(h1, h2)
        hmin[: n // 4] = 0.0  # one point on the boundary
        hmax[: n // 8] = 0.0  # both points on it
        got = weight_from_heights_arr(b, hmin, hmax, dist)
        for g, lo, hi, r in zip(got, hmin, hmax, dist):
            want = weight_from_heights(b, float(lo), float(hi), float(r))
            assert (g == 0.0) == (want == 0.0)
            if hi == 0.0:
                assert g == want
            assert g == pytest.approx(want, rel=1e-14, abs=0.0)


class TestEvalA:
    def test_reduces_to_B_at_zero_time(self, rng):
        for _ in range(100):
            x = dyadic_point(rng, 2)
            y = dyadic_point(rng, 2)
            if x.distance_to(y) == 0.0:
                continue
            b = tuple(rng.uniform(0.1, 2.0, size=4))
            assert eval_A(b, 0.0, x, y, 0.7) == eval_B(b, x, y)

    def test_zero_exponents(self):
        assert eval_A((0, 0, 0, 0), 3.0, pt(0.1), pt(5.0), 1.3) == 1.0

    @pytest.mark.parametrize("t", [math.nan, -1.0, -math.inf])
    def test_time_domain(self, t):
        with pytest.raises(ValueError, match="t must be >= 0"):
            eval_A((1, 1, 0, 0), t, pt(0.1), pt(5.0), 1.3)

    def test_coincident_points(self):
        # the limit where every ratio clamps at t > 0; undefined at t = 0
        x = pt(1.0, 2.0)
        assert eval_A((1, 1, 1, 1), 0.5, x, x, 1.3) == math.log(E + 1.0) ** 2
        with pytest.raises(ValueError, match="coincident"):
            eval_A((1, 1, 1, 1), 0.0, x, x, 1.3)

    def test_boundary_pair_with_time(self):
        # heights 0 at distance 4, unit time scale: clamp gives 1/4
        x = pt(0.0, 0.0)
        y = pt(4.0, 0.0)
        assert eval_A((1, 0, 0, 0), 1.0, x, y, 1.0) == 0.25

    def test_time_scaling_covariance(self, rng):
        # lengths by 2^k, time through the supplied scale: exact ratios
        for _ in range(200):
            x = dyadic_point(rng, 2)
            y = dyadic_point(rng, 2)
            if x.distance_to(y) == 0.0:
                continue
            b = tuple(rng.uniform(0.1, 2.0, size=4))
            alpha = float(rng.uniform(0.2, 1.9))
            u = dyadic(rng)
            a = pow2(rng)
            v1 = eval_A(b, u**alpha, x, y, alpha, tscale=u)
            v2 = eval_A(
                b, (u / a) ** alpha, x.scaled(1.0 / a), y.scaled(1.0 / a), alpha,
                tscale=u / a,
            )
            assert ulp_close(v1, v2, 4.0)


from conftest import dyadic  # noqa: E402


class TestKernels:
    def test_eval_J_constant_weight(self):
        p = ModelParams(1, 1.0, (0, 0, 0, 0))
        assert eval_J(p, pt(1.0), pt(3.0)) == 2.0**-2

    def test_eval_J_unit_distance(self):
        p = ModelParams(2, 0.5, (0, 0, 0, 0))
        assert eval_J(p, pt(0.0, 1.0), pt(1.0, 1.0)) == 1.0

    def test_eval_J_boundary_weight(self):
        p = ModelParams(2, 0.5, (1, 1, 0, 0))
        # both heights 0.5 at distance 1: both ratios are 0.5
        assert eval_J(p, pt(0.0, 0.5), pt(1.0, 0.5)) == 0.25

    def test_stable_factor_crossover(self):
        for d, alpha, t in [(1, 0.7, 2.0), (2, 1.4, 0.3)]:
            r = t ** (1.0 / alpha)
            on = t ** (-d / alpha)
            off = t * r ** (-(d + alpha))
            assert math.isclose(on, off, rel_tol=1e-12)
            # both branches agree bitwise at the crossover radius
            assert stable_factor(d, alpha, t, r) == r ** (-float(d))
            assert math.isclose(stable_factor(d, alpha, t, r), on, rel_tol=1e-12)

    def test_stable_factor_values(self):
        assert stable_factor(1, 1.0, 1.0, 0.0) == 1.0
        assert stable_factor(1, 1.0, 2.0, 4.0) == 0.125
        # overflow guard at tiny separations
        assert stable_factor(2, 1.9, 1e-3, 1e-200) == (1e-3) ** (-2 / 1.9)

    @pytest.mark.parametrize("r", [0.0, 2.0, 1e300])
    def test_stable_factor_past_the_time_scale_overflow(self, r):
        # t^(1/alpha) overflows: the profile takes its limit, as stable_profile does
        assert stable_factor(1, 0.5, 1e300, r) == stable_profile(1, 0.5, math.inf, r) == 0.0

    def test_stable_factor_monotone(self, rng):
        rs = np.sort(rng.uniform(0.0, 10.0, 50))
        vals = [stable_factor(1, 0.8, 0.5, float(r)) for r in rs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_survival_factor(self):
        assert survival_factor(0.0, 1.0, 4.0, 0.0) == 1.0
        assert survival_factor(3.0, 0.5, 2.0, 100.0) == 1.0
        assert survival_factor(2.0, 1.0, 4.0, 1.0) == (0.25) ** 2
        for h in (math.nan, -1.0):
            with pytest.raises(ValueError, match="h must be >= 0"):
                survival_factor(1.0, 1.0, 4.0, h)


class TestModelParams:
    def test_admissibility(self):
        with pytest.raises(ValueError):
            ModelParams(1, 2.0, (0, 0, 0, 0))
        with pytest.raises(ValueError):
            ModelParams(1, 1.0, (0, 1, 1, 0))
        for kappa in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
                ModelParams(1, 1.0, (1, 1, 0, 0), kappa=kappa)
        p = ModelParams(3, 0.5, (1, 2, 0.5, 0.25), kappa=2.0)
        assert p.beta == (1.0, 2.0, 0.5, 0.25)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_exponents_are_rejected(self, position, value):
        # NaN passes a `min(b) < 0` test, and inf every lower bound
        b = [1.0, 1.0, 0.5, 0.5]
        b[position] = value
        match = "weight exponents must be finite and >= 0"
        with pytest.raises(AdmissibilityError, match=match):
            ModelParams(1, 1.0, tuple(b))
        with pytest.raises(AdmissibilityError, match=match):
            eval_B(b, pt(1.0), pt(2.0))
        with pytest.raises(AdmissibilityError, match=match):
            eval_A(b, 1.0, pt(1.0), pt(2.0), 1.0)


class TestStableProfileBounds:
    def test_mass_bound_uniform_in_time(self):
        # scale invariance makes the mass t-free; quadrature at unit time
        from dkl.grids import check_frozen

        for d in (1, 2):
            assert check_frozen(f"acc_stableu1_d{d}").passed

    def test_convolution_semigroup_bound(self, rng):
        from dkl.quadrature import NonConvergenceError, QuadratureSpec, integrate_panels
        from dkl.constants import get_constant
        from dkl.report import SLACK

        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-300)
        ceiling = get_constant("acc_stableu2_d1") * SLACK
        worst = 0.0
        for _ in range(60):
            alpha = float(rng.uniform(0.2, 1.9))
            t = float(10.0 ** rng.uniform(-3, 3))
            s = float(10.0 ** rng.uniform(-3, 3))
            xv = float(10.0 ** rng.uniform(-3, 3)) * (1 if rng.random() < 0.5 else -1)
            yv = float(10.0 ** rng.uniform(-3, 3)) * (1 if rng.random() < 0.5 else -1)

            def conv(z):
                out = np.empty_like(z)
                for i, zi in enumerate(z):
                    out[i] = stable_factor(1, alpha, t, abs(xv - zi)) * stable_factor(
                        1, alpha, s, abs(yv - zi)
                    )
                return out

            span = abs(xv - yv) + (t ** (1 / alpha) + s ** (1 / alpha)) * 10 + 10
            breaks = sorted({xv, yv, xv - span, xv + span, (xv + yv) / 2})
            try:
                val = integrate_panels(conv, breaks, spec)
            except NonConvergenceError:
                continue
            worst = max(worst, val / stable_factor(1, alpha, t + s, abs(xv - yv)))
        assert worst <= ceiling


class TestInteriorLowerBound:
    def test_frozen_constant_holds(self):
        from dkl.grids import check_frozen

        for a in (0.1, 1.0, 10.0):
            assert check_frozen(f"int_lb_a{a:g}", 500).passed


class TestCompABGuard:
    def test_regression_guard_per_sample(self):
        # analytically, max vs sum of heights costs at most 2 per power and
        # (1 + log 2) per log factor; the factor 4 absorbs the rest
        from dkl.grids import standard_grid
        from dkl.inequalities import _eval_comp_AB

        for smp in standard_grid(800):
            b = smp["b"]
            guard = 2.0 ** (b[0] + b[1]) * (1.0 + math.log(2.0)) ** (b[2] + b[3]) * 4.0
            assert 1.0 / guard <= _eval_comp_AB(smp, None) <= guard
