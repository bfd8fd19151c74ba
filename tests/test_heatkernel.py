import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from dkl.geometry import (
    HalfSpacePoint,
    ModelParams,
    eval_A,
    eval_J,
    lift_ed,
    stable_factor,
    standard_weight,
    survival_factor,
)
from dkl.green import green_by_time_integration, green_estimate
from dkl.heatkernel import (
    Regime,
    _hke_cells,
    _jump_arr,
    _time_scale,
    detect_regime,
    dominance_map,
    hke_closed,
    hke_unified,
    killed_hke,
    twojump_ball_integral,
)
from dkl.quadrature import QuadratureSpec

from conftest import dyadic, dyadic_point, pow2, pt, ulp_close

SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-300)


def mp_case2_value(alpha, beta, t, xd, yd, dist):
    """Independent recomposition of the strict two-jump closed form at 50
    digits: stable profile times the bracket of the two printed terms."""
    mp.mp.dps = 50
    alpha, t, xd, yd, dist = map(mp.mpf, (alpha, t, xd, yd, dist))
    b1, b2, b3, b4 = map(mp.mpf, beta)
    u = t ** (1 / alpha)
    e = mp.e

    def weight(bb1, bb2, bb3, bb4, hmin, hmax):
        v = min(hmin / dist, mp.mpf(1)) ** bb1 * min(hmax / dist, mp.mpf(1)) ** bb2
        if bb3 > 0:
            v *= mp.log(e + min(hmax, dist) / min(hmin, dist)) ** bb3
        if bb4 > 0:
            v *= mp.log(e + dist / min(hmax, dist)) ** bb4
        return v

    hmin, hmax = min(xd, yd) + u, max(xd, yd) + u
    one = weight(b1, b2, b3, b4, hmin, hmax)
    two = (
        min(mp.mpf(1), t / dist**alpha)
        * weight(b1, b1, mp.mpf(0), b3, hmin, hmax)
        * mp.log(e + dist / min(hmin, dist)) ** b3
    )
    stable = min(t ** (-1 / alpha), t / dist ** (1 + alpha))
    return float(min(t ** (-1 / alpha), stable * (one + two)))


class TestRegime:
    def test_trichotomy(self):
        assert detect_regime(ModelParams(1, 0.5, (1, 1, 0, 0))) is Regime.ONE_JUMP
        assert detect_regime(ModelParams(1, 0.5, (1, 2, 0, 0))) is Regime.TWO_JUMP_STRICT
        assert detect_regime(ModelParams(1, 0.5, (1, 1.5, 0, 0))) is Regime.CRITICAL
        assert detect_regime(ModelParams(1, 0.5, (1, 1.5001, 0, 0))) is Regime.TWO_JUMP_STRICT


class TestHkeClosed:
    def test_zero_weight_reduces_to_stable(self):
        p = ModelParams(1, 0.7, (0, 0, 0, 0))
        bd = hke_closed(p, 0.5, pt(0.3), pt(2.0))
        assert bd.free_value == stable_factor(1, 0.7, 0.5, 1.7)
        assert bd.one_jump == 1.0 and bd.two_jump == 0.0
        assert bd.regime is Regime.ONE_JUMP

    def test_on_diagonal(self):
        p = ModelParams(2, 1.3, (1, 1, 0, 0))
        bd = hke_closed(p, 2.0, pt(0.0, 1.0), pt(0.0, 1.0))
        assert bd.free_value == pytest.approx(2.0 ** (-2 / 1.3), rel=1e-14)
        assert bd.one_jump == 1.0

    def test_strict_two_jump_against_recomposition(self):
        p = ModelParams(1, 0.5, (1.0, 2.0, 0.0, 0.0))
        bd = hke_closed(p, 0.01, pt(0.001), pt(5.001))
        ref = mp_case2_value(0.5, p.beta, 0.01, 0.001, 5.001, 5.0)
        assert bd.regime is Regime.TWO_JUMP_STRICT
        assert bd.free_value == pytest.approx(ref, rel=1e-13)

    def test_critical_with_logs_against_recomposition(self):
        # the critical bracket gains the beta3+beta4+1 log power
        p = ModelParams(1, 0.5, (1.0, 1.5, 0.5, 0.5))

        def mp_case3(t, xd, yd, dist):
            mp.mp.dps = 50
            alpha = mp.mpf("0.5")
            tm, xm, ym, dm = map(mp.mpf, (t, xd, yd, dist))
            b1, b2, b3, b4 = map(mp.mpf, p.beta)
            u = tm ** (1 / alpha)
            e = mp.e
            hmin, hmax = min(xm, ym) + u, max(xm, ym) + u

            def weight(a1, a2, a3, a4):
                v = min(hmin / dm, mp.mpf(1)) ** a1 * min(hmax / dm, mp.mpf(1)) ** a2
                if a3 > 0:
                    v *= mp.log(e + min(hmax, dm) / min(hmin, dm)) ** a3
                if a4 > 0:
                    v *= mp.log(e + dm / min(hmax, dm)) ** a4
                return v

            one = weight(b1, b2, b3, b4)
            two = (
                min(mp.mpf(1), tm / dm**alpha)
                * weight(b1, b1, mp.mpf(0), b3 + b4 + 1)
                * mp.log(e + dm / min(hmin, dm)) ** b3
            )
            stable = min(tm ** (-1 / alpha), tm / dm ** (1 + alpha))
            return float(min(tm ** (-1 / alpha), stable * (one + two)))

        bd = hke_closed(p, 0.04, pt(0.01), pt(3.01))
        assert bd.regime is Regime.CRITICAL
        assert bd.free_value == pytest.approx(mp_case3(0.04, 0.01, 3.01, 3.0), rel=1e-13)

    def test_on_diagonal_cap(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 3))
            alpha = float(rng.uniform(0.2, 1.9))
            b1 = float(rng.uniform(0, 2))
            p = ModelParams(dim, alpha, (b1, float(rng.uniform(0, 3)), 0, 0))
            t = float(10.0 ** rng.uniform(-3, 3))
            x, y = dyadic_point(rng, dim), dyadic_point(rng, dim)
            bd = hke_closed(p, t, x, y)
            assert bd.free_value <= t ** (-dim / alpha) * (1.0 + 1e-12)

    def test_symmetry_exact(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            p = ModelParams(dim, float(rng.uniform(0.2, 1.9)), (1.0, 2.5, 0.5, 0.5))
            x, y = dyadic_point(rng, dim), dyadic_point(rng, dim)
            if x.distance_to(y) == 0.0:
                continue
            t = float(10.0 ** rng.uniform(-3, 3))
            b1 = hke_closed(p, t, x, y, q=0.7)
            b2 = hke_closed(p, t, y, x, q=0.7)
            assert b1.free_value == b2.free_value
            assert b1.killed_value == b2.killed_value

    def test_scaling_covariance(self, rng):
        # value(t, x, y) = r^-d value(t/r^a, x/r, y/r) with r a power of two
        for _ in range(300):
            dim = int(rng.integers(1, 3))
            alpha = float(rng.uniform(0.25, 1.9))
            p = ModelParams(dim, alpha, (1.0, 1.5, 0.5, 0.0))
            x, y = dyadic_point(rng, dim), dyadic_point(rng, dim)
            if x.distance_to(y) == 0.0:
                continue
            u = dyadic(rng)
            r = pow2(rng, 20)
            v1 = hke_closed(p, u**alpha, x, y, q=0.6, tscale=u)
            v2 = hke_closed(
                p, (u / r) ** alpha, x.scaled(1 / r), y.scaled(1 / r), q=0.6,
                tscale=u / r,
            )
            assert ulp_close(v1.free_value, v2.free_value * r**-dim, 8.0)
            assert ulp_close(v1.killed_value, v2.killed_value * r**-dim, 8.0)


class TestKilledHke:
    def test_deep_points_equal_free(self):
        p = ModelParams(1, 1.0, (1, 1, 0, 0))
        bd = hke_closed(p, 1.0, pt(2.0), pt(5.0), q=1.3)
        assert bd.killed_value == bd.free_value

    def test_zero_exponent_equals_free(self, rng):
        p = ModelParams(1, 0.8, (1, 2, 0, 0))
        for _ in range(50):
            x, y = dyadic_point(rng, 1), dyadic_point(rng, 1)
            if x.distance_to(y) == 0.0:
                continue
            t = float(10.0 ** rng.uniform(-2, 2))
            assert killed_hke(p, t, x, y, q=0.0) == hke_closed(p, t, x, y).free_value

    def test_survival_factor_value(self):
        p = ModelParams(1, 1.2, (1, 1, 0, 0))
        v = killed_hke(p, 1.0, pt(0.25), pt(1.5), q=1.0)
        f = hke_closed(p, 1.0, pt(0.25), pt(1.5)).free_value
        assert v == pytest.approx(0.25 * f, rel=1e-14)


# (alpha, beta) per regime, each without and with the b3 log factor
KILLED_ARR_PARAMS = [
    (1.3, (1.0, 0.5, 0.0, 0.5)),  # one jump
    (1.3, (1.0, 0.5, 0.4, 0.5)),
    (0.7, (0.5, 2.5, 0.0, 0.3)),  # strict two jump
    (0.7, (0.5, 2.5, 0.6, 0.3)),
    (0.5, (1.0, 1.5, 0.0, 0.4)),  # critical: b2 == alpha + b1 in floats
    (1.9, (0.5, 2.4, 0.7, 0.4)),
]
# numpy's power and log differ from libm by a few ulp; the worst gap measured
# on this set is 7 ulp, and 15 ulp over about 570k nodes of random pairs
KILLED_ARR_ULPS = 16.0
FIELDS = ("one_jump", "two_jump", "free_value", "killed_value")


def _killed_arr_pairs(d, boundary=False):
    tang = (0.75,) * (d - 1)
    zero = (0.0,) * (d - 1)
    pairs = [
        (HalfSpacePoint(d, zero, 1e-6), HalfSpacePoint(d, tang, 2.0)),
        (HalfSpacePoint(d, zero, 0.3), HalfSpacePoint(d, tang, 0.05)),
    ]
    if boundary:
        # a point of height 0, on either side of the pair, and a diagonal
        # pair, whose on-diagonal value is infinite where u = 0
        pairs += [
            (HalfSpacePoint(d, zero, 0.0), HalfSpacePoint(d, tang, 2.0)),
            (HalfSpacePoint(d, tang, 0.3), HalfSpacePoint(d, zero, 0.0)),
            (HalfSpacePoint(d, tang, 0.3), HalfSpacePoint(d, tang, 0.3)),
        ]
    return pairs


def _cells_by_time(p, ts, x, y, q):
    """One pair at an array of times, u on the array: the Green integrand."""
    with np.errstate(over="ignore"):
        u = np.asarray(ts, dtype=float) ** (1.0 / p.alpha)
    return _hke_cells(p, u, x.height, y.height, x.distance_to(y), q)


def _cells_by_cell(p, ts, x, y, q):
    """A row of cells, each with its own u from the scalar time scale: the
    dominance map and the oracle grid."""
    n = len(ts)
    u = np.array([_time_scale(float(t), p.alpha) for t in ts])
    cols = (np.full(n, v) for v in (x.height, y.height, x.distance_to(y)))
    return _hke_cells(p, u, *cols, q)


# the two ways callers lay out their cells; every test runs both
LAYOUTS = (_cells_by_time, _cells_by_cell)


class TestKilledHkeArray:
    TS = np.geomspace(1e-200, 1e3, 301)

    @staticmethod
    def _assert_fields_match(p, ts, x, y, q, fields):
        for i, t in enumerate(ts):
            bd = hke_closed(p, float(t), x, y, q=q)
            for name, arr in zip(FIELDS, fields):
                a, s = float(arr[i]), getattr(bd, name)
                assert ulp_close(a, s, KILLED_ARR_ULPS), (p, q, t, name, a, s)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_scalar_per_node(self, dim):
        z = HalfSpacePoint(dim, (0.5,) * (dim - 1), 0.25)
        pairs = _killed_arr_pairs(dim) + [(z, z)]
        for cells, (alpha, beta), q, (x, y) in itertools.product(
            LAYOUTS, KILLED_ARR_PARAMS, (0.0, 0.8, 2.3), pairs
        ):
            p = ModelParams(dim, alpha, beta)
            fields = cells(p, self.TS, x, y, q)
            assert all(np.all(f >= 0.0) for f in fields)
            self._assert_fields_match(p, self.TS, x, y, q, fields)
        assert {detect_regime(ModelParams(dim, a, b)) for a, b in KILLED_ARR_PARAMS} == set(Regime)

    def test_no_warning_at_extreme_times(self):
        ts = np.array([5e-324, 1e-300, 1e-200, 1e-8, 1.0, 1e200, 1e300, np.finfo(float).max])
        for cells, dim, (alpha, beta), q in itertools.product(
            LAYOUTS, (1, 3), KILLED_ARR_PARAMS + [(0.05, (1.0, 1.2, 0.3, 0.4))], (0.0, 2.3)
        ):
            for x, y in _killed_arr_pairs(dim):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    fields = cells(ModelParams(dim, alpha, beta), ts, x, y, q)
                assert all(np.all(np.isfinite(f)) and np.all(f >= 0.0) for f in fields)

    def test_scalar_takes_the_limits_at_extreme_times(self):
        # u = t^(1/alpha) underflows to 0 or overflows to inf at these times
        ts = [5e-324, 1e-300, 1e300, float(np.finfo(float).max)]
        for cells, dim, (alpha, beta), q in itertools.product(
            LAYOUTS, (1, 3), KILLED_ARR_PARAMS + [(0.05, (1.0, 1.2, 0.3, 0.4))], (0.0, 2.3)
        ):
            p = ModelParams(dim, alpha, beta)
            for x, y in _killed_arr_pairs(dim, boundary=True):
                self._assert_fields_match(p, ts, x, y, q, cells(p, ts, x, y, q))
        # a boundary point at u = 0: the two-jump term is 0 although its b3
        # log factor is infinite there
        bd = hke_closed(ModelParams(1, 0.3, (0.5, 2.5, 0.6, 0.3)), 1e-200,
                        HalfSpacePoint(1, (), 0.0), HalfSpacePoint(1, (), 2.0), q=1.0)
        assert (bd.stable, bd.two_jump, bd.killed_value) == (0.0, 0.0, 0.0)


class TestHkeUnified:
    def test_one_jump_equals_capped_kernel(self):
        p = ModelParams(1, 0.5, (1, 1, 0, 0))
        w = standard_weight(p)
        t, x, y = 0.3, pt(0.4), pt(2.4)
        u = t**2.0
        expected = min(
            t ** (-1 / 0.5), t * eval_J(p, lift_ed(x, u), lift_ed(y, u))
        )
        assert hke_unified(p, w, t, x, y, SPEC) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("t", [1e8, 2e8, 1e100, 1e300])
    def test_late_times_take_the_cap(self, t):
        # u = t^2 swamps the heights, which a lift by u would round together
        # (from 2e8 on to one point); at 1e300 u overflows and the cap is 0
        p = ModelParams(1, 0.5, (0.0, 1.5, 0.0, 0.0))
        x, y = pt(0.5), pt(2.0)
        got = hke_unified(p, standard_weight(p), t, x, y, SPEC)
        cap = _time_scale(t, 0.5) ** -1.0
        assert got == cap == hke_closed(p, t, x, y).free_value
        assert (cap == 0.0) == (t == 1e300)

    def test_far_pair_past_the_square_overflow(self):
        # u = 1e200 against a distance of 1e202: the two-jump range is not
        # empty and its squares pass the float range
        p = ModelParams(1, 0.5, (0.0, 1.5, 0.0, 0.0))
        t = 1e100
        got = hke_unified(p, standard_weight(p), t, pt(0.5), pt(1e202), SPEC)
        cap = _time_scale(t, 0.5) ** -1.0
        assert math.isfinite(got) and 0.0 < got <= cap

    def test_far_pair_keeps_its_two_jump_term(self):
        # there the two-jump integrand is about 1e-605; with every length
        # scaled by 2^-400 (t by 2^-200, so u scales too) it is in range, and
        # the estimate scales as length^-d
        p = ModelParams(1, 0.5, (0.0, 1.5, 0.0, 0.0))
        w = standard_weight(p)
        got = hke_unified(p, w, 1e100, pt(0.5), pt(1e202), SPEC)
        s = 2.0**-400
        want = hke_unified(p, w, 1e100 * 2.0**-200, pt(0.5 * s), pt(1e202 * s), SPEC) * s
        assert got == pytest.approx(want, rel=1e-12)
        # the one-jump term alone is 1.0000e-203
        assert got == pytest.approx(1.2309e-203, rel=1e-4)

    def test_comparable_to_closed_all_regimes(self, rng):
        for beta in [(1.0, 1.0, 0.0, 0.0), (0.5, 2.0, 0.5, 0.5), (0.5, 1.0, 0.5, 0.5)]:
            p = ModelParams(1, 0.5, beta)
            w = standard_weight(p)
            ratios = []
            for _ in range(40):
                t = float(10.0 ** rng.uniform(-3, 2))
                x, y = dyadic_point(rng, 1), dyadic_point(rng, 1)
                if x.distance_to(y) == 0.0:
                    continue
                un = hke_unified(p, w, t, x, y, SPEC)
                cl = hke_closed(p, t, x, y).free_value
                ratios.append(un / cl)
            assert min(ratios) > 0.05 and max(ratios) < 20.0


class TestOneModelPerCall:
    # beta3 = 0.3 in the model, 0 in the weight: before the check the two
    # estimates silently used the weight's beta (9.54e-5 for 1.43e-4, 0.0322
    # for 0.0500)
    P = ModelParams(1, 1.0, (0.5, 2.0, 0.3, 0.0))
    OTHER = standard_weight(ModelParams(1, 1.0, (0.5, 2.0, 0.0, 0.0)))

    def test_unified_rejects_another_models_weight(self):
        with pytest.raises(ValueError, match="same model parameters"):
            hke_unified(self.P, self.OTHER, 0.5, pt(0.2), pt(30.0), SPEC)
        # an equal model built apart is the same model
        same = standard_weight(ModelParams(1, 1.0, (0.5, 2.0, 0.3, 0.0)))
        got = hke_unified(self.P, same, 0.5, pt(0.2), pt(30.0), SPEC)
        assert got == hke_unified(self.P, standard_weight(self.P), 0.5, pt(0.2), pt(30.0), SPEC)
        assert got == pytest.approx(1.43e-4, rel=1e-2)

    def test_ball_integral_rejects_another_models_weight(self):
        with pytest.raises(ValueError, match="same model parameters"):
            twojump_ball_integral(self.P, self.OTHER, 0.5, pt(0.2), pt(30.0), SPEC)
        got = twojump_ball_integral(self.P, standard_weight(self.P), 0.5, pt(0.2), pt(30.0), SPEC)
        assert got == pytest.approx(0.0500, rel=1e-2)


class TestScalarFactorsShareOneFormula:
    # survival_factor, eval_A and twojump_ball_integral take the time scale and
    # the survival profile of hke_closed, and with them its limits where
    # t^(1/alpha) underflows to 0 or overflows to inf
    @pytest.mark.parametrize("alpha, t, want", [(0.1, 1e-300, 1.0), (0.5, 1e300, 0.0)])
    def test_survival_factor_limits(self, alpha, t, want):
        p = ModelParams(1, alpha, (0.5, 2.0, 0.3, 0.0))
        bd = hke_closed(p, t, pt(1.0), pt(30.0), q=1.0)
        assert survival_factor(1.0, alpha, t, 1.0) == bd.survival_x == want

    def test_space_time_weight_past_the_time_scale_overflow(self):
        # every height clamps at an infinite time scale: all ratios are 1
        p = ModelParams(1, 0.5, (1.0, 1.0, 0.0, 0.0))
        x, y = pt(0.5), pt(30.0)
        got = eval_A(p.beta, 1e300, x, y, p.alpha)
        assert got == hke_closed(p, 1e300, x, y).one_jump == 1.0

    def test_ball_integral_past_the_time_scale_overflow(self):
        p = ModelParams(1, 0.5, (0.5, 2.0, 0.3, 0.0))
        with pytest.raises(ValueError, match=r"requires \|x-y\| > 6 t\^\(1/alpha\)"):
            twojump_ball_integral(p, standard_weight(p), 1e300, pt(0.5), pt(30.0), SPEC)


class TestInputDomains:
    # NaN fails every guard, each written as the negation of its valid domain
    @pytest.mark.parametrize("t", [math.nan, 0.0, -0.0, -1.0, -math.inf])
    def test_time(self, t):
        p = ModelParams(1, 1.0, (0.5, 2.0, 0.3, 0.0))
        w, x, y = standard_weight(p), pt(0.2), pt(30.0)
        calls = [
            lambda: hke_closed(p, t, x, y),
            lambda: dominance_map(p, t, x, [[30.0]]),
            lambda: hke_unified(p, w, t, x, y, SPEC),
            lambda: twojump_ball_integral(p, w, t, x, y, SPEC),
            lambda: stable_factor(1, 1.0, t, 1.0),
            lambda: survival_factor(1.0, 1.0, t, 1.0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="t must be > 0"):
                call()

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_survival_exponent(self, q):
        p = ModelParams(2, 1.0, (0.5, 2.0, 0.0, 0.0))
        x, y = pt(0.0, 0.2), pt(1.0, 3.0)
        calls = [
            lambda: hke_closed(p, 1.0, x, y, q=q),
            lambda: killed_hke(p, 1.0, x, y, q),
            lambda: survival_factor(q, 1.0, 1.0, 0.5),
            lambda: green_estimate(p, q, x, y),
            lambda: green_by_time_integration(p, q, x, y),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="q must be finite and >= 0"):
                call()


class TestJumpKernelArray:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_eval_J(self, dim):
        rng = np.random.default_rng(dim)
        # every admissible zero pattern: b3 > 0 needs b1 > 0, b4 > 0 needs b2 > 0
        pairs = ((0, 0), (1, 0), (1, 1))
        for (on1, on3), (on2, on4) in itertools.product(pairs, pairs):
            on = (on1, on2, on3, on4)
            beta = tuple(float(rng.uniform(0.05, 3.0)) if k else 0.0 for k in on)
            p = ModelParams(dim, float(rng.uniform(0.1, 1.9)), beta)
            a, b = rng.uniform(-5.0, 5.0, (2, 200, dim))
            a[:, -1], b[:, -1] = 10.0 ** rng.uniform(-3.0, 3.0, (2, 200))
            a[:50, -1] = 0.0  # rows 0-49: the first point on the boundary
            b[25 if dim > 1 else 50 : 75, -1] = 0.0  # both only where they stay apart
            got = _jump_arr(p, a, b)
            for g, ra, rb in zip(got, a, b):
                want = eval_J(p, pt(*ra), pt(*rb))
                assert (g == 0.0) == (want == 0.0)
                assert g == pytest.approx(want, rel=1e-14, abs=0.0)


class TestBallIntegral:
    def test_constant_weight_closed_form(self):
        # flat weight: the integrand is two pure powers; compare against a
        # high-order reference on the same ball
        p = ModelParams(2, 0.5, (0, 0, 0, 0))
        w = standard_weight(p)
        t, x, y = 0.01, pt(0.0, 1.0), pt(6.0, 1.3)
        val = twojump_ball_integral(p, w, t, x, y, SPEC)
        dist = x.distance_to(y)
        u = t**2.0
        X, Y = lift_ed(x, u), lift_ed(y, u)

        mp.mp.dps = 30
        R = dist / 4.0

        def f(rho, phi):
            z = pt(0.0 + rho * math.cos(phi), 1.0 + dist / 2.0 + rho * math.sin(phi))
            return eval_J(p, X, z) * eval_J(p, z, Y) * rho

        from scipy.integrate import dblquad

        ref, _ = dblquad(f, 0.0, 2.0 * math.pi, 0.0, R, epsabs=1e-12, epsrel=1e-10)
        assert val == pytest.approx(t * dist**2.5 * ref, rel=1e-7)

    def test_kinked_weight_against_scipy_reference(self):
        # the benchmark's case ball-d2-2: the weight's kink circles cross the
        # disk; the reference is nested adaptive SciPy quad in polar coordinates
        p = ModelParams(2, 1.5723919613891064,
                        (1.9110604288963708, 4.51052311358384, 0.44802918952256787, 0.46759330723283377))
        x = pt(301.0088160782103, 126.84844218209722)
        y = pt(-6.8870922164812, 0.015511269633509336)
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-300)
        val = twojump_ball_integral(p, standard_weight(p), 7.369455434724758, x, y, spec)
        assert val == pytest.approx(8.663704575015839e-08, rel=1e-6, abs=0.0)

    def test_precondition(self):
        p = ModelParams(1, 1.0, (0.5, 2.0, 0, 0))
        w = standard_weight(p)
        with pytest.raises(ValueError):
            twojump_ball_integral(p, w, 1.0, pt(0.5), pt(2.0), SPEC)

    def test_symmetric_in_heights(self):
        p = ModelParams(2, 0.5, (0.5, 2.0, 0, 0))
        w = standard_weight(p)
        t = 1e-4
        a = twojump_ball_integral(p, w, t, pt(0.0, 0.7), pt(4.0, 0.7), SPEC)
        b = twojump_ball_integral(p, w, t, pt(4.0, 0.7), pt(0.0, 0.7), SPEC)
        assert a == pytest.approx(b, rel=1e-9)

    def test_dim_above_two_rejected(self):
        p = ModelParams(3, 0.5, (0.5, 2.0, 0, 0))
        with pytest.raises(ValueError, match="dim <= 2"):
            twojump_ball_integral(p, standard_weight(p), 1e-4, pt(0, 0, 0.7), pt(4, 0, 1.2))


class TestDominanceMap:
    def test_requires_two_jump_regime(self):
        p = ModelParams(1, 1.0, (1, 1, 0, 0))
        with pytest.raises(ValueError):
            dominance_map(p, 0.01, pt(1.0), [[3.0]])

    def test_deep_cells_one_jump(self):
        p = ModelParams(2, 0.5, (0.0, 1.5, 0.0, 0.0))
        one, two, valid = dominance_map(p, 1e-3, pt(0.0, 50.0), [[4.0, 50.0]])
        assert one[0] >= two[0]
        assert valid[0]

    def test_boundary_hugging_cells_two_jump(self):
        # zero first exponent with beta2 = alpha + 1: the one-jump term
        # carries the full vanishing power, two jumps pay only the time factor
        p = ModelParams(2, 0.5, (0.0, 1.5, 0.0, 0.0))
        x = pt(0.0, 1e-4)
        one, two, _ = dominance_map(p, 1e-3, x, [[4.0, 1e-4]])
        assert one[0] < two[0]

    @pytest.mark.parametrize("t", [1e-300, 1e-3, 0.7, 1e300])
    def test_cells_match_the_scalar_terms(self, t):
        # targets on the boundary, at x itself and on both sides of it, at
        # times where u underflows, is moderate and overflows
        for dim, alpha, beta in [
            (1, 0.5, (1.0, 1.5, 0.5, 0.5)),  # critical
            (2, 0.5, (0.0, 1.5, 0.0, 0.0)),
            (2, 0.7, (0.5, 2.5, 0.6, 0.3)),
            (3, 1.9, (0.5, 2.4, 0.7, 0.4)),
        ]:
            p = ModelParams(dim, alpha, beta)
            x = HalfSpacePoint(dim, (0.0,) * (dim - 1), 0.3)
            ys = [
                HalfSpacePoint(dim, (s,) + (0.5,) * (dim - 2) if dim > 1 else (), h)
                for s in np.linspace(-3.0, 3.0, 7)
                for h in (0.0, 1e-4, 0.3, 1.0, 3.0)
            ] + [x]
            u = _time_scale(t, alpha)
            one, two, valid = dominance_map(p, t, x, np.array([y.coords() for y in ys]))
            assert one.shape == two.shape == valid.shape == (len(ys),)
            # the tag and both_zero as the map derives them from the arrays
            one_tag = one >= two
            both_zero = (one == 0.0) & (two == 0.0)
            for i, y in enumerate(ys):
                bd = hke_closed(p, t, x, y)
                case = (p, y, one[i], two[i], bd)
                assert ulp_close(one[i], bd.one_jump, KILLED_ARR_ULPS), case
                assert ulp_close(two[i], bd.two_jump, KILLED_ARR_ULPS), case
                if not ulp_close(bd.one_jump, bd.two_jump, KILLED_ARR_ULPS):
                    assert one_tag[i] == (bd.one_jump >= bd.two_jump), case
                assert both_zero[i] == (bd.one_jump == 0.0 and bd.two_jump == 0.0), case
                assert valid[i] == (x.distance_to(y) > 6.0 * u), case

    def test_symmetric_under_height_swap(self):
        p = ModelParams(2, 0.5, (0.5, 2.0, 0.0, 0.0))
        t = 1e-3
        a_one, a_two, _ = dominance_map(p, t, pt(0.0, 0.2), [[4.0, 0.9]])
        b_one, b_two, _ = dominance_map(p, t, pt(0.0, 0.9), [[4.0, 0.2]])
        assert a_one[0] == pytest.approx(b_one[0], rel=1e-14)
        assert a_two[0] == pytest.approx(b_two[0], rel=1e-14)

    @pytest.mark.parametrize(
        "x, ys",
        [
            ((0.0, 1.0, 1.0), [[1.0, 2.0]]),  # rows of the wrong dimension
            ((0.0, 1.0), [1.0, 2.0]),  # not rows
            ((0.0, 1.0), [[1.0, -0.5]]),
            ((0.0, 1.0), [[math.inf, 1.0]]),
            ((0.0, 1.0), [[0.0, math.nan]]),
        ],
    )
    def test_rejects_malformed_targets(self, x, ys):
        p = ModelParams(len(x), 0.5, (0.5, 2.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="targets"):
            dominance_map(p, 1e-3, pt(*x), ys)


class TestRegimeConsistency:
    def test_two_jump_term_dominated_in_one_jump_regime(self):
        # evaluating the two-jump bracket anyway stays below a fixed multiple
        # of the one-jump term whenever beta2 < alpha + beta1
        from dkl.grids import check_frozen

        assert check_frozen("acc_regime_consistency", 1500)[0]


class TestInteriorOnDiagonal:
    def test_free_value_matches_on_diagonal_profile(self, rng):
        # nearby deep pairs: the free value is the on-diagonal profile
        from dkl.constants import get_constant
        from dkl.report import SLACK

        floor = get_constant("acc_interior_ondiag") / SLACK
        for _ in range(300):
            dim = int(rng.integers(1, 3))
            alpha = float(rng.uniform(0.2, 1.9))
            p = ModelParams(dim, alpha, (1.0, 2.0, 0.5, 0.5))
            u = float(10.0 ** rng.uniform(-2, 2))
            h = u * float(rng.uniform(1.0, 10.0))
            gap = u * float(rng.uniform(0.01, 1.0))
            x = HalfSpacePoint(dim, (0.0,) * (dim - 1), h)
            y = HalfSpacePoint(dim, (gap,) + (0.0,) * (dim - 2), h) if dim > 1 else (
                HalfSpacePoint(1, (), h + gap)
            )
            if x.distance_to(y) > u or min(x.height, y.height) < u:
                continue
            bd = hke_closed(p, u**alpha, x, y, tscale=u)
            ratio = bd.free_value * u**dim
            assert floor <= ratio <= 1.0 + 1e-12
