import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

from dkl.quadrature import NonConvergenceError
from dkl.special import (
    _SERIES_CUT,
    bessel_I,
    bessel_I_scaled,
    bessel_I_scaled_arr,
    one_minus_scaled_I,
    stable_density,
    stable_one_density,
)


class TestBesselI:
    def test_order_zero_at_origin(self):
        assert bessel_I(0.0, 0.0) == 1.0
        assert bessel_I(0.5, 0.0) == 0.0

    def test_series_reference(self):
        # 30-term series summed at 50 digits
        mp.mp.dps = 50
        ref = float(
            sum(
                (mp.mpf(1) / (mp.factorial(m) * mp.gamma(mp.mpf("1.5") + m)))
                * (mp.mpf("0.5")) ** (2 * m + mp.mpf("0.5"))
                for m in range(30)
            )
        )
        assert abs(bessel_I(0.5, 1.0) - ref) <= 1e-12 * ref

    def test_against_scipy_scaled(self):
        rs = np.geomspace(1e-6, 650.0, 120)
        for g in (0.0, 0.5, 1.0, 1.5, 3.0):
            mine = bessel_I_scaled_arr(g, rs)
            ref = sp.ive(g, rs)
            assert np.max(np.abs(mine - ref) / ref) < 5e-13

    @pytest.mark.parametrize("g", [12.0, 15.0, 20.0, 30.0, 50.0])
    def test_high_orders_against_scipy(self, g):
        # the series runs to r = max(30, g^2 / 8): the asymptotic expansion
        # is only good once r is large against g^2
        rs = np.geomspace(1e-3, 650.0, 120)
        ref = sp.ive(g, rs)
        ok = ref > 0.0
        mine = bessel_I_scaled_arr(g, rs)
        assert np.max(np.abs(mine[ok] - ref[ok]) / ref[ok]) < 5e-13
        for r in rs[ok][::7]:
            assert abs(bessel_I_scaled(g, r) / sp.ive(g, r) - 1.0) < 5e-13
            if r < 700.0:
                assert abs(bessel_I(g, r) / sp.iv(g, r) - 1.0) < 5e-13
        assert abs(bessel_I(20.0, 30.5) / sp.iv(20.0, 30.5) - 1.0) < 1e-12

    def test_series_overflow_raises(self, recwarn):
        # I_100(1000) is past the float range, and so is the series summing it
        with pytest.raises(NonConvergenceError, match="Bessel series overflowed"):
            bessel_I_scaled(100.0, 1000.0)
        with pytest.raises(NonConvergenceError):
            bessel_I_scaled_arr(100.0, np.array([1.0, 1000.0]))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_scalar_vector_agree(self):
        for g in (0.0, 0.7, 20.0):
            for r in (0.3, 29.0, 31.0, 49.0, 51.0, 400.0):
                assert bessel_I_scaled(g, r) == bessel_I_scaled_arr(g, np.array([r]))[0]

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.5, 7.0])
    def test_array_values_are_those_of_one_element_calls(self, g):
        # bit for bit: the series runs longest on the largest arguments, and an
        # element keeps its own bits whatever shares the array with it
        rng = np.random.default_rng(3)
        cut = _SERIES_CUT
        r = np.concatenate([
            np.zeros(4),
            10.0 ** rng.uniform(-300.0, -3.0, 40),
            rng.uniform(0.0, cut, 200),
            [np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)],
            rng.uniform(cut, 3.0 * cut, 100),
            10.0 ** rng.uniform(2.0, 5.0, 20),
        ])
        rng.shuffle(r)
        got = bessel_I_scaled_arr(g, r)
        for v, x in zip(r, got):
            assert x == bessel_I_scaled_arr(g, np.array([v]))[0], v

    def test_log_scaled_value(self):
        val = bessel_I(0.5, 1500.0, log=True)
        ref = 1500.0 + math.log(sp.ive(0.5, 1500.0))
        assert abs(val - ref) < 1e-10
        assert bessel_I(0.5, 1500.0) == math.inf  # plain value overflows

    def test_two_sided_profile_bound(self):
        # ratio to (1 ^ r)^(g+1/2) r^(-1/2) e^r stays in a fixed band
        rs = np.geomspace(1e-4, 50.0, 300)
        for g in (0.0, 0.5, 1.5):
            ratio = bessel_I_scaled_arr(g, rs) / (
                np.minimum(1.0, rs) ** (g + 0.5) * rs**-0.5
            )
            assert ratio.max() / ratio.min() < 25.0
            assert 1e-3 < ratio.min() and ratio.max() < 10.0

    def test_one_minus_scaled(self):
        z = np.geomspace(1e-3, 39.0, 50)
        for g in (0.0, 1.5):
            ref = 1.0 - np.sqrt(2.0 * np.pi * z) * sp.ive(g, z)
            mine = one_minus_scaled_I(g, z)
            assert np.max(np.abs(mine - ref)) < 1e-12
        # asymptotic branch: leading term dominates
        big = one_minus_scaled_I(1.5, np.array([1e4]))[0]
        assert big == pytest.approx((4 * 1.5**2 - 1) / (8 * 1e4), rel=1e-3)
        # half-integer order: identically zero series, exponentially small truth
        assert abs(one_minus_scaled_I(0.5, np.array([100.0]))[0]) < 1e-80


class TestStableDensity:
    def test_half_index_closed_form(self):
        for x in (1e-3, 0.05, 0.3, 1.0, 8.0, 1e5):
            ref = x**-1.5 * math.exp(-1.0 / (4.0 * x)) / (2.0 * math.sqrt(math.pi))
            assert stable_one_density(0.5, x) == pytest.approx(ref, rel=1e-8)

    def test_normalization(self):
        for a in (0.3, 0.5, 0.7, 0.95):
            val, _ = quad(lambda s: stable_one_density(a, s), 0, np.inf, limit=400)
            assert abs(val - 1.0) < 1e-6

    def test_scaling(self):
        a, t, s = 0.4, 2.0, 3.0
        lhs = stable_density(a, t, s)
        rhs = t ** (-1.0 / a) * stable_one_density(a, s * t ** (-1.0 / a))
        assert lhs == rhs

    def test_against_scipy_levy_stable(self):
        from scipy.stats import levy_stable

        for a in (0.3, 0.7):
            scale = math.cos(math.pi * a / 2.0) ** (1.0 / a)
            for x in (0.5, 2.0):
                ref = levy_stable.pdf(x, a, 1.0, loc=0.0, scale=scale)
                assert stable_one_density(a, x) == pytest.approx(ref, rel=1e-7)

    def test_deep_left_tail_underflows_to_zero(self):
        assert stable_one_density(0.5, 1e-5) >= 0.0
        assert stable_one_density(0.7, 1e-12) == 0.0

    def test_representation_sweep(self):
        # series/integral switchover and cross-validation stay consistent
        for a in np.linspace(0.15, 0.95, 9):
            for x in np.geomspace(1e-4, 1e6, 41):
                val = stable_one_density(float(a), float(x))
                assert val >= 0.0 and math.isfinite(val)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            stable_one_density(1.2, 1.0)
        with pytest.raises(ValueError):
            stable_density(0.5, -1.0, 1.0)
