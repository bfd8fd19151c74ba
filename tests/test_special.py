import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

import dkl.special
from dkl.quadrature import NonConvergenceError, QuadratureSpec
from dkl.special import (
    _SERIES_CUT,
    _stable_series,
    bessel_I,
    bessel_I_scaled,
    bessel_I_scaled_arr,
    one_minus_scaled_I,
    stable_density,
    stable_one_density,
    stable_one_density_arr,
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

    def test_orders_past_the_gamma_overflow(self, recwarn):
        # Gamma(g + 1) overflows from g ~ 171 on, so the first term is taken in logs
        assert bessel_I_scaled(172.0, 0.0) == 0.0
        assert bessel_I_scaled(172.0, 1.0) == 0.0
        assert abs(bessel_I_scaled(172.0, 100.0) / sp.ive(172.0, 100.0) - 1.0) < 1e-12
        assert abs(bessel_I_scaled(180.0, 700.0) / sp.ive(180.0, 700.0) - 1.0) < 1e-12
        # I_200(5000) is past the float range, and so is the series summing it
        with pytest.raises(NonConvergenceError, match="Bessel series overflowed"):
            bessel_I_scaled(200.0, 5000.0)
        # lgamma(g + 1) overflows in turn from g ~ 2.5e305 on, where e^-r I_g(r)
        # underflows at every finite r
        assert bessel_I_scaled(1e308, 1.0) == 0.0
        assert bessel_I_scaled(1e308, 0.0) == 0.0
        r = np.array([0.0, 5e-324, 1.0, 1e300, math.inf])
        assert np.all(bessel_I_scaled_arr(1e308, r) == 0.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_scalar_vector_agree(self):
        for g in (0.0, 0.5, 0.7, 20.0):
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

    def test_plain_value_overflows(self):
        assert bessel_I(0.5, 1500.0) == math.inf

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
        for g in (0.0, 0.5, 1.5):
            ref = 1.0 - np.sqrt(2.0 * np.pi * z) * sp.ive(g, z)
            mine = one_minus_scaled_I(g, z)
            assert np.max(np.abs(mine - ref)) < 1e-12
        # past gamma^2 > 40 the direct form runs on to z = gamma^2
        for g in (9.0, 20.0, 50.0):
            z = np.geomspace(40.0, 4.0 * g * g, 60)
            ref = 1.0 - np.sqrt(2.0 * np.pi * z) * sp.ive(g, z)
            assert np.max(np.abs(one_minus_scaled_I(g, z) - ref)) < 1e-12
        # asymptotic branch: leading term dominates
        big = one_minus_scaled_I(1.5, np.array([1e4]))[0]
        assert big == pytest.approx((4 * 1.5**2 - 1) / (8 * 1e4), rel=1e-3)
        # order 1/2: the closed form e^(-2z), exponentially small
        assert abs(one_minus_scaled_I(0.5, np.array([100.0]))[0]) < 1e-80


# the closed forms' arguments: the origin, a subnormal and a tiny one, ten
# decades, and one far past where e^z I_g(z) overflows
_HALF_Z = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-6, 1e4, 200), [1e300]])


def _mp_one_minus_scaled_I(g: float, z: float) -> float:
    """1 - sqrt(2 pi z) e^(-z) I_g(z) from mpmath's Bessel function, at 80
    digits beyond the ones the difference cancels: about 2z / ln 10 at order
    1/2 (the value is e^(-2z)), log10 z at 3/2 (it is about 1/z), at most
    400 since a value below 1e-400 rounds to 0 anyway."""
    if z == 0.0:
        return 1.0
    lost = 2.0 * z / math.log(10.0) if g == 0.5 else math.log10(max(z, 1.0))
    with mp.workdps(80 + int(min(lost, 400.0))):
        x = mp.mpf(z)
        return float(1 - mp.sqrt(2 * mp.pi * x) * mp.exp(-x) * mp.besseli(g, x))


class TestHalfIntegerClosedForms:
    def test_scaled_I_half_against_mpmath(self, recwarn):
        got = bessel_I_scaled_arr(0.5, _HALF_Z)
        with mp.workdps(80):
            ref = np.array([float(mp.exp(-mp.mpf(z)) * mp.besseli(0.5, mp.mpf(z))) for z in _HALF_Z])
        assert got[0] == 0.0 and bessel_I_scaled(0.5, 0.0) == 0.0
        assert np.all(np.abs(got[1:] - ref[1:]) <= 1e-15 * ref[1:])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("g", [0.5, 1.5])
    def test_one_minus_scaled_against_mpmath(self, g, recwarn):
        got = one_minus_scaled_I(g, _HALF_Z)
        ref = np.array([_mp_one_minus_scaled_I(g, float(z)) for z in _HALF_Z])
        assert got[0] == 1.0
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
        # where the direct form 1 - sqrt(2 pi z) e^-z I_g(z) cancels to noise
        band = (_HALF_Z >= 18.0) & (_HALF_Z < 40.0)
        assert band.sum() >= 5 and np.all(got[band] > 0.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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

    def test_far_right_tail_underflows_to_zero(self):
        # every series term underflows, and so does the closed form
        for x in (1e250, 1e300, math.inf):
            ref = x**-1.5 * math.exp(-1.0 / (4.0 * x)) / (2.0 * math.sqrt(math.pi))
            assert stable_one_density(0.5, x) == ref == 0.0
        for a in (0.15, 0.7, 0.95):
            assert stable_one_density(a, math.inf) == 0.0
        # short of the underflow the series still gives the closed form
        x = 1e200
        ref = x**-1.5 * math.exp(-1.0 / (4.0 * x)) / (2.0 * math.sqrt(math.pi))
        assert stable_one_density(0.5, x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("x", [1e300, math.inf])
    def test_far_tail_is_zero_at_every_index(self, a, x):
        # the density underflows there, for the scalar and the array path
        assert stable_one_density(a, x) == 0.0
        assert stable_one_density_arr(a, np.array([x, 1.0]))[0] == 0.0

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_subnormal_series_terms_underflow_to_zero(self, a):
        # past some x the first series term is subnormal and the sum rounds
        # to 0; the density is 0 there, not a Zolotarev integral that spikes
        # at phi -> pi and runs out of orders
        x = np.array([m * 10.0**e for e in range(100, 309) for m in (1.0, 2.5, 5.0)])
        x = x[np.isfinite(x)]
        got = stable_one_density_arr(a, x)
        assert np.all(got >= 0.0) and np.all(np.isfinite(got))
        for v in x[::7]:
            assert stable_one_density(a, float(v)) == got[x == v][0]

    def test_underflow_points_of_the_former_integral_fallback(self):
        for a, x in [(0.5, 2.5e215), (0.5, 5e215), (0.3, 5e248)]:
            assert stable_one_density(a, x) == 0.0

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


def _branches(a, x):
    """Which representation gives each element of stable_one_density_arr(a, x)."""
    val, max_term = _stable_series(a, x[x > 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        noise = 500.0 * max_term * 2.2e-16 / np.maximum(np.abs(val), 1e-300)
    out = np.full(len(x), "x <= 0", dtype=object)
    out[x > 0.0] = np.where(
        (noise <= 1e-9) & (val > 0.0),
        "series",
        np.where((val > 0.0) & (noise <= 1e-3), "band", "integral"),
    )
    return out


def _g_grid(a):
    """The knots of the former log-log spline of the subordinator density:
    60 per decade from where the density is about e^-600 of its scale up
    to 1e14."""
    frac = a / (1.0 - a)
    k_left = (1.0 - a) * a**frac
    w_left = (k_left / 600.0) ** (1.0 / frac)
    w_hi = 1e14
    n = max(int(60 * math.log10(w_hi / w_left)), 200)
    return np.geomspace(w_left, w_hi, n)


class TestStableDensityArray:
    # SHA-256 of the float64 bytes of the density on the knots of the former
    # oracle spline, as the scalar density gave them one point at a time
    GRID_SHA256 = {
        0.6: "31ff27fee26e1daaaa86ffc354f7f08a354ee68b543625fdc84a667cda01e5e7",
        1.0: "d633f394074562284ec41170a34ce9c3bd04ce1447f4b5b7d77a5bc37a81d30a",
        1.4: "c0fabc41aa2eac938af95f82f95ea5cf4fcf6adca5ce483d278106bb7ab7ec0d",
    }

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4])
    def test_spline_grids_keep_their_bits(self, alpha):
        a = alpha / 2.0
        grid = _g_grid(a)
        vals = stable_one_density_arr(a, grid)
        assert hashlib.sha256(vals.tobytes()).hexdigest() == self.GRID_SHA256[alpha]
        for i in range(0, len(grid), 97):
            assert stable_one_density(a, float(grid[i])) == vals[i]

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
    def test_mixed_array_is_its_one_element_calls(self, a):
        # bit for bit, whatever shares the array: every branch, in shuffled order
        rng = np.random.default_rng(7)
        x = np.concatenate([
            [0.0, -1.0, -math.inf, 1e-300],
            10.0 ** rng.uniform(-4.0, 7.0, 300),
        ])
        rng.shuffle(x)
        got = stable_one_density_arr(a, x)
        for v, g in zip(x, got):
            assert g == stable_one_density(a, float(v)), v
        branch = _branches(a, x)
        assert set(branch) == {"x <= 0", "series", "band", "integral"}
        assert np.all(got[branch == "x <= 0"] == 0.0)
        assert got[x == 1e-300][0] == 0.0  # the true value underflows
        assert np.all(got[x > 0.0] >= 0.0)

    def test_shape_is_kept(self):
        x = np.array([[0.5, 2.0], [0.0, 30.0]])
        got = stable_one_density_arr(0.5, x)
        assert got.shape == (2, 2)
        assert got[1, 0] == 0.0
        assert got[0, 1] == stable_one_density(0.5, 2.0)
        assert stable_one_density_arr(0.5, np.array([])).shape == (0,)

    def test_one_disagreeing_element_raises_for_the_array(self, monkeypatch):
        a = 0.5
        x = np.geomspace(1e-3, 1e3, 200)
        band = x[_branches(a, x) == "band"]
        assert len(band) > 0
        target = float(band[0])
        real = dkl.special._stable_integral

        def off_at_target(a_, xs):
            out = real(a_, xs)
            out[xs == target] *= 1.0 + 1e-3  # outside the band's 1e-6
            return out

        monkeypatch.setattr(dkl.special, "_stable_integral", off_at_target)
        with pytest.raises(NonConvergenceError, match="disagree"):
            stable_one_density_arr(a, x)
        with pytest.raises(NonConvergenceError, match="disagree"):
            stable_one_density(a, target)
        # without the disagreeing element the call goes through
        stable_one_density_arr(a, x[x != target])

    def test_integral_failure_names_its_first_element(self, monkeypatch):
        # every element takes the integral and none converges within 32
        # orders: the error names the first one
        monkeypatch.setattr(dkl.special, "_STABLE_SPEC",
                            QuadratureSpec(rel_tol=1e-11, abs_tol=1e-300, max_subdivisions=32))
        with pytest.raises(NonConvergenceError,
                           match=r"^stable density integral at a=0\.5, x=0\.05: "):
            stable_one_density_arr(0.5, np.array([0.05, 0.5, 2.0]))

    def test_nan_argument(self):
        # NaN fails the argument guards before any series runs
        with pytest.raises(ValueError, match="x must be a number"):
            stable_one_density(0.5, math.nan)
        with pytest.raises(ValueError, match="argument must be >= 0"):
            bessel_I_scaled(0.5, math.nan)
        with pytest.raises(ValueError, match="order must be >= 0"):
            bessel_I_scaled(math.nan, 1.0)
        with pytest.raises(ValueError):
            stable_density(0.5, math.nan, 1.0)

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_index_outside_the_unit_interval(self, a):
        with pytest.raises(ValueError):
            stable_one_density(a, 1.0)
        with pytest.raises(ValueError):
            stable_one_density_arr(a, np.array([1.0]))
