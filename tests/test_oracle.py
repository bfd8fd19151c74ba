import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive

import dkl.quadrature as quadrature
from dkl.geometry import HalfSpacePoint, ModelParams, eval_B
from dkl.heatkernel import hke_closed
from dkl.oracle import (
    OracleParams,
    _comparison,
    _g_eval,
    _g_interp,
    _mass_eval,
    _mass_F,
    _mass_knots,
    compare_oracle_vs_estimate,
    fit_survival_exponent,
    killed_bm_density,
    oracle_J,
    oracle_kappa,
    oracle_p,
    oracle_survival,
)
from dkl.quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    geometric_breaks,
    integrate_panels,
    interp_eval,
    interpolate,
    merge_breaks,
    panel_nodes,
)
from dkl.special import bessel_I_scaled_arr, one_minus_scaled_I, stable_one_density_arr

from conftest import pt

SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-300)


class TestKilledBmDensity:
    def test_half_order_reflection_formula(self):
        # order 1/2 is the pure boundary-killed kernel
        op = OracleParams(0.5, 1, 1.0)
        for t, x, y in [(0.5, 1.0, 2.0), (2.0, 0.3, 0.4), (0.01, 1.0, 1.2)]:
            mine = killed_bm_density(op, t, pt(x), pt(y))
            ref = (
                math.exp(-((x - y) ** 2) / (4 * t))
                - math.exp(-((x + y) ** 2) / (4 * t))
            ) / math.sqrt(4 * math.pi * t)
            assert mine == pytest.approx(ref, rel=1e-13)

    def test_tangential_product_dimension(self):
        op1 = OracleParams(1.0, 1, 1.0)
        op3 = OracleParams(1.0, 3, 1.0)
        v1 = killed_bm_density(op1, 0.7, pt(1.0), pt(2.0))
        v3 = killed_bm_density(op3, 0.7, pt(0.0, 0.0, 1.0), pt(0.0, 0.0, 2.0))
        assert v3 == pytest.approx(v1 / (4 * math.pi * 0.7), rel=1e-13)

    def test_chapman_kolmogorov(self):
        op = OracleParams(1.5, 1, 1.0)
        t, s, x, y = 0.3, 0.7, 0.8, 1.7
        lhs, _ = quad(
            lambda z: killed_bm_density(op, t, pt(x), pt(z))
            * killed_bm_density(op, s, pt(z), pt(y)),
            0,
            40,
            limit=200,
        )
        rhs = killed_bm_density(op, t + s, pt(x), pt(y))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_two_sided_profile(self, rng):
        # ratio to (1 ^ xy/t)^(g+1/2) t^(-d/2) exp(-r^2/4t) is bounded
        op = OracleParams(1.0, 2, 1.0)
        ratios = []
        for _ in range(300):
            t = float(10.0 ** rng.uniform(-3, 3))
            x = pt(0.0, float(10.0 ** rng.uniform(-2, 2)))
            y = pt(float(rng.uniform(-3, 3)), float(10.0 ** rng.uniform(-2, 2)))
            num = killed_bm_density(op, t, x, y)
            prof = (
                min(1.0, x.height * y.height / t) ** 1.5
                * t**-1.0
                * math.exp(-x.distance_to(y) ** 2 / (4 * t))
            )
            if prof == 0.0:
                continue
            ratios.append(num / prof)
        assert 0.0 < min(ratios) and max(ratios) / min(ratios) < 30.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_time_domain(self, t):
        op = OracleParams(0.5, 1, 1.0)
        for call in (killed_bm_density, oracle_p):
            with pytest.raises(ValueError, match="t must be finite and > 0"):
                call(op, t, pt(1.0), pt(2.0))


class TestInputDomains:
    # NaN fails every guard, each written as the negation of its valid domain
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_order(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            OracleParams(gamma, 1, 1.0)

    def test_order_past_the_mass_range(self):
        OracleParams(40.0, 1, 1.0)
        with pytest.raises(ValueError, match="gamma must be <= 40, got 40.5"):
            OracleParams(40.5, 1, 1.0)

    @pytest.mark.parametrize("t", [1e-200, 1e300])
    def test_time_change_past_the_float_range(self, t, recwarn):
        op = OracleParams(0.5, 1, 1.0)
        with pytest.raises(ValueError, match="time change at t = .* spans more than the float range"):
            oracle_p(op, t, pt(1.0), pt(1.0))
        assert not recwarn.list

    def test_estimate_underflow_in_the_comparison(self):
        with pytest.raises(ValueError, match="the estimate underflows to 0 at t = 1.0"):
            _comparison(OracleParams(0.5, 1, 1.0), SPEC, (1.0,), (1e-300,), (1e-300,), q_fit=1.0)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, 0.0, -1.0])
    def test_survival_position(self, xi, recwarn):
        with pytest.raises(ValueError, match="xi must be finite and > 0"):
            oracle_survival(OracleParams(0.5, 1, 1.0), xi)
        assert not recwarn.list

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_comparison_grid(self, bad):
        op = OracleParams(0.5, 1, 1.0)
        with pytest.raises(ValueError, match="times must be finite and > 0"):
            _comparison(op, SPEC, (1.0, bad), (1.0,), (2.0,), q_fit=1.0)
        for xs, ys in [((1.0, bad), (2.0,)), ((1.0,), (bad, 2.0))]:
            with pytest.raises(ValueError, match="heights must be finite and > 0"):
                _comparison(op, SPEC, (1.0,), xs, ys, q_fit=1.0)

    def test_comparison_distances_match_the_points(self):
        # the cells' distances come from the heights as HalfSpacePoint.distance_to
        # gives them: the estimate column matches hke_closed at the points
        for dim in (1, 2):
            op = OracleParams(0.5, dim, 1.0)
            params = ModelParams(dim, 1.0, (1.0, 1.0, 0.0, 0.0))
            xs, ys = (0.3, 2.0), (0.7, 5.0)
            _, _, _, cells = _comparison(op, SPEC, (0.5,), xs, ys, q_fit=1.0)
            for t, xh, yh, _num, est in cells:
                x = HalfSpacePoint(dim, (0.0,) * (dim - 1), xh)
                y = HalfSpacePoint(dim, (1.0,) * (dim - 1), yh)
                want = hke_closed(params, t, x, y, q=1.0).killed_value
                assert est == pytest.approx(want, rel=1e-14)


class TestOracleP:
    def test_symmetry(self):
        op = OracleParams(0.5, 1, 1.0)
        assert oracle_p(op, 1.0, pt(1.0), pt(2.0)) == oracle_p(op, 1.0, pt(2.0), pt(1.0))

    def test_fixed_simpson_oracle(self):
        # independent reference: closed-form subordinator density (index 1/2)
        # against a 1e5-node log-spaced Simpson rule
        op = OracleParams(0.5, 1, 1.0)
        t, xh, yh = 1.0, 1.0, 2.0
        s = np.geomspace(1e-8, 1e8, 100_001)
        q = (
            np.sqrt(xh * yh)
            / (2 * s)
            * np.exp(-((xh - yh) ** 2) / (4 * s))
            * (1.0 - np.exp(-xh * yh / s))
            / np.sqrt(np.pi * xh * yh / s)
            * np.sqrt(np.pi * xh * yh / s)
        )
        # I_{1/2}(z) e^{-z} = (1 - e^{-2z}) / sqrt(2 pi z)
        z = xh * yh / (2 * s)
        q = (
            np.sqrt(xh * yh)
            / (2 * s)
            * (1.0 - np.exp(-2.0 * z))
            / np.sqrt(2 * np.pi * z)
            * np.exp(-((xh - yh) ** 2) / (4 * s))
        )
        dens = s**-1.5 * np.exp(-1.0 / (4.0 * s)) / (2.0 * np.sqrt(np.pi))
        integrand = q * dens * s  # log-axis Simpson
        w = np.log(s)
        h = w[1] - w[0]
        weights = np.ones_like(w)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        ref = float(np.dot(integrand, weights)) * h / 3.0
        mine = oracle_p(op, t, pt(xh), pt(yh))
        assert mine == pytest.approx(ref, rel=1e-4)

    def test_on_diagonal_bound(self, rng):
        op = OracleParams(0.5, 1, 1.0)
        for _ in range(20):
            t = float(10.0 ** rng.uniform(-2, 2))
            xh = float(10.0 ** rng.uniform(-1, 1))
            val = oracle_p(op, t, pt(xh), pt(xh))
            assert val * t ** (1.0 / 1.0) < 2.0

    def test_mass_submarkov_and_monotone(self):
        op = OracleParams(0.5, 1, 1.0)
        masses = []
        for t in (0.5, 1.0, 2.0):
            m, _ = quad(lambda yv: oracle_p(op, t, pt(1.0), pt(yv)), 0, 80, limit=300)
            masses.append(m)
        assert all(m <= 1.0 + 1e-8 for m in masses)
        assert all(a >= b - 1e-8 for a, b in zip(masses, masses[1:]))

    def test_scaling(self):
        op = OracleParams(1.0, 1, 1.2)
        r = 2.0
        v1 = oracle_p(op, 1.0, pt(0.5), pt(1.5))
        v2 = oracle_p(op, 1.0 / r**1.2, pt(0.25), pt(0.75))
        assert v1 == pytest.approx(v2 / r, rel=1e-6)


class TestOracleJ:
    def test_comparability_to_weight_kernel(self):
        op = OracleParams(0.5, 1, 1.0)
        b = (1.0, 1.0, 0.0, 0.0)
        ratios = []
        for xh in (0.1, 1.0, 5.0):
            for yh in (0.2, 2.0, 8.0):
                num = oracle_J(op, pt(xh), pt(yh))
                den = eval_B(b, pt(xh), pt(yh)) * abs(xh - yh) ** -2.0
                ratios.append(num / den)
        assert max(ratios) / min(ratios) < 10.0

    def test_scaling(self):
        op = OracleParams(0.5, 1, 1.0)
        v1 = oracle_J(op, pt(0.5), pt(1.5))
        v2 = oracle_J(op, pt(1.0), pt(3.0))
        assert v2 == pytest.approx(v1 * 2.0 ** (-2.0), rel=1e-8)

    def test_interior_plateau(self):
        # deep pairs approach the free stable kernel: the normalized value
        # stabilizes along a sequence of increasingly deep pairs
        op = OracleParams(0.5, 1, 1.0)
        vals = [
            oracle_J(op, pt(h), pt(h + 1.0)) * 1.0
            for h in (4.0, 16.0, 64.0)
        ]
        assert abs(vals[-1] - vals[-2]) / vals[-1] < 0.05


class TestOracleKappa:
    def test_exact_dirichlet_cauchy_constant(self):
        # order 1/2 at unit stability index: the constant is exactly 2/pi
        op = OracleParams(0.5, 1, 1.0)
        val = oracle_kappa(op, pt(1.0))
        assert val == pytest.approx(2.0 / math.pi, rel=1e-6)

    def test_homogeneity(self):
        for gamma, alpha in [(0.0, 1.0), (1.5, 0.6)]:
            op = OracleParams(gamma, 1, alpha)
            vals = [oracle_kappa(op, pt(h)) * h**alpha for h in (0.1, 1.0, 10.0)]
            spread = (max(vals) - min(vals)) / abs(np.mean(vals))
            assert spread < 1e-3

    def test_tangential_invariance(self):
        op = OracleParams(1.0, 2, 1.0)
        a = oracle_kappa(op, pt(0.0, 1.0))
        b = oracle_kappa(op, pt(57.0, 1.0))
        assert a == b

    def test_independent_mesh_oracle(self):
        # fixed-mesh double integral of the mass defect for the 2/pi case
        op = OracleParams(0.5, 1, 1.0)
        t = np.geomspace(1e-7, 1e7, 3001)
        one_minus_mass = np.array(
            [math.erfc(1.0 / (2.0 * math.sqrt(ti))) for ti in t]
        )
        w = np.log(t)
        integrand = one_minus_mass * t**-0.5  # nu has exponent -1 - 1/2, times t
        h = w[1] - w[0]
        weights = np.ones_like(w)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        ref = float(np.dot(integrand, weights)) * h / 3.0 * 0.5 / math.gamma(0.5)
        assert oracle_kappa(op, pt(1.0)) == pytest.approx(ref, rel=1e-3)


def _mass_F_one_time(gamma, xd, ti, n):
    """The mass defect at one time, one panel rule per call."""
    sig = math.sqrt(ti)
    hi = xd + 42.0 * sig
    inner = [v for v in (xd / 2.0, xd, max(xd - 10.0 * sig, 0.0)) if 0.0 < v < hi]
    nodes, wts = panel_nodes(merge_breaks([0.0, hi * 1e-6, hi * 1e-3, hi], inner, 0.0, hi), n)
    phi = np.exp(-((xd - nodes) ** 2) / (4.0 * ti)) / math.sqrt(4.0 * math.pi * ti)
    om = one_minus_scaled_I(gamma, xd * nodes / (2.0 * ti))
    return float(np.dot(phi * om, wts)) + 0.5 * math.erfc(xd / (2.0 * sig))


class TestSubordinatorInterpolant:
    # largest relative error of _g_eval measured at these points, rounded up
    MEASURED = {0.6: 1e-11, 1.0: 2e-11, 1.4: 4e-11}

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4])
    def test_density_error_on_the_whole_grid(self, alpha):
        # the interior points of a 4,000-point geometric grid over the whole
        # interpolated range, from where the density is about e^-600 of its
        # scale up to 1e14
        a = alpha / 2.0
        lo, hi, _ = _g_interp(a)
        w = np.geomspace(lo, hi, 4000)[1:-1]
        err = np.abs(_g_eval(a, w) / stable_one_density_arr(a, w) - 1.0)
        assert err.max() <= self.MEASURED[alpha]

    def test_density_tail_series_and_left_of_the_range(self):
        a = 0.5
        lo, hi, _ = _g_interp(a)
        w = np.array([lo / 2.0, 2.0 * hi, 1e20])
        got = _g_eval(a, w)
        assert got[0] == 0.0
        assert got[1:] == pytest.approx(stable_one_density_arr(a, w[1:]), rel=1e-12)

    # largest relative error of _mass_eval against its own converged knots
    # between the interpolation points, rounded up
    MASS_MEASURED = {0.0: 3e-11, 0.5: 3e-11, 1.0: 6e-11}

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_mass_error_on_the_whole_grid(self, gamma):
        u = np.geomspace(1e-9, 1e12, 2000)[1:-1]
        err = np.abs(_mass_eval(gamma, u) / _mass_knots(gamma, u) - 1.0)
        assert err.max() <= self.MASS_MEASURED[gamma]

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("u", [1e-3, 1.0, 1e6, 1e11])
    def test_mass_against_quad(self, gamma, u):
        # independent reference: the killed density from scipy's scaled
        # Bessel function, integrated over the height by adaptive quad
        def q(y):
            return (math.sqrt(y) / (2.0 * u) * ive(gamma, y / (2.0 * u))
                    * math.exp(-((1.0 - y) ** 2) / (4.0 * u)))

        hi = 1.0 + 60.0 * math.sqrt(u)
        ref, _ = quad(q, 0.0, hi, points=[1.0], epsabs=0.0, epsrel=1e-13, limit=500)
        got = float(_mass_eval(gamma, np.array([u]))[0])
        # the old order-32 knots were off by 1.1e-1 at u = 1e11, gamma = 1
        assert got == pytest.approx(ref, rel=1e-11)

    def test_smooth_function_is_reproduced(self):
        interp, at_ends = interpolate(np.exp, 0.0, 3.0, 0.4, 1e-9, "exp")
        # f at the panel ends, the first and last at the interval's ends
        assert at_ends[0] == 1.0 and at_ends[-1] == pytest.approx(math.exp(3.0), rel=1e-15)
        x = np.linspace(0.0, 3.0, 1001)
        # the monomial form costs a few hundred ulps of rounding at degree 9
        assert np.abs(interp_eval(interp, x) / np.exp(x) - 1.0).max() < 1e-13

    def test_kink_raises(self):
        # |x| has a kink inside a panel at every width tried
        with pytest.raises(NonConvergenceError, match="kink interpolant"):
            interpolate(np.abs, -1.0, 1.3, 0.5, 1e-9, "kink")


class TestMassDefect:
    @pytest.mark.parametrize("block", [1, 16384], ids=["row-per-block", "default"])
    def test_mass_defect_batched_matches_one_at_a_time(self, block, monkeypatch):
        # bit for bit: the times of oracle_kappa's order-16 rule and its t1,
        # and 280 times over the mass interpolant's range; at t = xd^2/400
        # the kink xd - 10 sqrt(t) repeats xd/2, and a zero-width panel there
        # moves the order-48 value
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", block)
        for gamma, xd, n in [(0.5, 0.1, 24), (1.5, 1.0, 32), (0.0, 0.01, 48)]:
            kappa_t, _ = panel_nodes(geometric_breaks(1e-6 * xd * xd, 1e7 * xd * xd), 16)
            ts = np.concatenate(
                [kappa_t, [1e7 * xd * xd, xd * xd / 400.0], np.geomspace(1e-9, 1e12, 280)]
            )
            batched = _mass_F(gamma, xd, ts, n)
            for t, got in zip(ts, batched):
                assert got == _mass_F_one_time(gamma, xd, float(t), n)

    def test_bessel_calls_stay_inside_a_block(self, monkeypatch):
        # the row rule's cap bounds the arrays of the Bessel layer too
        sizes = []

        def spy(gamma, z):
            sizes.append(len(z))
            return one_minus_scaled_I(gamma, z)

        monkeypatch.setattr("dkl.oracle.one_minus_scaled_I", spy)
        _mass_F(0.5, 1.0, np.geomspace(1e-9, 1e12, 2000), 32)
        assert len(sizes) > 1 and max(sizes) <= quadrature.BLOCK_ELEMENTS


class TestSurvival:
    def test_exponent_fit_near_profile_order(self):
        op = OracleParams(0.5, 1, 1.0)
        q_fit, r2 = fit_survival_exponent(op)
        assert r2 > 0.999
        # recorded observation: the fitted exponent tracks gamma + 1/2
        assert abs(q_fit - 1.0) < 0.05

    def test_survival_monotone_in_position(self):
        op = OracleParams(1.0, 1, 0.8)
        xs = [1e-3, 1e-2, 1e-1, 1.0]
        vals = [oracle_survival(op, v) for v in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0 + 1e-6


def _oracle_p_one_cell(op, t, x, y, spec):
    """The oracle density of one cell, one panel rule per call."""
    xd, yd = x.height, y.height
    dist = x.distance_to(y)
    dist2 = dist * dist
    a = op.alpha / 2.0
    tsc = t ** (1.0 / a)
    s_lo = max(_g_interp(a)[0] * tsc * 0.9, dist2 / 2800.0, 1e-300)
    s_hi = max(dist2, xd * yd, tsc) * 1e10
    inner = [v for v in (dist2, xd * yd, tsc) if s_lo < v < s_hi]

    def f(s):
        radial = (math.sqrt(xd * yd) / (2.0 * s)) * bessel_I_scaled_arr(op.gamma, xd * yd / (2.0 * s))
        tangential = (4.0 * math.pi * s) ** (-(op.dim - 1) / 2.0)
        q = radial * tangential * np.exp(-dist2 / (4.0 * s))
        return q * _g_eval(a, s / tsc) / tsc

    breaks = merge_breaks(geometric_breaks(s_lo, s_hi, 2.0), inner, s_lo, s_hi)
    return integrate_panels(f, breaks, spec)


class TestComparison:
    @pytest.mark.parametrize("block", [1000, 16384], ids=["small", "default"])
    @pytest.mark.parametrize(
        "spec",
        [QuadratureSpec(rel_tol=1e-7, abs_tol=1e-300),
         QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=32)],
        ids=["default", "tight"],
    )
    def test_cells_match_one_panel_rule_each(self, spec, block, monkeypatch):
        # bit for bit: every cell stops at its own order, and a cell whose
        # orders run out holds the error a one-cell rule raises; the tight
        # spec leaves about a quarter of the cells unconverged
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", block)
        failed = 0
        for op in (OracleParams(0.5, 1, 1.0), OracleParams(1.5, 2, 0.6)):
            heights = np.geomspace(0.05, 20.0, 5)
            _, _, _, cells = _comparison(op, spec, (0.25, 4.0), heights, heights[1:], q_fit=1.0)
            assert len(cells) == 2 * 5 * 4
            for t, xh, yh, num, _ in cells:
                # the comparison's points: y one unit off along the boundary in d = 2
                x = pt(*(0.0,) * (op.dim - 1), float(xh))
                y = pt(*(1.0,) * (op.dim - 1), float(yh))
                try:
                    want = _oracle_p_one_cell(op, t, x, y, spec)
                except NonConvergenceError as exc:
                    failed += 1
                    assert isinstance(num, NonConvergenceError) and str(num) == str(exc)
                    continue
                assert num == want, (op, t, xh, yh)
        assert failed > 0 if spec.max_subdivisions == 32 else failed == 0

    def test_interior_cells_near_on_diagonal(self):
        op = OracleParams(0.5, 1, 1.0)
        rep, q_fit, r2 = compare_oracle_vs_estimate(
            op,
            ts=(1.0,),
            xs=(2.0, 4.0),
            ys=(2.5, 4.5),
        )
        assert r2 > 0.99
        assert 0.05 < rep.min_ratio and rep.max_ratio < 20.0

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            compare_oracle_vs_estimate(OracleParams(0.5, 3, 1.0))
