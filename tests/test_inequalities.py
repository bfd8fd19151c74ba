import math

import numpy as np
import pytest

import dkl.inequalities as inequalities
from dkl.cli import main
from dkl.inequalities import (
    _E,
    _cal0_breaks,
    _eval_cal_3,
    _eval_cal_green,
    _eval_cal_new1,
    _eval_slowly_varying,
    _l_cal1_outer,
    _sample_l_cal1,
    _sphere_slice,
    check,
    lemma_ids,
    lemma_sweeps,
)
from dkl.quadrature import NonConvergenceError, QuadratureSpec, geometric_breaks, panel_nodes
from dkl.report import CEILING, FLOOR, TWO_SIDED, ComparabilityReport, ratio_report

SPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-12)
BUDGET = 150


class TestRegistry:
    def test_expected_entries(self):
        expected = {
            "slowly_varying",
            "slowly_varying_2",
            "kill_log",
            "kill_log_2",
            "cal_00",
            "cal_0",
            "l_cal1",
            "cal_new1",
            "cal_new2",
            "cal_basic",
            "cal_2",
            "cal_3",
            "cal_green",
            "comp_AB",
            "two_jump_region",
            "lower_2",
        }
        assert set(lemma_ids()) == expected

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            check("no_such_lemma", 0, 10, SPEC)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one(self, budget):
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            check("cal_3", 0, budget, SPEC)


class TestFrozenCeilings:
    @pytest.mark.parametrize("lemma_id", lemma_ids())
    def test_passes_frozen_ceiling(self, lemma_id):
        rep = check(lemma_id, sampler_seed=0, budget=BUDGET, spec=SPEC)
        assert rep.ceiling is not None, f"no frozen ceiling for {lemma_id}"
        assert rep.passed, (
            f"{lemma_id}: range [{rep.min_ratio}, {rep.max_ratio}] "
            f"vs ceiling {rep.ceiling}, excluded={rep.excluded}"
        )


class TestUnconvergedSamples:
    """Samples whose quadrature once failed to converge at rel 1e-7 (the
    default spec and criterion 12's) or at rel 1e-8 (the CLI's), each with
    abs 1e-12; a check now counts such a sample as a failure."""

    @pytest.mark.parametrize(
        "lemma_id, seed, index",
        [
            ("two_jump_region", 0, 683),  # a kink of the second leg
            ("lower_2", 0, 57),
            ("cal_2", 0, 432),  # the d = 1 shell endpoint r = xd
            ("l_cal1", 0, 778),  # the power of t - s below t - xd^alpha
            ("cal_0", 2, 688),  # the power of s above yd^alpha
            ("cal_0", 3, 345),
        ],
    )
    def test_converges_at_both_tolerances(self, lemma_id, seed, index):
        ratios = []
        for rel_tol in (1e-7, 1e-8):
            entry = lemma_sweeps(seed, QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-12))[lemma_id]
            *_, params = entry.samples(index + 1)
            lo, hi = entry.ratio(params)
            assert 0.0 < lo <= hi < math.inf
            ratios.append(hi)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-6)

    def test_unconverged_sample_fails_the_check(self, monkeypatch, capsys):
        """One raising sample in 150 fails the report and the CLI, whatever
        its extremes."""
        calls = []

        def flaky(p, spec):
            calls.append(p)
            if len(calls) == 5:
                raise NonConvergenceError("quadrature did not converge")
            return _eval_cal_3(p, spec)

        monkeypatch.setattr(inequalities, "_eval_cal_3", flaky)
        rep = check("cal_3", sampler_seed=0, budget=150, spec=SPEC)
        assert (rep.samples, rep.excluded) == (149, 1)
        assert rep.value <= rep.ceiling and not rep.passed
        calls.clear()
        assert main(["check", "--lemma", "cal_3", "--budget", "150"]) == 1
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert (row[0], row[1], row[2], row[-1]) == ("cal_3", "149", "1", "0")


class TestDeterminism:
    def test_identical_reports(self):
        a = check("comp_AB", sampler_seed=42, budget=60, spec=SPEC)
        b = check("comp_AB", sampler_seed=42, budget=60, spec=SPEC)
        assert a == b

    def test_budget_prefix_property(self):
        small = check("cal_3", sampler_seed=7, budget=40, spec=SPEC)
        large = check("cal_3", sampler_seed=7, budget=120, spec=SPEC)
        assert large.max_ratio >= small.max_ratio
        assert large.min_ratio <= small.min_ratio

    def test_seed_changes_samples(self):
        a = check("cal_green", sampler_seed=1, budget=30, spec=SPEC)
        b = check("cal_green", sampler_seed=2, budget=30, spec=SPEC)
        assert (a.min_ratio, a.max_ratio) != (b.min_ratio, b.max_ratio)


class TestToleranceStability:
    @pytest.mark.parametrize("lemma_id", ["cal_green", "two_jump_region", "cal_00"])
    def test_extremes_stable_under_tighter_quadrature(self, lemma_id):
        base = check(lemma_id, sampler_seed=0, budget=60, spec=SPEC)
        tight = check(
            lemma_id,
            sampler_seed=0,
            budget=60,
            spec=QuadratureSpec(rel_tol=SPEC.rel_tol / 2.0, abs_tol=SPEC.abs_tol / 2.0),
        )
        assert base.max_ratio == pytest.approx(tight.max_ratio, rel=0.05)
        assert base.min_ratio == pytest.approx(tight.min_ratio, rel=0.05)


class TestReportInvariants:
    def test_ratio_ordering(self):
        rep = check("kill_log", sampler_seed=3, budget=50, spec=SPEC)
        assert 0.0 < rep.min_ratio <= rep.max_ratio
        assert rep.samples + rep.excluded == 50
        assert rep.argmax  # witnesses recorded

    def test_pass_logic(self):
        good = ComparabilityReport("x", 10, 0, 0.5, 2.0, ceiling=3.0, kind=TWO_SIDED)
        assert good.passed
        bad_low = ComparabilityReport("x", 10, 0, 0.2, 2.0, ceiling=3.0, kind=TWO_SIDED)
        assert not bad_low.passed
        one_sided = ComparabilityReport("x", 10, 0, 1e-9, 2.0, ceiling=3.0, kind=CEILING)
        assert one_sided.passed
        floor = ComparabilityReport("x", 10, 0, 0.5, 1e9, ceiling=0.4, kind=FLOOR)
        assert floor.passed
        assert not ComparabilityReport("x", 10, 0, 0.3, 2.0, ceiling=0.4, kind=FLOOR).passed
        # one excluded sample in a thousand fails the report
        assert not ComparabilityReport("x", 999, 1, 0.5, 2.0, ceiling=3.0).passed
        assert not ComparabilityReport("x", 0, 0, math.inf, 0.0, ceiling=3.0).passed
        assert not ComparabilityReport("x", 10, 0, 0.5, 2.0).passed

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            ComparabilityReport("x", 10, 0, 2.0, 1.0)
        with pytest.raises(ValueError):
            ComparabilityReport("x", 10, 0, 2.0, 1.0, ceiling=3.0, kind=CEILING)

    def test_pair_sweep_may_have_its_lower_side_above_its_upper(self):
        # each side of a (lower, upper) pair gives one extreme, so the lower
        # side's minimum may exceed the upper side's maximum
        rep = ratio_report("x", [1, 2], lambda s: (7.0 * s, 5.0 * s), ceiling=20.0)
        assert rep.paired and rep.min_ratio == 7.0 and rep.max_ratio == 10.0
        assert rep.passed
        ComparabilityReport("x", 10, 0, 2.0, 1.0, paired=True)
        for lo, hi in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                ComparabilityReport("x", 10, 0, lo, hi, paired=True)
        with pytest.raises(ValueError):
            ratio_report("x", [1], lambda s: (0.0, 1.0))

    def test_cal_basic_small_budget(self):
        # at budget 5 every sample has a >= 1, where the lower side is the larger
        rep = check("cal_basic", sampler_seed=0, budget=5, spec=SPEC)
        assert rep.samples == 5 and rep.min_ratio > rep.max_ratio


class TestSpotValues:
    def test_slowly_varying_at_unit(self):
        # eps = 1, r = 1: log(e+1) about 1.3133 against bound 3
        _, hi = _eval_slowly_varying({"eps": 1.0, "r": 1.0}, SPEC)
        assert hi == pytest.approx(math.log(math.e + 1.0) / 3.0, rel=1e-12)

    def test_cal_green_pure_power(self):
        # gamma=2, flat clamps, a=1: both sides equal 1
        lo, hi = _eval_cal_green(
            {"gamma": 2.0, "b1": 0.0, "b2": 0.0, "a": 1.0, "k": 1.0, "l": 1.0}, SPEC
        )
        assert hi == pytest.approx(1.0, rel=1e-9)

    def test_cal_3_ratio_tends_to_one(self):
        lo, hi = _eval_cal_3({"b1": 0.0, "b2": 0.0, "k": 1e-6, "l": 1e-6}, SPEC)
        # LHS = log(2/l), RHS = log(e + 1/l): ratio close to 1 for tiny l
        assert hi == pytest.approx(1.0, rel=0.1)

    def test_cal_new1_unit_ball(self):
        _, hi = _eval_cal_new1({"dim": 1, "xd": 2.0, "A": 1.0}, SPEC)
        lhs = 2.0 * (math.sqrt(3.0) - 1.0)
        assert hi == pytest.approx(lhs / (1.0 * 2.0**-0.5), rel=1e-9)


class TestSphereSlice:
    """Surface integrals over the part of the sphere of radius r about
    height x that lies above the boundary, in closed form."""

    X = 0.7
    RADII = np.array([1e-3, 0.3, 0.7, 0.71, 2.0, 1e3])

    @staticmethod
    def height_integral(d, x, r):
        """The integral of f(h) = h."""
        if d == 1:
            return x + r + (x - r if x > r else 0.0)
        if d == 2:
            phi0 = -math.pi / 2.0 if x >= r else -math.asin(x / r)
            return 2.0 * (x * (math.pi / 2.0 - phi0) + r * math.cos(phi0))
        lo, hi = max(x - r, 0.0), x + r
        return math.pi * (hi * hi - lo * lo) / r

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_constant(self, d):
        got = _sphere_slice(d)(self.RADII, self.X, lambda h: np.ones_like(h))
        if d == 1:
            want = 1.0 + (self.X > self.RADII)
        elif d == 2:
            want = np.where(self.X >= self.RADII, 2.0 * math.pi,
                            math.pi + 2.0 * np.arcsin(np.minimum(self.X / self.RADII, 1.0)))
        else:
            want = np.where(self.X >= self.RADII, 4.0 * math.pi,
                            2.0 * math.pi * (self.X + self.RADII) / self.RADII)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_height(self, d):
        got = _sphere_slice(d)(self.RADII, self.X, lambda h: h.copy())
        want = [self.height_integral(d, self.X, r) for r in self.RADII]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestLCal1Outer:
    """The outer integrand of l_cal1 takes every time's inner rule in one row
    rule; each value keeps the bits of that inner rule taken on its own."""

    @staticmethod
    def per_node(p, s):
        """The outer integrand one time at a time, with ``panel_nodes`` and
        ``np.dot``; also counts the times cut off by lo >= 2 and pref == 0."""
        alpha, q = p["alpha"], p["q"]
        b1, b2, b3, b4 = p["b1"], p["b2"], p["b3"], p["b4"]
        xd, yd, t = p["xd"], p["yd"], p["t"]

        def inner_log(r, au, bu):
            v = np.ones_like(r)
            if b3 > 0.0:
                v = np.log(_E + r / au) ** b3 * np.log(_E + r / bu) ** b3
            if b4 > 0.0:
                v = v * np.log(_E + 1.0 / r) ** b4
            return v

        out = np.empty_like(s)
        cut = {"lo": 0, "pref": 0}
        for i, si in enumerate(s):
            rem = (t - si) ** (1.0 / alpha)
            s1a = si ** (1.0 / alpha)
            lo = max(yd, s1a)
            pref = si * min(xd / rem, 1.0) ** (q - b1) * min(yd / s1a, 1.0) ** (q - b2)
            if lo >= 2.0 or pref == 0.0:
                cut["lo" if lo >= 2.0 else "pref"] += 1
                out[i] = 0.0
                continue
            au = max(yd, s1a)
            bu = max(xd, rem)
            nodes, wts = panel_nodes(geometric_breaks(lo, 2.0, 3.0), 16)
            out[i] = pref * float(np.dot(inner_log(nodes, au, bu) / nodes, wts))
        return out, cut

    def test_rows_equal_the_per_node_rule(self):
        cut = {"lo": 0, "pref": 0}
        for i in range(40):
            p = _sample_l_cal1(np.random.default_rng([5, i]))
            # the sampler keeps s^(1/alpha) < t^(1/alpha) = tsc < 2; the
            # widened copy reaches past r = 2, where the inner range is empty
            wide = dict(p, tsc=3.0, t=3.0 ** p["alpha"])
            for q in (p, wide):
                s = np.concatenate([
                    [0.0, 5e-324],
                    panel_nodes(_cal0_breaks(q), 8)[0],
                    panel_nodes(_cal0_breaks(q), 16)[0],
                ])
                with np.errstate(divide="ignore"):
                    want, got_cut = self.per_node(q, s)
                    got = _l_cal1_outer(q)(s)
                assert got.tolist() == want.tolist(), (i, q)
                cut = {k: cut[k] + got_cut[k] for k in cut}
        assert cut["lo"] > 0 and cut["pref"] > 0
