import math

import numpy as np
import pytest

import dkl.quadrature as quadrature
from dkl.geometry import HalfSpacePoint, ModelParams, standard_weight
from dkl.heatkernel import twojump_ball_integral
from dkl.killing import compute_C
from dkl.oracle import OracleParams, oracle_kappa
from dkl.quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    _chunk_dots,
    converge,
    converge_rows,
    integrate_panels,
    integrate_rows,
    panel_nodes,
    refine_rows,
    row_blocks,
)

# a budget of 16 allows one estimate and no convergence test
ONE_ROUND = QuadratureSpec(max_subdivisions=16)


class TestConverge:
    def test_returns_first_estimate_within_tolerance(self):
        values = {4: 1.0, 8: 0.5, 16: 0.45, 32: 0.449, 64: 0.4489}
        assert converge(values.__getitem__, 4, 64, lambda v: 0.01) == 0.449

    def test_tolerance_is_taken_at_the_current_estimate(self):
        values = {1: 5.0, 2: 10.0, 4: 11.05}
        # |11.05 - 10| <= 0.1 * 11.05 but > 0.1 * 10
        assert converge(values.__getitem__, 1, 4, lambda v: 0.1 * v) == 11.05

    def test_evaluates_each_doubled_order_once(self):
        calls = []

        def estimate(n):
            calls.append(n)
            return float(n)

        with pytest.raises(NonConvergenceError):
            converge(estimate, 16, 2048, lambda v: 1e-9)
        assert calls == [16, 32, 64, 128, 256, 512, 1024, 2048]

    def test_stops_at_the_accepted_order(self):
        calls = []

        def estimate(n):
            calls.append(n)
            return 1.0 if n >= 32 else 1.0 / n

        assert converge(estimate, 8, 1024, lambda v: 1e-12) == 1.0
        assert calls == [8, 16, 32, 64]

    def test_raises_with_message_once_orders_run_out(self):
        with pytest.raises(NonConvergenceError, match=r"^thing did not converge \(order 64 exceeds budget\)$"):
            converge(float, 8, 32, lambda v: 0.0, "thing did not converge")


class TestSharedFirstCall:
    BREAKS = [0.0, 0.5, 2.0]  # two panels

    @staticmethod
    def _spy(f):
        sizes = []

        def g(x):
            sizes.append(len(x))
            return f(x)

        return g, sizes

    def test_orders_n0_and_2n0_share_one_call(self):
        f, sizes = self._spy(np.exp)
        got = integrate_panels(f, self.BREAKS, QuadratureSpec(), n0=8)
        assert sizes == [3 * 8 * 2]
        nodes, wts = panel_nodes(self.BREAKS, 16)
        assert got == float(np.dot(np.exp(nodes), wts))

    def test_no_prefetch_past_the_budget(self):
        f, sizes = self._spy(np.sin)
        with pytest.raises(NonConvergenceError,
                           match=r"^quadrature did not converge \(order 32 exceeds budget\)$"):
            integrate_panels(f, self.BREAKS, ONE_ROUND)
        assert sizes == [16 * 2]

    def test_later_orders_are_evaluated_alone(self):
        # x^-1/2 is integrable but too singular at 0 to settle by order 32
        f, sizes = self._spy(lambda x: x ** -0.5)
        with pytest.raises(NonConvergenceError, match=r"\(order 64 exceeds budget\)$"):
            integrate_panels(f, self.BREAKS, QuadratureSpec(max_subdivisions=32), n0=8)
        assert sizes == [3 * 8 * 2, 32 * 2]


def _ragged_breaks(rows: int) -> np.ndarray:
    """Rows of 2 to 6 increasing breakpoints, NaN-padded to 6 columns."""
    rng = np.random.default_rng(7)
    out = np.full((rows, 6), np.nan)
    for i in range(rows):
        k = 2 + i % 5
        out[i, :k] = np.cumsum(rng.uniform(0.1, 2.0, k)) - 1.0
    return out


def _row_integrand(x, row):
    return np.sin(3.0 * x + row) * np.exp(-0.1 * x * x)


class TestRowRule:
    @pytest.mark.parametrize("block", [1, 100, 16384], ids=["row-per-block", "small", "default"])
    def test_rows_match_one_panel_rule_each(self, block, monkeypatch):
        # bit for bit: the padding never enters a row's nodes or its dot
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", block)
        breaks = _ragged_breaks(23)
        got = integrate_rows(_row_integrand, breaks, 8)
        for i, row in enumerate(breaks):
            nodes, wts = panel_nodes(row[~np.isnan(row)], 8)
            assert got[i] == float(np.dot(_row_integrand(nodes, i), wts))

    @pytest.mark.parametrize("block", [100, 16384], ids=["small", "default"])
    def test_integrand_never_gets_more_than_a_block(self, block, monkeypatch):
        # the cap bounds the memory of every array call
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", block)
        sizes = []

        def spy(x, row):
            sizes.append(len(x))
            return _row_integrand(x, row)

        breaks = _ragged_breaks(2000)
        integrate_rows(spy, breaks, 16)
        assert max(sizes) <= block
        assert sum(sizes) == 16 * int(np.sum(np.count_nonzero(~np.isnan(breaks), axis=1) - 1))

    def test_block_partition(self, monkeypatch):
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", 10)
        assert row_blocks(np.full(7, 3)) == [(0, 3), (3, 6), (6, 7)]
        assert row_blocks(np.array([4, 12, 5, 5, 1])) == [(0, 1), (1, 2), (2, 4), (4, 5)]

    def test_rejects_a_row_without_a_panel(self):
        with pytest.raises(ValueError):
            integrate_rows(_row_integrand, np.array([[0.0, 1.0], [2.0, np.nan]]), 4)


# rows converging at orders 32, 128 and never: exp, sin(40 x) and x^-1/2
MIXED_BREAKS = np.array([[0.0, 1.0, 2.0], [0.0, 2.0, np.nan], [0.0, 0.5, 2.0]])
MIXED_FS = [np.exp, lambda x: np.sin(40.0 * x), lambda x: x ** -0.5]


def _mixed_integrand(x, row):
    out = np.empty_like(x)
    for i, f in enumerate(MIXED_FS):
        out[row == i] = f(x[row == i])
    return out


class TestConvergeRows:
    @pytest.mark.parametrize("block", [1, 100, 16384], ids=["row-per-block", "small", "default"])
    def test_rows_match_integrate_panels_each(self, block, monkeypatch):
        # bit for bit, each row stopping at its own order or failing as alone
        monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", block)
        breaks = _ragged_breaks(23)
        got = converge_rows(_row_integrand, breaks, QuadratureSpec())
        for i, row in enumerate(breaks):
            want = integrate_panels(lambda x: _row_integrand(x, i), row[~np.isnan(row)],
                                    QuadratureSpec())
            assert got[i] == want

    def test_only_open_rows_go_on(self):
        calls = []

        def spy(x, row):
            calls.append(sorted(set(row.tolist())))
            return _mixed_integrand(x, row)

        got = converge_rows(spy, MIXED_BREAKS, QuadratureSpec(max_subdivisions=256))
        assert calls == [[0, 1, 2], [1, 2], [1, 2], [2]]
        for i, f in enumerate(MIXED_FS[:2]):
            assert got[i] == integrate_panels(f, MIXED_BREAKS[i][~np.isnan(MIXED_BREAKS[i])],
                                              QuadratureSpec())
        assert isinstance(got[2], NonConvergenceError)
        assert str(got[2]) == "quadrature did not converge (order 512 exceeds budget)"


class TestRefineRows:
    # row i settles once the order reaches half of STOP[i]; row 2 never does
    STOP = [32, 64, 10**9]

    def _estimate(self, n, i):
        return 1.0 if n >= self.STOP[i] // 2 else float(n)

    def _at(self, asked):
        def at(live, orders):
            asked.append((list(live), orders))
            return [[self._estimate(n, i) for i in live] for n in orders]

        return at

    def _check_rows(self, n0, tol):
        asked = []
        got = refine_rows(self._at(asked), 3, n0, 128, tol, "rows did not converge")
        for i in (0, 1):
            assert got[i] == converge(lambda n: self._estimate(n, i), n0, 128, tol)
        with pytest.raises(NonConvergenceError) as exc:
            converge(lambda n: self._estimate(n, 2), n0, 128, tol, "rows did not converge")
        assert isinstance(got[2], NonConvergenceError) and str(got[2]) == str(exc.value)
        return asked

    def test_each_row_is_converge_on_that_row(self):
        asked = self._check_rows(16, QuadratureSpec().tol)
        assert asked == [([0, 1, 2], (16, 32)), ([1, 2], (64,)), ([2], (128,))]

    def test_start_order_and_tolerance_are_the_callers(self):
        # what the callers of converge pass: n0 = 8 and 10 times the spec's tolerance
        spec = QuadratureSpec()
        asked = self._check_rows(8, lambda v: 10.0 * spec.tol(v))
        assert asked == [([0, 1, 2], (8, 16)), ([0, 1, 2], (32,)), ([1, 2], (64,)), ([2], (128,))]

    def test_one_round_asks_for_order_16_only(self):
        asked = []

        def at(live, orders):
            asked.append(orders)
            return [[1.0] * len(live) for _ in orders]

        got = refine_rows(at, 2, 16, 16, ONE_ROUND.tol)
        assert asked == [(16,)]
        assert [str(v) for v in got] == ["quadrature did not converge (order 32 exceeds budget)"] * 2

    @pytest.mark.parametrize("n_max", [16, 64, 2048])
    def test_one_row_is_converge(self, n_max):
        # settles at order 256 with a budget of 2048, never with the smaller ones
        def estimate(n):
            return math.exp(-1.0 / n) if n < 256 else 1.0 / 3.0

        spec = QuadratureSpec(max_subdivisions=n_max)
        (got,) = refine_rows(lambda live, orders: [[estimate(n)] for n in orders],
                             1, 8, n_max, spec.tol, "thing did not converge")
        try:
            want = converge(estimate, 8, n_max, spec.tol, "thing did not converge")
        except NonConvergenceError as exc:
            assert type(got) is NonConvergenceError and str(got) == str(exc)
        else:
            assert type(got) is float and got == want


@pytest.mark.parametrize("sizes", [[5, 5, 5], [3, 7, 3, 1]], ids=["equal", "mixed"])
def test_chunk_dots_match_np_dot_per_chunk(sizes):
    rng = np.random.default_rng(3)
    vals, wts = rng.standard_normal((2, sum(sizes)))
    ends = np.cumsum(sizes)
    want = [np.dot(vals[e - k:e], wts[e - k:e]) for k, e in zip(sizes, ends)]
    assert _chunk_dots(vals, wts, np.array(sizes)).tolist() == want


class TestCallSitesRaiseOnBudget:
    def test_integrate_panels(self):
        with pytest.raises(NonConvergenceError, match="^quadrature did not converge"):
            integrate_panels(np.sin, [0.0, 1.0, 2.0], ONE_ROUND)

    @pytest.mark.parametrize("rows", [1, 3], ids=["one-row", "three-rows"])
    def test_converge_rows(self, rows):
        sizes = []

        def spy(x, row):
            sizes.append(len(x))
            return _mixed_integrand(x, row)

        got = converge_rows(spy, MIXED_BREAKS[:rows], ONE_ROUND)
        assert all(isinstance(v, NonConvergenceError) for v in got) and len(got) == rows
        assert {str(v) for v in got} == {"quadrature did not converge (order 32 exceeds budget)"}
        assert sizes == [16 * int(np.sum(~np.isnan(MIXED_BREAKS[:rows, 1:])))]

    def test_converge_rows_some_rows_past_the_budget(self):
        # exp settles at order 32; sin(40 x) needs 128 and x^-1/2 never does
        got = converge_rows(_mixed_integrand, MIXED_BREAKS, QuadratureSpec(max_subdivisions=64))
        assert got[0] == integrate_panels(np.exp, [0.0, 1.0, 2.0], QuadratureSpec())
        assert [str(v) for v in got[1:]] == ["quadrature did not converge (order 128 exceeds budget)"] * 2
        assert all(isinstance(v, NonConvergenceError) for v in got[1:])

    @pytest.mark.parametrize("dim", [1, 2], ids=["d1", "d2"])
    def test_compute_C(self, dim):
        params = ModelParams(dim, 0.9, (1.0, 1.5, 0.5, 0.0))
        w = standard_weight(params)
        with pytest.raises(NonConvergenceError, match="^killing-constant integral did not converge"):
            compute_C(params, 0.5, w, ONE_ROUND)

    def test_oracle_kappa(self):
        x = HalfSpacePoint(1, (), 0.7)
        with pytest.raises(NonConvergenceError, match="^killing-function integral did not converge"):
            oracle_kappa(OracleParams(0.5, 1, 1.0), x, ONE_ROUND)

    def test_ball_integral(self):
        params = ModelParams(2, 0.5, (0.5, 2.0, 0.0, 0.0))
        x, y = HalfSpacePoint(2, (0.0,), 0.7), HalfSpacePoint(2, (4.0,), 0.7)
        with pytest.raises(NonConvergenceError, match="^mid-ball integral did not converge"):
            twojump_ball_integral(params, standard_weight(params), 1e-4, x, y, ONE_ROUND)
