import contextlib
import hashlib
import io
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dkl.cli
import dkl.killing
import dkl.oracle
from dkl.cli import main
from dkl.geometry import HalfSpacePoint, ModelParams, _time_scale
from dkl.heatkernel import _hke_cells
from dkl.killing import compute_C
from dkl.oracle import _p_rows
from dkl.quadrature import NonConvergenceError
from dkl.util import fmt


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestSolveQ:
    def test_zero_kappa_supercritical(self, capsys):
        code, out = run_cli(
            ["solve-q", "--alpha", "1.5", "--beta", "1,1,0,0", "--kappa", "0"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta1,beta2,beta3,beta4,kappa,q,residual"
        fields = lines[1].split(",")
        assert float(fields[6]) == 0.5

    def test_zero_kappa_subcritical(self, capsys):
        code, out = run_cli(
            ["solve-q", "--alpha", "0.5", "--beta", "1,1,0,0", "--kappa", "0"], capsys
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[6]) == 0.0

    def test_round_trip_via_cli(self, capsys):
        code, out = run_cli(
            ["solve-q", "--alpha", "1.0", "--beta", "1,0,0,0", "--kappa", "2.1182623"],
            capsys,
        )
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert abs(float(fields[6]) - 1.2) < 1e-4
        assert float(fields[7]) < 1e-6

    def test_residual_comes_from_the_solve(self, capsys, monkeypatch):
        calls = []
        rows = dkl.killing._c_rows

        def counted(mw, qs, spec):
            calls.extend(qs)
            return rows(mw, qs, spec)

        monkeypatch.setattr(dkl.killing, "_c_rows", counted)
        code, out = run_cli(
            ["solve-q", "--alpha", "0.8", "--beta", "0.5,1,0,0", "--kappa", "0.7"], capsys
        )
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        q = float(fields[6])
        assert calls.count(q) == 1  # evaluated once, by the solve
        params = ModelParams(1, 0.8, (0.5, 1.0, 0.0, 0.0))
        spec = dkl.cli._spec({"tol": 1e-9})
        assert float(fields[7]) == abs(compute_C(params, q, spec) - 0.7)


class TestOracle:
    # every oracle density of the command goes through the batched cell path
    def _run(self, capsys, monkeypatch, fake):
        monkeypatch.setattr(dkl.oracle, "_p_rows", fake)
        code = main(["oracle", "--grid-n", "2", "--t-list", "1.0"])
        return code, capsys.readouterr()

    def test_each_cell_evaluated_once(self, capsys, monkeypatch):
        cells = []
        code, out = self._run(
            capsys, monkeypatch, lambda op, c, spec: cells.extend(c) or _p_rows(op, c, spec)
        )
        assert code == 0
        assert len(out.out.strip().splitlines()) == 1 + 4
        assert len(cells) == 4
        assert {(t, x, y) for t, x, y, _ in cells} == {
            (1.0, x, y) for x in (0.05, 20.0) for y in (0.05, 20.0)
        }

    def test_unconverged_cell_fails_the_command(self, capsys, monkeypatch):
        def fake(op, cells, spec):
            vals = _p_rows(op, cells, spec)
            return [
                NonConvergenceError("cell did not converge") if x == y == 20.0 else v
                for (_, x, y, _), v in zip(cells, vals)
            ]

        code, out = self._run(capsys, monkeypatch, fake)
        assert (code, out.out) == (1, "")
        assert out.err == "numerical failure: cell did not converge\n"

    def test_empty_grid_is_a_usage_error(self, capsys):
        code = main(["oracle", "--grid-n", "0", "--t-list", "1.0"])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == "error: grid-n must be >= 1, got 0\n"


class TestHke:
    def test_breakdown_row(self, capsys):
        code, out = run_cli(
            [
                "hke",
                "--alpha", "0.5", "--beta", "1,2,0,0", "--dim", "1",
                "--t", "0.01", "--x", "0.001", "--y", "5.001", "--q", "0",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["regime"] == "TwoJumpStrict"
        assert float(row["free_value"]) > 0.0
        assert float(row["killed_value"]) == float(row["free_value"])


class TestMap:
    def test_regime_guard(self, capsys):
        code, _ = run_cli(
            ["map", "--alpha", "1.0", "--beta", "1,1,0,0", "--dim", "2", "--x", "0,1"],
            capsys,
        )
        assert code == 2
        code, _, err = _cli_outcome(["map", "--alpha", "0.5", "--beta", "1,1,0,0"])
        assert code == 2
        assert err == "error: dominance map requires the two-jump regime, beta2 >= alpha + beta1\n"

    def test_map_rows(self, capsys):
        code, out = run_cli(
            [
                "map",
                "--alpha", "0.5", "--beta", "0,1.5,0,0", "--dim", "2",
                "--t", "0.001", "--x", "0,0.0001", "--grid-n", "4", "--extent", "3",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("y1,y2,tag")
        assert len(lines) == 17
        tags = {line.split(",")[2] for line in lines[1:]}
        assert tags <= {"OneJumpDominant", "TwoJumpDominant"}

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid-n", "0"], "grid-n must be >= 1, got 0"),
            (["--grid-n", "-3"], "grid-n must be >= 1, got -3"),
            (["--extent", "-1"], "extent must be finite and >= 0, got -1.0"),
            (["--extent", "inf"], "extent must be finite and >= 0, got inf"),
            (["--extent", "nan"], "extent must be finite and >= 0, got nan"),
        ],
    )
    def test_grid_usage_errors(self, flags, message, capsys):
        # rejected before any grid is built: one error line, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["map", "--alpha", "0.5", "--beta", "0,1.5,0,0", *flags])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == f"error: {message}\n"

    @pytest.mark.parametrize("t", ["1e-300", "0.001", "1e300"])
    @pytest.mark.parametrize("grid_n", [4, 5])
    @pytest.mark.parametrize(
        "dim, alpha, beta, x, extent",
        [
            (1, 0.5, (1.0, 1.5, 0.5, 0.5), "0", 3.0),  # critical, x on the boundary
            (2, 0.5, (0.0, 1.5, 0.0, 0.0), "0.25,0", 3.0),  # x on the boundary
            (2, 0.7, (0.5, 2.5, 0.6, 0.3), "0,0.8", 2.0),  # a target at x when n = 5
            (3, 1.9, (0.5, 2.4, 0.7, 0.4), "0.2,-0.4,0.7", 2.5),
        ],
    )
    def test_rows_match_the_per_point_build(self, dim, alpha, beta, x, extent, grid_n, t,
                                            capsys):
        # the map as built point by point: a HalfSpacePoint per target, its
        # math.hypot distance to x, one kernel call and fmt per field
        p = ModelParams(dim, alpha, beta)
        xp = HalfSpacePoint.from_coords([float(v) for v in x.split(",")])
        ys = [
            HalfSpacePoint.from_coords((tg,) + (0.0,) * (dim - 2) + (h,) if dim > 1 else (h,))
            for h in np.linspace(extent / grid_n, extent, grid_n).tolist()
            for tg in np.linspace(-extent, extent, grid_n).tolist()
        ]
        u = _time_scale(float(t), alpha)
        dists = [math.hypot(*(a - b for a, b in zip(xp.coords(), y.coords()))) for y in ys]
        one, two, _, _ = _hke_cells(p, u, xp.height, np.array([y.height for y in ys]),
                                    np.array(dists))
        header = [f"y{i + 1}" for i in range(dim)] + [
            "tag", "one_jump", "two_jump", "both_zero", "valid"
        ]
        lines = [",".join(header)]
        for y, dist, a, b in zip(ys, dists, one.tolist(), two.tolist()):
            tag = "OneJumpDominant" if a >= b else "TwoJumpDominant"
            fields = [*y.coords(), tag, a, b, int(a == 0.0 and b == 0.0), int(dist > 6.0 * u)]
            lines.append(",".join(fmt(v) for v in fields))
        code, out = run_cli(
            ["map", "--dim", str(dim), "--alpha", str(alpha), "--beta", ",".join(map(str, beta)),
             "--t", t, "--x", x, "--grid-n", str(grid_n), "--extent", str(extent)],
            capsys,
        )
        assert code == 0
        assert out == "\n".join(lines) + "\n"


class TestGreenCommands:
    def test_closed_estimate(self, capsys):
        code, out = run_cli(
            [
                "green",
                "--alpha", "1.5", "--beta", "1,1,0,0", "--dim", "1",
                "--x", "0.1", "--y", "5.1", "--q", "0.7",
            ],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.1**0.5 * (0.1 / 5.0) ** 0.2, rel=1e-12)

    def test_integrate_close_to_closed(self, capsys):
        args = [
            "--alpha", "0.9", "--beta", "1,1,0,0", "--dim", "2",
            "--x", "0,0.4", "--y", "1,1.1", "--q", "1.1",
        ]
        code1, out1 = run_cli(["green"] + args, capsys)
        code2, out2 = run_cli(["green-integrate"] + args, capsys)
        assert code1 == 0 and code2 == 0
        v1 = float(out1.strip().splitlines()[1].split(",")[1])
        v2 = float(out2.strip().splitlines()[1].split(",")[1])
        assert 0.2 < v2 / v1 < 5.0

    def test_divergence_exit_code(self, capsys):
        code, _ = run_cli(
            [
                "green-integrate",
                "--alpha", "1.5", "--beta", "0,0,0,0", "--dim", "1",
                "--x", "1", "--y", "2", "--q", "0.2",
            ],
            capsys,
        )
        assert code == 1


class TestCheck:
    def test_unknown_lemma_exit_2(self, capsys):
        code, _ = run_cli(["check", "--lemma", "not_a_lemma"], capsys)
        assert code == 2
        assert _cli_outcome(["check", "--lemma", "nope"]) == (2, "", "error: unknown lemma id: nope\n")

    def test_pair_lemma_at_a_small_budget(self, capsys):
        # cal_basic's lower side is the larger for every sample at budget 5;
        # the report is valid, so this is a verdict, not a usage error
        code, out = run_cli(["check", "--lemma", "cal_basic", "--budget", "5"], capsys)
        assert code in (0, 1)
        assert out.splitlines()[1].startswith("cal_basic,5,0,")

    def test_all_lemmas_stdout_is_pinned(self, capsys):
        # SHA-256 of the stdout of `dkl check --lemma all --budget 1000`
        code, out = run_cli(["check", "--lemma", "all", "--budget", "1000"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eda75f8681dbad76648e12a34b4e16eb966ba5476f86cd6639b926a6b682da40"
        )

    def test_single_lemma_passes(self, capsys):
        code, out = run_cli(
            ["check", "--lemma", "slowly_varying", "--budget", "100"], capsys
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[0] == "slowly_varying"


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "# sweep configuration\nalpha = 1.5\nbeta = 1,1,0,0\nkappa = 0\n"
        )
        code, out = run_cli(["solve-q", "--config", str(cfg)], capsys)
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[6]) == 0.5
        # flag overrides the file
        code, out = run_cli(
            ["solve-q", "--config", str(cfg), "--alpha", "0.5"], capsys
        )
        assert float(out.strip().splitlines()[1].split(",")[6]) == 0.0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("nonsense = 1\n")
        code, _ = run_cli(["solve-q", "--config", str(cfg)], capsys)
        assert code == 2


class TestFmt:
    @pytest.mark.parametrize(
        "value, text",
        [
            (float("inf"), "inf"),
            (float("-inf"), "-inf"),
            (float("nan"), "nan"),
            (-float("nan"), "nan"),
            (np.float64("inf"), "inf"),
            (np.float64("-inf"), "-inf"),
            (np.float64("nan"), "nan"),
            (-0.0, "-0"),
            (np.float64(-0.0), "-0"),
            (5e-324, "4.9406564584124654e-324"),
            (np.float64(2.2250738585072009e-308), "2.2250738585072009e-308"),
            (0.1, "0.10000000000000001"),
            (3, "3"),
            ("d1", "d1"),
        ],
    )
    def test_spellings(self, value, text):
        assert fmt(value) == text

    @pytest.mark.parametrize(
        "value",
        [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308,
         np.float64(0.1), np.float64(-0.0)],
    )
    def test_line_template_spells_floats_as_fmt(self, value):
        # the map's rows are written through one %-template
        assert "%.17g" % value == fmt(value)


class TestDeterminism:
    def test_map_byte_identical(self, tmp_path):
        args = [
            "map", "--alpha", "0.5", "--beta", "0.5,2,0,0", "--dim", "2",
            "--t", "0.01", "--x", "0,1", "--grid-n", "5", "--extent", "2",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_check_byte_identical(self, tmp_path):
        args = ["check", "--lemma", "cal_3", "--budget", "40", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestParserBuiltOnce:
    def test_calls_share_the_parser_without_leaking_options(self, capsys, monkeypatch):
        seen = []

        def record(cfg):
            seen.append(cfg)
            return 0

        for name in ("hke", "green"):
            extra = dkl.cli._SUBCOMMANDS[name][1]
            monkeypatch.setitem(dkl.cli._SUBCOMMANDS, name, (record, extra))
        parser = dkl.cli._parser()
        assert main(["hke", "--alpha", "1.5", "--t", "3", "--q", "0.2"]) == 0
        assert main(["green", "--y", "5"]) == 0
        assert main(["hke"]) == 0
        assert dkl.cli._parser() is parser
        hke, green, hke_again = seen
        assert (hke["alpha"], hke["t"], hke["q"]) == (1.5, 3.0, "0.2")
        assert green["alpha"] == 1.0 and green["y"] == "5" and green["q"] is None
        assert "t" not in green
        assert hke_again == {**hke, "alpha": 1.0, "t": 1.0, "q": None}
        # a usage error still exits 2 with the shared parser
        with pytest.raises(SystemExit) as exc:
            main(["green", "--extent", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --extent 3" in capsys.readouterr().err


class TestFlagSets:
    # the flags each command reads; any other is a usage error
    FLAGS = {
        "solve-q": {"alpha", "beta", "kappa", "dim", "tol", "out", "config"},
        "c-shape": {"alpha", "beta", "dim", "tol", "out", "config", "grid-size"},
        "hke": {"alpha", "beta", "kappa", "dim", "tol", "out", "config", "t", "x", "y", "q"},
        "map": {"alpha", "beta", "dim", "out", "config", "t", "x", "grid-n", "extent"},
        "green": {"alpha", "beta", "kappa", "dim", "tol", "out", "config", "x", "y", "q"},
        "green-integrate": {"alpha", "beta", "kappa", "dim", "tol", "out", "config", "x", "y",
                            "q"},
        "oracle": {"alpha", "dim", "tol", "out", "config", "gamma", "t-list", "grid-n", "x-lo",
                   "x-hi"},
        "check": {"lemma", "seed", "budget", "tol", "out", "config"},
    }

    def test_each_command_registers_its_flags(self):
        subs = next(a for a in dkl.cli.build_parser()._actions
                    if isinstance(a.choices, dict)).choices
        got = {
            name: {o[2:] for a in sub._actions for o in a.option_strings if o != "-h"} - {"help"}
            for name, sub in subs.items()
        }
        assert got == self.FLAGS
        assert sum(map(len, got.values())) == 70

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--grid-n", "2", "--t-list", "1", "--beta", "nonsense"],
            ["check", "--lemma", "cal_3", "--budget", "5", "--alpha", "7"],
            ["map", "--alpha", "0.5", "--beta", "0,1.5,0,0", "--seed", "3"],
            ["map", "--alpha", "0.5", "--beta", "0,1.5,0,0", "--tol", "1e-6"],
            ["c-shape", "--grid-size", "8", "--kappa", "0.5"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_removed_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err

    def test_config_key_the_command_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("alpha = 0.5\nbeta = 0,1.5,0,0\nseed = 3\n")
        assert main(["map", "--config", str(cfg)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: unknown config key: seed\n")


class TestNoAbbreviations:
    def test_prefix_of_a_flag_is_a_usage_error(self, capsys):
        # --t is a flag of hke; given to green it must not abbreviate --tol
        with pytest.raises(SystemExit) as exc:
            main(["green", "--alpha", "1.5", "--beta", "1,1,0,0", "--t", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --t 3" in capsys.readouterr().err

    def test_full_flag_still_parses(self, capsys):
        code, out = run_cli(["hke", "--alpha", "1.5", "--beta", "1,1,0,0", "--t", "3"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2


class TestExtremeTimes:
    @pytest.mark.parametrize("t", ["1e-200", "1e300"])
    def test_hke_returns_the_limits(self, t, capsys):
        # u = t^(1/alpha) underflows to 0 or overflows; off the diagonal the
        # estimate tends to 0 both ways
        code, out = run_cli(
            ["hke", "--alpha", "0.3", "--beta", "1,1,0,0", "--t", t, "--x", "1", "--y", "2"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[-2:] == ["0", "0"]

    def test_map_past_the_time_scale_overflow(self, capsys):
        # t^(1/alpha) overflows: every target is inside the 6 t^(1/alpha) ball
        code, out = run_cli(
            ["map", "--alpha", "0.5", "--beta", "0,1.5,0,0", "--t", "1e300", "--x", "0.5",
             "--grid-n", "2", "--extent", "4"],
            capsys,
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4 and all(r.split(",")[-1] == "0" for r in rows)


_MODEL = ["--alpha", "1.2", "--beta", "0.5,2,0.3,0"]
# (command and fixed flags, the flag whose value is drawn)
_DRAWN = [
    (["solve-q", *_MODEL], "kappa"),
    (["hke", *_MODEL, "--kappa", "0.7"], "t"),
    (["hke", *_MODEL], "q"),
    (["map", *_MODEL, "--grid-n", "3"], "t"),
    (["map", *_MODEL, "--grid-n", "3"], "extent"),
    (["map", "--dim", "2", "--x", "0,1", *_MODEL, "--grid-n", "3"], "extent"),
    (["green", *_MODEL], "q"),
    (["solve-q", *_MODEL, "--kappa", "0.7"], "tol"),
    (["oracle", "--grid-n", "2"], "t-list"),
    (["oracle", "--grid-n", "2", "--t-list", "1.0"], "x-lo"),
    (["oracle", "--grid-n", "2", "--t-list", "1.0"], "x-hi"),
    (["oracle", "--grid-n", "2", "--t-list", "1.0"], "gamma"),
    (["green-integrate", *_MODEL], "q"),
    (["green-integrate", "--dim", "2", "--x", "0,1", "--y", "3,0.5", *_MODEL], "q"),
]
_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 5e-324, 1e-300, 1e300, 1e308]
# integer flags, drawn from a few values each so no case starts a large sweep
_DRAWN_INTEGERS = [
    *(["check", "--lemma", "all", f"--budget={n}"] for n in (-5, 0, 1)),
    *(["c-shape", *_MODEL, f"--grid-size={n}"] for n in (-1, 0, 7, 8)),
]


def _cli_outcome(argv):
    """Exit code, stdout and stderr of one in-process call, with every
    warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv):
    """Exit 0 with finite numeric fields, exit 2 with one ``error:`` line, or
    exit 1 with a ``numerical failure:`` line."""
    code, out, err = _cli_outcome(argv)
    if code == 0:
        for field in (f for row in out.splitlines()[1:] for f in row.split(",")):
            try:
                value = float(field)
            except ValueError:
                continue  # a regime or dominance tag
            assert math.isfinite(value), (argv, out)
    elif code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert code == 1 and err.startswith("numerical failure: "), (argv, code, err)


class TestInputDomains:
    @pytest.mark.parametrize("value", _EDGES, ids=repr)
    @pytest.mark.parametrize("base, flag", _DRAWN, ids=lambda v: v if isinstance(v, str) else v[0])
    def test_edge_values(self, base, flag, value):
        _assert_contract([*base, f"--{flag}={value!r}"])

    @given(st.sampled_from(_DRAWN), st.floats())
    @settings(max_examples=100, deadline=None)
    def test_any_float(self, case, value):
        base, flag = case
        _assert_contract([*base, f"--{flag}={value!r}"])

    @given(st.sampled_from(_DRAWN_INTEGERS))
    @settings(max_examples=20, deadline=None)
    def test_small_integers(self, argv):
        _assert_contract(argv)

    # the drawn `green --q` runs in d = 1; in d >= 2 a large q overflows the
    # boundary factor H, which is a numerical failure
    @pytest.mark.parametrize("q", [1e3, 1e300, 1e308], ids=repr)
    def test_green_large_q_in_two_dimensions(self, q):
        argv = ["green", "--dim", "2", "--x", "0,1", "--y", "3,0.5", *_MODEL, f"--q={q!r}"]
        _assert_contract(argv)
        code, _, err = _cli_outcome(argv)
        assert code == 1 and err == f"numerical failure: boundary factor H overflows at q = {q!r}\n"

    @pytest.mark.parametrize(
        "flag", ["--gamma=nan", "--gamma=inf", "--x-lo=nan", "--x-lo=inf", "--x-hi=0", "--t-list=nan"]
    )
    def test_oracle_domain(self, flag):
        argv = ["oracle", "--grid-n", "2", "--t-list", "1.0", flag]
        _assert_contract(argv)
        code, _, err = _cli_outcome(argv)
        assert code == 2 and err.count("\n") == 1

    def test_oracle_integrand_past_the_float_range(self):
        # the density at t = 1e-120 is about 1e120, but its integrand near
        # s = t^2 passes the float range: a numerical failure, with no warning
        argv = ["oracle", "--grid-n", "2", "--t-list=1e-120"]
        _assert_contract(argv)
        code, _, err = _cli_outcome(argv)
        assert code == 1 and err == "numerical failure: the oracle integrand overflows at t = 1e-120\n"

    def test_map_extent_past_the_tangential_axis(self):
        argv = ["map", *_MODEL, "--grid-n", "3", "--extent=1e308"]
        assert _cli_outcome(argv)[0] == 0  # d = 1 lays no tangential axis
        code, _, err = _cli_outcome(["map", "--dim", "2", "--x", "0,1", *argv[1:]])
        assert code == 2 and err.startswith("error: extent must be below half")

    def test_nan_tolerance_is_a_usage_error(self):
        code, _, err = _cli_outcome(["solve-q", *_MODEL, "--kappa", "0.7", "--tol=nan"])
        assert code == 2 and err.startswith("error: tolerances must be finite and > 0")


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "dkl.cli",
                "solve-q", "--alpha", "1.5", "--beta", "2,3,1,1", "--kappa", "0",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].split(",")[6] == "0.5"


class TestRuntimeDependencies:
    # numpy is the only run-time dependency; scipy serves the tests
    def test_import_loads_no_scipy(self):
        code = ("import sys, dkl, dkl.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self):
        # a None entry in sys.modules makes every scipy import raise
        code = (
            "import sys; sys.modules['scipy'] = None; import dkl.cli; sys.exit(max("
            "dkl.cli.main(['oracle', '--grid-n', '2', '--t-list', '1.0']), "
            "dkl.cli.main(['solve-q', '--alpha', '1.5', '--beta', '2,3,1,1', '--kappa', '0'])))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestCShape:
    def test_grid_csv_and_verdict(self, capsys):
        code, out = run_cli(
            ["c-shape", "--alpha", "1.5", "--beta", "0,0,0,0", "--grid-size", "16"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,c_value"
        assert len(lines) == 17
