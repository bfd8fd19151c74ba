"""Command-line front end.

Subcommands: solve-q, c-shape, hke, map, green, green-integrate, oracle,
check.  Each takes only the flags it reads (``_SUBCOMMANDS``).  Flags may
come from a `key = value` config file (# comments) whose keys are the same
names; any flag given on the command line overrides the file.  All output
is CSV with a header row, 17 significant digits, and `inf` spelled
literally, so identical invocations are byte-identical.  Exit codes: 0
success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .geometry import HalfSpacePoint, ModelParams
from .green import GreenDivergenceError, GreenRangeError, green_by_time_integration, green_estimate
from .heatkernel import EstimateBreakdown, dominance_map, hke_closed
from .inequalities import check, lemma_ids
from .killing import _solve_q, scan_shape, solve_q
from .oracle import OracleParams, _cell_ratio, _comparison
from .quadrature import NonConvergenceError, QuadratureSpec
from .util import csv_text, fmt, parse_config_file


def _resolve(args: argparse.Namespace, flags: dict) -> dict:
    """defaults < config file < explicit flags; a file value takes the type
    of its flag."""
    cfg = {key: default for key, (_typ, default) in flags.items()}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            key = key.replace("-", "_")
            if key not in flags:
                raise ValueError(f"unknown config key: {key}")
            cfg[key] = flags[key][0](raw)
    for key in flags:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _params(cfg: dict) -> ModelParams:
    beta = tuple(float(v) for v in str(cfg["beta"]).split(","))
    return ModelParams(int(cfg["dim"]), float(cfg["alpha"]), beta, float(cfg.get("kappa", 0.0)))


def _spec(cfg: dict) -> QuadratureSpec:
    tol = float(cfg["tol"])
    return QuadratureSpec(rel_tol=tol, abs_tol=tol * 1e-3)


def _point(text: str, dim: int) -> HalfSpacePoint:
    coords = tuple(float(v) for v in text.split(","))
    if len(coords) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(coords)}")
    return HalfSpacePoint.from_coords(coords)


def _emit(cfg: dict, text: str) -> None:
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid_n(cfg: dict) -> int:
    n = int(cfg["grid_n"])
    if n < 1:
        raise ValueError(f"grid-n must be >= 1, got {n}")
    return n


def _q_for(cfg: dict, params: ModelParams, spec: QuadratureSpec) -> float:
    if cfg["q"] is not None:
        return float(cfg["q"])
    return solve_q(params, spec)


def cmd_solve_q(cfg: dict) -> int:
    params = _params(cfg)
    spec = _spec(cfg)
    # the solve returns C(q) - kappa at its answer: no second evaluation
    q, residual = _solve_q(params, spec)
    header = ["alpha", "beta1", "beta2", "beta3", "beta4", "kappa", "q", "residual"]
    _emit(cfg, csv_text(header, [[params.alpha, *params.beta, params.kappa, q, abs(residual)]]))
    return 0


def cmd_c_shape(cfg: dict) -> int:
    params = _params(cfg)
    spec = _spec(cfg)
    table = scan_shape(params, int(cfg["grid_size"]), spec)
    rows = [[q, v] for q, v in zip(table.qs, table.values)]
    _emit(cfg, csv_text(["q", "c_value"], rows))
    sys.stderr.write(
        f"zeros={fmt(table.zeros[0])},{fmt(table.zeros[1])} "
        f"minimizer={fmt(table.minimizer)} min_value={fmt(table.min_value)} "
        f"passed={table.passed}\n"
    )
    return 0 if table.passed else 1


def cmd_hke(cfg: dict) -> int:
    params = _params(cfg)
    spec = _spec(cfg)
    x = _point(cfg["x"], params.dim)
    y = _point(cfg["y"], params.dim)
    q = _q_for(cfg, params, spec)
    bd = hke_closed(params, float(cfg["t"]), x, y, q=q)
    header = [f.name for f in dataclasses.fields(EstimateBreakdown)]
    _emit(cfg, csv_text(header, [[bd.regime.value, *(getattr(bd, f) for f in header[1:])]]))
    return 0


def cmd_map(cfg: dict) -> int:
    params = _params(cfg)
    x = _point(cfg["x"], params.dim)
    n = _grid_n(cfg)
    extent = float(cfg["extent"])
    if not 0.0 <= extent < math.inf:
        raise ValueError(f"extent must be finite and >= 0, got {extent}")
    if params.dim > 1 and not 2.0 * extent < math.inf:
        raise ValueError(f"extent must be below half the largest float in dim >= 2, got {extent}")
    # heights outer, the first coordinate inner, the middle ones 0
    ys = np.zeros((n * n, params.dim))
    ys[:, -1] = np.repeat(np.linspace(extent / n, extent, n), n)
    if params.dim > 1:
        ys[:, 0] = np.tile(np.linspace(-extent, extent, n), n)
    one, two, valid = dominance_map(params, float(cfg["t"]), x, ys)
    tags = np.where(one >= two, "OneJumpDominant", "TwoJumpDominant")
    both_zero = (one == 0.0) & (two == 0.0)
    header = [f"y{i+1}" for i in range(params.dim)] + [
        "tag",
        "one_jump",
        "two_jump",
        "both_zero",
        "valid",
    ]
    # one template per row spells every float as fmt does
    line = ",".join(["%.17g"] * params.dim + ["%s", "%.17g", "%.17g", "%d", "%d"]) + "\n"
    columns = (*ys.T.tolist(), tags.tolist(), one.tolist(), two.tolist(), both_zero.tolist(),
               valid.tolist())
    _emit(cfg, csv_text(header, []) + "".join(map(line.__mod__, zip(*columns))))
    return 0


def cmd_green(cfg: dict, estimate=green_estimate) -> int:
    params = _params(cfg)
    spec = _spec(cfg)
    x = _point(cfg["x"], params.dim)
    y = _point(cfg["y"], params.dim)
    q = _q_for(cfg, params, spec)
    gb = estimate(params, q, x, y)
    header = ["q", "value", "q_hat", "case_tag", "h_factor", "small_time", "large_time"]
    row = [q, gb.value, gb.q_hat, gb.case_tag, gb.H_factor, gb.small_time, gb.large_time]
    _emit(cfg, csv_text(header, [["" if v is None else v for v in row]]))
    return 0


def cmd_oracle(cfg: dict) -> int:
    op = OracleParams(float(cfg["gamma"]), int(cfg["dim"]), float(cfg["alpha"]))
    spec = QuadratureSpec(rel_tol=max(float(cfg["tol"]), 1e-8), abs_tol=1e-300)
    n = _grid_n(cfg)
    ts = [float(v) for v in str(cfg["t_list"]).split(",")]
    lo, hi = float(cfg["x_lo"]), float(cfg["x_hi"])
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise ValueError(f"x-lo and x-hi must be finite and > 0, got {lo}, {hi}")
    heights = np.geomspace(lo, hi, n)
    report, cells = _comparison(op, spec, ts, heights, heights)
    rows = [list(cell) + [_cell_ratio(cell)] for cell in cells]
    _emit(cfg, csv_text(["t", "x", "y", "oracle", "estimate", "ratio"], rows))
    sys.stderr.write(
        f"q={fmt(op.survival_exponent)} ratio=[{fmt(report.min_ratio)},{fmt(report.max_ratio)}]\n"
    )
    return 0


def cmd_check(cfg: dict) -> int:
    selector = str(cfg["lemma"])
    if selector == "all":
        ids = lemma_ids()
    elif selector in lemma_ids():
        ids = [selector]
    else:
        raise ValueError(f"unknown lemma id: {selector}")
    spec = QuadratureSpec(rel_tol=max(float(cfg["tol"]), 1e-8), abs_tol=1e-12)
    rows = []
    all_pass = True
    for lid in ids:
        rep = check(lid, sampler_seed=int(cfg["seed"]), budget=int(cfg["budget"]), spec=spec)
        ceiling = "" if rep.ceiling is None else rep.ceiling
        rows.append([lid, rep.samples, rep.excluded, rep.min_ratio, rep.max_ratio, ceiling,
                     int(rep.passed)])
        all_pass = all_pass and rep.passed
    _emit(
        cfg,
        csv_text(["lemma_id", "samples", "excluded", "min_ratio", "max_ratio", "ceiling", "pass"],
                 rows),
    )
    return 0 if all_pass else 1


# flag groups, key -> (type, default); a flag spells its key with hyphens
_MODEL = {"alpha": (float, 1.0), "beta": (str, "0,0,0,0"), "kappa": (float, 0.0), "dim": (int, 1)}
_KERNEL = {k: v for k, v in _MODEL.items() if k != "kappa"}  # what reads no killing rate
_TOL = {"tol": (float, 1e-9)}
_OUTPUT = {"out": (str, None), "config": (str, None)}
_PAIR = {"x": (str, "1"), "y": (str, "2"), "q": (str, None)}  # q solved from kappa if absent

# each command with the flags, and config-file keys, it reads
_SUBCOMMANDS = {
    "solve-q": (cmd_solve_q, {**_MODEL, **_TOL, **_OUTPUT}),
    "c-shape": (cmd_c_shape, {**_KERNEL, **_TOL, **_OUTPUT, "grid_size": (int, 64)}),
    "hke": (cmd_hke, {**_MODEL, **_TOL, **_OUTPUT, "t": (float, 1.0), **_PAIR}),
    "map": (cmd_map, {**_KERNEL, **_OUTPUT, "t": (float, 0.001), "x": (str, "1"),
                      "grid_n": (int, 16), "extent": (float, 2.0)}),
    "green": (cmd_green, {**_MODEL, **_TOL, **_OUTPUT, **_PAIR}),
    "green-integrate": (
        functools.partial(cmd_green, estimate=green_by_time_integration),
        {**_MODEL, **_TOL, **_OUTPUT, **_PAIR},
    ),
    "oracle": (
        cmd_oracle,
        {"alpha": _MODEL["alpha"], "dim": _MODEL["dim"], **_TOL, **_OUTPUT,
         "gamma": (float, 0.5), "t_list": (str, "0.25,1.0,4.0"), "grid_n": (int, 8),
         "x_lo": (float, 0.05), "x_hi": (float, 20.0)},
    ),
    "check": (cmd_check, {"seed": (int, 0), "budget": (int, 1000), **_TOL, **_OUTPUT,
                          "lemma": (str, "all")}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkl",
        description="boundary-degenerate jump-kernel heat-kernel and Green estimates",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, flags) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False)
        for key, (typ, _default) in flags.items():
            sub.add_argument("--" + key.replace("_", "-"), type=typ, default=None)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process; parsing leaves it
    as it was, so calls share it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    fn, flags = _SUBCOMMANDS[args.command]
    try:
        cfg = _resolve(args, flags)
        return fn(cfg)
    except (NonConvergenceError, GreenDivergenceError, GreenRangeError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
