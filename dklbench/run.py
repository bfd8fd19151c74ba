"""Benchmark of ``dkl``: three workloads through the library's public
functions, every output checked against a reference computed apart from it.

    python3 dklbench/run.py --workload queries|estimates|oracle --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; ``src/dkl`` is imported from there.
One process, one thread: BLAS threads are pinned to 1 and ``DKL_THREADS``
is removed from the environment.  A run

1. times the set-up (import plus the lazy set-up of the workload's first
   calls) in two fresh interpreters and in this process, and reports the
   median as ``setup_s``;
2. runs one warm-up pass over the workload's fixed item list (made from the
   seed, in a seeded order), then repeats whole timed passes until
   ``--seconds`` of item time have elapsed; no pass is cut short;
3. gates the warm-up pass's outputs (``workloads.py``) and requires every
   timed pass to reproduce them bit for bit.

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` one untraced timed pass is followed
by traced passes and the per-layer metrics are reported instead, with the
spans written to ``dklbench/results/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DKL_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 2  # fresh interpreters timed besides this process
PROBE_TIMEOUT_S = 60
# Host-speed calibration (README, "Normalised times"): a fixed kernel is
# timed about every CAL_EVERY_S of item time, and every item time is scaled
# by CAL_REF_S over the kernel time around it, i.e. reported at the speed of
# a host on which the kernel takes CAL_REF_S.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.2
# the dkl modules each workload calls; importing them is part of its set-up
DKL_MODULES = {
    "queries": ["cli"],
    "estimates": ["geometry", "heatkernel", "green", "inequalities", "quadrature", "constants"],
    "oracle": ["oracle", "special", "geometry", "quadrature"],
}

PER_LAYER = [
    "geometry.weight_from_heights.calls",
    "geometry.eval_J.calls",
    "geometry.weight_from_heights_arr.elements",
    "quadrature.integrate_panels.calls",
    "quadrature.integrate_panels.evals",
    "quadrature.integrate_panels.final_evals",
    "quadrature.integrate_panels.self_s",
    "quadrature.panel_nodes.nodes",
    "killing.compute_C.calls",
    "killing.compute_C.s",
    "killing.solve_q.s",
    "killing.scan_shape.s",
    "heatkernel.hke_closed.calls",
    "heatkernel.hke_closed.s",
    "heatkernel.dominance_map.s",
    "green.green_estimate.s",
    "heatkernel.twojump_ball_integral.s",
    "heatkernel.hke_unified.s",
    "green.green_by_time_integration.s",
    "inequalities.check.s",
    "inequalities.check.cal_2.s",
    "inequalities.check.cal_new2.s",
    "inequalities.check.l_cal1.s",
    "inequalities.check.lower_2.s",
    "oracle.oracle_kappa.s",
    "oracle.compare_oracle_vs_estimate.s",
    "oracle.oracle_p.s",
    "oracle.oracle_survival.s",
    "special.one_minus_scaled_I.calls",
    "special.one_minus_scaled_I.elements",
    "special.one_minus_scaled_I.s",
    "special.bessel_I_scaled_arr.calls",
    "special.bessel_I_scaled_arr.elements",
    "special.bessel_I_scaled_arr.s",
    "cli.main.self_s",
]
# measured while the set-up runs, not per pass
SETUP_LAYER = ["special.stable_one_density.calls", "special.stable_one_density.s"]


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def _parse(argv):
    ap = argparse.ArgumentParser(description="dkl benchmark")
    ap.add_argument("--workload", required=True, choices=["queries", "estimates", "oracle"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _kernel() -> float:
    """Fixed interpreter work mixed with numpy on small and on larger arrays,
    like dkl's inner loops."""
    import math

    import numpy as np

    acc = 0.0
    x = np.linspace(0.1, 1.0, 64)
    z = np.linspace(0.1, 1.0, 4096)
    for i in range(500):
        y = np.exp(-x * (i % 7 + 1)) * np.sqrt(x)
        acc += float(np.dot(y, x)) + math.log1p(i)
        if i % 8 == 0:
            w = np.exp(-z * (i % 5 + 1)) * np.sqrt(z)
            acc += float(np.dot(w, z))
    return acc


def _calibrate() -> float:
    """Median time of three runs of the calibration kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import_dkl(workload: str) -> float:
    """Import the workload's dkl modules, before anything else loads numpy;
    returns the seconds taken."""
    import importlib

    t0 = time.perf_counter()
    for name in DKL_MODULES[workload]:
        importlib.import_module("dkl." + name)
    return time.perf_counter() - t0


def _probe(workload: str) -> tuple[float, float]:
    """Set-up time of the workload in a fresh interpreter, raw and normalised."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    return got["setup_s"], got["setup_s"] * CAL_REF_S / got["cal_s"]


def _run_pass(wl, order):
    """One pass; returns outputs, raw item times and normalised item times.

    The calibration kernel runs before the first item and after each block
    of about CAL_EVERY_S of item time; a block's items are scaled by the
    mean of the kernel times at its two ends."""
    outputs, raw, norm = {}, [], []
    cal = _calibrate()
    block_start, block_s = 0, 0.0
    for item in order:
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception as exc:  # a failed operation is counted, the run goes on
            out = ("raised", type(exc).__name__, str(exc))
        dt = time.perf_counter() - t0
        raw.append(dt)
        outputs[item["key"]] = out
        block_s += dt
        if block_s >= CAL_EVERY_S or len(raw) == len(order):
            nxt = _calibrate()
            scale = CAL_REF_S / (0.5 * (cal + nxt))
            norm.extend(r * scale for r in raw[block_start:])
            cal, block_start, block_s = nxt, len(raw), 0.0
    return outputs, raw, norm


def _gate_all(wl, outputs):
    reasons = {}
    for item in wl.items:
        out = outputs[item["key"]]
        if isinstance(out, tuple) and out and out[0] == "raised":
            reasons[item["key"]] = f"raised {out[1]}: {out[2]}"
            continue
        try:
            why = wl.gate(item, outputs)
        except Exception as exc:  # a malformed output fails its gate
            why = f"gate could not read the output: {type(exc).__name__}: {exc}"
        if why is not None:
            reasons[item["key"]] = why
    return reasons


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "dkl" / "__init__.py").is_file():
        print(f"error: no dkl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # set-up is an end-to-end metric: a traced run does not report it
    probes = [] if args.setup_probe or args.trace else [
        _probe(args.workload) for _ in range(SETUP_PROBES)]
    import_s = _import_dkl(args.workload)
    from workloads import WORKLOADS

    if args.setup_probe:
        wl = WORKLOADS[args.workload](0, None)
        t0 = time.perf_counter()
        wl.setup()
        raw = import_s + time.perf_counter() - t0
        _kernel()  # first call pays numpy's lazy initialisation
        print(json.dumps({"setup_s": raw, "cal_s": _calibrate()}))
        return 0

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        return _measure(args, WORKLOADS[args.workload](args.seed, workdir), probes, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl, probes, import_s: float) -> int:
    import numpy as np

    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    wl.setup()
    warm_s = time.perf_counter() - t0
    if tracer:
        setup_stats = tracer.reset_stats()
        tracer.uninstall()
    _kernel()
    setups = probes + [(import_s + warm_s, (import_s + warm_s) * CAL_REF_S / _calibrate())]

    order = [wl.items[i] for i in np.random.default_rng([args.seed, 900]).permutation(len(wl.items))]
    # the warm-up pass fills the caches the first calls leave behind (Gauss
    # rules and the like); its outputs are the ones gated, its times are not used
    first, warm_raw, _ = _run_pass(wl, order)
    pass_s, lats, norms, layer_stats = [], [], [], []
    mismatched = set()
    while sum(pass_s) < args.seconds or (tracer and len(norms) < 2):
        if tracer and len(norms) == 1:  # the first timed pass is the untraced base
            tracer.install()
        outputs, raw, norm = _run_pass(wl, order)
        pass_s.append(sum(raw))
        lats.append(raw)
        norms.append(norm)
        if tracer and len(norms) > 1:
            layer_stats.append(tracer.reset_stats())
        mismatched |= {k for k, v in outputs.items() if repr(v) != repr(first[k])}
    if tracer:
        tracer.uninstall()

    reasons = _gate_all(wl, first)
    for key in mismatched:
        reasons[key] = (reasons.get(key, "") + " not reproduced bit for bit by a later pass").strip()
    faults = {it["key"]: it.get("fault") for it in wl.items}
    unexpected = sorted(k for k in reasons if not faults[k] or k in mismatched)
    npass = len(pass_s) + 1  # the warm-up pass is attempted and gated too
    result = {
        "correct": not unexpected,
        "attempted": len(wl.items) * npass,
        "failed": len(reasons) * npass,
    }

    classes = sorted({it["cls"] for it in wl.items})
    share = {c: 0.0 for c in classes}
    for lat in lats:
        for item, dt in zip(order, lat):
            share[item["cls"]] += dt
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": npass,
        "items_per_pass": len(wl.items),
        "items_per_class": {c: sum(it["cls"] == c for it in wl.items) for c in classes},
        "warmup_pass_s": sum(warm_raw), "pass_s": pass_s, "pass_norm_s": [sum(n) for n in norms],
        "setup_runs_s": [raw for raw, _ in setups], "setup_runs_norm_s": [n for _, n in setups],
        "import_s": import_s, "warm_s": warm_s,
        "class_share": {c: v / sum(pass_s) for c, v in share.items()},
        "failures": {k: reasons[k] for k in sorted(reasons)}, "unexpected": unexpected,
    }

    pooled = [dt for lat in lats for dt in lat]
    pooled_norm = [dt for n in norms for dt in n]
    detail["raw"] = {
        "setup_s": statistics.median(raw for raw, _ in setups),
        "throughput_items_s": len(pooled) / sum(pooled),
        "latency_p50_ms": statistics.median(pooled) * 1e3,
    }
    if not tracer:
        metrics = {
            "setup_s": (statistics.median(n for _, n in setups), "s"),
            "throughput_items_s": (len(pooled_norm) / sum(pooled_norm), "1/s"),
            "latency_p50_ms": (statistics.median(pooled_norm) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        base_norm = sum(norms[0])
        traced_norm = [sum(n) for n in norms[1:]]
        metrics = {
            name: (statistics.median(st.get(name, 0.0) for st in layer_stats), _unit(name))
            for name in PER_LAYER
        }
        for name in SETUP_LAYER:
            metrics[name] = (setup_stats.get(name, 0.0), _unit(name))
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.oracle_splines_s"] = (warm_s if args.workload == "oracle" else 0.0, "s")
        # normalised, so that host drift between the passes does not show as overhead
        metrics["trace.base_pass_s"] = (base_norm, "s")
        metrics["trace.overhead_s"] = (statistics.median(traced_norm) - base_norm, "s")
        stem = RESULTS / f"trace-{args.workload}-s{args.seed}"
        detail["per_pass_layers"] = layer_stats
        detail["setup_layers"] = setup_stats
        tracer.save(stem.with_suffix(".npz"), detail)

    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail["result"] = result
    out_file = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for key in sorted(reasons):
        tag = "unexpected" if key in unexpected else f"known fault {faults[key]}"
        print(f"FAILED {key} ({tag}): {reasons[key]}", file=sys.stderr)
    print(f"raw (not normalised): { {k: round(v, 4) for k, v in detail['raw'].items()} }",
          file=sys.stderr)
    print(f"passes={npass} pass_s={[round(s, 3) for s in pass_s]} "
          f"shares={ {c: round(v, 3) for c, v in detail['class_share'].items()} }", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
