"""Alternated benchmark runs of two checkouts, parent against change.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seeds 1 2 3

Runs ``dklbench/run.py`` untraced in each checkout, N pairs of one parent
run and one change run, with the side that runs first switching every
pair; pair i uses seed ``seeds[i % len(seeds)]`` on both sides.  For every
end-to-end metric named in the change's ``BENCHMARK.json`` it prints the
per-run values, each side's median and quartiles, the ratio of the medians,
and the pairs the change won in the metric's better direction (ties count
for neither side).  ``clear`` marks a metric where the change won at least
nine tenths of the pairs and the medians differ by more than the distance
between the parent's quartiles.  ``failed/attempted`` and ``correct`` are
printed per run.  Every run lasts the ``run_seconds`` of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "dklbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=["queries", "estimates", "oracle"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    dirs = dict(zip(SIDES, (args.parent, args.change)))

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            res = _run(dirs[side], args.workload, seed, seconds)
            runs[side].append(res)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  f"failed/attempted={res['failed']}/{res['attempted']} correct={res['correct']}",
                  file=sys.stderr, flush=True)

    print(f"workload {args.workload}, {args.pairs} pairs, seeds {args.seeds}, {seconds:g} s runs")
    for side in SIDES:
        print(f"{side} failed/attempted: "
              + " ".join(f"{r['failed']}/{r['attempted']}" for r in runs[side])
              + f"; correct: {all(r['correct'] for r in runs[side])}")
    for name, better in metrics.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(vals["parent"], vals["change"]))
        p1, pm, p3 = _quartiles(vals["parent"])
        c1, cm, c3 = _quartiles(vals["change"])
        clear = wins >= 0.9 * args.pairs and sign * (cm - pm) > p3 - p1
        unit = runs["change"][0]["metrics"][name]["unit"]
        print(f"\n{name} [{unit}], {better} is better")
        for side in SIDES:
            print(f"  {side:6} " + " ".join(f"{v:.4g}" for v in vals[side]))
        ratio = f"x{cm / pm:.3f}" if pm else "n/a"
        print(f"  median parent {pm:.4g} [{p1:.4g}, {p3:.4g}] -> change {cm:.4g} "
              f"[{c1:.4g}, {c3:.4g}], {ratio}; change won {wins}/{args.pairs}"
              + ("; clear" if clear else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
