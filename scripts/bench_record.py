"""Record one point of the benchmark trajectory.

    python3 scripts/bench_record.py BENCH_<n>.json

Runs ``dklbench/run.py`` on the three workloads at seed 0 from the checkout
holding this script, once untraced (``--seconds 15``) for the end-to-end
metrics and once traced (``--seconds 1 --trace 1``) for the per-layer
metrics.  From the last stdout line of each run it writes, per workload,
the metrics, ``failed/attempted`` and ``correct`` to OUT, together with the
git revision and the host the figures were measured on.  Under ``cli`` it
writes the median wall time of 5 subprocess runs of each command in ``CLI``,
each of which must exit 0.  Under ``tier1`` it writes one run of the
tier-1 command of ROADMAP.md: its wall time, the passed and failed counts
and the time of each ``test_criterion_*`` test from its JUnit XML, and
pytest's exit code, which is recorded, not required to be 0.  When ``src``
or ``dklbench`` differ from that
revision, ``diff_sha256`` holds the SHA-256 of ``git diff HEAD -- src
dklbench``, so the record names the code it measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["queries", "estimates", "oracle"]
RUNS = {"end_to_end": ["--seconds", "15"], "per_layer": ["--seconds", "1", "--trace", "1"]}
# the map and solve-q commands are the README's examples; c-shape scans the
# killing map and refines both of its zeros
CLI = ["check --lemma all --budget 1000",
       "map --alpha 0.5 --beta 0,1.5,0,0 --dim 2 --t 0.001 --x 0,0.0001 --grid-n 32 --extent 4",
       "oracle",
       "c-shape --alpha 1.4 --beta 0.5,1.5,0,0 --grid-size 64",
       "solve-q --alpha 1.5 --beta 1,1,0,0 --kappa 2.0"]
CLI_RUNS = 5
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def _run(workload: str, extra: list[str]) -> dict:
    cmd = [sys.executable, "dklbench/run.py", "--workload", workload, "--seed", "0", *extra]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _cli_median_s(command: str) -> float:
    cmd = [sys.executable, "-m", "dkl.cli", *command.split()]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    walls = []
    for _ in range(CLI_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _tier1() -> dict:
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as tmp:
        xml = Path(tmp) / "tier1.xml"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *TIER1, f"--junitxml={xml}"], cwd=ROOT, env=env,
                              capture_output=True)
        wall = time.perf_counter() - t0
        cases = list(ElementTree.parse(xml).getroot().iter("testcase"))
    failed = [c for c in cases if c.find("failure") is not None or c.find("error") is not None]
    skipped = [c for c in cases if c.find("skipped") is not None]
    return {
        "wall_s": wall,
        "passed": len(cases) - len(failed) - len(skipped),
        "failed": len(failed),
        "exit_code": proc.returncode,
        "criterion_s": {c.get("name"): float(c.get("time")) for c in cases
                        if c.get("name").startswith("test_criterion_")},
    }


def _git(*cmd: str) -> str:
    return subprocess.run(["git", *cmd], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _diff_sha256() -> str:
    diff = subprocess.run(["git", "diff", "HEAD", "--", "src", "dklbench"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    return hashlib.sha256(diff).hexdigest()


def _host() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    args = ap.parse_args(argv)
    dirty = bool(_git("status", "--porcelain", "--", "src", "dklbench"))
    record = {
        "rev": _git("rev-parse", "HEAD"),
        "dirty": dirty,
        "diff_sha256": _diff_sha256() if dirty else None,
        "seed": 0,
        "host": _host(),
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {}
        for kind, extra in RUNS.items():
            res = _run(workload, extra)
            entry[kind] = {
                "correct": res["correct"],
                "failed/attempted": f"{res['failed']}/{res['attempted']}",
                "metrics": {k: v["value"] for k, v in res["metrics"].items()},
            }
            print(f"{workload} {kind}: correct={res['correct']} "
                  f"failed/attempted={res['failed']}/{res['attempted']}", file=sys.stderr)
        record["workloads"][workload] = entry
    walls = {}
    for command in CLI:
        walls[f"dkl {command}"] = _cli_median_s(command)
        print(f"dkl {command}: {walls[f'dkl {command}']:.3f} s", file=sys.stderr)
    record["cli"] = {"runs": CLI_RUNS, "median_wall_s": walls}
    record["tier1"] = _tier1()
    print(f"tier1: {record['tier1']['passed']} passed, {record['tier1']['failed']} failed "
          f"in {record['tier1']['wall_s']:.1f} s", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
