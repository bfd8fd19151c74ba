"""Per-item output digests of one benchmark workload.

    python3 scripts/output_digest.py --workload queries|estimates|oracle --seed N

Imports ``dklbench/workloads.py`` and ``src/dkl`` from the checkout holding
this script, runs ``setup()`` and then every item of one pass once, in list
order, and prints one line per item: ``<key> <sha256 of repr(output)>``.
An item that raises prints the digest of ``("raised", exception type,
message)``, as the benchmark records it.  Run it in two checkouts and diff
the outputs to list the items whose outputs moved.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# every dkl module a workload reaches; the workloads look them up in sys.modules
DKL_MODULES = ["cli", "constants", "geometry", "green", "heatkernel", "inequalities",
               "oracle", "quadrature", "special"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["queries", "estimates", "oracle"])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "dklbench"), str(root / "src")]
    for name in DKL_MODULES:
        importlib.import_module("dkl." + name)
    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp(prefix="digest-"))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        for item in wl.items:
            try:
                out = wl.run(item)
            except Exception as exc:
                out = ("raised", type(exc).__name__, str(exc))
            digest = hashlib.sha256(repr(out).encode("utf-8")).hexdigest()
            print(item["key"], digest, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
