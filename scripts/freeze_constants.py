"""Exploration run: record the empirical comparability constants.

Sweeps every entry of the registry ``dkl.grids.SWEEPS`` (the 16 lemmas and
the other comparability constants) at its full sample count and writes the
frozen constants file checked into the package.  Each stored value is the
measured extreme itself; the checks hold it with 10% slack and no excluded
sample (``dkl.report``).  A sweep that excludes a sample measures no
constant, so if any does, the script names each such sweep, writes nothing
and exits 1.  Re-run only when an estimator deliberately changes.

    python3 scripts/freeze_constants.py
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dkl.constants import write_constants
from dkl.grids import SWEEPS
from dkl.report import sweep

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "dkl" / "_data" / "ceilings.txt"

values: dict[str, float] = {}
t_start = time.time()


def log(msg: str) -> None:
    print(f"[{time.time() - t_start:7.1f}s] {msg}", flush=True)


excluding = []
for name, entry in SWEEPS.items():
    rep = sweep(name, entry)
    values[name] = rep.value
    log(f"{name} ({entry.kind}): n={rep.samples} excl={rep.excluded} "
        f"range=[{rep.min_ratio:.4g},{rep.max_ratio:.4g}] -> {values[name]:.6g}")
    if rep.excluded:
        excluding.append(name)

if excluding:
    log(f"not written: {', '.join(excluding)} excluded samples")
    sys.exit(1)

write_constants(values, OUT)
log(f"wrote {len(values)} constants to {OUT}")
