"""Exploration run: record the empirical comparability constants.

Sweeps every entry of the registry ``dkl.grids.SWEEPS`` (the 16 lemmas and
the other comparability constants) at its full sample count, fits the three
oracle survival exponents, and writes the frozen constants file checked into
the package.  Each stored value is the measured extreme itself; the checks
hold it with 10% slack and no excluded sample (``dkl.report``).  Re-run only
when an estimator deliberately changes.

    python3 scripts/freeze_constants.py
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dkl.constants import write_constants
from dkl.grids import ORACLE_CONFIGS, SWEEPS, oracle_fit
from dkl.report import sweep

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "dkl" / "_data" / "ceilings.txt"

values: dict[str, float] = {}
t_start = time.time()


def log(msg: str) -> None:
    print(f"[{time.time() - t_start:7.1f}s] {msg}", flush=True)


for name, entry in SWEEPS.items():
    rep = sweep(name, entry)
    values[name] = rep.value
    log(f"{name} ({entry.kind}): n={rep.samples} excl={rep.excluded} "
        f"range=[{rep.min_ratio:.4g},{rep.max_ratio:.4g}] -> {values[name]:.6g}")

for idx in range(len(ORACLE_CONFIGS)):
    q_fit, r2 = oracle_fit(idx)
    values[f"acc_oracle_qfit_{idx}"] = q_fit
    log(f"acc_oracle_qfit_{idx}: {q_fit:.6g} (R^2 {r2:.6f})")

write_constants(values, OUT)
log(f"wrote {len(values)} constants to {OUT}")
