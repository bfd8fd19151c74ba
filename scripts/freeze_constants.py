"""Exploration run: record the empirical comparability constants.

Runs every lemma check at the exploration budget and every sweep of the
registry ``dkl.grids.SWEEPS`` at its full sample count, then writes the
frozen constants file checked into the package.  Re-run only when an
estimator deliberately changes; the tests assert these values with 10% slack.

    python3 scripts/freeze_constants.py
"""

from __future__ import annotations

import math
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dkl.constants import write_constants
from dkl.grids import ORACLE_CONFIGS, SLACK, SWEEPS, measure, oracle_fit
from dkl.inequalities import check, lemma_ids
from dkl.quadrature import QuadratureSpec

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "dkl" / "_data" / "ceilings.txt"

values: dict[str, float] = {}
t_start = time.time()


def log(msg: str) -> None:
    print(f"[{time.time() - t_start:7.1f}s] {msg}", flush=True)


spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-12)
for lid in lemma_ids():
    rep = check(lid, sampler_seed=0, budget=10_000, spec=spec, ceiling=math.inf)
    if rep.two_sided:
        ceiling = max(rep.max_ratio, 1.0 / rep.min_ratio)
    else:
        ceiling = rep.max_ratio
    values[lid] = ceiling * SLACK  # slack baked at freeze time
    log(f"{lid}: n={rep.samples} excl={rep.excluded} "
        f"range=[{rep.min_ratio:.3g},{rep.max_ratio:.3g}] ceiling={values[lid]:.6g}")

for name in SWEEPS:
    values[name], rep = measure(name)
    log(f"{name} ({SWEEPS[name].kind}): n={rep.samples} excl={rep.excluded} "
        f"range=[{rep.min_ratio:.4g},{rep.max_ratio:.4g}] -> {values[name]:.6g}")

for idx in range(len(ORACLE_CONFIGS)):
    q_fit, r2 = oracle_fit(idx)
    values[f"acc_oracle_qfit_{idx}"] = q_fit
    log(f"acc_oracle_qfit_{idx}: {q_fit:.6g} (R^2 {r2:.6f})")

write_constants(values, OUT)
log(f"wrote {len(values)} constants to {OUT}")
