"""Frozen empirical constants: the measured extremes of ``dkl.grids.SWEEPS``.

The analytic results assert comparability with unspecified constants, so
the artifact records the extremes it observes during an exploration run and
asserts them, with slack, afterwards (see :mod:`dkl.report`).  The store is
a line-based text file of `name value` records in exact decimal text.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

_DATA_PACKAGE = "dkl._data"
_FILENAME = "ceilings.txt"


@lru_cache(maxsize=1)
def load_constants() -> dict[str, float]:
    try:
        text = resources.files(_DATA_PACKAGE).joinpath(_FILENAME).read_text()
    except (FileNotFoundError, ModuleNotFoundError):
        return {}
    out: dict[str, float] = {}
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        name, value = stripped.split()
        out[name] = float(value)
    return out


def get_constant(name: str) -> float:
    values = load_constants()
    if name not in values:
        raise KeyError(f"no frozen constant named {name!r}")
    return values[name]


def write_constants(values: dict[str, float], path: str | Path) -> None:
    """Used by the freezing script; the file is checked in, not generated at
    install time."""
    lines = [f"{k} {float(values[k])!r}" for k in sorted(values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
