"""Shared plumbing: CSV emission, config files."""

from __future__ import annotations

from typing import Iterable, Sequence


def fmt(value) -> str:
    """Canonical CSV field: 17 significant digits; ``format`` spells the
    non-finite floats ``inf``, ``-inf`` and ``nan``."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header line and one line per row, every field through :func:`fmt`."""
    return "".join(",".join(map(fmt, row)) + "\n" for row in [header, *rows])


def parse_config_file(path: str) -> dict[str, str]:
    """line-based `key = value` pairs with # comments."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, _, val = stripped.partition("=")
            values[key.strip()] = val.strip()
    return values


def log_uniform(rng, lo: float, hi: float) -> float:
    """One draw spanning the decades between lo and hi."""
    return float(lo * (hi / lo) ** rng.random())
