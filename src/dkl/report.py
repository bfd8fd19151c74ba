"""Frozen constants: how each one is measured, and the one verdict on it.

The paper's estimates and lemmas hold up to constants it does not give, so
every comparability assertion is two-phase.  An exploration run
(``scripts/freeze_constants.py``) sweeps each entry of ``dkl.grids.SWEEPS``
and stores the measured extreme, with no slack, in ``ceilings.txt``.  A
check sweeps the same entry and holds the same extreme to the stored value
times ``SLACK``, or divided by it for a floor.  It passes only if it kept at
least one sample and excluded none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Union

from .constants import load_constants
from .quadrature import NonConvergenceError

TWO_SIDED, CEILING, FLOOR = "two-sided", "ceiling", "floor"
SLACK = 1.10


@dataclass(frozen=True)
class Sweep:
    """How one frozen constant is measured.

    ``samples(n)`` yields the samples of a sweep of size n; ``ratio(sample)``
    is as in :func:`ratio_report`.  ``kind`` says which value is frozen: the
    two-sided ceiling max(max ratio, 1/min ratio), the one-sided ceiling max
    ratio, or the floor min ratio.
    """

    samples: Callable[[int], Iterable]
    ratio: Callable[[Any], Union[None, float, tuple[float, float]]]
    n: int  # samples of the freezing run
    kind: str = TWO_SIDED


@dataclass(frozen=True)
class ComparabilityReport:
    """Empirical ratio extremes over a sample set, and the verdict on them.

    ``argmin`` and ``argmax`` are the samples at the extremes.  ``ceiling``
    is the bound the frozen side :attr:`value` is held to (from below for a
    floor); without one the report does not pass.  ``paired`` marks a sweep
    whose samples give (lower, upper) pairs: its extremes come from
    different sides, so the lower one may exceed the upper one.
    """

    name: str
    samples: int
    excluded: int
    min_ratio: float
    max_ratio: float
    argmin: Any = None
    argmax: Any = None
    ceiling: Optional[float] = None
    kind: str = TWO_SIDED
    paired: bool = False

    def __post_init__(self):
        if self.paired:
            valid = 0.0 < self.min_ratio and 0.0 < self.max_ratio  # False for NaN
        else:
            valid = 0.0 < self.min_ratio <= self.max_ratio
        if self.samples > 0 and not valid:
            raise ValueError(
                f"ratio range invalid: ({self.min_ratio}, {self.max_ratio})"
            )

    @property
    def value(self) -> float:
        """The frozen side of the ratio range, as ``kind`` says."""
        if self.kind == TWO_SIDED:
            return max(self.max_ratio, 1.0 / self.min_ratio)
        return self.min_ratio if self.kind == FLOOR else self.max_ratio

    @property
    def passed(self) -> bool:
        """At least one sample kept, none excluded, and the value within the bound."""
        if self.samples == 0 or self.excluded > 0 or self.ceiling is None:
            return False
        if self.kind == FLOOR:
            return self.value >= self.ceiling
        return self.value <= self.ceiling


def ratio_report(
    name: str,
    samples: Iterable,
    ratio: Callable[[Any], Union[None, float, tuple[float, float]]],
    kind: str = TWO_SIDED,
    ceiling: Optional[float] = None,
) -> ComparabilityReport:
    """The ratio extremes over ``samples``.

    ``ratio(sample)`` returns the sample's ratio, a (lower, upper) pair of
    ratios, or None to leave the sample out.  A sample whose ``ratio``
    raises :class:`NonConvergenceError` is counted as excluded, which fails
    the verdict.
    """
    lo, hi = math.inf, 0.0
    argmin = argmax = None
    count = excluded = 0
    paired = False
    for smp in samples:
        try:
            r = ratio(smp)
        except NonConvergenceError:
            excluded += 1
            continue
        if r is None:
            continue
        count += 1
        paired = paired or isinstance(r, tuple)
        r_lo, r_hi = r if isinstance(r, tuple) else (r, r)
        if r_hi > hi:
            hi, argmax = r_hi, smp
        if r_lo < lo:
            lo, argmin = r_lo, smp
    return ComparabilityReport(
        name, count, excluded, lo, hi, argmin, argmax, ceiling, kind, paired
    )


def sweep(name: str, entry: Sweep, n: Optional[int] = None) -> ComparabilityReport:
    """Sweep ``entry`` over n samples (its freezing run's count when n is
    None), held to the bound of the frozen constant ``name`` if there is one."""
    bound = load_constants().get(name)
    if bound is not None:
        bound = bound / SLACK if entry.kind == FLOOR else bound * SLACK
    samples = entry.samples(entry.n if n is None else n)
    return ratio_report(name, samples, entry.ratio, entry.kind, bound)
