"""Empirical comparability reports shared by the check suite and the oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Union

from .quadrature import NonConvergenceError


@dataclass(frozen=True)
class ComparabilityReport:
    """Empirical ratio extremes of two evaluators over a seeded sample set.

    For two-sided claims ``passed`` requires the ratio range to sit inside
    [1/ceiling, ceiling]; one-sided claims check only the upper side.
    Samples whose quadrature failed to converge are excluded and counted;
    more than 1% exclusions fails the report outright.
    """

    lemma_id: str
    samples: int
    excluded: int
    min_ratio: float
    max_ratio: float
    argmin: dict = field(default_factory=dict)
    argmax: dict = field(default_factory=dict)
    ceiling: Optional[float] = None
    two_sided: bool = True

    def __post_init__(self):
        if self.samples > 0 and not (0.0 < self.min_ratio <= self.max_ratio):
            raise ValueError(
                f"ratio range invalid: ({self.min_ratio}, {self.max_ratio})"
            )

    @property
    def passed(self) -> bool:
        if self.samples == 0 or self.excluded > 0.01 * (self.samples + self.excluded):
            return False
        if self.ceiling is None:
            return False
        if self.max_ratio > self.ceiling:
            return False
        if self.two_sided and self.min_ratio < 1.0 / self.ceiling:
            return False
        return True


def ratio_report(
    name: str,
    samples: Iterable,
    ratio: Callable[[Any], Union[None, float, tuple[float, float]]],
    two_sided: bool = True,
    ceiling: Optional[float] = None,
    witness: Optional[Callable[[Any], dict]] = None,
    skip_unconverged: bool = False,
) -> ComparabilityReport:
    """The ratio extremes over ``samples``.

    ``ratio(sample)`` returns the sample's ratio, a (lower, upper) pair of
    ratios, or None to leave the sample out.  A :class:`NonConvergenceError`
    raised by ``ratio`` propagates unless ``skip_unconverged`` is set, in
    which case the sample is counted as excluded.  ``witness(sample)``
    describes the sample recorded at each extreme.
    """
    lo, hi = math.inf, 0.0
    argmin: dict = {}
    argmax: dict = {}
    count = excluded = 0
    for smp in samples:
        try:
            r = ratio(smp)
        except NonConvergenceError:
            if not skip_unconverged:
                raise
            excluded += 1
            continue
        if r is None:
            continue
        count += 1
        r_lo, r_hi = r if isinstance(r, tuple) else (r, r)
        if r_hi > hi:
            hi, argmax = r_hi, witness(smp) if witness else {}
        if r_lo < lo:
            lo, argmin = r_lo, witness(smp) if witness else {}
    return ComparabilityReport(name, count, excluded, lo, hi, argmin, argmax, ceiling, two_sided)
