"""Order statistics for the benchmark's reported timings.

A timing is reported as its median and the highest percentile of
:data:`PERCENTILE_LADDER` that still has at least :data:`MIN_BEYOND`
samples beyond it; a tail percentile asked for with fewer samples is
refused (:class:`TooFewSamples`) instead of being read off a handful of
points.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Tail percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked for with too few samples behind it."""


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the ``pct``-th percentile."""
    return math.floor(n * (100.0 - pct) / 100.0 + 1e-9)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with :data:`MIN_BEYOND` samples beyond it.

    Raises
    ------
    TooFewSamples
        Not even the lowest ladder percentile has enough samples.
    """
    allowed = [p for p in PERCENTILE_LADDER if samples_beyond(n, p) >= MIN_BEYOND]
    if not allowed:
        raise TooFewSamples(
            f"{n} samples: p{PERCENTILE_LADDER[0]:g} needs at least "
            f"{MIN_BEYOND} samples beyond it"
        )
    return allowed[-1]


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if not values:
        raise TooFewSamples("no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile, refused unless the ladder allows it.

    Raises
    ------
    TooFewSamples
        ``pct`` is above :func:`tail_percentile` for this sample count.
    """
    if pct > tail_percentile(len(values)):
        raise TooFewSamples(
            f"p{pct:g} of {len(values)} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it"
        )
    return percentile(values, pct)


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("no samples")
    return float(statistics.median(values))
