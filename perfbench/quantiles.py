"""Percentiles with an explicit sample-size rule.

A percentile is only trusted when at least :data:`MIN_TAIL` samples lie
beyond it: a p90 needs 100 samples, a p50 needs 20.  Below that a single
slow sample moves the figure, so :func:`percentile` flags the report as
under-sampled and callers that size their streams for the rule check
:attr:`Percentile.trusted`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

#: samples that must lie beyond a percentile for it to be trusted
MIN_TAIL = 10


def rank(n: int, q: float) -> int:
    """1-based nearest-rank index of quantile ``q`` among ``n`` samples
    (rounded first, so 0.9 * 100 is 90, not 90.00000000000001)."""
    return max(1, math.ceil(round(q * n, 9)))


def tail(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` quantile."""
    return n - rank(n, q) if n else 0


def nearest_rank(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or None for no samples."""
    if not values:
        return None
    return sorted(values)[rank(len(values), q) - 1]


@dataclass(frozen=True)
class Percentile:
    """One reported percentile with its sample count."""

    q: float
    value: float
    samples: int

    @property
    def beyond(self) -> int:
        return tail(self.samples, self.q)

    @property
    def trusted(self) -> bool:
        return self.beyond >= MIN_TAIL

    def describe(self) -> str:
        flag = "" if self.trusted else " (under-sampled)"
        return (f"p{round(self.q * 100)} over n={self.samples}, "
                f"{self.beyond} beyond{flag}")


def percentile(values: Sequence[float], q: float) -> Percentile:
    if not values:
        raise ValueError(f"no samples for p{round(q * 100)}")
    return Percentile(q, nearest_rank(values, q), len(values))

