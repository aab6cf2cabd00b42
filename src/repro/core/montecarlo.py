"""The legacy operational Monte-Carlo record (Sec. 2, Eq. 6-7).

Estimation lives in :mod:`repro.yieldsim` (:class:`~repro.yieldsim.
OperationalMC` and its siblings).  :class:`MonteCarloResult` remains
because version-1 checkpoints store verification results in this form
(see :mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..statistics.intervals import wilson_interval


@dataclass
class MonteCarloResult:
    """Operational Monte-Carlo outcome (legacy record)."""

    yield_estimate: float
    n_samples: int
    #: per spec key, fraction of samples violating that spec
    bad_fraction: Dict[str, float]
    #: simulations actually run (after worst-case-corner grouping)
    simulations: int
    #: per spec key, sample mean of the performance at its worst-case
    #: operating point (presentation units)
    performance_mean: Dict[str, float] = field(default_factory=dict)
    #: per spec key, sample standard deviation of the performance
    performance_std: Dict[str, float] = field(default_factory=dict)

    @property
    def standard_error(self) -> float:
        """Binomial standard error of the yield estimate.

        Collapses to 0 at estimates of exactly 0 or 1; prefer
        :meth:`confidence_interval`, which stays honest there.
        """
        y = self.yield_estimate
        return float(np.sqrt(max(y * (1.0 - y), 0.0) / self.n_samples))

    def confidence_interval(self, level: float = 0.95
                            ) -> Tuple[float, float]:
        """Wilson score interval for the yield estimate.

        Unlike :attr:`standard_error`, the interval has nonzero width at
        0 %/100 % estimates: a 0-of-300 run still admits a ~1.3 % yield
        at the 95 % level, which is what small-N reports should say.
        """
        successes = self.yield_estimate * self.n_samples
        return wilson_interval(successes, self.n_samples, level)
