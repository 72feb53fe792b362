"""Per-block temperature tracking: EWMA access recency/frequency.

Operators of real HDFS clusters classify data by access age -- uprush's
``analyze_data_temperature.py`` walks the fsimage and buckets files
into hot/warm/cold by days since last access.  The simulator can do
better than a point-in-time snapshot: the tracker observes every block
access as it happens and keeps, per block,

* the last access timestamp, and
* an EWMA of the inter-access interval (the same smoothing the DYRS
  migration-time estimator uses, §IV-A -- recent behaviour dominates,
  single outliers do not).

A block's *temperature score* is ``max(ewma_interval, age)``: a block
is only hot if it is accessed **often** (small smoothed interval) *and*
**recently** (small age).  The score is compared against two
thresholds, giving the familiar three-way classification while staying
on simulation timescales (seconds, not days).
"""

from __future__ import annotations

import enum
import math
from typing import Optional

from repro.dfs.block import BlockId

__all__ = ["Temperature", "TemperatureTracker"]


class Temperature(enum.Enum):
    """Three-way classification of a block's access pattern."""

    HOT = "hot"
    WARM = "warm"
    COLD = "cold"


class TemperatureTracker:
    """EWMA-smoothed access statistics for every tracked block.

    Parameters
    ----------
    alpha:
        EWMA weight of the newest inter-access interval.
    hot_age:
        Score below which a block is HOT (seconds).
    cold_age:
        Score at or above which a block is COLD (seconds).  Must exceed
        ``hot_age``; scores between the two are WARM.
    """

    def __init__(
        self, alpha: float = 0.3, hot_age: float = 60.0, cold_age: float = 300.0
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if hot_age <= 0:
            raise ValueError(f"hot_age must be positive, got {hot_age}")
        if cold_age <= hot_age:
            raise ValueError(
                f"cold_age ({cold_age}) must exceed hot_age ({hot_age})"
            )
        self.alpha = alpha
        self.hot_age = hot_age
        self.cold_age = cold_age
        self._last_access: dict[BlockId, float] = {}
        self._ewma_interval: dict[BlockId, float] = {}

    # -- observation ---------------------------------------------------------

    def record_access(self, block_id: BlockId, now: float) -> None:
        """Fold one access at time ``now`` into the block's statistics."""
        last = self._last_access.get(block_id)
        if last is not None:
            interval = max(0.0, now - last)
            prev = self._ewma_interval.get(block_id)
            if prev is None:
                self._ewma_interval[block_id] = interval
            else:
                self._ewma_interval[block_id] = (
                    (1.0 - self.alpha) * prev + self.alpha * interval
                )
        self._last_access[block_id] = now

    def forget(self, block_id: BlockId) -> None:
        """Drop a block's statistics (e.g. its file was deleted)."""
        self._last_access.pop(block_id, None)
        self._ewma_interval.pop(block_id, None)

    # -- queries -------------------------------------------------------------

    def tracked_blocks(self) -> tuple[BlockId, ...]:
        """Blocks with at least one observed access."""
        return tuple(self._last_access)

    def last_access(self, block_id: BlockId) -> Optional[float]:
        return self._last_access.get(block_id)

    def ewma_interval(self, block_id: BlockId) -> Optional[float]:
        """Smoothed inter-access interval; None before two accesses."""
        return self._ewma_interval.get(block_id)

    def score(self, block_id: BlockId, now: float) -> float:
        """Temperature score in seconds; ``inf`` if never accessed.

        ``max(ewma_interval, age)``: recency bounds the score from
        below (a burst long ago is not hot) and frequency from above
        (one recent touch of otherwise-idle data is not hot either,
        once an interval history exists).
        """
        last = self._last_access.get(block_id)
        if last is None:
            return math.inf
        age = max(0.0, now - last)
        interval = self._ewma_interval.get(block_id)
        if interval is None:
            return age  # single access: recency is all we know
        return max(interval, age)

    def classify(self, block_id: BlockId, now: float) -> Temperature:
        """HOT/WARM/COLD for one block at time ``now``."""
        score = self.score(block_id, now)
        if score < self.hot_age:
            return Temperature.HOT
        if score < self.cold_age:
            return Temperature.WARM
        return Temperature.COLD

    def classify_all(self, now: float) -> dict[BlockId, Temperature]:
        """Classification of every tracked block (lifecycle-pass input)."""
        return {
            block_id: self.classify(block_id, now)
            for block_id in self._last_access
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TemperatureTracker blocks={len(self._last_access)}>"
