"""EWMA migration-time estimation with in-progress refresh (§IV-A).

Each slave estimates how long migrating a block will take on its node.
The paper:

* uses "an exponentially weighted moving average (EWMA) of past
  migration durations to minimize the effect of random fluctuations
  while giving more weight to recent migrations", and
* after a sudden bandwidth drop, does not wait for the slow migration
  to finish: "when the elapsed duration of an active migration becomes
  greater than its estimate, we update the estimate periodically
  (every heartbeat) until migration completes".

Blocks are near-uniform in size but file tails are short, so the
estimator tracks **seconds per byte** internally and scales by block
size at query time; for full blocks this is identical to the paper's
per-block estimate.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["MigrationTimeEstimator"]


class MigrationTimeEstimator:
    """Per-slave EWMA of migration cost (seconds/byte).

    Parameters
    ----------
    initial_rate:
        Prior throughput in bytes/second (typically the disk's nominal
        sequential bandwidth) used before any observation.
    alpha:
        EWMA weight of the newest sample.  Larger adapts faster but is
        noisier.  Slaves pass ``EWMA_ALPHA`` (``core/slave.py``).
    """

    def __init__(self, initial_rate: float, alpha: float = 0.4) -> None:
        if initial_rate <= 0:
            raise ValueError(f"initial_rate must be positive, got {initial_rate}")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._seconds_per_byte = 1.0 / initial_rate
        self._observations = 0
        self._refreshes = 0
        #: (time, seconds_per_byte) history for the Fig 9 tracking plots;
        #: appended by :meth:`observe` / :meth:`refresh` when a
        #: timestamp is supplied.
        self.history: list[tuple[float, float]] = []

    # -- queries -----------------------------------------------------------

    @property
    def seconds_per_byte(self) -> float:
        """Current per-byte cost estimate."""
        return self._seconds_per_byte

    @property
    def observations(self) -> int:
        """Completed-migration samples folded in so far."""
        return self._observations

    @property
    def refreshes(self) -> int:
        """In-progress refresh updates applied so far."""
        return self._refreshes

    def estimate(self, nbytes: float) -> float:
        """Expected migration duration for a block of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        return self._seconds_per_byte * nbytes

    # -- updates -----------------------------------------------------------

    def _fold(self, sample_spb: float) -> None:
        self._seconds_per_byte = (
            (1.0 - self.alpha) * self._seconds_per_byte + self.alpha * sample_spb
        )

    def observe(
        self, duration: float, nbytes: float, now: Optional[float] = None
    ) -> None:
        """Fold in a completed migration of ``nbytes`` taking ``duration``."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        self._fold(duration / nbytes)
        self._observations += 1
        if now is not None:
            self.history.append((now, self._seconds_per_byte))

    def refresh(
        self, elapsed: float, nbytes: float, now: Optional[float] = None
    ) -> bool:
        """In-progress update from an active migration (§IV-A).

        Called every heartbeat while a migration runs.  Only acts when
        the migration has overrun its estimate -- ``elapsed`` is then a
        *lower bound* on the final duration and is folded in as if it
        were a sample, raising the estimate early.  Returns whether an
        update was applied.
        """
        if elapsed < 0:
            raise ValueError(f"negative elapsed: {elapsed}")
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        if elapsed <= self.estimate(nbytes):
            return False
        self._fold(elapsed / nbytes)
        self._refreshes += 1
        if now is not None:
            self.history.append((now, self._seconds_per_byte))
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MigrationTimeEstimator spb={self._seconds_per_byte:.3e} "
            f"obs={self._observations} refreshes={self._refreshes}>"
        )
