"""Migration bookkeeping records.

A :class:`MigrationRecord` follows one block's journey through the
migration pipeline:

``PENDING``  -- at the master, unbound ("pending migrations", §III-A)
``BOUND``    -- assigned to a slave's local queue ("binding ... is
final", §III-A)
``ACTIVE``   -- the slave's serialized copy is in progress
``DONE``     -- in memory; reads will be directed at it
``DISCARDED``-- cancelled (missed read / memory pressure / failure)
``EVICTED``  -- completed then later removed from memory

Records also timestamp each transition so the Fig 10 straggler
timelines and the binding-delay ablation can be derived from the log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.dfs.block import Block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import MigrationMaster

__all__ = ["MigrationStatus", "MigrationRecord", "BindingEvent"]


class MigrationStatus(enum.Enum):
    """Lifecycle state of one block migration."""

    PENDING = "pending"
    BOUND = "bound"
    ACTIVE = "active"
    DONE = "done"
    DISCARDED = "discarded"
    EVICTED = "evicted"

    @property
    def is_terminal(self) -> bool:
        return self in (
            MigrationStatus.DONE,
            MigrationStatus.DISCARDED,
            MigrationStatus.EVICTED,
        )


@dataclass(slots=True)
class MigrationRecord:
    """One block's migration state and timeline.

    ``source_tier``/``dest_tier`` generalize the paper's single
    disk->memory edge for the tiered-storage extension; the defaults
    make a plain DYRS record byte-for-byte identical to before.

    Records filed into a :class:`~repro.core.base.MigrationMaster` carry a
    ``ledger`` backref so status transitions can keep the ledger's
    per-node in-flight index exact without the ledger rescanning its
    whole record table (the 1k-node scaling fix); free-standing records
    (tier moves, unit tests) leave it ``None`` and behave as before.
    """

    block: Block
    requested_at: float
    status: MigrationStatus = MigrationStatus.PENDING
    #: Device tier the copy reads from (``"disk"`` or ``"ssd"``).
    source_tier: str = "disk"
    #: Tier the block lands on (``"memory"`` or ``"ssd"``).
    dest_tier: str = "memory"
    #: Algorithm 1's current choice of best node (recomputed each pass;
    #: advisory until binding).
    target_node: Optional[int] = None
    #: The slave the migration was bound to (final once set).
    bound_node: Optional[int] = None
    bound_at: Optional[float] = None
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    discarded_at: Optional[float] = None
    discard_reason: Optional[str] = None
    #: Owning ledger, set when the record is filed; excluded from
    #: equality so records compare by their migration state alone.
    ledger: Optional["MigrationMaster"] = field(default=None, compare=False)

    @property
    def block_id(self) -> int:
        return self.block.block_id

    @property
    def duration(self) -> Optional[float]:
        """Copy duration (``mlock`` wall time), if completed."""
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def binding_delay(self) -> Optional[float]:
        """Time the record stayed unbound at the master.

        The quantity DYRS maximizes ("delays the binding ... as late as
        is possible", §III-A1); the delayed-vs-immediate ablation
        reports it.
        """
        if self.bound_at is None:
            return None
        return self.bound_at - self.requested_at

    def mark_bound(self, node_id: int, now: float) -> None:
        if self.status is not MigrationStatus.PENDING:
            raise RuntimeError(
                f"cannot bind migration of block {self.block_id} in {self.status}"
            )
        self.status = MigrationStatus.BOUND
        self.bound_node = node_id
        self.bound_at = now
        if self.ledger is not None:
            self.ledger._record_bound(self)

    def mark_active(self, now: float) -> None:
        if self.status is not MigrationStatus.BOUND:
            raise RuntimeError(
                f"cannot start migration of block {self.block_id} in {self.status}"
            )
        self.status = MigrationStatus.ACTIVE
        self.started_at = now

    def mark_done(self, now: float) -> None:
        if self.status is not MigrationStatus.ACTIVE:
            raise RuntimeError(
                f"cannot complete migration of block {self.block_id} in {self.status}"
            )
        self.status = MigrationStatus.DONE
        self.completed_at = now
        if self.ledger is not None:
            self.ledger._record_unbound(self)

    def mark_discarded(self, now: float, reason: str) -> None:
        if self.status.is_terminal:
            raise RuntimeError(
                f"cannot discard migration of block {self.block_id} in {self.status}"
            )
        was_inflight = self.status in (MigrationStatus.BOUND, MigrationStatus.ACTIVE)
        self.status = MigrationStatus.DISCARDED
        self.discarded_at = now
        self.discard_reason = reason
        if was_inflight and self.ledger is not None:
            self.ledger._record_unbound(self)

    def mark_evicted(self) -> None:
        if self.status is not MigrationStatus.DONE:
            raise RuntimeError(
                f"cannot evict block {self.block_id} in {self.status}"
            )
        self.status = MigrationStatus.EVICTED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MigrationRecord block={self.block_id} {self.status.value} "
            f"target={self.target_node} bound={self.bound_node}>"
        )


@dataclass(frozen=True, slots=True)
class BindingEvent:
    """Audit-log entry: one binding decision by the master."""

    time: float
    block_id: int
    node_id: int
    queue_depth_after: int
