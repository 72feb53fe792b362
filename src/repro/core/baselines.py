"""Baseline migration schemes the paper compares against.

* :class:`IgnemMaster` -- "a scheme that randomly chooses a replica of
  input data blocks to copy from disk to memory as soon as a job is
  submitted" (§V-A, [8]).  Binding is immediate and uniform: no
  feedback, no adaptation.  Under a slow node it keeps loading that
  node, which is how it loses (Fig 8, Table I).
* :class:`NaiveBalancerMaster` -- delayed binding *without* straggler
  avoidance: any slave with queue space gets the next FIFO block that
  it hosts a replica of (the Fig 10a contrast).
* :class:`InstantMigrator` -- the hypothetical scheme of Fig 7b: every
  block appears in memory the instant migration is requested (zero
  bandwidth cost) and leaves on eviction.  Its performance upper-bounds
  migration (equivalent to HDFS-Inputs-in-RAM for reads) while its
  memory-usage timeline is the paper's comparison series.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import MigrationMaster
from repro.core.records import MigrationRecord
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.dfs.namenode import NameNode

__all__ = ["IgnemMaster", "NaiveBalancerMaster", "InstantMigrator"]


class IgnemMaster(MigrationMaster):
    """Random-replica, bind-at-submission migration (ICDCS'18)."""

    #: Ignem predates DYRS's missed-read cancellation (§IV-A1): a block
    #: already read from disk still gets copied into memory for
    #: nothing, wasting the bound node's bandwidth.
    discards_on_missed_read = False

    def __init__(self, namenode: "NameNode", rng: "np.random.Generator") -> None:
        super().__init__(namenode)
        self.rng = rng

    def migrate(self, files, job_id, eviction=None):
        """Ignem also predates implicit (evict-on-read) mode: block
        references live until the job completes, so every bound block
        is copied to memory even if its only read already happened --
        the parasitic load the paper measures (§V-E1)."""
        from repro.dfs.client import EvictionMode

        return super().migrate(files, job_id, eviction=EvictionMode.EXPLICIT)

    def _on_new_records(self, records: list[MigrationRecord]) -> None:
        """Bind every new block to a uniformly random live replica
        immediately -- "it binds migrations to replicas immediately
        upon receiving the migration command" (§V-F1)."""
        for record in records:
            locations = [
                n
                for n in record.block.get_replica_locations()
                if n in self.slaves and self.slaves[n].alive
            ]
            if not locations:
                self.discard(record, reason="no-replica")
                continue
            choice = int(self.rng.choice(len(locations)))
            node_id = locations[choice]
            record.target_node = node_id
            record.mark_bound(node_id, self.sim.now)
            # Ignem's replica *selection*: reads of this block are
            # steered to the chosen replica whether or not the copy has
            # finished -- the behaviour behind Fig 8b's uniform read
            # distribution and the slow-node convoy of §V-D/§V-E.
            self.namenode.read_directives[record.block_id] = node_id
            self.slaves[node_id].enqueue(record)
            obs.emit(
                obs.BIND,
                self.sim.now,
                block=record.block_id,
                node=node_id,
                queue_depth=self.slaves[node_id].queued_blocks,
            )

    def _on_record_discarded(self, record: MigrationRecord) -> None:
        pass  # already in a slave queue; the worker skips terminal records

    def request_work(self, node_id: int, max_blocks: int) -> list[MigrationRecord]:
        """Ignem never holds back work; pulls find nothing."""
        return []

    def may_bind(self, node_id: int) -> bool:
        """Never: work arrives by push (:meth:`DyrsSlave.enqueue`
        rebuilds a parked chain first)."""
        return False


class NaiveBalancerMaster(MigrationMaster):
    """Delayed binding without Algorithm 1 (the Fig 10a strawman).

    Work stays pending at the master and slaves pull, so load *rate*
    adapts to slave speed -- but the master hands the next FIFO block
    to *any* slave that asks and hosts a replica, so the tail of a
    migration can land on a slow node and straggle.
    """

    def __init__(self, namenode: "NameNode") -> None:
        super().__init__(namenode)
        self._pending: dict[int, MigrationRecord] = {}

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def _on_new_records(self, records: list[MigrationRecord]) -> None:
        for record in records:
            self._pending[record.block_id] = record

    def _on_record_discarded(self, record: MigrationRecord) -> None:
        self._pending.pop(record.block_id, None)

    def request_work(self, node_id: int, max_blocks: int) -> list[MigrationRecord]:
        if max_blocks <= 0:
            return []
        granted: list[MigrationRecord] = []
        for record in list(self._pending.values()):
            if len(granted) >= max_blocks:
                break
            if node_id not in record.block.get_replica_locations():
                continue
            record.target_node = node_id
            record.mark_bound(node_id, self.sim.now)
            del self._pending[record.block_id]
            granted.append(record)
            if obs.enabled():
                obs.emit(
                    obs.BIND,
                    self.sim.now,
                    block=record.block_id,
                    node=node_id,
                    queue_depth=self.slaves[node_id].queued_blocks + len(granted),
                )
        return granted


class InstantMigrator(MigrationMaster):
    """Zero-cost, zero-delay migration (the Fig 7b hypothetical).

    Replica choice rotates deterministically across a block's replica
    nodes so memory load spreads like real placement would.
    """

    def __init__(self, namenode: "NameNode") -> None:
        super().__init__(namenode)
        self._rotation = 0

    def _on_new_records(self, records: list[MigrationRecord]) -> None:
        for record in records:
            locations = record.block.get_replica_locations()
            node_id = locations[self._rotation % len(locations)]
            self._rotation += 1
            record.mark_bound(node_id, self.sim.now)
            obs.emit(
                obs.BIND,
                self.sim.now,
                block=record.block_id,
                node=node_id,
                queue_depth=0,
            )
            record.mark_active(self.sim.now)
            obs.emit(
                obs.MLOCK_START,
                self.sim.now,
                block=record.block_id,
                node=node_id,
                source="disk",
                dest="memory",
            )
            datanode = self.namenode.datanodes[node_id]
            if not datanode.node.memory.fits(record.block.size):
                obs.emit(
                    obs.MLOCK_ABORT,
                    self.sim.now,
                    block=record.block_id,
                    node=node_id,
                    source="disk",
                )
                self.discard(record, reason="out-of-memory")
                continue
            datanode.pin("memory", record.block)
            record.mark_done(self.sim.now)
            obs.emit(
                obs.MLOCK_DONE,
                self.sim.now,
                block=record.block_id,
                node=node_id,
                source="disk",
                dest="memory",
                duration=0.0,
            )
            self.on_migration_complete(record, node_id, duration=0.0)

    def _on_record_discarded(self, record: MigrationRecord) -> None:
        pass

    def request_work(self, node_id: int, max_blocks: int) -> list[MigrationRecord]:
        return []
