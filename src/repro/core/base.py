"""Shared machinery for migration masters.

DYRS, Ignem, and the naive balancer differ *only* in how pending
migrations are bound to slaves; everything else -- file->block
expansion, reference lists, eviction, the memory directory, missed-read
discarding -- is common and lives here.  Keeping the base class honest
makes the experimental comparisons apples-to-apples: a baseline cannot
win or lose because of incidental bookkeeping differences.

:class:`MigrationMaster` owns the record ledger -- the per-block record
table, the append-only log, the discard / re-migrate plumbing -- and
the cluster-wide policy: reference tracking, eviction, the memory
directory, the read path, GC, and slave-failure handling.  A binding
strategy implements the subclass hooks; the master side of the slave's
pull leg is one endpoint here (the :class:`~repro.shard.ShardCoordinator`
answers with one endpoint per shard, each a
:class:`~repro.shard.MasterShard` wrapping its own pending pool, while
the ledger and everything else stays with the coordinator).

Failure scans (a slave's death here, the DYRS master's reclaim pass)
never walk the record table: the ledger keeps the BOUND/ACTIVE records
of each node in ``_inflight_by_node``, and a scan handles its victims
in the order their blocks were first filed (``_arrival_seq``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.eviction import ReferenceTracker
from repro.core.records import MigrationRecord, MigrationStatus
from repro.dfs.block import Block, BlockId
from repro.dfs.client import EvictionMode
from repro.obs import trace as obs
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.slave import DyrsSlave
    from repro.dfs.namenode import NameNode

__all__ = ["MigrationMaster"]


class MigrationMaster:
    """Abstract base for migration coordinators.

    Owns the authoritative per-block record table and the append-only
    record log, the create / discard / re-migrate plumbing every
    binding strategy shares, and the cluster-wide policy every scheme
    shares.  Subclasses implement the binding strategy by overriding
    :meth:`_on_new_records` (what happens when migrations arrive) and
    :meth:`request_work` (what a pulling slave receives).

    Slaves pull through legs (:meth:`pull_plan`,
    :meth:`bind_from_shard`, :meth:`pull_service_seconds`).  Here the
    master is one endpoint, id 0, that never changes generation, with
    no service time.
    """

    #: Whether the master process is up.  A crashed master (§III-C1)
    #: receives nothing: migration requests sent to it are lost and
    #: pull RPCs get no response.  Only masters with a crash/recover
    #: path ever flip this.
    alive = True

    #: Whether a disk read of a block with an unstarted migration
    #: cancels that migration (§IV-A1, "discarded due to missed
    #: reads").  A DYRS-family feature; Ignem predates it.
    discards_on_missed_read = True

    def __init__(self, namenode: "NameNode") -> None:
        self.namenode = namenode
        self.sim = namenode.sim
        namenode.migration_master = self
        #: Live record per block (the latest, possibly terminal).
        self._records: dict[BlockId, MigrationRecord] = {}
        #: Append-only log of every record ever created (metrics).
        self.record_log: list[MigrationRecord] = []
        #: BOUND/ACTIVE records grouped by the slave they are bound to,
        #: maintained by the records' transition hooks.  Failure scans
        #: read this instead of walking ``_records`` (O(all blocks)).
        self._inflight_by_node: dict[int, dict[BlockId, MigrationRecord]] = {}
        #: Position each block first entered ``_records`` -- i.e. its
        #: dict iteration position, which re-filing a replacement record
        #: under the same key preserves.  Failure scans handle their
        #: victims in this order, so replacements are filed in the
        #: order the blocks first arrived.
        self._arrival_seq: dict[BlockId, int] = {}
        self.slaves: dict[int, "DyrsSlave"] = {}
        self.tracker = ReferenceTracker(
            on_block_unreferenced=self._on_unreferenced,
            clock=lambda: self.sim.now,
        )
        #: Optional hook returning currently active job ids, used by the
        #: memory-pressure GC sweep (§III-C3); the compute scheduler
        #: plugs in here.
        self.active_jobs_provider: Optional[Callable[[], Sequence[str]]] = None
        #: Idle slaves waiting to be woken when work targets them
        #: (``idle_pull="notify"``); empty in the paper's poll mode.
        self._parked: dict[int, Event] = {}

    # -- record plumbing --------------------------------------------------------

    def _file_record(self, record: MigrationRecord) -> None:
        """Install ``record`` as the live record for its block."""
        block_id = record.block_id
        if block_id not in self._arrival_seq:
            self._arrival_seq[block_id] = len(self._arrival_seq)
        record.ledger = self
        self._records[block_id] = record

    def _record_bound(self, record: MigrationRecord) -> None:
        """Transition hook: a filed record entered BOUND."""
        self._inflight_by_node.setdefault(record.bound_node, {})[
            record.block_id
        ] = record

    def _record_unbound(self, record: MigrationRecord) -> None:
        """Transition hook: a filed record left BOUND/ACTIVE."""
        bucket = self._inflight_by_node.get(record.bound_node)
        if bucket is not None:
            bucket.pop(record.block_id, None)
            if not bucket:
                del self._inflight_by_node[record.bound_node]

    def _inflight_on_node(self, node_id: int) -> list[MigrationRecord]:
        """BOUND/ACTIVE records bound to ``node_id``, in table order."""
        bucket = self._inflight_by_node.get(node_id)
        if not bucket:
            return []
        seq = self._arrival_seq
        return sorted(bucket.values(), key=lambda r: seq[r.block_id])

    def discard(self, record: MigrationRecord, reason: str) -> None:
        """Cancel a not-yet-active migration."""
        prior = record.status
        record.mark_discarded(self.sim.now, reason)
        obs.emit(
            obs.DROPPED,
            self.sim.now,
            block=record.block_id,
            reason=reason,
            status=prior.value,
        )
        self._on_record_discarded(record)

    def _new_record(self, block: Block) -> MigrationRecord:
        """Record factory; the storage-ladder master overrides this to
        route a block already resident on a faster tier along the right
        edge."""
        return MigrationRecord(block=block, requested_at=self.sim.now)

    def _remigrate(self, block: Block) -> MigrationRecord:
        """Create and enqueue a fresh PENDING record for ``block``."""
        replacement = self._new_record(block)
        self._file_record(replacement)
        self.record_log.append(replacement)
        obs.emit(obs.PENDING, self.sim.now, block=block.block_id)
        self._on_new_records([replacement])
        return replacement

    # -- metrics -----------------------------------------------------------------

    def record_of(self, block_id: BlockId) -> Optional[MigrationRecord]:
        """The current record for ``block_id`` (None if never migrated)."""
        return self._records.get(block_id)

    def migrated_bytes(self) -> float:
        """Total bytes successfully migrated so far."""
        return sum(
            r.block.size
            for r in self.record_log
            if r.status in (MigrationStatus.DONE, MigrationStatus.EVICTED)
            and r.completed_at is not None
        )

    # -- subclass hooks --------------------------------------------------------------

    def _on_new_records(self, records: list[MigrationRecord]) -> None:
        """New migrations arrived; subclass decides what to do."""
        raise NotImplementedError

    def _on_record_discarded(self, record: MigrationRecord) -> None:
        """A record left the pipeline early; subclass cleans queues."""
        raise NotImplementedError

    def request_work(self, node_id: int, max_blocks: int) -> list[MigrationRecord]:
        """Bind up to ``max_blocks`` migrations to ``node_id``."""
        raise NotImplementedError

    # -- the pull leg's endpoint API ---------------------------------------------

    def pull_plan(self, node_id: int) -> list[tuple[int, int]]:
        """The ``(endpoint, generation)`` pairs a pull from ``node_id``
        opens legs to: this master's single endpoint."""
        return [(0, 0)]

    def bind_from_shard(
        self, shard_id: int, generation: int, node_id: int, max_blocks: int
    ) -> list[MigrationRecord]:
        """The bind half of one pull leg, with the budget the slave
        computed at bind time."""
        return self.request_work(node_id, max_blocks)

    def pull_service_seconds(self, shard_id: int) -> float:
        """Master-side service time of one leg (modeling hook).

        0 by default: the paper's master answers pulls instantly.  The
        DYRS master scales this with its pending-map size when
        ``pull_service_cost`` is configured, which is what the shard
        sweep measures (a shard services a leg from its own map).
        """
        return 0.0

    # -- slave registry ------------------------------------------------------

    def register_slave(self, slave: "DyrsSlave") -> None:
        """Attach a slave; subclasses may extend (e.g. seed load state)."""
        self.slaves[slave.node_id] = slave

    def slave_changed(self, slave: "DyrsSlave") -> None:
        """``slave``'s disk-lane queue, a copy slot or its liveness just
        changed.  Only a master that harvests loads from heartbeats
        (DYRS) keeps track; push-binding masters ignore it."""

    # -- idle-slave parking (idle_pull="notify") -----------------------------

    def park_idle_slave(self, node_id: int, signal: Event) -> None:
        """An idle slave waits on ``signal``; wake it when work may
        target it.  Re-parking overwrites any stale entry left by a
        crashed worker."""
        self._parked[node_id] = signal

    def unpark_idle_slave(self, node_id: int, signal: Event) -> None:
        """Withdraw a parked signal (slave woke up by other means)."""
        if self._parked.get(node_id) is signal:
            del self._parked[node_id]

    # -- client API ------------------------------------------------------------

    def migrate(
        self,
        files: Sequence[str],
        job_id: str,
        eviction: EvictionMode = EvictionMode.IMPLICIT,
    ) -> list[MigrationRecord]:
        """Handle a migration request: expand files, create records.

        Blocks already in memory or already in flight only gain a
        reference; blocks whose previous record is terminal get a fresh
        record.  Returns the *new* records created.
        """
        if not self.alive:
            # §III-C1: requests during a master outage are simply lost
            # -- the affected jobs read from disk.
            return []
        implicit = eviction is EvictionMode.IMPLICIT
        new_records: list[MigrationRecord] = []
        for block in self.namenode.blocks_of(files):
            obs.emit(obs.REQUEST, self.sim.now, block=block.block_id, job=job_id)
            self.tracker.add_reference(block.block_id, job_id, implicit=implicit)
            existing = self._records.get(block.block_id)
            if existing is not None and not existing.status.is_terminal:
                continue
            resident = self.namenode.directory["memory"].get(block.block_id)
            if (
                resident is not None
                and self.namenode.cluster.node(resident).alive
                and self.namenode.datanodes[resident].holds("memory", block.block_id)
            ):
                # Already served from memory: a second migration would
                # double-pin the buffer (or, landing elsewhere, strand
                # the first copy); the reference added above is all the
                # request needs.
                continue
            record = self._new_record(block)
            self._file_record(record)
            self.record_log.append(record)
            obs.emit(obs.PENDING, self.sim.now, block=block.block_id)
            new_records.append(record)
        if new_records:
            self._on_new_records(new_records)
        return new_records

    def evict(self, files: Sequence[str], job_id: str) -> None:
        """Explicit evict RPC: drop ``job_id``'s references on ``files``."""
        block_ids = [b.block_id for b in self.namenode.blocks_of(files)]
        self.tracker.remove_job_from_blocks(job_id, block_ids)

    def notify_job_finished(self, job_id: str) -> None:
        """Job completion: clear all of the job's references."""
        self.tracker.remove_job(job_id)

    # -- read-path integration ---------------------------------------------------

    def on_block_read(self, block: Block, job_id: str, read_event: Event) -> None:
        """Observe a block read (called by the DFSClient).

        Two duties:

        * *missed-read discard* -- a still-unstarted migration whose
          only interested job just read the block from disk is
          pointless for singly-accessed data; cancel it;
        * *implicit eviction* -- trim the reference when the read
          completes (§III-C3).
        """
        record = self._records.get(block.block_id)
        if (
            self.discards_on_missed_read
            and record is not None
            and record.status
            in (MigrationStatus.PENDING, MigrationStatus.BOUND)
        ):
            others = self.tracker.jobs_of(block.block_id) - {job_id}
            if not others:
                self.discard(record, reason="missed-read")

        if self.tracker.uses_implicit_eviction(job_id):
            block_id = block.block_id

            def _trim(event: Event) -> None:
                if event.ok:
                    self.tracker.on_read(block_id, job_id)

            read_event.add_callback(_trim)

    # -- slave-side notifications ---------------------------------------------------

    def on_migration_complete(
        self, record: MigrationRecord, node_id: int, duration: float
    ) -> None:
        """A slave finished copying; publish the in-memory replica.

        If every reference disappeared while the copy ran, the data is
        dead on arrival -- evict immediately.
        """
        self.namenode.directory["memory"][record.block_id] = node_id
        if not self.tracker.is_referenced(record.block_id):
            self._evict_done_record(record)

    def on_slave_failed(self, node_id: int) -> None:
        """Slave process death (§III-C2).

        Three cleanups:

        * forget the node's in-memory replicas (directory soft state);
        * mark DONE records whose data died with the process as evicted,
          re-migrating any that jobs still reference;
        * return bound-but-unfinished work to the pending pool (the old
          bindings are final, so fresh records replace them).
        """
        lost_ids = [
            block_id
            for block_id, nid in self.namenode.directory["memory"].items()
            if nid == node_id
        ]
        self.namenode.drop_node_memory_state(node_id)
        # DONE records come from the node's directory entries,
        # BOUND/ACTIVE ones from the in-flight index; both are merged
        # into first-filing order.
        seq = self._arrival_seq
        candidates = [
            record
            for record in map(self._records.get, lost_ids)
            if record is not None and record.status is MigrationStatus.DONE
        ]
        candidates.extend(self._inflight_on_node(node_id))
        candidates.sort(key=lambda r: seq[r.block_id])
        for record in candidates:
            if record.status is MigrationStatus.DONE:
                self._evict_lost_record(record, node_id)
            else:
                self._requeue_after_failure(record)

    def _evict_lost_record(self, record: MigrationRecord, node_id: int) -> None:
        """A DONE record's in-memory data died with its slave."""
        record.mark_evicted()
        obs.emit(obs.EVICTED, self.sim.now, block=record.block_id, node=node_id)
        if self.tracker.is_referenced(record.block_id):
            self._remigrate(record.block)

    def gc_sweep(self) -> list[str]:
        """Memory-pressure GC: drop references of inactive jobs.

        Uses :attr:`active_jobs_provider`; without one the sweep is a
        no-op (nothing can safely be declared inactive).
        """
        if self.active_jobs_provider is None:
            return []
        swept = self.tracker.sweep_inactive(self.active_jobs_provider())
        if swept and obs.enabled():
            obs.emit(obs.GC_SWEEP, self.sim.now, jobs_swept=len(swept))
        return swept

    # -- failure/requeue plumbing (needs the reference tracker) -------------------

    def requeue_undelivered(self, records: list[MigrationRecord]) -> int:
        """Return grants whose delivery to a slave failed (§III-C2).

        The pull protocol binds records at the master and ships them in
        the RPC response; if the slave died (or was restarted -- a new
        epoch) before the response landed, the bindings would otherwise
        be stranded BOUND forever: the *node* stays available, so
        :meth:`reclaim_unavailable`-style detectors never fire.  Each
        undelivered record is discarded (a ``dropped`` trace event with
        reason ``undelivered``) and re-queued as fresh PENDING work if
        any job still wants the block.  Returns the number requeued.
        """
        requeued = 0
        for record in records:
            if record.status is not MigrationStatus.BOUND:
                continue  # already handled (e.g. on_slave_failed ran first)
            self.discard(record, reason="undelivered")
            if self.tracker.is_referenced(record.block_id):
                self._remigrate(record.block)
                requeued += 1
        return requeued

    def _requeue_after_failure(self, record: MigrationRecord) -> MigrationRecord:
        """Replace a record lost to a slave failure with a fresh
        PENDING one (bindings are final, so the old record dies)."""
        self.discard(record, reason="slave-failure")
        if not self.tracker.is_referenced(record.block_id):
            # Nobody wants the block anymore; a replacement would pend
            # forever (the unreferenced hook already fired for the old
            # record and never fires again).
            return record
        return self._remigrate(record.block)

    def _on_unreferenced(self, block_id: BlockId) -> None:
        """Reference list emptied: evict or cancel as appropriate."""
        record = self._records.get(block_id)
        if record is None:
            return
        if record.status is MigrationStatus.DONE:
            self._evict_done_record(record)
        elif record.status in (MigrationStatus.PENDING, MigrationStatus.BOUND):
            self.discard(record, reason="unreferenced")
        elif record.status is MigrationStatus.ACTIVE:
            # A live copy is about to finish -- leave it alone and let
            # on_migration_complete evict.  But a copy claimed by a
            # *dead* slave process can never finish; without a discard
            # here the record outlives every reference (masters without
            # a reclaim loop, e.g. Ignem, would leak it forever).
            slave = self.slaves.get(record.bound_node)
            if slave is None or not slave.alive:
                self.discard(record, reason="unreferenced")

    def _evict_done_record(self, record: MigrationRecord) -> None:
        node_id = self.namenode.release("memory", record.block_id)
        if node_id is not None:
            slave = self.slaves.get(node_id)
            if slave is not None:
                slave.notify_memory_freed()
        record.mark_evicted()
        obs.emit(obs.EVICTED, self.sim.now, block=record.block_id, node=node_id)
