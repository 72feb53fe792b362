"""The storage-ladder master: DYRS over disk, SSD, memory and archive.

:class:`LifecycleMaster` keeps every mechanism of the paper's master --
delayed binding, Algorithm 1 targeting, the pull protocol, reference
-list eviction -- and runs one lifecycle over whatever rungs the
cluster has.  The working tiers (disk, SSD, memory) are always
managed:

* **temperature tracking** -- every block read (and every migration
  request, which announces an imminent read) feeds the
  :class:`~repro.tiers.temperature.TemperatureTracker`;
* **background promotion** -- a periodic lifecycle pass asks the
  configured :class:`~repro.tiers.policy.TierPolicy` where each tracked
  block belongs and enqueues disk->ssd promotions *through the same
  pending pool Algorithm 1 targets*, so SSD fills are bandwidth-aware
  exactly like the paper's disk->memory migrations.  Memory residency
  stays reference-driven (§III-C3): the lifecycle never promotes into
  RAM on its own, and a block already cached on SSD is promoted
  ssd->memory when a job requests it -- bound directly to the cache
  holder, the only node with the bytes;
* **demotion** -- evicted-but-still-warm blocks drop one rung to the
  SSD instead of all the way to disk, and the lifecycle pass expires
  COLD blocks out of the SSD cache.

When the cluster has an archive rung, the cold end of the lifecycle
runs too:

* an **archive pass** runs after each tier pass and selects blocks
  that cooled past ``archive_age`` for demotion to the archive tier;
* every archive move is **integrity-checked**: a checksum is recorded
  when the bytes are written and verified before any copy is deleted
  (demotion drops disk replicas only after verification; restoration
  verifies before the archive copy is read back);
* the **replication scheduler** lowers an archived block's durable-copy
  target (the archive copy counts; COLD data keeps
  ``cold_replication - 1`` disk replicas) and re-replicates re-heated
  blocks back to the file's configured factor *before* they are
  promoted into the working tiers.

Archive moves are **master-driven and serialized**: one background
worker drains a FIFO of demote/restore operations, charging the source
device, the shared fabric archive link, and the destination devices
directly -- the slave migration lanes stay dedicated to the paper's
latency-critical disk->memory path.  The moves keep their own record
log (``lifecycle_record_log``) in the PENDING -> BOUND -> ACTIVE ->
DONE/DISCARDED lattice so chaos quiesce audits them, but they never
emit the migration-record trace vocabulary (``pending``/``bind``/
``mlock_*``): their trace life is the ``tier_move`` family, keeping
the §III liveness ledger exactly as the paper's schemes leave it.

Durability model (what a master crash does *not* lose): the archive
directory, the per-block replication overrides, and the checksum
registry are block-map state stored with the data.  In-flight moves
are aborted by a crash (``tier_move_abort`` with reason
``master-crash``) and re-planned by the next archive pass after
recovery.

Promotions and demotions are counted per ladder edge and mirrored into
the run's :class:`~repro.compute.metrics.MetricsCollector`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.master import DyrsConfig, DyrsMaster
from repro.core.policies import MigrationPolicy
from repro.core.records import BindingEvent, MigrationRecord, MigrationStatus
from repro.dfs.block import Block, BlockId
from repro.dfs.client import EvictionMode
from repro.lifecycle.integrity import ChecksumRegistry
from repro.lifecycle.policy import TablePolicy, default_table
from repro.lifecycle.replication import ReplicationScheduler
from repro.obs import trace as obs
from repro.sim.events import AllOf
from repro.sim.process import Interrupt, Process
from repro.tiers.policy import (
    CostBenefitPolicy,
    PlacementContext,
    ThresholdPolicy,
    TierPolicy,
)
from repro.tiers.temperature import Temperature, TemperatureTracker
from repro.tiers.tier import is_promotion, rung_read_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.archive import Archive
    from repro.compute.metrics import MetricsCollector
    from repro.core.slave import DyrsSlave
    from repro.dfs.namenode import NameNode

__all__ = ["TierConfig", "LifecycleMaster"]


@dataclass(frozen=True)
class TierConfig:
    """Tunables of the storage-ladder lifecycle.

    Attributes
    ----------
    lifecycle_interval:
        Seconds between lifecycle passes (promotion/expiry scans).
    temperature_alpha:
        EWMA weight of the temperature tracker.
    hot_age / cold_age:
        The tracker's classification thresholds (seconds).
    policy:
        ``"threshold"`` (temperature ladder), ``"cost-benefit"``
        (read-savings vs. move-cost arithmetic) or ``"table"`` (the
        declarative per-temperature table).  None derives it from the
        ladder: ``"table"`` when the cluster has an archive rung,
        ``"threshold"`` when it has none.
    horizon:
        Decision horizon of the cost-benefit policy (seconds).
    promote_warm_to_ssd:
        Whether the lifecycle pass enqueues background disk->ssd
        promotions.
    demote_to_ssd:
        Whether eviction demotes warm blocks memory->ssd instead of
        dropping them to disk.
    archive_age:
        Temperature score (seconds) beyond which a COLD block is
        demoted to the archive tier.  Must be at least ``cold_age``
        (only COLD blocks archive); unused without an archive rung.
    cold_replication:
        Durable copies a COLD archived block keeps.  The archive copy
        counts as one, so the default of 1 means *no* disk replicas
        remain -- restoration re-replicates before promotion.
    """

    lifecycle_interval: float = 10.0
    temperature_alpha: float = 0.3
    hot_age: float = 60.0
    cold_age: float = 300.0
    policy: Optional[str] = None
    horizon: float = 120.0
    promote_warm_to_ssd: bool = True
    demote_to_ssd: bool = True
    archive_age: float = 900.0
    cold_replication: int = 1

    def __post_init__(self) -> None:
        if self.lifecycle_interval <= 0:
            raise ValueError(
                f"lifecycle_interval must be positive, got {self.lifecycle_interval}"
            )
        policies = ("threshold", "cost-benefit", "table")
        if self.policy is not None and self.policy not in policies:
            raise ValueError(
                f"policy must be None or one of {policies}, got {self.policy!r}"
            )
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        # Same rules as TemperatureTracker, enforced eagerly so a bad
        # config fails at construction like every other spec dataclass.
        if not 0 < self.temperature_alpha <= 1:
            raise ValueError(
                f"temperature_alpha must be in (0, 1], got {self.temperature_alpha}"
            )
        if self.hot_age <= 0:
            raise ValueError(f"hot_age must be positive, got {self.hot_age}")
        if self.cold_age <= self.hot_age:
            raise ValueError(
                f"cold_age ({self.cold_age}) must exceed hot_age ({self.hot_age})"
            )
        if self.archive_age < self.cold_age:
            raise ValueError(
                f"archive_age ({self.archive_age}) must be at least "
                f"cold_age ({self.cold_age}): only COLD blocks archive"
            )
        if self.cold_replication < 1:
            raise ValueError(
                f"cold_replication must be >= 1, got {self.cold_replication}"
            )


class LifecycleMaster(DyrsMaster):
    """DYRS master with the SSD lifecycle and, given an archive rung,
    archive demotion and re-heat restore."""

    def __init__(
        self,
        namenode: "NameNode",
        config: Optional[DyrsConfig] = None,
        policy: Optional[MigrationPolicy] = None,
        tier_config: Optional[TierConfig] = None,
    ) -> None:
        super().__init__(namenode, config, policy)
        self.tier_config = tier_config or TierConfig()
        self._cluster_has_archive = any(
            dn.node.archive is not None for dn in namenode.datanodes.values()
        )
        self.table = default_table(cold_replication=self.tier_config.cold_replication)
        self.tier_policy: TierPolicy = self._build_tier_policy()
        self.temperature = TemperatureTracker(
            alpha=self.tier_config.temperature_alpha,
            hot_age=self.tier_config.hot_age,
            cold_age=self.tier_config.cold_age,
        )
        #: Live background promotion per block (disk->ssd records).
        #: Kept apart from ``_records`` so a cache fill never blocks a
        #: job's memory migration of the same block.
        self._tier_records: dict[BlockId, MigrationRecord] = {}
        #: Append-only log of every lifecycle record (metrics).
        self.tier_record_log: list[MigrationRecord] = []
        #: Completed moves per ladder edge: (source, dest) -> count.
        self.tier_moves: dict[tuple[str, str], int] = {}
        #: Bytes moved per ladder edge: (source, dest) -> bytes.
        self.tier_bytes: dict[tuple[str, str], float] = {}
        self.lifecycle_passes = 0
        self._lifecycle_proc: Optional[Process] = None
        self._metrics: Optional["MetricsCollector"] = None
        #: Checksum metadata, stored durably with the archived data.
        self.integrity = ChecksumRegistry()
        self.replication_scheduler = ReplicationScheduler(self.table, namenode)
        #: Live archive move per block, kept apart from both ``_records``
        #: (job migrations) and ``_tier_records`` (working-tier fills).
        self._lifecycle_moves: dict[BlockId, MigrationRecord] = {}
        #: Append-only log of every archive move (chaos quiesce audits
        #: that each entry reaches a terminal state).
        self.lifecycle_record_log: list[MigrationRecord] = []
        self._move_queue: deque[tuple[str, MigrationRecord]] = deque()
        self._mover_proc: Optional[Process] = None
        #: First re-access time of each still-archived block; closed
        #: into :attr:`reheat_latencies` when its restore completes.
        self._reheat_started: dict[BlockId, float] = {}
        #: Seconds from first re-access to restored-on-disk, per block.
        self.reheat_latencies: list[float] = []
        self.archived_blocks = 0
        self.restored_blocks = 0
        self.corrupt_moves = 0

    def _build_tier_policy(self) -> TierPolicy:
        name = self.tier_config.policy
        if name is None:
            # The table keeps WARM blocks on disk and expires them off
            # the SSD; only the threshold ladder caches them there,
            # which is what a ladder without an archive rung is for.
            name = "table" if self._cluster_has_archive else "threshold"
        if name == "table":
            return TablePolicy(self.table)
        if name == "cost-benefit":
            return CostBenefitPolicy(horizon=self.tier_config.horizon)
        return ThresholdPolicy()

    # -- wiring ------------------------------------------------------------------

    def attach_metrics(self, metrics: "MetricsCollector") -> None:
        """Mirror tier-move counts into the run's metrics collector."""
        self._metrics = metrics

    def start(self) -> None:
        super().start()
        if self._lifecycle_proc is None or not self._lifecycle_proc.is_alive:
            self._lifecycle_proc = self.sim.process(
                self._lifecycle_loop(), name="tier-lifecycle"
            )

    def stop(self) -> None:
        super().stop()
        if self._lifecycle_proc is not None and self._lifecycle_proc.is_alive:
            self._lifecycle_proc.interrupt(cause="stop")
        self._lifecycle_proc = None
        if self._mover_proc is not None and self._mover_proc.is_alive:
            self._mover_proc.interrupt(cause="stop")
        self._mover_proc = None

    def crash(self) -> None:
        """Master failure also loses the tier soft state (§III-C1)."""
        super().crash()
        self._tier_records.clear()
        self.namenode.ssd_directory.clear()

    def shutdown(self, reason: str) -> None:
        """Teardown (crash *or* failover): in-flight archive moves die
        with the process; the archive directory, replication overrides,
        and checksum registry are durable block-map state and survive.

        Hooking :meth:`~repro.core.master.DyrsMaster.shutdown` (not
        ``crash``) means standby failover also aborts the dead
        primary's moves -- without this, a ``TIER_MOVE`` record would
        stay non-terminal forever after a promotion.
        """
        super().shutdown(reason)
        for record in list(self._lifecycle_moves.values()):
            if not record.status.is_terminal:
                self._abort_move(record, reason)
        self._move_queue.clear()
        self._reheat_started.clear()

    def recover(self) -> None:
        """Rebuild both fast-tier directories from slave pin state.

        Registration goes through :meth:`_register_ssd_copy`: the outage
        can leave two nodes physically holding one block (a duplicate
        fill raced the crash), and the single-slot directory must not
        silently orphan the loser's pin.
        """
        super().recover()
        for slave in self.slaves.values():
            for block_id in list(slave.datanode.ssd_block_ids()):
                self._register_ssd_copy(block_id, slave.node_id)

    # -- counters ----------------------------------------------------------------

    def _count_move(self, source: str, dest: str, nbytes: float = 0.0) -> None:
        key = (source, dest)
        self.tier_moves[key] = self.tier_moves.get(key, 0) + 1
        self.tier_bytes[key] = self.tier_bytes.get(key, 0.0) + nbytes
        if self._metrics is not None:
            self._metrics.record_tier_move(source, dest)

    @property
    def promotion_count(self) -> int:
        """Completed moves that climbed the ladder."""
        return sum(
            n for (s, d), n in self.tier_moves.items() if is_promotion(s, d)
        )

    @property
    def demotion_count(self) -> int:
        """Completed moves that descended the ladder."""
        return sum(
            n for (s, d), n in self.tier_moves.items() if not is_promotion(s, d)
        )

    # -- temperature observation and re-heat detection ---------------------------

    def on_block_read(self, block, job_id, read_event) -> None:
        if block.block_id in self.namenode.archive_directory:
            self._note_reheat(block)
        self.temperature.record_access(block.block_id, self.sim.now)
        super().on_block_read(block, job_id, read_event)

    def migrate(self, files, job_id, eviction=EvictionMode.IMPLICIT):
        # A migration request announces imminent reads; warm the blocks
        # so the lifecycle sees them even before the first read lands.
        for block in self.namenode.blocks_of(files):
            self.temperature.record_access(block.block_id, self.sim.now)
        return super().migrate(files, job_id, eviction)

    def _note_reheat(self, block: Block) -> None:
        """An archived block is wanted again: stamp the re-heat clock
        and plan its restoration."""
        self._reheat_started.setdefault(block.block_id, self.sim.now)
        live = self._lifecycle_moves.get(block.block_id)
        if live is not None and not live.status.is_terminal:
            return
        self._enqueue_move("restore", block)

    # -- record routing ------------------------------------------------------------

    def _verified_ssd_holder(self, block_id: BlockId) -> Optional[int]:
        """The node whose SSD really holds ``block_id`` and whose slave
        can serve a copy from it -- None otherwise (soft state verified
        on use, like the memory directory)."""
        node_id = self.namenode.ssd_directory.get(block_id)
        if node_id is None or not self.namenode.is_available(node_id):
            return None
        dn = self.namenode.datanodes.get(node_id)
        if dn is None or not dn.has_ssd_replica(block_id):
            return None
        slave = self.slaves.get(node_id)
        if slave is None or not slave.alive:
            return None
        return node_id

    def _new_record(self, block: Block) -> MigrationRecord:
        """Route a job's migration along the right ladder edge: a block
        already cached on SSD is copied ssd->memory from its holder."""
        ssd_node = self._verified_ssd_holder(block.block_id)
        if ssd_node is not None:
            return MigrationRecord(
                block=block,
                requested_at=self.sim.now,
                source_tier="ssd",
                dest_tier="memory",
                target_node=ssd_node,
            )
        return super()._new_record(block)

    def _on_new_records(self, records: list[MigrationRecord]) -> None:
        # Archive checks run over the whole batch before any record is
        # routed: a restore they start is scheduled ahead of the
        # batch's SSD copies.
        routable: list[MigrationRecord] = []
        for record in records:
            block = record.block
            if block.block_id in self.namenode.archive_directory:
                # The restore owns this block's disk traffic; reads are
                # served from the archive meanwhile, and the restore
                # re-migrates once disk replicas exist if the block is
                # still referenced.
                self._note_reheat(block)
                self.discard(record, reason="archived")
                continue
            live = self._lifecycle_moves.get(block.block_id)
            if live is not None and not live.status.is_terminal:
                # A demote is mid-flight.  Starting a pull against the
                # same disk replica would violate per-disk
                # serialization; the demote re-checks the reference
                # after its archive write and aborts, leaving the block
                # on disk for the next promotion pass.
                self.discard(record, reason="lifecycle-move")
                continue
            routable.append(record)
        pool: list[MigrationRecord] = []
        for record in routable:
            # A job asking for memory supersedes any background cache
            # fill of the same block still in flight.
            tier_rec = self._tier_records.get(record.block_id)
            if tier_rec is not None and tier_rec.status in (
                MigrationStatus.PENDING,
                MigrationStatus.BOUND,
            ):
                self.discard(tier_rec, reason="superseded")
            if record.source_tier == "ssd":
                self._push_bind(record)
            else:
                pool.append(record)
        if pool:
            super()._on_new_records(pool)

    def _push_bind(self, record: MigrationRecord) -> None:
        """Bind an ssd-sourced promotion directly to the cache holder.

        Delayed binding buys nothing here: only one node has the SSD
        copy, so the targeting choice is forced, and the copy runs on
        the slave's separate SSD lane without disturbing disk work.
        """
        node_id = record.target_node
        assert node_id is not None
        record.mark_bound(node_id, self.sim.now)
        slave = self.slaves[node_id]
        slave.enqueue(record)
        self.binding_log.append(
            BindingEvent(
                time=self.sim.now,
                block_id=record.block_id,
                node_id=node_id,
                queue_depth_after=slave.ssd_queued_blocks,
            )
        )
        obs.emit(
            obs.BIND,
            self.sim.now,
            block=record.block_id,
            node=node_id,
            queue_depth=slave.ssd_queued_blocks,
        )

    def _on_record_discarded(self, record: MigrationRecord) -> None:
        super()._on_record_discarded(record)
        current = self._tier_records.get(record.block_id)
        if current is record:
            del self._tier_records[record.block_id]

    # -- completion and eviction ---------------------------------------------------

    def _register_ssd_copy(self, block_id: BlockId, node_id: int) -> None:
        """Register the block's (single) SSD copy.

        The directory holds one entry per block, but physical copies
        can outlive their entry: a demotion on another node overwrites
        the entry while the old holder still pins the bytes.  Dropping
        the previous holder's pin here keeps pin state and directory in
        lockstep -- an orphaned pin is both a leaked SSD budget and a
        future double-pin crash when a fill lands on that node again.
        """
        prev = self.namenode.ssd_directory.get(block_id)
        if prev is not None and prev != node_id:
            dn = self.namenode.datanodes.get(prev)
            if dn is not None:
                dn.unpin_block_ssd(block_id)
        self.namenode.record_ssd_replica(block_id, node_id)

    def on_migration_complete(
        self, record: MigrationRecord, node_id: int, duration: float
    ) -> None:
        if record.dest_tier == "ssd":
            self._tier_records.pop(record.block_id, None)
            self._register_ssd_copy(record.block_id, node_id)
            self._count_move(record.source_tier, "ssd", record.block.size)
            return
        super().on_migration_complete(record, node_id, duration)
        self._count_move(record.source_tier, "memory", record.block.size)

    def _evict_done_record(self, record: MigrationRecord) -> None:
        """Eviction with a middle rung: still-warm blocks step down to
        the SSD (write-back: the pin is immediate, the flash write is
        charged in the background); COLD blocks and blocks that already
        have an SSD copy fall through to the plain drop."""
        node_id = self.namenode.memory_directory.get(record.block_id)
        slave = self.slaves.get(node_id) if node_id is not None else None
        if (
            self.tier_config.demote_to_ssd
            and node_id is not None
            and self.namenode.is_available(node_id)
            # The demotion is work the node's slave performs; a slave
            # that crashed but is not yet flagged stale cannot write the
            # SSD copy -- pinning to its node would strand bytes that
            # staleness detection later orphans (directory dropped,
            # physical pin already past its crash-time cleanup).
            and slave is not None
            and slave.alive
        ):
            dn = self.namenode.datanodes[node_id]
            node = dn.node
            if (
                node.ssd is not None
                and not dn.has_ssd_replica(record.block_id)
                and self._verified_ssd_holder(record.block_id) is None
                and node.ssd.fits(record.block.size)
                and self.temperature.classify(record.block_id, self.sim.now)
                is not Temperature.COLD
            ):
                dn.unpin_block(record.block_id)
                self.namenode.drop_memory_replica(record.block_id)
                dn.pin_block_ssd(record.block)
                node.ssd.write(record.block.size, tag=f"demote:{record.block_id}")
                self._register_ssd_copy(record.block_id, node_id)
                self._count_move("memory", "ssd", record.block.size)
                slave.notify_memory_freed()
                record.mark_evicted()
                obs.emit(
                    obs.DEMOTE,
                    self.sim.now,
                    block=record.block_id,
                    node=node_id,
                    source="memory",
                    dest="ssd",
                )
                obs.emit(
                    obs.EVICTED, self.sim.now, block=record.block_id, node=node_id
                )
                return
        super()._evict_done_record(record)

    def on_slave_failed(self, node_id: int) -> None:
        """Abort the dead slave's archive moves and reap its lifecycle
        records; the directory entries for its SSD cache die with the
        base cleanup (``drop_node_memory_state`` covers both fast
        tiers).

        The archive *media* survives (fabric-attached), but a move
        reading the node's disk or writing through its accounting
        partition loses its driver; demotions are re-planned by the
        next archive pass, restores re-queued immediately (the block is
        still archived and still wanted).
        """
        for record in list(self._lifecycle_moves.values()):
            if record.status.is_terminal:
                continue
            if node_id not in (record.bound_node, record.target_node):
                continue
            restore = record.dest_tier == "disk"
            self._abort_move(record, "slave-failure")
            if restore and record.block_id in self.namenode.archive_directory:
                self._enqueue_move("restore", record.block)
        for record in list(self._tier_records.values()):
            if (
                record.status in (MigrationStatus.BOUND, MigrationStatus.ACTIVE)
                and record.bound_node == node_id
            ):
                self.discard(record, reason="slave-failure")
        super().on_slave_failed(node_id)

    # -- the lifecycle pass ----------------------------------------------------------

    def _block_index(self) -> dict[BlockId, Block]:
        return {
            block.block_id: block
            for entry in self.namenode.namespace.files()
            for block in entry.blocks
        }

    def _drop_unpinned_ssd_entry(self, block_id: BlockId) -> None:
        """Forget an SSD directory entry whose holder no longer pins
        the block.  A slave crash unpins its node's SSD, but only a
        restart reaps the entries (``on_slave_failed``); a slave that
        never comes back would otherwise leave them for good."""
        node_id = self.namenode.ssd_directory.get(block_id)
        if node_id is not None and not self.namenode.datanodes[
            node_id
        ].has_ssd_replica(block_id):
            self.namenode.drop_ssd_replica(block_id)

    def _promotion_candidate(
        self, block: Block
    ) -> Optional[tuple[int, "DyrsSlave"]]:
        """A representative replica holder for policy evaluation:
        Algorithm 1 still picks the actual target among all holders."""
        for nid in sorted(block.replica_nodes):
            if not self.namenode.accepts_new_replicas(nid):
                continue
            slave = self.slaves.get(nid)
            if slave is None or not slave.alive or slave.node.ssd is None:
                continue
            return nid, slave
        return None

    def _placement_context(
        self, block: Block, resident: str, slave: "DyrsSlave"
    ) -> PlacementContext:
        return PlacementContext(
            block_size=block.size,
            temperature=self.temperature.classify(block.block_id, self.sim.now),
            access_rate=self.temperature.access_rate(block.block_id),
            resident_tier=resident,
            read_seconds=rung_read_seconds(slave.node, block.size),
            move_seconds_per_byte=slave.estimator.seconds_per_byte,
        )

    def _pass_blocked(self, block_id: BlockId) -> bool:
        """A live move (job migration, cache fill or archive move)
        already owns this block's disk traffic; the lifecycle must not
        start another."""
        for live in (
            self._records.get(block_id),
            self._tier_records.get(block_id),
            self._lifecycle_moves.get(block_id),
        ):
            if live is not None and not live.status.is_terminal:
                return True
        return False

    def lifecycle_pass(self) -> dict[str, int]:
        """One promotion/expiry scan over the tracked blocks, then the
        archive pass.

        Blocks with a live move are left alone; memory residency is
        governed by reference lists, not by this pass.  Returns
        ``{"promoted": n, "demoted": n, "archived": n}`` counts of
        *initiated* actions (``archived`` is 0 without an archive rung).
        """
        self.lifecycle_passes += 1
        now = self.sim.now
        blocks = self._block_index()
        actions = {"promoted": 0, "demoted": 0}
        for block_id, temp in self.temperature.classify_all(now).items():
            self._drop_unpinned_ssd_entry(block_id)
            block = blocks.get(block_id)
            if block is None:
                continue
            if self._pass_blocked(block_id):
                continue
            mem_node = self.namenode.memory_directory.get(block_id)
            if mem_node is not None and self.namenode.datanodes[
                mem_node
            ].has_memory_replica(block_id):
                continue
            ssd_node = self._verified_ssd_holder(block_id)
            if ssd_node is not None:
                slave = self.slaves[ssd_node]
                target = self.tier_policy.target_tier(
                    self._placement_context(block, "ssd", slave)
                )
                if target == "disk":
                    # Expired: the disk replicas are the ground truth,
                    # so dropping the cache entry is free.
                    self.namenode.datanodes[ssd_node].unpin_block_ssd(block_id)
                    self.namenode.drop_ssd_replica(block_id)
                    self._count_move("ssd", "disk", block.size)
                    obs.emit(
                        obs.DEMOTE,
                        now,
                        block=block_id,
                        node=ssd_node,
                        source="ssd",
                        dest="disk",
                    )
                    actions["demoted"] += 1
                # target "memory" is reference-driven; "ssd" is a keep.
                continue
            if not self.tier_config.promote_warm_to_ssd:
                continue
            candidate = self._promotion_candidate(block)
            if candidate is None:
                continue
            _, slave = candidate
            target = self.tier_policy.target_tier(
                self._placement_context(block, "disk", slave)
            )
            if target == "disk":
                continue
            # Cap background promotions at the SSD rung: RAM placement
            # without references would be evicted on arrival (§III-C3).
            record = MigrationRecord(
                block=block,
                requested_at=now,
                source_tier="disk",
                dest_tier="ssd",
            )
            self._tier_records[block_id] = record
            self.tier_record_log.append(record)
            self._pending[block_id] = record
            obs.emit(obs.PENDING, now, block=block_id)
            actions["promoted"] += 1
        if actions["promoted"]:
            self.retarget()
        actions["archived"] = self.archive_pass()
        return actions

    def _lifecycle_loop(self):
        try:
            while True:
                yield self.sim.timeout(self.tier_config.lifecycle_interval)
                self.lifecycle_pass()
        except Interrupt:
            return

    # -- the archive pass ----------------------------------------------------

    def archive_pass(self) -> int:
        """Select blocks cold past ``archive_age`` for demotion;
        returns the number of moves initiated."""
        if not self.alive or not self._cluster_has_archive:
            return 0
        now = self.sim.now
        blocks = self._block_index()
        started = 0
        for block_id, temp in self.temperature.classify_all(now).items():
            if temp is not Temperature.COLD:
                continue
            if self.temperature.score(block_id, now) < self.tier_config.archive_age:
                continue
            block = blocks.get(block_id)
            if block is None or self._archive_blocked(block):
                continue
            self._enqueue_move("demote", block)
            started += 1
        return started

    def _archive_blocked(self, block: Block) -> bool:
        """Reasons *not* to archive right now (re-examined next pass)."""
        block_id = block.block_id
        if block_id in self.namenode.archive_directory:
            return True
        if self.tracker.is_referenced(block_id):
            return True
        if self._pass_blocked(block_id):
            return True
        # Working-tier copies must drain first (the tier lifecycle
        # expires them); archiving under a fast copy would let a read
        # bypass the move.
        if self.namenode.memory_directory.get(block_id) is not None:
            return True
        if self._verified_ssd_holder(block_id) is not None:
            return True
        if not self.namenode.healthy_replicas(block):
            return True
        return False

    # -- the serialized mover ------------------------------------------------

    def _enqueue_move(self, kind: str, block: Block) -> None:
        if not self.alive:
            return
        record = MigrationRecord(
            block=block,
            requested_at=self.sim.now,
            source_tier="disk" if kind == "demote" else "archive",
            dest_tier="archive" if kind == "demote" else "disk",
        )
        self._lifecycle_moves[block.block_id] = record
        self.lifecycle_record_log.append(record)
        self._move_queue.append((kind, record))
        self._kick_mover()

    def _kick_mover(self) -> None:
        if self._mover_proc is None or not self._mover_proc.is_alive:
            self._mover_proc = self.sim.process(
                self._drain_moves(), name="lifecycle-mover"
            )

    def _drain_moves(self):
        """One worker, strictly serialized: archival media serve one
        operation at a time (and determinism wants one interleaving)."""
        try:
            while self._move_queue:
                kind, record = self._move_queue.popleft()
                if record.status.is_terminal:
                    continue
                if kind == "demote":
                    yield from self._demote(record)
                else:
                    yield from self._restore(record)
        except Interrupt:
            return

    def _abort_move(self, record: MigrationRecord, reason: str) -> None:
        prior = record.status
        record.mark_discarded(self.sim.now, reason)
        obs.emit(
            obs.TIER_MOVE_ABORT,
            self.sim.now,
            block=record.block_id,
            source=record.source_tier,
            dest=record.dest_tier,
            reason=reason,
            status=prior.value,
        )
        current = self._lifecycle_moves.get(record.block_id)
        if current is record:
            del self._lifecycle_moves[record.block_id]

    def _finish_move(self, record: MigrationRecord) -> None:
        record.mark_done(self.sim.now)
        current = self._lifecycle_moves.get(record.block_id)
        if current is record:
            del self._lifecycle_moves[record.block_id]

    # -- demotion: disk -> archive -------------------------------------------

    def _archive_owner(self, preferred: Optional[int], block: Block) -> Optional[int]:
        """The node whose archive partition will account the block:
        the source node when possible, else the lowest-id fitting one
        (ownership is bookkeeping -- the media is fabric-attached)."""

        def fits(node_id: int) -> bool:
            dn = self.namenode.datanodes.get(node_id)
            return (
                dn is not None
                and dn.node.archive is not None
                and dn.node.archive.fits(block.size)
            )

        if preferred is not None and fits(preferred):
            return preferred
        for node_id in sorted(self.namenode.datanodes):
            if fits(node_id):
                return node_id
        return None

    def _demote(self, record: MigrationRecord):
        block = record.block
        block_id = block.block_id
        namenode = self.namenode
        sources = [
            n
            for n in sorted(namenode.healthy_replicas(block))
            if namenode.datanodes[n].has_disk_replica(block_id)
        ]
        source = sources[0] if sources else None
        owner = self._archive_owner(source, block)
        if source is None or owner is None:
            self._abort_move(record, "no-source")
            return
        archive: "Archive" = namenode.datanodes[owner].node.archive
        record.target_node = source
        record.mark_bound(owner, self.sim.now)
        record.mark_active(self.sim.now)
        # Fixed per-operation archival setup cost (media mount / object
        # store round trip), then the disk read and the fabric write.
        yield self.sim.timeout(archive.spec.latency)
        if record.status.is_terminal:
            return
        yield namenode.datanodes[source].copy_block(
            block, source_tier="disk", tag=f"archive:{block_id}"
        )
        if record.status.is_terminal:
            return
        # Digest of the source bytes, recorded before the media write;
        # verification below models the post-write read-back.
        checksum = self.integrity.record(block)
        yield archive.write(block.size, tag=f"archive:{block_id}")
        if record.status.is_terminal:
            return
        # The block may have re-heated while the bytes were in flight:
        # archiving it now would immediately bounce back.
        if self.tracker.is_referenced(block_id) or (
            self.temperature.classify(block_id, self.sim.now)
            is not Temperature.COLD
        ):
            self.integrity.forget(block_id)
            self._abort_move(record, "reheated")
            return
        if not self.integrity.verify(block):
            # Read-back mismatch: discard the bad archive copy and keep
            # every disk replica -- verify-before-delete is the point.
            self.corrupt_moves += 1
            if obs.enabled():
                obs.emit(
                    obs.TIER_MOVE_CORRUPT,
                    self.sim.now,
                    block=block_id,
                    source="disk",
                    dest="archive",
                    node=owner,
                    nbytes=block.size,
                    resident=self._resident_tiers(block),
                )
            self.integrity.forget(block_id)
            self._abort_move(record, "corrupt")
            return
        if not archive.fits(block.size):
            self.integrity.forget(block_id)
            self._abort_move(record, "archive-full")
            return
        replicas_before = len(block.replica_nodes)
        namenode.datanodes[owner].pin_block_archive(block)
        namenode.record_archive_replica(block_id, owner)
        keep = self.replication_scheduler.lower_for_archive(block)
        kept = sources[:keep]
        for node_id in block.replica_nodes:
            if node_id not in kept:
                namenode.datanodes[node_id].remove_disk_replica(block_id)
        block.replica_nodes = tuple(kept)
        self._finish_move(record)
        self.archived_blocks += 1
        self._count_move("disk", "archive", block.size)
        self._emit_tier_move(
            block,
            source="disk",
            dest="archive",
            node=owner,
            checksum=checksum,
            replicas_before=replicas_before,
            replicas_after=len(kept) + 1,
            target_replicas=keep + 1,
        )

    # -- restoration: archive -> disk ----------------------------------------

    def _restore(self, record: MigrationRecord):
        block = record.block
        block_id = block.block_id
        namenode = self.namenode
        owner = namenode.archive_directory.get(block_id)
        owner_dn = namenode.datanodes.get(owner) if owner is not None else None
        if owner_dn is None or not owner_dn.has_archive_replica(block_id):
            self._abort_move(record, "lost")
            return
        # Verify *before* reading back or deleting anything; a corrupt
        # archive copy is kept (the surviving disk replicas, if any,
        # stay authoritative) and flagged for the operator.
        if not self.integrity.verify(block):
            self.corrupt_moves += 1
            if obs.enabled():
                obs.emit(
                    obs.TIER_MOVE_CORRUPT,
                    self.sim.now,
                    block=block_id,
                    source="archive",
                    dest="disk",
                    node=owner,
                    nbytes=block.size,
                    resident=self._resident_tiers(block),
                )
            self._abort_move(record, "corrupt")
            return
        targets = self.replication_scheduler.restore_targets(block)
        new_targets = [
            n
            for n in targets
            if not namenode.datanodes[n].has_disk_replica(block_id)
        ]
        if not targets:
            self._abort_move(record, "no-target")
            return
        archive: "Archive" = owner_dn.node.archive
        replicas_before = len(block.replica_nodes) + 1
        record.target_node = owner
        record.mark_bound(targets[0], self.sim.now)
        record.mark_active(self.sim.now)
        yield self.sim.timeout(archive.spec.latency)
        if record.status.is_terminal:
            return
        if new_targets:
            transfers = [
                owner_dn.copy_block(
                    block, source_tier="archive", tag=f"restore:{block_id}"
                )
            ]
            for node_id in new_targets:
                node = namenode.cluster.node(node_id)
                transfers.append(
                    node.nic.receive(block.size, tag=f"restore:{block_id}")
                )
                transfers.append(
                    node.disk.write(block.size, tag=f"restore:{block_id}")
                )
            yield AllOf(self.sim, transfers)
            if record.status.is_terminal:
                return
        for node_id in new_targets:
            namenode.datanodes[node_id].add_disk_replica(block)
        block.replica_nodes = tuple(
            sorted(set(block.replica_nodes) | set(new_targets))
        )
        self.replication_scheduler.restore_factor(block)
        checksum = self.integrity.get(block_id)
        owner_dn.unpin_block_archive(block_id)
        namenode.drop_archive_replica(block_id)
        self.integrity.forget(block_id)
        self._finish_move(record)
        self.restored_blocks += 1
        self._count_move("archive", "disk", block.size)
        self._emit_tier_move(
            block,
            source="archive",
            dest="disk",
            node=owner,
            checksum=checksum,
            replicas_before=replicas_before,
            replicas_after=len(block.replica_nodes),
            target_replicas=namenode.replication_target(block),
        )
        started = self._reheat_started.pop(block_id, None)
        if started is not None:
            self.reheat_latencies.append(self.sim.now - started)
        if self.tracker.is_referenced(block_id):
            # Re-replicated and wanted: promote through the normal
            # bandwidth-aware machinery.
            self._remigrate(block)

    # -- trace plumbing ------------------------------------------------------

    def _resident_tiers(self, block: Block) -> list[str]:
        """Authoritative post-move residency, from NameNode state."""
        block_id = block.block_id
        namenode = self.namenode
        resident = set()
        if block.replica_nodes:
            resident.add("disk")
        mem = namenode.memory_directory.get(block_id)
        if mem is not None and namenode.datanodes[mem].has_memory_replica(
            block_id
        ):
            resident.add("memory")
        ssd = namenode.ssd_directory.get(block_id)
        if ssd is not None and namenode.datanodes[ssd].has_ssd_replica(block_id):
            resident.add("ssd")
        arc = namenode.archive_directory.get(block_id)
        if arc is not None and namenode.datanodes[arc].has_archive_replica(
            block_id
        ):
            resident.add("archive")
        return sorted(resident)

    def _emit_tier_move(
        self,
        block: Block,
        source: str,
        dest: str,
        node: int,
        checksum: Optional[int],
        replicas_before: int,
        replicas_after: int,
        target_replicas: int,
    ) -> None:
        if obs.enabled():
            obs.emit(
                obs.TIER_MOVE,
                self.sim.now,
                block=block.block_id,
                source=source,
                dest=dest,
                node=node,
                nbytes=block.size,
                checksum=f"{checksum:08x}" if checksum is not None else None,
                replicas_before=replicas_before,
                replicas_after=replicas_after,
                target_replicas=target_replicas,
                resident=self._resident_tiers(block),
            )
