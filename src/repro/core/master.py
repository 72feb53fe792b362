"""The DYRS master: delayed binding + bandwidth-aware targeting.

The master keeps the list of **pending migrations** and runs
Algorithm 1 over it in a periodic *retargeting* pass that is off the
heartbeat critical path (§III-D).  Binding happens lazily, when a slave
pulls: the master hands over only blocks whose current target is that
slave, and "only assign[s] enough migrations so that the slave does not
go idle before the next time it queries for more work" (§III-A2).

Each heartbeat tick refreshes every reporting slave's ``(estimate,
queued)`` pair, which the retargeting pass consumes as
:class:`~repro.core.targeting.SlaveLoad`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.base import MigrationMaster
from repro.core.pending import PendingPool, bind_from_pool
from repro.core.policies import FifoPolicy, MigrationPolicy
from repro.core.records import BindingEvent, MigrationRecord
from repro.core.targeting import SlaveLoad, compute_targets
from repro.dfs.namespace import DEFAULT_BLOCK_SIZE
from repro.obs import trace as obs
from repro.sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.slave import DyrsSlave
    from repro.dfs.heartbeat import HeartbeatService
    from repro.dfs.namenode import HeartbeatReport, NameNode

__all__ = ["DyrsMaster", "DyrsConfig"]


@dataclass(frozen=True)
class DyrsConfig:
    """Tunables shared by the master and its slaves.

    Attributes
    ----------
    ewma_alpha:
        Estimator smoothing weight (§IV-A).
    retarget_interval:
        Seconds between Algorithm 1 passes.  "The cluster administrator
        can control the rate of updates in order to limit their load"
        (§III-D).
    heartbeat_interval:
        Matches the DFS heartbeat period; slaves also poll for work and
        re-check memory at this cadence.
    queue_depth:
        Local queue target; ``None`` derives it from the heartbeat
        interval and the best-case block migration time (§III-B).
    rpc_latency:
        One-way master<->slave RPC delay; the local queue exists to
        cover exactly this gap.
    memory_limit:
        Per-node hard cap on migrated bytes (``None`` = all of RAM),
        §IV-A1.
    gc_threshold:
        Memory fraction above which a slave triggers the inactive-job
        sweep (§III-C3).
    reference_block_size:
        Size used to convert per-byte estimates to per-block times in
        Algorithm 1's backlog initialization.
    estimator_refresh:
        Whether slaves apply the in-progress estimator update of
        §IV-A.  The paper's early prototype lacked it ("we only
        updated the estimate upon the completion of a migration which
        resulted in a slow update", §V-F2); the ablation bench flips
        this off to reproduce that comparison.
    pull_service_cost:
        Master-side service time, per pending record, that one pull
        leg spends inside the master before it can answer (scanning /
        locking the pending map).  0 (the default) reproduces the
        paper's instant master and changes nothing; the shard sweep
        sets it to expose how partitioning the pending map shrinks the
        pull critical section.
    idle_pull:
        How an idle slave (empty local queue) learns about new work.
        ``"poll"`` (the default) is the paper's periodic query: re-ask
        the master every heartbeat interval.  ``"notify"`` parks the
        idle slave at the master, which wakes it when a retarget pass
        targets the node -- at 1,000 mostly-idle nodes the poll mode
        alone generates ~500 RPC events per simulated second, so scale
        runs switch to notify.  Work arrival timing differs (a
        notified slave pulls immediately instead of at its next poll
        tick), so this is a modeled protocol change, not an
        equivalence-preserving fast path.
    shard_pull_window:
        Outstanding pull legs a slave may hold per master endpoint
        (the flat master is one endpoint, a federation one per live
        shard).  ``None`` (the default) resolves to the scheme default
        when built through :class:`repro.system.SystemConfig`
        (``max(2, shards)`` for ``dyrs-sharded-async``, 1 for every
        other scheme); standalone it behaves as 1.  Legs are detached, so
        one slow or delayed shard endpoint never stalls the legs to
        the healthy shards at any window; a wider window lets a node
        keep several legs in flight to the same shard.
    shard_dead_after:
        Seconds a crashed shard may stay down before the coordinator
        declares it permanently dead (``None`` = never).  Declaration
        re-homes the shard's routing slice under the rendezvous
        router; block/rack routing keeps discarding requests routed to
        the dead shard (today's semantics) but still emits the
        ``shard_dead`` trace event.
    """

    ewma_alpha: float = 0.4
    retarget_interval: float = 0.5
    heartbeat_interval: float = 2.0
    queue_depth: Optional[int] = None
    rpc_latency: float = 0.05
    memory_limit: Optional[float] = None
    gc_threshold: float = 0.9
    reference_block_size: float = DEFAULT_BLOCK_SIZE
    estimator_refresh: bool = True
    pull_service_cost: float = 0.0
    idle_pull: str = "poll"
    shard_pull_window: Optional[int] = None
    shard_dead_after: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.retarget_interval <= 0:
            raise ValueError(
                f"retarget_interval must be positive, got {self.retarget_interval}"
            )
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.rpc_latency < 0:
            raise ValueError(f"rpc_latency must be >= 0, got {self.rpc_latency}")
        if not 0 < self.gc_threshold <= 1:
            raise ValueError(
                f"gc_threshold must be in (0, 1], got {self.gc_threshold}"
            )
        if self.reference_block_size <= 0:
            raise ValueError(
                f"reference_block_size must be positive, "
                f"got {self.reference_block_size}"
            )
        if self.pull_service_cost < 0:
            raise ValueError(
                f"pull_service_cost must be >= 0, got {self.pull_service_cost}"
            )
        if self.idle_pull not in ("poll", "notify"):
            raise ValueError(
                f"idle_pull must be 'poll' or 'notify', got {self.idle_pull!r}"
            )
        if self.shard_pull_window is not None and self.shard_pull_window < 1:
            raise ValueError(
                f"shard_pull_window must be >= 1 or None, "
                f"got {self.shard_pull_window}"
            )
        if self.shard_dead_after is not None and self.shard_dead_after <= 0:
            raise ValueError(
                f"shard_dead_after must be positive or None, "
                f"got {self.shard_dead_after}"
            )


class DyrsMaster(MigrationMaster):
    """Bandwidth-aware migration master (the paper's contribution)."""

    def __init__(
        self,
        namenode: "NameNode",
        config: Optional[DyrsConfig] = None,
        policy: Optional[MigrationPolicy] = None,
    ) -> None:
        super().__init__(namenode)
        self.config = config or DyrsConfig()
        self.policy = policy or FifoPolicy()
        #: Unbound migrations, keyed by block id (insertion ordered),
        #: with a per-target index rebuilt on every retarget pass so a
        #: pull RPC only orders records already targeted at the asker.
        self._pending = PendingPool()
        #: Latest per-slave load from heartbeats.
        self._loads: dict[int, SlaveLoad] = {}
        #: When each slave last reported via heartbeat.  A slave whose
        #: *process* died while its node keeps heartbeating stops
        #: reporting; staleness here is how the master notices and
        #: reclaims its bound work (§III-C2's "missed heartbeats" at
        #: process granularity).
        self._last_slave_report: dict[int, float] = {}
        self.binding_log: list[BindingEvent] = []
        self.retarget_passes = 0
        self._retarget_proc: Optional[Process] = None

    # -- wiring ------------------------------------------------------------------

    def register_slave(self, slave: "DyrsSlave") -> None:
        super().register_slave(slave)
        # Seed load state from the slave's prior so targeting works
        # before the first heartbeat arrives.
        self._loads[slave.node_id] = SlaveLoad(
            seconds_per_byte=slave.estimator.seconds_per_byte,
            queued_blocks=slave.queued_blocks,
        )
        self._last_slave_report[slave.node_id] = self.sim.now

    def attach_heartbeats(self, service: "HeartbeatService") -> None:
        """Observe every heartbeat tick of ``service``'s NameNode."""
        service.namenode.add_heartbeat_observer(self.on_heartbeat)

    def on_heartbeat(self, report: "HeartbeatReport") -> None:
        """Harvest ``(estimate, queued)`` from every live slave whose
        node reported this tick (§III-D).

        A slave whose process is down reports nothing, so its
        ``_last_slave_report`` goes stale.  The stored
        :class:`SlaveLoad` is replaced only when the reported pair
        differs from it: the slave's own count still overwrites any
        grant-adjusted view (``_record_grant``), and an idle slave
        keeps the same object tick after tick.
        """
        time = report.time
        slaves = self.slaves
        loads = self._loads
        last_report = self._last_slave_report
        for node_id in report.node_ids:
            slave = slaves.get(node_id)
            if slave is None or not slave.alive:
                continue
            spb, queued = slave.heartbeat_load()
            last_report[node_id] = time
            load = loads.get(node_id)
            if (
                load is None
                or load.seconds_per_byte != spb
                or load.queued_blocks != queued
            ):
                loads[node_id] = SlaveLoad(seconds_per_byte=spb, queued_blocks=queued)

    def start(self) -> None:
        """Launch the periodic retargeting thread (idempotent)."""
        if self._retarget_proc is not None and self._retarget_proc.is_alive:
            return
        self._retarget_proc = self.sim.process(
            self._retarget_loop(), name="dyrs-retarget"
        )

    def stop(self) -> None:
        """Stop the retargeting thread."""
        if self._retarget_proc is not None and self._retarget_proc.is_alive:
            self._retarget_proc.interrupt(cause="stop")
        self._retarget_proc = None

    def crash(self) -> None:
        """Master process failure (§III-C1): all soft state is lost.

        Pending and bound-but-unfinished work is forgotten -- affected
        jobs simply read from disk.  Slaves keep their buffers and the
        memory directory is rebuilt lazily as slaves report/evict.
        """
        if obs.enabled():
            obs.emit(obs.MASTER_CRASH, self.sim.now, pending_lost=self.pending_count)
        self.shutdown(reason="master-crash")
        self._loads.clear()
        self.namenode.memory_directory.clear()

    def shutdown(self, reason: str) -> None:
        """Tear down the binding half: stop retargeting, refuse new
        work, and drive every still-pending record to a terminal state.

        Shared by :meth:`crash` (reason ``master-crash``) and standby
        failover (reason ``failover``); lifecycle masters extend it to
        also abort their in-flight tier moves, so *every* teardown path
        -- not just crash -- leaves no record stranded.
        """
        self.stop()
        self.alive = False
        # The records themselves must still reach a terminal state (the
        # chaos liveness invariant); "forgotten" means discarded, not
        # left PENDING in a dead process forever.
        self._discard_all_pending(reason)

    def _discard_all_pending(self, reason: str) -> None:
        for record in list(self._pending.values()):
            self.discard(record, reason=reason)
        self._pending.clear()

    def recover(self) -> None:
        """Restart after :meth:`crash`: re-learn slave state.

        The rebuilt directory comes from the slaves' actual pin state
        ("its state eventually becomes consistent as slaves clean up
        their buffers", §III-C1).
        """
        self.alive = True
        for slave in self.slaves.values():
            self._loads[slave.node_id] = SlaveLoad(
                seconds_per_byte=slave.estimator.seconds_per_byte,
                queued_blocks=slave.queued_blocks,
            )
            # Grant slaves a fresh grace period: stale report times from
            # before the outage must not trigger an instant reclaim.
            self._last_slave_report[slave.node_id] = self.sim.now
            for block_id in slave.datanode.memory_block_ids():
                self.namenode.record_memory_replica(block_id, slave.node_id)
        if obs.enabled():
            obs.emit(
                obs.MASTER_RECOVER,
                self.sim.now,
                directory_size=len(self.namenode.memory_directory),
            )
        self.start()

    # -- pending management -------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Unbound migrations at the master."""
        return len(self._pending)

    def _on_new_records(self, records: list[MigrationRecord]) -> None:
        for record in records:
            self._pending[record.block_id] = record
        # Immediate pass so pulls arriving before the next periodic
        # tick see fresh targets (the pass is cheap, §III-D).
        self.retarget()

    def _on_record_discarded(self, record: MigrationRecord) -> None:
        self._pending.pop(record.block_id, None)

    # -- Algorithm 1 ---------------------------------------------------------------

    def _eligible_loads(self) -> dict[int, SlaveLoad]:
        """Slaves that are up and whose node may take new work --
        available and not draining (a decommissioning node should shed
        load, not buffer fresh migrations)."""
        return {
            node_id: load
            for node_id, load in self._loads.items()
            if node_id in self.slaves
            and self.slaves[node_id].alive
            and self.namenode.accepts_new_replicas(node_id)
        }

    def retarget(self) -> dict[int, int]:
        """One Algorithm 1 pass over the pending list."""
        self.retarget_passes += 1
        if not self._pending:
            # Algorithm 1 over an empty list computes nothing, moves
            # nothing, and wakes nobody -- skipping it is observably
            # identical and saves the O(nodes) eligible-loads walk on
            # every idle periodic tick.
            return {}
        ordered = self.policy.order(list(self._pending.values()))
        targets = compute_targets(
            ordered,
            self._eligible_loads(),
            reference_block_size=self.config.reference_block_size,
        )
        # Targets moved; rebuild the per-target pull index.  This is
        # the only code path that changes ``target_node``, so the index
        # is exact until the next pass.
        self._pending.reindex()
        self._wake_parked()
        return targets

    def _targeted_nodes(self) -> frozenset[int]:
        """Nodes some pending record currently targets."""
        return self._pending.targeted_nodes()

    def _wake_parked(self) -> None:
        """Wake parked idle slaves whose node gained a target
        (``idle_pull="notify"``; a no-op in the paper's poll mode,
        where nothing ever parks)."""
        if not self._parked:
            return
        targeted = self._targeted_nodes()
        if not targeted:
            return
        for node_id in sorted(self._parked.keys() & targeted):
            signal = self._parked.pop(node_id)
            if not signal.triggered:
                signal.succeed()

    def reclaim_unavailable(self) -> int:
        """Requeue work bound to slaves the NameNode considers dead.

        Covers whole-server failures where no replacement process ever
        registers: the missed-heartbeat detector flags the node and the
        next retarget tick pulls its unfinished bindings back
        (§III-C2).  Also covers *process* deaths on a live node: the
        node keeps heartbeating (so it stays available) but a dead
        slave reports no load, so its entry in ``_last_slave_report``
        goes stale and its bound work is reclaimed here.  Returns the
        number of records reclaimed.
        """
        stale_after = (
            self.namenode.heartbeat_interval * self.namenode.heartbeat_miss_limit
        )
        # Only nodes that actually hold bound work are checked, and only
        # an unavailable/stale node's own bucket is walked -- O(nodes
        # with work + records reclaimed), not O(all records ever
        # migrated) per retarget tick.
        now = self.sim.now
        victims: list[MigrationRecord] = []
        for node_id in list(self._inflight_by_node):
            node_dead = not self.namenode.is_available(node_id)
            report_stale = (
                now - self._last_slave_report.get(node_id, now) > stale_after
            )
            if node_dead or report_stale:
                victims.extend(self._inflight_by_node[node_id].values())
        seq = self._arrival_seq
        victims.sort(key=lambda r: seq[r.block_id])
        for record in victims:
            self._requeue_after_failure(record)
        return len(victims)

    def _retarget_loop(self):
        try:
            while True:
                yield self.sim.timeout(self.config.retarget_interval)
                self.reclaim_unavailable()
                if self.pending_count:
                    self.retarget()
        except Interrupt:
            return

    # -- binding (the pull protocol) ---------------------------------------------------

    def request_work(self, node_id: int, max_blocks: int) -> list[MigrationRecord]:
        """Bind up to ``max_blocks`` pending migrations targeted at
        ``node_id``.

        Only blocks whose *current target* is the asking slave are
        handed out -- a slow slave whose targets all moved elsewhere
        gets nothing and stays idle, which is the straggler-avoidance
        behaviour of §III-A2 / Fig 10.  Selection runs over the
        per-target index (O(granted), not O(pending)); policies that
        are not subset-stable fall back to the legacy full scan inside
        :func:`~repro.core.pending.bind_from_pool`.
        """
        granted = bind_from_pool(
            self._pending, self.policy, node_id, max_blocks, self.sim.now
        )
        if granted:
            self._record_grant(node_id, granted)
        return granted

    def pull_service_seconds(self, shard_id: int) -> float:
        """Service time one pull leg spends inside this master: linear
        in the pending map the leg must scan/lock (see
        ``DyrsConfig.pull_service_cost``; 0 keeps the paper's instant
        master)."""
        cost = self.config.pull_service_cost
        if not cost:
            return 0.0
        return cost * len(self._pending)

    def _record_grant(self, node_id: int, granted: list[MigrationRecord]) -> None:
        """Log bindings and fold the grant into our load view.

        The accounting half of the pull protocol, shared with the
        shard coordinator so a sharded grant is logged byte-identically
        to a flat one.  Empty grants are a strict no-op: no binding
        entries, no trace emits, no load update (callers guard too, but
        a second line of defense keeps every future call site honest).
        """
        if not granted:
            return
        slave = self.slaves[node_id]
        # Depth grows one binding at a time: record i of this grant
        # lands on top of the slave's queue plus the i records bound
        # just before it (not a uniform base + len(granted)).
        base = slave.queued_blocks
        for i, record in enumerate(granted):
            depth = base + i + 1
            self.binding_log.append(
                BindingEvent(
                    time=self.sim.now,
                    block_id=record.block_id,
                    node_id=node_id,
                    queue_depth_after=depth,
                )
            )
            obs.emit(
                obs.BIND,
                self.sim.now,
                block=record.block_id,
                node=node_id,
                queue_depth=depth,
            )
        # Granting work changes the slave's backlog; fold that into
        # our view immediately rather than waiting a heartbeat.
        load = self._loads[node_id]
        self._loads[node_id] = SlaveLoad(
            seconds_per_byte=load.seconds_per_byte,
            queued_blocks=load.queued_blocks + len(granted),
        )
