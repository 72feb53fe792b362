"""The DYRS master: delayed binding + bandwidth-aware targeting.

The master keeps the list of **pending migrations** and runs
Algorithm 1 over it in a periodic *retargeting* pass that is off the
heartbeat critical path (§III-D).  Binding happens lazily, when a slave
pulls: the master hands over only blocks whose current target is that
slave, and "only assign[s] enough migrations so that the slave does not
go idle before the next time it queries for more work" (§III-A2).

Each heartbeat tick stamps every reporting live slave and re-reads
the ``(estimate, queued)`` pair of those whose pair may have moved --
the slaves that told the master they changed since their last read,
and those with a copy in flight, whose §IV-A refresh runs at every
tick.  The retargeting pass consumes the pairs as
:class:`~repro.core.targeting.SlaveLoad` through a per-pass view that
decides a node's eligibility when the pass first looks it up.  Both
therefore cost what changed or what a pass reads, not the cluster
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.base import MigrationMaster
from repro.core.pending import PendingPool, bind_from_pool
from repro.core.policies import FifoPolicy, MigrationPolicy
from repro.core.records import BindingEvent, MigrationRecord
from repro.core.targeting import SlaveLoad, compute_targets
from repro.obs import trace as obs
from repro.sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.slave import DyrsSlave
    from repro.dfs.heartbeat import HeartbeatService
    from repro.dfs.namenode import HeartbeatReport, NameNode

__all__ = ["DyrsMaster", "DyrsConfig"]

#: Seconds between Algorithm 1 passes.  "The cluster administrator can
#: control the rate of updates in order to limit their load" (§III-D).
RETARGET_INTERVAL = 0.5


@dataclass(frozen=True)
class DyrsConfig:
    """Tunables shared by the master and its slaves.

    The heartbeat interval and the block size are the DFS's own: the
    slaves, Algorithm 1 and the shard coordinator read them from the
    :class:`~repro.dfs.namenode.NameNode`.

    Attributes
    ----------
    queue_depth:
        Local queue target; ``None`` derives it from the heartbeat
        interval and the best-case block migration time (§III-B).
    memory_limit:
        Per-node hard cap on migrated bytes (``None`` = all of RAM),
        §IV-A1.
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
        the master every heartbeat interval.  Against an instant
        master the simulator runs only the re-polls that could bind:
        an idle slave whose master targets nothing at it parks its
        re-poll chain, which is rebuilt exactly before anything could
        change that (:mod:`repro.core.slave`), so idle polling costs
        no engine events.  ``"notify"`` parks the idle slave at the
        master with no timer: every retarget pass wakes each parked
        node it targets, and a standby's promotion wakes the slaves
        parked at the dead primary.  A woken slave pulls at once, not
        at its next poll tick: a modeled protocol change, not an
        equivalence-preserving fast path.
    shard_pull_window:
        Outstanding pull legs a slave may hold per master endpoint
        (the flat master is one endpoint, a federation one per live
        shard).  :class:`repro.system.SystemConfig` accepts a window
        above 1 only for a federation (``shards`` set).  Legs are
        detached, so one slow or delayed shard endpoint never stalls
        the legs to the healthy shards at any window; a wider window
        lets a node keep several legs in flight to the same shard.
    """

    queue_depth: Optional[int] = None
    memory_limit: Optional[float] = None
    estimator_refresh: bool = True
    pull_service_cost: float = 0.0
    idle_pull: str = "poll"
    shard_pull_window: int = 1

    def __post_init__(self) -> None:
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.pull_service_cost < 0:
            raise ValueError(
                f"pull_service_cost must be >= 0, got {self.pull_service_cost}"
            )
        if self.idle_pull not in ("poll", "notify"):
            raise ValueError(
                f"idle_pull must be 'poll' or 'notify', got {self.idle_pull!r}"
            )
        if self.shard_pull_window < 1:
            raise ValueError(
                f"shard_pull_window must be >= 1, got {self.shard_pull_window}"
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
        #: The heartbeat harvest's bookkeeping (see :meth:`on_heartbeat`):
        #: registered slaves whose process is up, slaves whose load may
        #: differ from ``_loads``, and slaves last read with a copy in
        #: flight.  :meth:`slave_changed` keeps the first two.
        self._live_slaves: set[int] = set()
        self._changed_slaves: set[int] = set()
        self._copying_slaves: set[int] = set()
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
        # A standby inherits running slaves: the next tick reads each
        # once to learn which have a copy in flight.
        self.slave_changed(slave)

    def slave_changed(self, slave: "DyrsSlave") -> None:
        """Note that ``slave``'s load or liveness may have moved: the
        next tick that hears from its node re-reads it."""
        node_id = slave.node_id
        self._changed_slaves.add(node_id)
        if slave.alive:
            self._live_slaves.add(node_id)
        else:
            self._live_slaves.discard(node_id)

    def on_slave_failed(self, node_id: int) -> None:
        """A restarted slave's first message is its first report too."""
        self._last_slave_report[node_id] = self.sim.now
        super().on_slave_failed(node_id)

    def attach_heartbeats(self, service: "HeartbeatService") -> None:
        """Observe every heartbeat tick of ``service``'s NameNode."""
        service.namenode.add_heartbeat_observer(self.on_heartbeat)

    def on_heartbeat(self, report: "HeartbeatReport") -> None:
        """Harvest ``(estimate, queued)`` from the live slaves whose
        node reported this tick (§III-D).

        Every such slave is stamped in ``_last_slave_report``; a slave
        whose process is down reports nothing, so its stamp goes
        stale.  Only two kinds are read (``heartbeat_load``), since no
        other slave's pair can differ from the stored one:

        * slaves marked by :meth:`slave_changed` since their last read
          -- their queue, a copy slot or their liveness moved, or the
          master's own view moved (``_record_grant``, :meth:`crash`);
        * slaves last read with a disk-lane copy in flight: each gets
          its §IV-A refresh exactly once per tick, and the end of its
          copy is seen at the next tick.

        A mark survives until its node's heartbeat gets through.  The
        stored :class:`SlaveLoad` is replaced only when the read pair
        differs from it: the slave's own count still overwrites any
        grant-adjusted view, and an idle slave keeps the same object
        tick after tick.
        """
        time = report.time
        reported = self._live_slaves.intersection(report.node_ids)
        # Every key exists since registration, so the bulk update
        # changes values only, never the dict's order.
        self._last_slave_report.update(dict.fromkeys(reported, time))
        changed = self._changed_slaves
        copying = self._copying_slaves
        due = (changed | copying) & reported
        if not due:
            return
        slaves = self.slaves
        loads = self._loads
        for node_id in sorted(due):
            slave = slaves[node_id]
            spb, queued = slave.heartbeat_load()
            load = loads.get(node_id)
            if (
                load is None
                or load.seconds_per_byte != spb
                or load.queued_blocks != queued
            ):
                loads[node_id] = SlaveLoad(seconds_per_byte=spb, queued_blocks=queued)
            if slave.copy_in_flight:
                copying.add(node_id)
            else:
                copying.discard(node_id)
        changed -= due

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
        # Every load is gone, so every slave is re-read at its next tick.
        self._changed_slaves.update(self.slaves)
        self.namenode.directory["memory"].clear()

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
        """Restart after :meth:`crash` (or promotion of a standby):
        re-learn slave state.

        The rebuilt directory comes from the slaves' actual pin state
        ("its state eventually becomes consistent as slaves clean up
        their buffers", §III-C1).  Buffers nobody references any more
        -- their last reference dropped during the outage, or their
        reference lists died with a failed-over primary -- are then
        evicted rather than leaked.
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
            for block_id in slave.datanode.pinned_ids("memory"):
                self.namenode.directory["memory"][block_id] = slave.node_id
        if obs.enabled():
            obs.emit(
                obs.MASTER_RECOVER,
                self.sim.now,
                directory_size=len(self.namenode.directory["memory"]),
            )
        self.start()
        for block_id in list(self.namenode.directory["memory"]):
            if self.tracker.is_referenced(block_id):
                continue
            node_id = self.namenode.release("memory", block_id)
            self.slaves[node_id].notify_memory_freed()
            obs.emit(obs.ORPHAN_EVICTED, self.sim.now, block=block_id, node=node_id)

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

    def _eligible_loads(self) -> "EligibleLoads":
        """This pass's view of the slaves that are up and whose node is
        available."""
        return EligibleLoads(self)

    def retarget(self) -> dict[int, int]:
        """One Algorithm 1 pass over the pending list."""
        self.retarget_passes += 1
        if not self._pending:
            # Algorithm 1 over an empty list computes nothing, moves
            # nothing, and wakes nobody -- skipping it is observably
            # identical and saves the ordering, the pass and the index
            # rebuild on every idle periodic tick.
            return {}
        ordered = self.policy.order(list(self._pending.values()))
        targets = compute_targets(
            ordered,
            self._eligible_loads(),
            reference_block_size=self.namenode.namespace.block_size,
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
        """Wake the idle slaves parked here whose node gained a target:
        a notify-mode slave's signal, or a poll-mode slave's parked
        re-poll chain, rebuilt before any of its re-polls can bind."""
        if not self._parked and not self._polling_parked:
            return
        targeted = self._targeted_nodes()
        if not targeted:
            return
        for node_id in sorted(self._parked.keys() & targeted):
            signal = self._parked.pop(node_id)
            if not signal.triggered:
                signal.succeed()
        for node_id in sorted(self._polling_parked.keys() & targeted):
            self._polling_parked[node_id].materialize()

    def may_bind(self, node_id: int) -> bool:
        """Whether a pending record targets ``node_id``: a pull binds
        only those, and only a retarget pass, which wakes the node
        (:meth:`_wake_parked`), can aim one there."""
        return self._pending.targets(node_id)

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
        # Only nodes that actually hold bound work are checked, and only
        # an unavailable/stale node's own bucket is walked -- O(nodes
        # with work + records reclaimed), not O(all records ever
        # migrated) per retarget tick.
        victims: list[MigrationRecord] = []
        for node_id in list(self._inflight_by_node):
            if self._unreachable(node_id):
                victims.extend(self._inflight_by_node[node_id].values())
        seq = self._arrival_seq
        victims.sort(key=lambda r: seq[r.block_id])
        for record in victims:
            self._requeue_after_failure(record)
        return len(victims)

    def _unreachable(self, node_id: int) -> bool:
        """Whether work bound to ``node_id`` is lost: the NameNode
        considers the node dead, or its slave has reported nothing for
        longer than the failure detector's horizon."""
        if not self.namenode.is_available(node_id):
            return True
        now = self.sim.now
        last = self._last_slave_report.get(node_id, now)
        return now - last > self.namenode.detection_horizon

    def _retarget_loop(self):
        try:
            while True:
                yield self.sim.timeout(RETARGET_INTERVAL)
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
        # our view immediately rather than waiting a heartbeat.  The
        # slave's own count replaces it at the next tick.
        load = self._loads[node_id]
        self._loads[node_id] = SlaveLoad(
            seconds_per_byte=load.seconds_per_byte,
            queued_blocks=load.queued_blocks + len(granted),
        )
        self._changed_slaves.add(node_id)


class EligibleLoads:
    """One Algorithm 1 pass's view of a master's load table.

    ``get(node_id)`` returns the stored :class:`SlaveLoad` of a node
    whose slave is up and whose node is available, else None --
    decided when the pass first asks, so a pass costs the replica
    nodes of its pending records, not the cluster size.  A pass
    changes nothing the decision reads, so each answer is kept for
    the view's life (a federation's shards share one view).
    """

    __slots__ = ("_master", "_decided")

    def __init__(self, master: DyrsMaster) -> None:
        self._master = master
        self._decided: dict[int, Optional[SlaveLoad]] = {}

    def get(self, node_id: int) -> Optional[SlaveLoad]:
        decided = self._decided
        if node_id in decided:
            return decided[node_id]
        master = self._master
        load = master._loads.get(node_id)
        if load is not None:
            slave = master.slaves.get(node_id)
            if (
                slave is None
                or not slave.alive
                or not master.namenode.is_available(node_id)
            ):
                load = None
        decided[node_id] = load
        return load
