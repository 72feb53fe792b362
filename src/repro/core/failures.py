"""Failure injection and chaos campaigns (§III-C).

DYRS "keeps only soft state so the system returns to normal quickly";
the failure modes and their recovery paths are:

* **master process failure** -- restart with empty state; pending work
  is lost (affected jobs read from disk), directory rebuilt from
  slaves (§III-C1);
* **slave process failure** -- buffer space reclaimed by the OS; the
  new process tells the master to drop its block state (§III-C2);
* **whole-server failure** -- data unavailable; the NameNode's missed-
  heartbeat detector excludes the node from routing (§III-C2).

Beyond the paper's crash taxonomy, the injector can also degrade a
device (a failing disk or flapping NIC drops to a fraction of its
nominal bandwidth), partition a slave from the master (heartbeats and
pulls blackholed while local work continues), and inject delayed-RPC
spikes on the pull path.

:class:`FailureInjector` schedules any of these at chosen simulation
times so experiments and tests can script failure scenarios
declaratively.  :class:`ChaosCampaign` samples a *randomized* fault
schedule from a seed and arms it against a running system, so soak
suites and CI can sweep many seeds while every run stays exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.cluster.node import FAST_TIERS
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Cluster
    from repro.core.base import MigrationMaster
    from repro.core.master import DyrsMaster

__all__ = [
    "FailureInjector",
    "ChaosCampaign",
    "ChaosFault",
    "quiesce_violations",
]


class FailureInjector:
    """Schedules crash/recover and degradation actions against a
    running system."""

    def __init__(self, cluster: "Cluster", master: Optional["DyrsMaster"] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.master = master
        #: (time, action, subject) audit log.
        self.log: list[tuple[float, str, str]] = []

    def _note(self, action: str, subject: str) -> None:
        self.log.append((self.sim.now, action, subject))

    # -- slave process -------------------------------------------------------

    def crash_slave_at(
        self, when: float, node_id: int, restart_after: Optional[float] = None
    ) -> None:
        """Kill the slave *process* on ``node_id`` at ``when``;
        optionally restart it ``restart_after`` seconds later."""
        if self.master is None:
            raise RuntimeError("no migration master attached")

        def _crash() -> None:
            self.master.slaves[node_id].crash()
            self._note("slave-crash", f"node{node_id}")

        self.sim.call_at(when, _crash)
        if restart_after is not None:

            def _restart() -> None:
                slave = self.master.slaves[node_id]
                if slave.alive or not self.cluster.node(node_id).alive:
                    # Another fault's recovery already brought the slave
                    # back, or the whole server is down -- a supervisor
                    # finding either state has nothing to restart.
                    self._note("skip-slave-restart", f"node{node_id}")
                    return
                slave.restart()
                self._note("slave-restart", f"node{node_id}")

            self.sim.call_at(when + restart_after, _restart)

    # -- master process -------------------------------------------------------

    def crash_master_at(
        self, when: float, recover_after: Optional[float] = None
    ) -> None:
        """Kill the DYRS master at ``when``; optionally bring up the
        replacement ``recover_after`` seconds later."""
        if self.master is None:
            raise RuntimeError("no migration master attached")

        def _crash() -> None:
            if not self.master.alive:
                self._note("skip-master-crash", "master")
                return
            self.master.crash()
            self._note("master-crash", "master")

        self.sim.call_at(when, _crash)
        if recover_after is not None:

            def _recover() -> None:
                if self.master.alive:
                    # An overlapping fault's recovery already ran.
                    self._note("skip-master-recover", "master")
                    return
                self.master.recover()
                self._note("master-recover", "master")

            self.sim.call_at(when + recover_after, _recover)

    def crash_shard_at(
        self, when: float, node_id: int, recover_after: Optional[float] = None
    ) -> None:
        """Kill one master *shard* at ``when``; optionally stand up a
        fresh incarnation ``recover_after`` seconds later.

        The shard is resolved at fire time as ``node_id``'s home shard,
        so sampled plans stay meaningful across shard counts and the
        fault degrades to a no-op on a flat (unsharded) master.
        """
        if self.master is None:
            raise RuntimeError("no migration master attached")

        def _crash() -> None:
            master = self.master
            if not hasattr(master, "crash_shard") or not master.alive:
                self._note("skip-shard-crash", f"node{node_id}")
                return
            shard_id = master.home_shard_of(node_id)
            if not master.shard_is_alive(shard_id):
                self._note("skip-shard-crash", f"shard{shard_id}")
                return
            master.crash_shard(shard_id)
            self._note("shard-crash", f"shard{shard_id}")
            if recover_after is not None:

                def _recover() -> None:
                    # The whole federation may have crashed and been
                    # replaced in between; only revive what this fault
                    # killed, on the master that still owns it.
                    if self.master is not master or not master.alive:
                        self._note("skip-shard-recover", f"shard{shard_id}")
                        return
                    if master.shard_is_alive(shard_id):
                        self._note("skip-shard-recover", f"shard{shard_id}")
                        return
                    master.recover_shard(shard_id)
                    self._note("shard-recover", f"shard{shard_id}")

                self.sim.call_at(self.sim.now + recover_after, _recover)

        self.sim.call_at(when, _crash)

    # -- whole server -----------------------------------------------------------

    def crash_node_at(
        self, when: float, node_id: int, recover_after: Optional[float] = None
    ) -> None:
        """Fail the entire server (disk data unavailable, memory lost)."""
        # Recovery must only restart what *this* failure killed: a slave
        # that was independently crashed before the node went down stays
        # down afterwards (its own restart schedule, if any, owns it).
        killed = {"slave": False}

        def _crash() -> None:
            node = self.cluster.node(node_id)
            node.fail()
            if self.master is not None:
                slave = self.master.slaves.get(node_id)
                if slave is not None and slave.alive:
                    slave.crash()
                    killed["slave"] = True
            self._note("node-crash", f"node{node_id}")

        self.sim.call_at(when, _crash)
        if recover_after is not None:

            def _recover() -> None:
                node = self.cluster.node(node_id)
                node.recover()
                if self.master is not None and killed["slave"]:
                    slave = self.master.slaves.get(node_id)
                    if slave is not None and not slave.alive:
                        slave.restart()
                self._note("node-recover", f"node{node_id}")

            self.sim.call_at(when + recover_after, _recover)

    # -- device degradation -------------------------------------------------------

    def degrade_disk_at(
        self, when: float, node_id: int, factor: float, restore_after: float
    ) -> None:
        """Drop node ``node_id``'s disk to ``factor`` of its nominal
        bandwidth for ``restore_after`` seconds (a failing spindle)."""
        self._degrade_at(when, node_id, "disk", factor, restore_after)

    def degrade_nic_at(
        self, when: float, node_id: int, factor: float, restore_after: float
    ) -> None:
        """Drop node ``node_id``'s NIC (both directions) to ``factor``
        of nominal for ``restore_after`` seconds (a flapping link)."""
        self._degrade_at(when, node_id, "nic", factor, restore_after)

    def _degrade_at(
        self,
        when: float,
        node_id: int,
        device: str,
        factor: float,
        restore_after: float,
    ) -> None:
        if not 0 < factor < 1:
            raise ValueError(f"degrade factor must be in (0, 1), got {factor}")
        if restore_after <= 0:
            raise ValueError(f"restore_after must be positive, got {restore_after}")
        kind = f"degrade-{device}"

        def _channels() -> list:
            node = self.cluster.node(node_id)
            if device == "disk":
                return [node.disk.channel]
            return [node.nic.egress, node.nic.ingress]

        # Nominal rates are captured at fire time so stacked faults (or
        # experiment-configured heterogeneity) restore to the truth.
        nominal: list[float] = []

        def _degrade() -> None:
            for channel in _channels():
                nominal.append(channel.capacity)
                channel.set_capacity(channel.capacity * factor)
            obs.emit(
                obs.FAULT_INJECT, self.sim.now, kind=kind, node=node_id, factor=factor
            )
            self._note(kind, f"node{node_id}")

        def _restore() -> None:
            for channel, rate in zip(_channels(), nominal):
                channel.set_capacity(rate)
            obs.emit(obs.FAULT_CLEAR, self.sim.now, kind=kind, node=node_id)
            self._note(f"restore-{device}", f"node{node_id}")

        self.sim.call_at(when, _degrade)
        self.sim.call_at(when + restore_after, _restore)

    def degrade_fabric_at(
        self, when: float, factor: float, restore_after: float
    ) -> None:
        """Drop the shared archive fabric link to ``factor`` of nominal
        for ``restore_after`` seconds (a congested object store / busy
        tape library).  Cluster-wide: every node's archive traffic
        shares the one link."""
        if not 0 < factor < 1:
            raise ValueError(f"degrade factor must be in (0, 1), got {factor}")
        if restore_after <= 0:
            raise ValueError(f"restore_after must be positive, got {restore_after}")
        link = getattr(self.cluster.fabric, "archive_link", None)
        if link is None:
            raise RuntimeError("cluster has no archive fabric link")
        nominal: list[float] = []

        def _degrade() -> None:
            nominal.append(link.capacity)
            link.set_capacity(link.capacity * factor)
            obs.emit(
                obs.FAULT_INJECT, self.sim.now, kind="degrade-fabric", factor=factor
            )
            self._note("degrade-fabric", "fabric")

        def _restore() -> None:
            link.set_capacity(nominal[0])
            obs.emit(obs.FAULT_CLEAR, self.sim.now, kind="degrade-fabric")
            self._note("restore-fabric", "fabric")

        self.sim.call_at(when, _degrade)
        self.sim.call_at(when + restore_after, _restore)

    def crash_tier_move_at(
        self, when: float, recover_after: Optional[float] = None
    ) -> None:
        """Fail the server currently *driving* an archive tier move.

        The target is resolved at fire time: the bound node of a live
        lifecycle move if one exists (crashing mid-move is the point),
        else the lowest-id node with a live slave -- so the fault is
        never a silent no-op on a quiet schedule.  The archive media
        itself survives (fabric-attached); what dies is the mover's
        disk source / accounting partition.
        """
        if self.master is None:
            raise RuntimeError("no migration master attached")
        killed: dict = {"slave": False, "node": None}

        def _target() -> Optional[int]:
            moves = getattr(self.master, "_lifecycle_moves", {})
            for record in moves.values():
                if record.status.is_terminal or record.bound_node is None:
                    continue
                if self.cluster.node(record.bound_node).alive:
                    return record.bound_node
            for node_id in sorted(self.master.slaves):
                if (
                    self.cluster.node(node_id).alive
                    and self.master.slaves[node_id].alive
                ):
                    return node_id
            return None

        def _crash() -> None:
            node_id = _target()
            if node_id is None:
                self._note("skip-crash-tier-move", "none")
                return
            killed["node"] = node_id
            self.cluster.node(node_id).fail()
            slave = self.master.slaves.get(node_id)
            if slave is not None and slave.alive:
                slave.crash()
                killed["slave"] = True
            obs.emit(
                obs.FAULT_INJECT, self.sim.now, kind="crash-tier-move", node=node_id
            )
            self._note("crash-tier-move", f"node{node_id}")

        self.sim.call_at(when, _crash)
        if recover_after is not None:

            def _recover() -> None:
                node_id = killed["node"]
                if node_id is None:
                    self._note("skip-tier-move-recover", "none")
                    return
                node = self.cluster.node(node_id)
                if not node.alive:
                    node.recover()
                if killed["slave"]:
                    slave = self.master.slaves.get(node_id)
                    if slave is not None and not slave.alive:
                        slave.restart()
                obs.emit(
                    obs.FAULT_CLEAR, self.sim.now, kind="crash-tier-move",
                    node=node_id,
                )
                self._note("recover-tier-move", f"node{node_id}")

            self.sim.call_at(when + recover_after, _recover)

    # -- control-plane faults -------------------------------------------------------

    def partition_slave_at(
        self, when: float, node_id: int, heal_after: float
    ) -> None:
        """Partition ``node_id`` from the master/NameNode control plane.

        Heartbeats are lost in transit (the miss counter climbs and the
        availability detector eventually flags the node) and pull RPCs
        are blackholed; the node itself stays up, serving local reads
        and finishing migrations already in its queue.
        """
        if self.master is None:
            raise RuntimeError("no migration master attached")
        if heal_after <= 0:
            raise ValueError(f"heal_after must be positive, got {heal_after}")

        def _partition() -> None:
            self.master.namenode.partitioned.add(node_id)
            slave = self.master.slaves.get(node_id)
            if slave is not None:
                slave._partitioned = True
            obs.emit(
                obs.FAULT_INJECT, self.sim.now, kind="partition", node=node_id
            )
            self._note("partition", f"node{node_id}")

        def _heal() -> None:
            self.master.namenode.partitioned.discard(node_id)
            slave = self.master.slaves.get(node_id)
            if slave is not None:
                slave._partitioned = False
            obs.emit(obs.FAULT_CLEAR, self.sim.now, kind="partition", node=node_id)
            self._note("heal-partition", f"node{node_id}")

        self.sim.call_at(when, _partition)
        self.sim.call_at(when + heal_after, _heal)

    def delay_rpc_at(
        self, when: float, node_id: int, extra: float, clear_after: float
    ) -> None:
        """Add ``extra`` seconds to each pull-RPC leg on ``node_id``
        for ``clear_after`` seconds (a congestion spike)."""
        if self.master is None:
            raise RuntimeError("no migration master attached")
        if extra <= 0:
            raise ValueError(f"extra delay must be positive, got {extra}")
        if clear_after <= 0:
            raise ValueError(f"clear_after must be positive, got {clear_after}")

        def _inject() -> None:
            slave = self.master.slaves.get(node_id)
            if slave is not None:
                slave._rpc_extra += extra
            obs.emit(
                obs.FAULT_INJECT, self.sim.now, kind="rpc-delay", node=node_id,
                extra=extra,
            )
            self._note("rpc-delay", f"node{node_id}")

        def _clear() -> None:
            slave = self.master.slaves.get(node_id)
            if slave is not None:
                slave._rpc_extra = max(0.0, slave._rpc_extra - extra)
            obs.emit(obs.FAULT_CLEAR, self.sim.now, kind="rpc-delay", node=node_id)
            self._note("clear-rpc-delay", f"node{node_id}")

        self.sim.call_at(when, _inject)
        self.sim.call_at(when + clear_after, _clear)


# -- chaos campaigns ---------------------------------------------------------------


@dataclass(frozen=True)
class ChaosFault:
    """One sampled fault in a campaign plan."""

    time: float
    kind: str
    node_id: Optional[int]  # None for master faults
    #: Seconds until the matching recover/restore/heal (None = never,
    #: only possible for slave-crash: the headline leak scenario).
    duration: Optional[float]
    #: Fault-specific magnitude: degrade factor or extra RPC delay.
    param: float = 0.0


@dataclass
class ChaosCampaign:
    """A seeded, randomized fault schedule over a running system.

    Sampling is fully deterministic in ``seed`` (``numpy`` Generator),
    so a failing seed found by a soak sweep replays exactly.  The
    sampler enforces the safety rules that keep runs *comparable*
    rather than degenerate:

    * node crashes never overlap each other (replication factor 3
      tolerates one lost server; piling up outages would just measure
      data loss) and always recover within the horizon;
    * master crashes always recover (a permanently headless run
      measures nothing);
    * slave crashes may skip the restart -- that is the scenario the
      stranded-binding fixes exist for: a dead *process* on a live,
      heartbeating node.
    """

    injector: FailureInjector
    seed: int
    horizon: float
    n_faults: int = 8
    #: Fault kinds to sample from; defaults to every kind the attached
    #: system supports.
    kinds: Optional[Sequence[str]] = None
    plan: list[ChaosFault] = field(default_factory=list, init=False)

    ALL_KINDS = (
        "slave-crash",
        "node-crash",
        "master-crash",
        "degrade-disk",
        "degrade-nic",
        "partition",
        "rpc-delay",
        # Archive faults -- appended so that filtering them out (no
        # archive on the cluster) leaves the legacy seven in the legacy
        # order, keeping every pre-archive fault plan byte-identical.
        "degrade-fabric",
        "crash-tier-move",
        # Shard faults -- appended for the same reason: masters without
        # ``crash_shard`` filter them out and keep their legacy plans.
        "shard-crash",
        "shard-loss",
    )
    SERVER_KINDS = ("node-crash", "degrade-disk", "degrade-nic")
    ARCHIVE_KINDS = ("degrade-fabric", "crash-tier-move")
    SHARD_KINDS = ("shard-crash", "shard-loss")

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_faults < 0:
            raise ValueError(f"n_faults must be >= 0, got {self.n_faults}")
        kinds = tuple(self.kinds) if self.kinds is not None else self.ALL_KINDS
        unknown = set(kinds) - set(self.ALL_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        master = self.injector.master
        unsupported = (
            # Without a master only whole-server faults make sense.
            (master is None, set(self.ALL_KINDS) - set(self.SERVER_KINDS)),
            # Push-binding baselines have no master crash/recover path.
            (not hasattr(master, "crash"), {"master-crash"}),
            # The instant migrator runs no slave processes.
            (not getattr(master, "slaves", None), {"slave-crash"}),
            # Archive faults target hardware this cluster doesn't have.
            (
                getattr(self.injector.cluster.fabric, "archive_link", None) is None,
                set(self.ARCHIVE_KINDS),
            ),
            # Shard faults need a sharded master to aim at.
            (not hasattr(master, "crash_shard"), set(self.SHARD_KINDS)),
        )
        dropped = set().union(*(group for missing, group in unsupported if missing))
        self.kinds = tuple(k for k in kinds if k not in dropped)
        if self.n_faults and not self.kinds:
            raise ValueError(
                "the attached system can take none of the fault kinds "
                f"{sorted(set(kinds))}"
            )

    def sample(self) -> list[ChaosFault]:
        """Draw the fault plan (idempotent: resampling replaces it)."""
        # simlint: disable=SIM102 -- the campaign seed IS the identity of
        # the fault plan: deriving it directly (not via a shared
        # RngRegistry) keeps the schedule a pure function of the seed,
        # untouched by whatever streams the system under test creates.
        rng = np.random.default_rng(self.seed)
        n_nodes = len(self.injector.cluster.nodes)
        # Fire inside the first 70% of the horizon so recoveries land
        # well before quiesce checks run.
        lo, hi = 0.02 * self.horizon, 0.7 * self.horizon
        node_outages: list[tuple[float, float]] = []  # non-overlap bookkeeping
        plan: list[ChaosFault] = []
        for _ in range(self.n_faults):
            when = float(rng.uniform(lo, hi))
            kind = str(rng.choice(self.kinds))
            node_id: Optional[int] = int(rng.integers(n_nodes))
            duration: Optional[float] = None
            param = 0.0
            if kind == "node-crash":
                duration = float(rng.uniform(0.05, 0.15) * self.horizon)
                window = (when, when + duration)
                if any(s < window[1] and window[0] < e for s, e in node_outages):
                    # Would overlap another server outage; degrade the
                    # disk instead -- same node, same moment, survivable.
                    kind = "degrade-disk"
                else:
                    node_outages.append(window)
            if kind == "master-crash":
                node_id = None
                duration = float(rng.uniform(0.03, 0.1) * self.horizon)
            elif kind == "slave-crash":
                # 30% of slave crashes never restart: the dead-process-
                # on-a-live-node window the leak fixes target.
                restarts = bool(rng.random() < 0.7)
                duration = (
                    float(rng.uniform(0.05, 0.15) * self.horizon) if restarts else None
                )
            elif kind in ("degrade-disk", "degrade-nic"):
                param = float(rng.uniform(0.1, 0.5))
                duration = float(rng.uniform(0.05, 0.2) * self.horizon)
            elif kind == "partition":
                duration = float(rng.uniform(0.05, 0.15) * self.horizon)
            elif kind == "rpc-delay":
                param = float(rng.uniform(0.2, 2.0))
                duration = float(rng.uniform(0.05, 0.2) * self.horizon)
            elif kind == "degrade-fabric":
                node_id = None  # the link is cluster-wide
                param = float(rng.uniform(0.1, 0.5))
                duration = float(rng.uniform(0.05, 0.2) * self.horizon)
            elif kind == "crash-tier-move":
                node_id = None  # target resolved at fire time
                duration = float(rng.uniform(0.05, 0.15) * self.horizon)
            elif kind == "shard-crash":
                # node_id picks the home shard at fire time; shards
                # always come back -- a permanently headless partition
                # just measures routed-request loss, not recovery.
                duration = float(rng.uniform(0.05, 0.15) * self.horizon)
            elif kind == "shard-loss":
                # Permanent loss: the shard never comes back.  Its
                # routing slice does not re-home, so every request
                # routed to it is discarded for the rest of the run.
                duration = None
            plan.append(
                ChaosFault(
                    time=when, kind=kind, node_id=node_id,
                    duration=duration, param=param,
                )
            )
        plan.sort(key=lambda f: f.time)
        self.plan = plan
        return plan

    def arm(self) -> list[ChaosFault]:
        """Sample (if needed) and schedule every fault on the injector."""
        if not self.plan:
            self.sample()
        inj = self.injector
        for fault in self.plan:
            if fault.kind == "slave-crash":
                inj.crash_slave_at(fault.time, fault.node_id, fault.duration)
            elif fault.kind == "node-crash":
                inj.crash_node_at(fault.time, fault.node_id, fault.duration)
            elif fault.kind == "master-crash":
                inj.crash_master_at(fault.time, fault.duration)
            elif fault.kind == "degrade-disk":
                inj.degrade_disk_at(
                    fault.time, fault.node_id, fault.param, fault.duration
                )
            elif fault.kind == "degrade-nic":
                inj.degrade_nic_at(
                    fault.time, fault.node_id, fault.param, fault.duration
                )
            elif fault.kind == "partition":
                inj.partition_slave_at(fault.time, fault.node_id, fault.duration)
            elif fault.kind == "rpc-delay":
                inj.delay_rpc_at(
                    fault.time, fault.node_id, fault.param, fault.duration
                )
            elif fault.kind == "degrade-fabric":
                inj.degrade_fabric_at(fault.time, fault.param, fault.duration)
            elif fault.kind == "crash-tier-move":
                inj.crash_tier_move_at(fault.time, fault.duration)
            elif fault.kind == "shard-crash":
                inj.crash_shard_at(fault.time, fault.node_id, fault.duration)
            elif fault.kind == "shard-loss":
                inj.crash_shard_at(fault.time, fault.node_id, None)
        return self.plan


def quiesce_violations(master: "MigrationMaster") -> list[str]:
    """Direct state checks after a chaos run has drained.

    Complements the trace-level invariants with ground-truth record and
    directory state:

    * every migration record must be terminal -- a live PENDING/BOUND/
      ACTIVE record at quiesce is exactly a stranded binding;
    * every memory/SSD directory entry must point at a live node that
      actually pins the block, and every archive entry at a node that
      pins it; every pinned copy must have its entry -- anything else
      is a leaked buffer or a stale directory entry.
    """
    problems: list[str] = []
    for record in master.record_log:
        if not record.status.is_terminal:
            problems.append(
                f"record {record.block_id} stuck {record.status.value}"
                f" (bound_node={record.bound_node})"
            )
    for record in getattr(master, "tier_record_log", []):
        if not record.status.is_terminal:
            problems.append(
                f"tier record {record.block_id} stuck {record.status.value}"
                f" (bound_node={record.bound_node})"
            )
    for record in getattr(master, "lifecycle_record_log", []):
        if not record.status.is_terminal:
            problems.append(
                f"lifecycle record {record.block_id} stuck {record.status.value}"
                f" (bound_node={record.bound_node})"
            )
    namenode = master.namenode
    for rung, entries in namenode.directory.items():
        # Archive entries are checked WITHOUT the liveness requirement:
        # the archive is fabric-attached, so a copy owned (for
        # accounting) by a dead node is still durable and still
        # readable.
        for block_id, node_id in entries.items():
            if rung in FAST_TIERS and not namenode.cluster.node(node_id).alive:
                problems.append(
                    f"{rung} directory maps {block_id} to dead node{node_id}"
                )
            elif not namenode.datanodes[node_id].holds(rung, block_id):
                problems.append(
                    f"{rung} directory maps {block_id} to node{node_id}"
                    " but nothing is pinned there"
                )
        # Conversely: pinned bytes with no directory entry are invisible
        # to the read path -- a silent leak of the budget.
        for node_id, datanode in namenode.datanodes.items():
            for block_id in datanode.pinned_ids(rung):
                if entries.get(block_id) != node_id:
                    problems.append(
                        f"node{node_id} pins {block_id} on {rung}"
                        f" with no matching {rung}-directory entry"
                    )
    return problems
