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
disk, a NIC or the archive link to a fraction of its bandwidth,
partition a slave from the master (heartbeats and pulls blackholed
while local work continues), inject delayed-RPC spikes on the pull
path, crash one shard of a federated master, and fail the server
driving an archive tier move.

A :class:`ChaosFault` describes one fault, whether a test or drill
scripted it or a campaign drew it, and :meth:`FailureInjector.inject`
is the one way to schedule it.  :data:`FAULT_KINDS` declares every
kind once: the injector method that schedules it, whether an attached
system can take it, and how a campaign draws its magnitude and
duration.  :class:`ChaosCampaign` samples a *randomized* plan from a
seed and injects it, so soak suites and CI can sweep many seeds while
every run stays exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.cluster.node import FAST_TIERS
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Cluster
    from repro.core.base import MigrationMaster
    from repro.core.master import DyrsMaster
    from repro.sim.bandwidth import BandwidthResource

__all__ = [
    "FailureInjector",
    "ChaosCampaign",
    "ChaosFault",
    "FAULT_KINDS",
    "quiesce_violations",
]


class FailureInjector:
    """Schedules faults, and their recoveries, against a running system."""

    def __init__(self, cluster: "Cluster", master: Optional["DyrsMaster"] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.master = master
        #: (time, action, subject) audit log.
        self.log: list[tuple[float, str, str]] = []
        #: Each degraded channel's nominal capacity and its active
        #: degrade faults, in firing order.
        self._degraded: dict["BandwidthResource", tuple[float, list["ChaosFault"]]] = {}

    def inject(self, fault: "ChaosFault") -> None:
        """Schedule ``fault`` and its recovery.  Raises
        :class:`RuntimeError` when the fault needs a migration master or
        an archive link the system does not have."""
        FAULT_KINDS[fault.kind].handler(self, fault)

    def _note(self, action: str, subject: str) -> None:
        self.log.append((self.sim.now, action, subject))

    def _schedule(self, fault: "ChaosFault", effect, undo) -> None:
        """Call ``effect`` at the fault time and, if the fault has a
        duration, ``undo`` that many seconds later."""
        self.sim.call_at(fault.time, effect)
        if fault.duration is not None:
            self.sim.call_at(fault.time + fault.duration, undo)

    def _require_master(self) -> None:
        if self.master is None:
            raise RuntimeError("no migration master attached")

    # -- processes ---------------------------------------------------------------

    def _crash_slave(self, fault: "ChaosFault") -> None:
        """Kill the slave *process* on the fault's node; restart it
        after the duration."""
        self._require_master()
        node_id = fault.node_id

        def _crash() -> None:
            self.master.slaves[node_id].crash()
            self._note("slave-crash", f"node{node_id}")

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

        self._schedule(fault, _crash, _restart)

    def _crash_master(self, fault: "ChaosFault") -> None:
        """Kill the DYRS master; bring up the replacement after the
        duration."""
        self._require_master()

        def _crash() -> None:
            if not self.master.alive:
                self._note("skip-master-crash", "master")
                return
            self.master.crash()
            self._note("master-crash", "master")

        def _recover() -> None:
            if self.master.alive:
                # An overlapping fault's recovery already ran.
                self._note("skip-master-recover", "master")
                return
            self.master.recover()
            self._note("master-recover", "master")

        self._schedule(fault, _crash, _recover)

    def _crash_shard(self, fault: "ChaosFault") -> None:
        """Kill one master *shard*; stand up a fresh incarnation after
        the duration (a ``shard-loss`` has none).

        The shard is resolved at fire time as the fault node's home
        shard, so sampled plans stay meaningful across shard counts and
        the fault degrades to a no-op on a flat (unsharded) master.
        The recovery is scheduled when the crash fires.
        """
        self._require_master()
        node_id = fault.node_id

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
            if fault.duration is None:
                return

            def _recover() -> None:
                # The whole federation may have crashed and been
                # replaced in between; only revive what this fault
                # killed, on the master that still owns it.
                if (
                    self.master is not master
                    or not master.alive
                    or master.shard_is_alive(shard_id)
                ):
                    self._note("skip-shard-recover", f"shard{shard_id}")
                    return
                master.recover_shard(shard_id)
                self._note("shard-recover", f"shard{shard_id}")

            self.sim.call_at(self.sim.now + fault.duration, _recover)

        self.sim.call_at(fault.time, _crash)

    # -- whole server --------------------------------------------------------------

    def _crash_node(self, fault: "ChaosFault") -> None:
        """Fail an entire server (disk data unavailable, memory lost);
        recover it after the duration.

        A ``crash-tier-move`` resolves its server at fire time: the
        bound node of a live archive move if one exists (crashing
        mid-move is the point), else the lowest-id node with a live
        slave -- so the fault is never a silent no-op on a quiet
        schedule.  The archive media itself survives (fabric-attached);
        what dies is the mover's disk source / accounting partition.
        """
        tier_move = fault.kind == "crash-tier-move"
        if tier_move:
            self._require_master()
        # Recovery must only restart what *this* failure killed: a slave
        # that was independently crashed before the node went down stays
        # down afterwards (its own restart schedule, if any, owns it).
        killed: dict = {"node": None, "slave": False}

        def _crash() -> None:
            node_id = self._tier_mover() if tier_move else fault.node_id
            if node_id is None:
                self._note("skip-crash-tier-move", "none")
                return
            killed["node"] = node_id
            self.cluster.node(node_id).fail()
            if self.master is not None:
                slave = self.master.slaves.get(node_id)
                if slave is not None and slave.alive:
                    slave.crash()
                    killed["slave"] = True
            if tier_move:
                obs.emit(obs.FAULT_INJECT, self.sim.now, kind=fault.kind, node=node_id)
            self._note(fault.kind, f"node{node_id}")

        def _recover() -> None:
            node_id = killed["node"]
            if node_id is None:
                self._note("skip-tier-move-recover", "none")
                return
            self.cluster.node(node_id).recover()
            if killed["slave"]:
                slave = self.master.slaves.get(node_id)
                if slave is not None and not slave.alive:
                    slave.restart()
            if tier_move:
                obs.emit(obs.FAULT_CLEAR, self.sim.now, kind=fault.kind, node=node_id)
                self._note("recover-tier-move", f"node{node_id}")
            else:
                self._note("node-recover", f"node{node_id}")

        self._schedule(fault, _crash, _recover)

    def _tier_mover(self) -> Optional[int]:
        """The live node driving an archive move, else the lowest-id
        node with a live slave; None if there is neither."""
        master = self.master
        live_moves = getattr(master, "live_moves", None)
        for record in live_moves() if live_moves is not None else ():
            bound = record.bound_node
            if bound is not None and self.cluster.node(bound).alive:
                return bound
        for node_id in sorted(master.slaves):
            if self.cluster.node(node_id).alive and master.slaves[node_id].alive:
                return node_id
        return None

    # -- held conditions: degraded devices, partitions, delay spikes ---------------

    def _hold(self, fault: "ChaosFault", apply, revert, cleared: str, **fields) -> None:
        """Schedule a fault that holds a condition for its duration:
        ``apply`` at the fault time, ``revert`` at its end, each traced
        and logged (``cleared`` is the end's log action).  The one
        cluster-wide condition is the degraded fabric link."""
        kind, node_id = fault.kind, fault.node_id
        where = {} if node_id is None else {"node": node_id}
        subject = "fabric" if node_id is None else f"node{node_id}"

        def _begin() -> None:
            apply()
            obs.emit(obs.FAULT_INJECT, self.sim.now, kind=kind, **where, **fields)
            self._note(kind, subject)

        def _end() -> None:
            revert()
            obs.emit(obs.FAULT_CLEAR, self.sim.now, kind=kind, **where)
            self._note(cleared, subject)

        self._schedule(fault, _begin, _end)

    def _degrade(self, fault: "ChaosFault") -> None:
        """Drop a device to ``fault.param`` of its nominal bandwidth: a
        node's disk (a failing spindle), its NIC in both directions (a
        flapping link), or the archive fabric link every node's archive
        traffic shares (a congested object store / busy tape library)."""
        device = fault.kind.removeprefix("degrade-")
        if fault.node_id is None:
            link = getattr(self.cluster.fabric, "archive_link", None)
            if link is None:
                raise RuntimeError("cluster has no archive fabric link")

        def _channels() -> list:
            if fault.node_id is None:
                return [link]
            node = self.cluster.node(fault.node_id)
            if device == "disk":
                return [node.disk.channel]
            return [node.nic.egress, node.nic.ingress]

        # The first active degrade of a channel records its nominal
        # capacity (experiment-configured heterogeneity included); every
        # degrade and restore then sets nominal times the factors still
        # active, in firing order, so overlapping degrades end at
        # nominal however they nest.
        degraded = self._degraded

        def _degrade() -> None:
            for channel in _channels():
                nominal, active = degraded.setdefault(channel, (channel.capacity, []))
                active.append(fault)
                channel.set_capacity(_scaled(nominal, active))

        def _restore() -> None:
            for channel in _channels():
                nominal, active = degraded[channel]
                active.remove(fault)
                if not active:
                    del degraded[channel]
                channel.set_capacity(_scaled(nominal, active))

        self._hold(fault, _degrade, _restore, f"restore-{device}", factor=fault.param)

    def _partition(self, fault: "ChaosFault") -> None:
        """Partition the fault's node from the master/NameNode control
        plane: heartbeats are lost in transit (the availability detector
        eventually flags the node) and pull legs are blackholed on
        arrival, while the node itself stays up, serving local reads and
        finishing migrations already in its queue."""
        self._require_master()
        node_id = fault.node_id
        self._hold(
            fault,
            lambda: self.master.namenode.partitioned.add(node_id),
            lambda: self.master.namenode.partitioned.discard(node_id),
            "heal-partition",
        )

    def _delay_rpc(self, fault: "ChaosFault") -> None:
        """Add ``fault.param`` seconds to each pull-RPC leg on the
        fault's node (a congestion spike)."""
        self._require_master()
        node_id, extra = fault.node_id, fault.param

        def _shift(delta: float) -> None:
            slave = self.master.slaves.get(node_id)
            if slave is not None:
                slave._rpc_extra = max(0.0, slave._rpc_extra + delta)

        self._hold(
            fault,
            lambda: _shift(extra),
            lambda: _shift(-extra),
            "clear-rpc-delay",
            extra=extra,
        )


def _scaled(nominal: float, faults: list["ChaosFault"]) -> float:
    """``nominal`` times each fault's factor, left to right."""
    for fault in faults:
        nominal *= fault.param
    return nominal


# -- faults and their kinds ----------------------------------------------------------


@dataclass(frozen=True)
class ChaosFault:
    """One fault, scripted by a test or drill or drawn by a campaign."""

    time: float
    kind: str
    #: The node the fault hits (for a shard fault, the node whose home
    #: shard it crashes); None for the cluster-wide kinds.
    node_id: Optional[int]
    #: Seconds until the matching recover/restore/heal; None = never,
    #: which only a crash may be.
    duration: Optional[float]
    #: Fault-specific magnitude: degrade factor or extra RPC delay.
    param: float = 0.0

    def __post_init__(self) -> None:
        spec = FAULT_KINDS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if spec.per_node != (self.node_id is not None):
            scope = "one node" if spec.per_node else "no node"
            raise ValueError(f"a {self.kind} fault names {scope}, got {self.node_id}")
        if self.duration is None:
            if spec.ends:
                raise ValueError(f"a {self.kind} fault needs a duration")
        elif self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        elif spec.duration is None:
            raise ValueError(f"a {self.kind} fault never recovers")
        if self.kind.startswith("degrade-") and not 0 < self.param < 1:
            raise ValueError(f"degrade factor must be in (0, 1), got {self.param}")
        if self.kind == "rpc-delay" and self.param <= 0:
            raise ValueError(f"extra delay must be positive, got {self.param}")


@dataclass(frozen=True)
class FaultKind:
    """How one fault kind is scheduled and drawn."""

    #: Schedules a fault of the kind: ``handler(injector, fault)``.
    handler: Callable[[FailureInjector, ChaosFault], None]
    #: Whether a campaign may draw the kind against an injector's system.
    supported: Callable[[FailureInjector], bool] = lambda injector: True
    #: Whether the fault hits one node (else its ``node_id`` is None).
    per_node: bool = True
    #: Whether the fault must end: a degraded device, a partition or a
    #: delay spike takes a duration, where a crash may never recover.
    ends: bool = False
    #: Uniform range of a drawn ``param``; None draws none.
    param: Optional[tuple[float, float]] = None
    #: Uniform range of a drawn duration, in fractions of the horizon;
    #: None: a drawn fault never recovers.
    duration: Optional[tuple[float, float]] = (0.05, 0.15)
    #: Chance that a drawn fault recovers at all.
    recovers: float = 1.0

    def draw(self, rng: np.random.Generator, horizon: float):
        """Draw ``(param, duration)`` for one fault of the kind."""
        param = float(rng.uniform(*self.param)) if self.param is not None else 0.0
        if self.duration is None or (
            self.recovers < 1.0 and not rng.random() < self.recovers
        ):
            return param, None
        return param, float(rng.uniform(*self.duration) * horizon)


def _has_master(injector: FailureInjector) -> bool:
    return injector.master is not None


def _has_archive(injector: FailureInjector) -> bool:
    link = getattr(injector.cluster.fabric, "archive_link", None)
    return injector.master is not None and link is not None


def _has_shards(injector: FailureInjector) -> bool:
    return hasattr(injector.master, "crash_shard")


_DEGRADE = dict(ends=True, param=(0.1, 0.5), duration=(0.05, 0.2))

#: Every fault kind, in the order campaigns draw from.  Without a
#: master only whole-server faults make sense.  The archive kinds are
#: appended so that filtering them out (no archive on the cluster)
#: leaves the first seven in their order, keeping every pre-archive
#: fault plan byte-identical; the shard kinds are appended for the
#: same reason.
FAULT_KINDS: dict[str, FaultKind] = {
    # The instant migrator runs no slave processes.  30% of drawn slave
    # crashes never restart: the dead-process-on-a-live-node window the
    # leak fixes target.
    "slave-crash": FaultKind(
        FailureInjector._crash_slave,
        lambda injector: bool(getattr(injector.master, "slaves", None)),
        recovers=0.7,
    ),
    "node-crash": FaultKind(FailureInjector._crash_node),
    # Push-binding baselines have no master crash/recover path.
    "master-crash": FaultKind(
        FailureInjector._crash_master,
        lambda injector: hasattr(injector.master, "crash"),
        per_node=False,
        duration=(0.03, 0.1),
    ),
    "degrade-disk": FaultKind(FailureInjector._degrade, **_DEGRADE),
    "degrade-nic": FaultKind(FailureInjector._degrade, **_DEGRADE),
    "partition": FaultKind(FailureInjector._partition, _has_master, ends=True),
    "rpc-delay": FaultKind(
        FailureInjector._delay_rpc,
        _has_master,
        ends=True,
        param=(0.2, 2.0),
        duration=(0.05, 0.2),
    ),
    "degrade-fabric": FaultKind(
        FailureInjector._degrade, _has_archive, per_node=False, **_DEGRADE
    ),
    "crash-tier-move": FaultKind(
        FailureInjector._crash_node, _has_archive, per_node=False
    ),
    # Drawn shards always come back -- a permanently headless partition
    # just measures routed-request loss, not recovery -- except as a
    # shard-loss, whose routing slice never re-homes, so every request
    # routed to it is discarded for the rest of the run.
    "shard-crash": FaultKind(FailureInjector._crash_shard, _has_shards),
    "shard-loss": FaultKind(FailureInjector._crash_shard, _has_shards, duration=None),
}


# -- chaos campaigns ---------------------------------------------------------------


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

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_faults < 0:
            raise ValueError(f"n_faults must be >= 0, got {self.n_faults}")
        kinds = tuple(self.kinds) if self.kinds is not None else tuple(FAULT_KINDS)
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        self.kinds = tuple(k for k in kinds if FAULT_KINDS[k].supported(self.injector))
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
            node_id = int(rng.integers(n_nodes))
            param, duration = FAULT_KINDS[kind].draw(rng, self.horizon)
            if kind == "node-crash":
                window = (when, when + duration)
                if any(s < window[1] and window[0] < e for s, e in node_outages):
                    # Would overlap another server outage; degrade the
                    # disk instead -- same node, same moment, survivable.
                    kind = "degrade-disk"
                    param, duration = FAULT_KINDS[kind].draw(rng, self.horizon)
                else:
                    node_outages.append(window)
            if not FAULT_KINDS[kind].per_node:
                node_id = None
            plan.append(ChaosFault(when, kind, node_id, duration, param))
        plan.sort(key=lambda f: f.time)
        self.plan = plan
        return plan

    def arm(self) -> list[ChaosFault]:
        """Sample (if needed) and inject every fault of the plan."""
        if not self.plan:
            self.sample()
        for fault in self.plan:
            self.injector.inject(fault)
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
    logs = {
        "record": master.record_log,
        "tier record": getattr(master, "tier_record_log", []),
        "lifecycle record": getattr(master, "lifecycle_record_log", []),
    }
    for label, log in logs.items():
        for record in log:
            if not record.status.is_terminal:
                problems.append(
                    f"{label} {record.block_id} stuck {record.status.value}"
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
