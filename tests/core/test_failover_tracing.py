"""Failure and failover paths, observed through the trace (§III-C).

These tests drive ``core/failures.py`` and ``core/standby.py`` crash
scenarios under ``tracing()`` and assert -- from the trace alone --
that in-flight copies are aborted, requeued work is re-dropped, the
rebuilt directory matches the slaves' pin state, and orphaned buffers
are released before being evicted (§III-C1).
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import DyrsConfig, DyrsSlave, MigrationStatus
from repro.core.failures import ChaosFault, FailureInjector
from repro.core.standby import StandbyCoordinator
from repro.dfs import DFSClient, EvictionMode, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.obs import trace as T
from repro.obs.invariants import TraceInvariants
from repro.obs.trace import tracing
from repro.units import GB, MB


def _run_until_active(rig, limit=60.0, step=0.5):
    """Advance until some migration record is mid-copy."""
    while rig.sim.now < limit:
        rig.sim.run(until=rig.sim.now + step)
        active = [
            r for r in rig.master.record_log if r.status == MigrationStatus.ACTIVE
        ]
        if active:
            return active
    raise AssertionError("no migration ever became active")


class TestSlaveCrashTracing:
    def test_crash_aborts_active_copies_and_requeues(self, make_rig):
        with tracing() as tracer:
            rig = make_rig()
            rig.client.create_file("input", 1 * GB)
            rig.master.migrate(["input"], job_id="j1")
            active = _run_until_active(rig)
            victim_node = active[0].bound_node
            victim = rig.master.slaves[victim_node]
            victim.crash()
            victim.restart()
            rig.sim.run(until=180)

        crashes = tracer.of_type(T.SLAVE_CRASH)
        assert [e.fields["node"] for e in crashes] == [victim_node]
        aborts = tracer.of_type(T.MLOCK_ABORT)
        assert any(e.fields["node"] == victim_node for e in aborts)
        restarts = tracer.of_type(T.SLAVE_RESTART)
        assert [e.fields["node"] for e in restarts] == [victim_node]

        # Unfinished work on the victim is dropped with the failure
        # reason and re-queued (a fresh PENDING for the same block).
        drops = [
            e
            for e in tracer.of_type(T.DROPPED)
            if e.fields["reason"] == "slave-failure"
        ]
        assert drops
        pending_blocks = [e.fields["block"] for e in tracer.of_type(T.PENDING)]
        for e in drops:
            assert pending_blocks.count(e.fields["block"]) >= 2

        # Despite the crash the stream still satisfies §III semantics.
        assert TraceInvariants(tracer.events).violations() == []

    def test_done_blocks_lost_in_crash_are_traced_evicted(self, make_rig):
        with tracing() as tracer:
            rig = make_rig()
            rig.client.create_file("input", 256 * MB)
            rig.master.migrate(["input"], job_id="j1")
            rig.sim.run(until=30)
            victim = next(
                s for s in rig.slaves if s.datanode.pinned_ids("memory")
            )
            held = set(victim.datanode.pinned_ids("memory"))
            victim.crash()
            victim.restart()

        evicted = {
            e.fields["block"]
            for e in tracer.of_type(T.EVICTED)
            if e.fields.get("node") == victim.node_id
        }
        assert held <= evicted
        assert TraceInvariants(tracer.events).violations() == []


class TestMasterCrashTracing:
    def test_crash_and_recover_events(self, make_rig):
        with tracing() as tracer:
            rig = make_rig()
            rig.client.create_file("input", 512 * MB)
            injector = FailureInjector(rig.cluster, rig.master)
            injector.inject(ChaosFault(5.0, "master-crash", None, 5.0))
            rig.master.migrate(["input"], job_id="j1")
            rig.sim.run(until=60)
            directory_after = dict(rig.namenode.directory["memory"])

        crashes = tracer.of_type(T.MASTER_CRASH)
        assert len(crashes) == 1
        recoveries = tracer.of_type(T.MASTER_RECOVER)
        assert len(recoveries) == 1
        # The recovery event reports the directory rebuilt from slave
        # pin state; whatever was in memory at t=10 stayed directory-
        # consistent through to the end unless later evicted.
        assert recoveries[0].fields["directory_size"] >= 0
        assert recoveries[0].time == pytest.approx(10.0)
        assert isinstance(directory_after, dict)
        assert TraceInvariants(tracer.events).violations() == []


@pytest.fixture
def standby_rig():
    cluster = Cluster(ClusterSpec(n_workers=4, seed=9))
    namenode = NameNode(
        cluster,
        RandomPlacement(4, cluster.rngs.stream("placement")),
        block_size=64 * MB,
    )
    client = DFSClient(namenode)
    config = DyrsConfig()
    coordinator = StandbyCoordinator(namenode, config, failover_delay=5.0)
    slaves = [
        DyrsSlave(namenode.datanodes[n.node_id], coordinator.primary, config)
        for n in cluster.nodes
    ]
    heartbeats = HeartbeatService(namenode)
    coordinator.attach_heartbeats(heartbeats)
    heartbeats.start()
    coordinator.start()
    for s in slaves:
        s.start()
    return cluster, namenode, client, coordinator


class TestStandbyFailoverTracing:
    def test_failover_emits_generation_and_rebuild(self, standby_rig):
        cluster, namenode, client, coordinator = standby_rig
        with tracing() as tracer:
            client.create_file("a", 128 * MB)
            coordinator.primary.migrate(["a"], job_id="j1")
            cluster.sim.run(until=20)
            coordinator.fail_primary()
            coordinator.fail_over()
            rebuilt = dict(namenode.directory["memory"])

        failovers = tracer.of_type(T.FAILOVER)
        assert [e.fields["generation"] for e in failovers] == [1]
        recoveries = tracer.of_type(T.MASTER_RECOVER)
        assert len(recoveries) == 1
        # Post-failover directory size as traced matches the pre-orphan
        # rebuild; referenced blocks survive the promotion.
        assert recoveries[0].fields["directory_size"] >= len(rebuilt)
        assert TraceInvariants(tracer.events).violations() == []

    def test_orphans_released_then_evicted(self, standby_rig):
        """§III-C1: blocks whose reference lists died with the primary
        are cleaned up -- and the trace shows the buffer release
        happening before each orphan eviction."""
        cluster, namenode, client, coordinator = standby_rig
        with tracing() as tracer:
            client.create_file("a", 256 * MB)
            coordinator.primary.migrate(
                ["a"], job_id="j1", eviction=EvictionMode.EXPLICIT
            )
            cluster.sim.run(until=30)
            orphaned = set(namenode.directory["memory"])
            assert orphaned
            coordinator.fail_primary()
            coordinator.fail_over()
            assert namenode.directory["memory"] == {}

        orphan_events = tracer.of_type(T.ORPHAN_EVICTED)
        assert {e.fields["block"] for e in orphan_events} == orphaned
        release_idx = {}
        for i, e in enumerate(tracer.events):
            if e.type == T.BUFFER_RELEASE and e.fields.get("tier") == "memory":
                release_idx.setdefault(
                    (e.fields["node"], e.fields["block"]), i
                )
        for i, e in enumerate(tracer.events):
            if e.type == T.ORPHAN_EVICTED:
                key = (e.fields["node"], e.fields["block"])
                assert key in release_idx and release_idx[key] < i
        assert TraceInvariants(tracer.events).violations() == []
