"""Tests for the ShardCoordinator: routing, fan-out, aggregation."""

import pytest

from repro.cluster import ClusterSpec
from repro.dfs.namenode import HeartbeatReport
from repro.obs import trace as obs
from repro.obs.metrics import collecting
from repro.shard import ShardCoordinator
from repro.system import System, SystemConfig
from repro.units import MB


class TestRouting:
    def test_records_partition_by_block_id(self, shard_rig):
        rig = shard_rig
        entry = rig.client.create_file("a", 8 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        by_shard = {s: 0 for s in range(4)}
        for block in entry.blocks:
            by_shard[block.block_id % 4] += 1
        for shard_id, expected in by_shard.items():
            assert rig.master.shard_pending_count(shard_id) == expected

    def test_pending_count_aggregates_shards(self, shard_rig):
        rig = shard_rig
        rig.client.create_file("a", 6 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        total = sum(rig.master.shard_pending_count(s) for s in range(4))
        assert rig.master.pending_count == total == 6

    def test_home_shard_is_node_modulo_shards(self, shard_rig):
        assert [shard_rig.master.home_shard_of(n) for n in range(6)] == [
            0, 1, 2, 3, 0, 1,
        ]

    def test_shard_of_block_is_router_verdict(self, shard_rig):
        rig = shard_rig
        entry = rig.client.create_file("a", 3 * 64 * MB)
        for block in entry.blocks:
            assert rig.master.shard_of_block(block) == block.block_id % 4


class TestPullProtocol:
    def test_zero_budget_grants_nothing(self, shard_rig):
        rig = shard_rig
        rig.client.create_file("a", 4 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        assert rig.master.request_work(0, 0) == []

    def test_full_run_migrates_every_block(self, shard_rig):
        rig = shard_rig
        entry = rig.client.create_file("a", 8 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        rig.sim.run(until=90)
        for block in entry.blocks:
            assert block.block_id in rig.namenode.directory["memory"]
        assert rig.master.pending_count == 0

    def test_grants_come_from_multiple_shards(self, shard_rig):
        """One pull budget is fanned across shards, so a node whose
        home shard runs dry still drains the others."""
        rig = shard_rig
        rig.client.create_file("a", 8 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        rig.sim.run(until=90)
        shards_seen = {
            event.block_id % 4 for event in rig.master.binding_log
        }
        assert len(shards_seen) > 1

    def test_shard_heartbeat_payload_harvested(self, shard_rig):
        rig = shard_rig
        rig.sim.run(until=15)
        assert rig.master._shard_reports
        assert set(rig.master._shard_reports) <= set(range(4))


class TestShardReports:
    """Per-shard freshness follows the home nodes' heartbeats."""

    def test_tick_refreshes_home_shard(self, shard_rig):
        rig = shard_rig
        rig.sim.run(until=1)
        before = dict(rig.master._shard_reports)
        rig.master.on_heartbeat(HeartbeatReport(time=rig.sim.now, node_ids=[1]))
        # Node 1's home shard is 1; no other shard's freshness moves.
        assert rig.master._shard_reports == {**before, 1: rig.sim.now}
        assert rig.master.shard_staleness(1) == 0.0

    def test_wire_payloads_pass_validation(self, shard_rig):
        """Heartbeat ticks from the real service refresh every shard."""
        rig = shard_rig
        rig.sim.run(until=15)
        assert set(rig.master._shard_reports) == set(range(4))

    def test_freshness_follows_nodes_not_processes(self, make_shard_rig):
        """DESIGN §13: a shard goes stale when its home nodes fall
        silent.  With one home node per shard, a crashed slave
        *process* on a node that still heartbeats keeps its shard
        fresh; a failed *node* lets the shard go stale past the miss
        horizon."""
        rig = make_shard_rig(n_shards=4, n_workers=4)
        horizon = (
            rig.namenode.heartbeat_interval * rig.namenode.heartbeat_miss_limit
        )
        assert [rig.master.home_shard_of(n) for n in range(4)] == [0, 1, 2, 3]
        rig.sim.run(until=1)
        rig.slaves[1].crash()
        rig.cluster.node(2).fail()
        rig.sim.run(until=1 + 3 * horizon)
        assert rig.master.shard_staleness(1) <= horizon
        assert rig.master.shard_staleness(2) > horizon
        assert rig.master.shard_weight(1) == 1.0
        assert rig.master.shard_weight(2) == 0.5

    def test_staleness_is_max_before_first_report(self, shard_rig):
        rig = shard_rig
        rig.sim.run(until=2)
        # No heartbeat interval has elapsed... but even so, a shard
        # that never reported reads as stale as the run is old.
        assert rig.master.shard_staleness(3) <= rig.sim.now

    def test_staleness_exported_as_gauge(self, shard_rig):
        rig = shard_rig
        rig.sim.run(until=15)
        with collecting() as registry:
            value = rig.master.shard_staleness(2)
            assert registry.gauge(
                "dyrs_shard_staleness_seconds", shard=2
            ).value == value


class TestEmptyGrantGuard:
    """An empty grant must be a strict no-op on both master shapes."""

    @pytest.fixture(params=["dyrs", "dyrs-sharded"])
    def master(self, request):
        # The flat master sets no shard count: ``shards=1`` would build
        # a one-shard federation.
        shards = 4 if request.param == "dyrs-sharded" else None
        system = System(SystemConfig(shards=shards)).start()
        return system.master

    def test_empty_pull_leaves_no_trace(self, master):
        load_before = master._loads[0]
        with obs.tracing() as tracer:
            granted = master.request_work(0, 8)
        assert granted == []
        assert master.binding_log == []
        assert not tracer.of_type(obs.BIND)
        assert master._loads[0] == load_before

    def test_record_grant_of_nothing_is_noop(self, master):
        with obs.tracing() as tracer:
            master._record_grant(0, [])
        assert master.binding_log == []
        assert not tracer.of_type(obs.BIND)


class TestRendezvousRouting:
    def test_crashed_shard_keeps_its_slice(self, make_shard_rig):
        """The router scores every shard, a crashed one included: a
        request whose block it names is discarded, not re-homed."""
        rig = make_shard_rig(router_mode="rendezvous")
        rig.sim.run(until=1)
        rig.master.crash_shard(2)
        rig.sim.run(until=100)
        rig.client.create_file("a", 12 * 64 * MB)
        records = rig.master.migrate(["a"], job_id="j1")
        lost = [r for r in records if rig.master.shard_of_block(r.block) == 2]
        assert lost
        assert all(r.discard_reason == "shard-down" for r in lost)
        assert rig.master.shard_pending_count(2) == 0

    def test_a_batch_routes_against_one_weight_read(
        self, make_shard_rig, monkeypatch
    ):
        """One migrate call reads each shard's weight once, routes every
        record as a one-off read at that instant would, and leaves the
        staleness gauges at the values the router acted on."""
        rig = make_shard_rig(router_mode="rendezvous")
        rig.cluster.node(2).fail()  # shard 2's only home node
        rig.sim.run(until=40)
        reads = []
        weight = ShardCoordinator.shard_weight
        monkeypatch.setattr(
            ShardCoordinator,
            "shard_weight",
            lambda self, shard_id: reads.append(shard_id) or weight(self, shard_id),
        )
        rig.client.create_file("a", 12 * 64 * MB)
        with collecting() as registry:
            records = rig.master.migrate(["a"], job_id="j1")
            gauges = [
                registry.gauge("dyrs_shard_staleness_seconds", shard=s).value
                for s in range(4)
            ]
        assert len(records) == 12
        assert reads == [0, 1, 2, 3]
        weights = [rig.master.shard_weight(s) for s in range(4)]
        assert weights == [1.0, 1.0, 0.5, 1.0]
        assert gauges == [rig.master.shard_staleness(s) for s in range(4)]
        owners = [rig.master.shard_of_block(r.block) for r in records]
        assert [rig.master.shard_pending_count(s) for s in range(4)] == [
            owners.count(s) for s in range(4)
        ]


class TestSystemWiring:
    def test_sharded_scheme_builds_and_runs(self):
        system = System(SystemConfig(shards=2)).start()
        assert system.master.n_shards == 2

    def test_one_shard_is_a_federation(self):
        assert isinstance(System(SystemConfig(shards=1)).master, ShardCoordinator)
        assert not isinstance(System(SystemConfig()).master, ShardCoordinator)

    def test_shards_require_the_sharded_scheme(self):
        with pytest.raises(ValueError):
            SystemConfig(scheme="ignem", shards=2)

    def test_shards_and_an_ssd_are_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(shards=2, cluster=ClusterSpec(ssd=True))

    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(shards=0)

    def test_router_mode_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(shards=2, shard_router="load")
        with pytest.raises(ValueError):
            SystemConfig(shards=2, shard_router="rack")
