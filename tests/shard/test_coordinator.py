"""Tests for the ShardCoordinator: routing, fan-out, aggregation."""

import pytest

from repro.core import DyrsConfig
from repro.dfs.namenode import HeartbeatReport
from repro.obs import trace as obs
from repro.obs.metrics import collecting
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
            assert block.block_id in rig.namenode.memory_directory
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
            rig.config.heartbeat_interval * rig.namenode.heartbeat_miss_limit
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
        shards = 4 if request.param == "dyrs-sharded" else 1
        system = System(
            SystemConfig(scheme=request.param, shards=shards)
        ).start()
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


class TestPermanentLoss:
    """shard_dead_after: declaration, rebalance, and recovery."""

    @pytest.fixture
    def rig(self, make_shard_rig):
        return make_shard_rig(
            router_mode="rendezvous",
            config=DyrsConfig(
                reference_block_size=64 * MB, shard_dead_after=5.0
            ),
        )

    def test_crashed_shard_stays_routable_until_deadline(self, rig):
        rig.sim.run(until=1)
        rig.master.crash_shard(2)
        rig.sim.run(until=3)  # 2s down < 5s deadline
        assert rig.master.routable_shards() == [0, 1, 2, 3]

    def test_declaration_rehomes_and_traces_once(self, rig):
        rig.sim.run(until=1)
        rig.master.crash_shard(2)
        rig.sim.run(until=10)  # well past the deadline
        with obs.tracing() as tracer:
            assert rig.master.routable_shards() == [0, 1, 3]
            assert rig.master.routable_shards() == [0, 1, 3]
        # Sticky declaration: one shard_dead, not one per query.
        dead = tracer.of_type(obs.SHARD_DEAD)
        assert len(dead) == 1
        assert dead[0].fields["shard"] == 2
        assert dead[0].fields["dead_after"] == 5.0

    def test_new_records_route_to_survivors(self, rig):
        rig.sim.run(until=1)
        rig.master.crash_shard(2)
        rig.sim.run(until=10)
        rig.client.create_file("a", 12 * 64 * MB)
        rig.master.migrate(["a"], job_id="j1")
        assert rig.master.shard_pending_count(2) == 0
        assert rig.master.pending_count > 0

    def test_recover_returns_the_slice(self, rig):
        rig.sim.run(until=1)
        rig.master.crash_shard(2)
        rig.sim.run(until=10)
        assert rig.master.routable_shards() == [0, 1, 3]
        rig.master.recover_shard(2)
        assert rig.master.routable_shards() == [0, 1, 2, 3]

    def test_without_dead_after_crash_never_declares(self, make_shard_rig):
        rig = make_shard_rig(router_mode="rendezvous")
        rig.sim.run(until=1)
        rig.master.crash_shard(2)
        rig.sim.run(until=500)
        assert rig.master.routable_shards() == [0, 1, 2, 3]


class TestSystemWiring:
    def test_sharded_scheme_builds_and_runs(self):
        system = System(
            SystemConfig(scheme="dyrs-sharded", shards=2)
        ).start()
        assert system.master.n_shards == 2

    def test_shards_require_the_sharded_scheme(self):
        with pytest.raises(ValueError):
            SystemConfig(scheme="dyrs", shards=2)

    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(scheme="dyrs-sharded", shards=0)

    def test_router_mode_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(scheme="dyrs-sharded", shard_router="load")
