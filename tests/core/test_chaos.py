"""Chaos layer tests: stranded-binding fixes, fault injectors, campaigns.

The headline regression here reproduces the pull-protocol leak: records
bound by ``request_work`` during an in-flight pull RPC were silently
dropped when the slave crashed before the response landed.  The node
stays up and heartbeating, so no availability detector ever fired --
the records stayed BOUND for as long as any job referenced them.
"""

import hashlib

import pytest

from repro.core import DyrsConfig
from repro.core.failures import (
    FAULT_KINDS,
    ChaosCampaign,
    ChaosFault,
    FailureInjector,
    quiesce_violations,
)
from repro.core.records import MigrationStatus
from repro.core.slave import RPC_LATENCY
from repro.experiments.common import PaperSetup, build_system
from repro.obs import trace as T
from repro.obs.invariants import TraceInvariants
from repro.obs.trace import tracing
from repro.units import GB, MB
from repro.workloads.sort import sort_job

from .conftest import wait_enders


def _arm_mid_pull_crash(rig, after=0.02, then=None):
    """Crash the granted-to slave ``after`` seconds after its pull RPC
    binds records at the master -- inside the response leg (each way
    takes ``RPC_LATENCY``, 0.05 s), so the grants are in flight when it
    dies.
    Returns a dict that fills in with the victim and its records."""
    captured = {}
    original = rig.master.request_work

    def wrapper(node_id, max_blocks):
        granted = original(node_id, max_blocks)
        if granted and "victim" not in captured:
            captured["victim"] = node_id
            captured["records"] = list(granted)
            slave = rig.master.slaves[node_id]

            def _crash():
                slave.crash()
                if then is not None:
                    then(slave)

            rig.sim.call_at(rig.sim.now + after, _crash)
        return granted

    rig.master.request_work = wrapper
    return captured


class TestStrandedBindingRegression:
    def test_old_behavior_strands_bound_records(self, rig, monkeypatch):
        """With the two new reclaim paths disabled, a crash mid-RPC
        leaves the grants BOUND forever -- the pre-fix behavior."""
        monkeypatch.setattr(
            type(rig.master), "requeue_undelivered", lambda self, records: 0
        )
        # The old reclaim only looked at node availability; the node
        # stays up here, so it never fired.  Emulate by disabling it.
        rig.master.reclaim_unavailable = lambda: 0
        captured = _arm_mid_pull_crash(rig)
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")  # j1 never finishes
        rig.sim.run(until=60)
        assert captured, "no pull ever granted records"
        stuck = [r for r in captured["records"] if r.status is MigrationStatus.BOUND]
        assert stuck, "expected stranded BOUND records under old behavior"
        for record in stuck:
            assert record.block_id not in rig.namenode.directory["memory"]

    def test_undelivered_grants_requeued_and_migrated_elsewhere(self, rig):
        """Fixed behavior: delivery failure requeues the grants; the
        blocks still land in memory, on a different node."""
        with tracing() as tracer:
            captured = _arm_mid_pull_crash(rig)
            rig.client.create_file("input", 256 * MB)
            rig.master.migrate(["input"], job_id="j1")
            rig.sim.run(until=120)
        assert captured
        victim = captured["victim"]
        for record in captured["records"]:
            assert record.status.is_terminal
        dropped = [
            e for e in tracer.of_type(T.DROPPED)
            if e.fields.get("reason") == "undelivered"
        ]
        assert dropped, "delivery failure must trace the dropped path"
        for block in rig.client.blocks_of(["input"]):
            node = rig.namenode.directory["memory"].get(block.block_id)
            assert node is not None and node != victim

    def test_requeue_skips_unreferenced_blocks(self, rig):
        """A grant whose job vanished while the RPC flew is dropped
        without creating a replacement that would pend forever."""

        def _finish_job(slave):
            rig.master.notify_job_finished("j1")

        captured = _arm_mid_pull_crash(rig, then=_finish_job)
        rig.client.create_file("input", 128 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=60)
        assert captured
        # Every record -- granted or not -- must be terminal: the job
        # is gone, so nothing may be left open or replaced.
        for record in rig.master.record_log:
            assert record.status.is_terminal


class TestSlaveEpochGuard:
    def test_stale_response_cannot_feed_restarted_slave(self, rig):
        """Crash + instant restart while the response is in flight: the
        new process (new epoch) must not receive the old grants."""
        captured = _arm_mid_pull_crash(rig, then=lambda slave: slave.restart())
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=120)
        assert captured
        for record in captured["records"]:
            # The original grants were discarded (replaced by fresh
            # records), never enqueued on the restarted process.
            assert record.status is MigrationStatus.DISCARDED
        # ... and the restarted slave still works: everything migrates.
        for block in rig.client.blocks_of(["input"]):
            assert block.block_id in rig.namenode.directory["memory"]
        # The stale response touched none of the new process's counters:
        # a response delivered across the restart would have subtracted
        # its grant from an undelivered count it never added to.
        assert [slave._undelivered for slave in rig.slaves] == [0] * len(rig.slaves)

    def test_crash_resets_pull_flag_for_next_incarnation(self, rig):
        """The leg counters belong to one incarnation: a crash clears
        them, and a leg of the dead epoch that lands later cannot free
        the restarted slave's window slot."""
        slave = rig.slaves[0]
        latency = RPC_LATENCY
        rig.sim.run(until=0.01)
        # The worker opened its first leg at start; it is still outbound.
        assert slave._leg_outstanding == {0: 1}
        slave._undelivered = 2  # as if a grant were riding the leg
        epoch = slave._epoch
        slave.crash()
        assert slave._leg_outstanding == {}
        assert slave._undelivered == 0
        assert slave._epoch == epoch + 1  # old responses are fenced off
        slave.restart()
        # The restarted worker opens its own leg at once.
        assert slave._leg_outstanding == {0: 1}
        # The old leg lands first and must not free the new slot ...
        rig.sim.run(until=rig.sim.now + latency - 0.005)
        assert slave._leg_outstanding == {0: 1}
        # ... which only the new leg's own round trip frees.
        rig.sim.run(until=rig.sim.now + latency)
        assert slave._leg_outstanding == {0: 0}

    def test_leg_crossing_a_restart_leaves_the_budget_alone(self, rig):
        """Crash and restart inside a leg's outbound half: the stale leg
        still binds (its request was on the wire) and its grant is
        requeued, but the records it never delivers must not count
        against the restarted process's queue space."""
        slave = rig.slaves[0]
        latency = RPC_LATENCY
        grants = []
        original = rig.master.bind_from_shard

        def spy(shard_id, generation, node_id, max_blocks):
            granted = original(shard_id, generation, node_id, max_blocks)
            if node_id == slave.node_id:
                grants.append(list(granted))
            return granted

        rig.master.bind_from_shard = spy
        rig.client.create_file("input", 1024 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=latency / 5)  # the first leg is still outbound
        slave.crash()
        slave.restart()
        # The stale leg binds at ``latency`` and lands at twice that;
        # the new incarnation's first leg is 10 ms behind it.
        rig.sim.run(until=2 * latency + 0.005)
        stale, fresh = grants[0], grants[1]
        assert stale, "the stale leg was granted nothing"
        for record in stale:
            assert record.status is MigrationStatus.DISCARDED
        assert slave._undelivered == len(fresh)
        rig.sim.run(until=120)
        assert slave._undelivered == 0
        for block in rig.client.blocks_of(["input"]):
            assert block.block_id in rig.namenode.directory["memory"]


class TestServiceWindowCrashFence:
    def test_crash_inside_the_service_wait_binds_nothing(self, make_rig):
        """A slave that crashes while the master services its leg walks
        away before the bind: nothing is bound to its node, so there is
        no undelivered grant to requeue, and the other slaves still
        migrate every block."""
        rig = make_rig(config=DyrsConfig(pull_service_cost=0.005))
        victim = rig.slaves[0]
        master = rig.master
        waits = []
        crash = {}
        requeued = []
        original_service = master.pull_service_seconds
        original_requeue = master.requeue_undelivered

        def crash_victim():
            crash["at"] = rig.sim.now
            crash["open_legs"] = dict(victim._leg_outstanding)
            crash["targeted"] = len(master._pending.targeted_at(victim.node_id))
            victim.crash()  # never restarted

        def service(shard_id):
            seconds = original_service(shard_id)
            if seconds > 0:
                if not waits:
                    rig.sim.call_at(rig.sim.now + seconds / 2, crash_victim)
                waits.append((rig.sim.now, rig.sim.now + seconds))
            return seconds

        def spy_requeue(records):
            requeued.extend(records)
            return original_requeue(records)

        master.pull_service_seconds = service
        master.requeue_undelivered = spy_requeue
        rig.client.create_file("input", 1024 * MB)
        master.migrate(["input"], job_id="j1")
        rig.sim.run(until=120)
        assert crash, "no leg ever waited for service"
        # Every slave's only leg (window 1), the victim's included, was
        # inside its service wait when the victim died, with work
        # targeted at the victim.
        in_service = [w for w in waits if w[0] < crash["at"] < w[1]]
        assert len(in_service) == len(rig.slaves)
        assert crash["open_legs"] == {0: 1}
        assert crash["targeted"] > 0
        assert not [r for r in master.record_log if r.bound_node == victim.node_id]
        assert requeued == []
        for block in rig.client.blocks_of(["input"]):
            node = rig.namenode.directory["memory"].get(block.block_id)
            assert node is not None and node != victim.node_id


class TestFailureTimingWindows:
    def test_crash_while_waiting_on_memory_space(self, rig):
        """A record bound to a slave stalled on the memory limit must
        be reclaimed (stale slave report) when that process dies and
        never restarts -- the node itself keeps heartbeating."""
        for node in rig.cluster.nodes:
            node.memory.pin("filler", node.memory.capacity - 32 * MB)
        rig.client.create_file("input", 64 * MB)
        rig.master.migrate(["input"], job_id="j1")
        record = rig.master.record_log[0]
        while record.bound_node is None and rig.sim.now < 30.0:
            rig.sim.run(until=rig.sim.now + 0.5)
        assert record.bound_node is not None, "record never bound"
        victim = record.bound_node
        # Not enough memory anywhere: the migration is parked in the
        # space-wait loop, record still non-terminal.
        assert not record.status.is_terminal
        rig.master.slaves[victim].crash()  # never restarted
        for node in rig.cluster.nodes:
            if node.node_id != victim:
                node.memory.unpin("filler")
                rig.master.slaves[node.node_id].notify_memory_freed()
        rig.sim.run(until=rig.sim.now + 60)
        assert record.status.is_terminal
        landed = rig.namenode.directory["memory"].get(record.block_id)
        assert landed is not None and landed != victim

    def test_master_crash_discards_pending_records(self, rig):
        rig.client.create_file("input", 1024 * MB)
        rig.master.migrate(["input"], job_id="j1")
        with tracing() as tracer:
            rig.master.crash()
        assert rig.master.pending_count == 0
        reasons = {e.fields.get("reason") for e in tracer.of_type(T.DROPPED)}
        assert reasons == {"master-crash"}
        # Nothing may be left open: every record is terminal or already
        # safely bound at a slave (which keeps working, §III-C1).
        for record in rig.master.record_log:
            assert record.status.is_terminal or record.bound_node is not None

    def test_migrate_during_master_outage_is_lost(self, rig):
        rig.master.crash()
        rig.client.create_file("input", 64 * MB)
        assert rig.master.migrate(["input"], job_id="j1") == []
        rig.master.recover()
        assert rig.master.migrate(["input"], job_id="j2")


class TestNodeRecoverySnapshot:
    def test_node_recover_does_not_resurrect_previously_dead_slave(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(2.0, "slave-crash", 1, None))  # no restart
        injector.inject(ChaosFault(5.0, "node-crash", 1, 10.0))
        rig.sim.run(until=30)
        assert rig.cluster.node(1).alive
        # The node failure found the slave already dead, so its
        # recovery must not restart it.
        assert not rig.slaves[1].alive

    def test_node_recover_restarts_slave_it_killed(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(5.0, "node-crash", 1, 10.0))
        rig.sim.run(until=6)
        assert not rig.slaves[1].alive
        rig.sim.run(until=30)
        assert rig.cluster.node(1).alive
        assert rig.slaves[1].alive


class TestDeviceFaults:
    def test_degrade_disk_restores_nominal(self, rig):
        channel = rig.cluster.node(0).disk.channel
        nominal = channel.capacity
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(5.0, "degrade-disk", 0, 10.0, param=0.25))
        rig.sim.run(until=6)
        assert channel.capacity == pytest.approx(nominal * 0.25)
        rig.sim.run(until=20)
        assert channel.capacity == pytest.approx(nominal)

    def test_degrade_nic_covers_both_directions(self, rig):
        nic = rig.cluster.node(2).nic
        nominal = nic.egress.capacity
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(1.0, "degrade-nic", 2, 5.0, param=0.5))
        rig.sim.run(until=2)
        assert nic.egress.capacity == pytest.approx(nominal * 0.5)
        assert nic.ingress.capacity == pytest.approx(nominal * 0.5)
        rig.sim.run(until=10)
        assert nic.egress.capacity == pytest.approx(nominal)
        assert nic.ingress.capacity == pytest.approx(nominal)

    def test_fifo_overlapping_degrades_restore_nominal(self, rig):
        """Two degrades of one disk that end first-in-first-out: each
        end leaves the factors still active, and the last one leaves
        the nominal capacity, not the rate the other degrade saw."""
        channel = rig.cluster.node(1).disk.channel
        nominal = channel.capacity
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(1.0, "degrade-disk", 1, 10.0, param=0.5))
        injector.inject(ChaosFault(2.0, "degrade-disk", 1, 20.0, param=0.25))
        rig.sim.run(until=1.5)
        assert channel.capacity == nominal * 0.5
        rig.sim.run(until=2.5)
        assert channel.capacity == nominal * 0.5 * 0.25
        rig.sim.run(until=11.5)  # the first degrade has ended
        assert channel.capacity == nominal * 0.25
        rig.sim.run(until=30)
        assert channel.capacity == nominal

    def test_degrade_slows_active_migration(self, make_rig):
        """set_capacity mid-flow: the copy finishes later than in the
        undegraded run of the same seed."""

        def _completion(r):
            r.client.create_file("input", 64 * MB)
            r.master.migrate(["input"], job_id="j1")
            r.sim.run(until=120)
            record = r.master.record_log[0]
            assert record.completed_at is not None
            return record.completed_at

        baseline = _completion(make_rig())
        slow = make_rig()
        injector = FailureInjector(slow.cluster, slow.master)
        for node in slow.cluster.nodes:
            injector.inject(
                ChaosFault(0.3, "degrade-disk", node.node_id, 500.0, param=0.1)
            )
        assert _completion(slow) > baseline

    def test_degrade_factor_validation(self):
        with pytest.raises(ValueError):
            ChaosFault(1.0, "degrade-disk", 0, 1.0, param=0.0)
        with pytest.raises(ValueError):
            ChaosFault(1.0, "degrade-disk", 0, 1.0, param=1.5)
        with pytest.raises(ValueError):
            ChaosFault(1.0, "degrade-disk", 0, 0.0, param=0.5)


class TestChaosFault:
    @pytest.mark.parametrize(
        "args",
        [
            (1.0, "meteor-strike", 0, 1.0),
            (1.0, "master-crash", 0, 1.0),
            (1.0, "slave-crash", None, 1.0),
            (1.0, "partition", 0, None),
            (1.0, "node-crash", 0, -1.0),
            (1.0, "shard-loss", 0, 5.0),
            (1.0, "rpc-delay", 0, 1.0, 0.0),
        ],
        ids=[
            "unknown-kind",
            "cluster-wide-names-a-node",
            "node-fault-names-none",
            "condition-without-end",
            "negative-duration",
            "shard-loss-recovers",
            "rpc-delay-adds-nothing",
        ],
    )
    def test_malformed_faults_are_rejected(self, args):
        with pytest.raises(ValueError):
            ChaosFault(*args)

    @pytest.mark.parametrize(
        "fault",
        [
            ChaosFault(1.0, "slave-crash", 0, None),
            ChaosFault(1.0, "master-crash", None, None),
            ChaosFault(1.0, "shard-crash", 0, 1.0),
            ChaosFault(1.0, "shard-loss", 0, None),
            ChaosFault(1.0, "crash-tier-move", None, 1.0),
            ChaosFault(1.0, "partition", 0, 1.0),
            ChaosFault(1.0, "rpc-delay", 0, 1.0, param=0.5),
        ],
        ids=lambda fault: fault.kind,
    )
    def test_master_faults_need_a_master(self, rig, fault):
        injector = FailureInjector(rig.cluster, master=None)
        with pytest.raises(RuntimeError, match="no migration master"):
            injector.inject(fault)

    def test_fabric_fault_needs_an_archive_link(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        with pytest.raises(RuntimeError, match="archive"):
            injector.inject(ChaosFault(1.0, "degrade-fabric", None, 1.0, param=0.5))


class TestPartitionAndDelay:
    def test_partition_trips_availability_then_heals(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        limit = rig.namenode.heartbeat_interval * rig.namenode.heartbeat_miss_limit
        injector.inject(ChaosFault(5.0, "partition", 1, limit + 10))
        rig.sim.run(until=5 + limit + 2)
        assert 1 in rig.namenode.partitioned
        assert not rig.namenode.is_available(1)
        rig.sim.run(until=5 + limit + 10 + limit + 2)
        assert 1 not in rig.namenode.partitioned
        assert rig.namenode.is_available(1)

    def test_partition_binds_nothing_and_work_lands_elsewhere(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(0.01, "partition", 0, 500.0))
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=120)
        # Every pull leg from the partitioned node is blackholed ...
        assert rig.master.binding_log
        assert all(b.node_id != 0 for b in rig.master.binding_log)
        assert all(r.bound_node != 0 for r in rig.master.record_log)
        # ... and the work it would have taken lands elsewhere.
        for block in rig.client.blocks_of(["input"]):
            landed = rig.namenode.directory["memory"].get(block.block_id)
            assert landed is not None and landed != 0

    def test_rpc_delay_injected_and_cleared(self, rig):
        injector = FailureInjector(rig.cluster, rig.master)
        injector.inject(ChaosFault(2.0, "rpc-delay", 3, 5.0, param=0.7))
        rig.sim.run(until=3)
        assert rig.slaves[3]._rpc_extra == pytest.approx(0.7)
        rig.sim.run(until=10)
        assert rig.slaves[3]._rpc_extra == 0.0


#: Systems whose sampled plans are pinned, and the sha256 of those plans.
SAMPLED_SYSTEMS = ("hdfs", "ignem", "instant", "dyrs", "dyrs-lifecycle", "dyrs-sharded")
SAMPLED_PLANS_DIGEST = (
    "76fbc2132e89162d12536f361c9c527097d858a3ffd687da02ded8a12949bafe"
)


class TestChaosCampaign:
    def _campaign(self, rig, seed, **kw):
        injector = FailureInjector(rig.cluster, rig.master)
        return ChaosCampaign(injector, seed=seed, horizon=100.0, **kw)

    def test_same_seed_same_plan(self, make_rig):
        a = self._campaign(make_rig(), seed=42).sample()
        b = self._campaign(make_rig(), seed=42).sample()
        assert a == b

    def test_different_seed_different_plan(self, make_rig):
        a = self._campaign(make_rig(), seed=1, n_faults=12).sample()
        b = self._campaign(make_rig(), seed=2, n_faults=12).sample()
        assert a != b

    def test_node_crashes_never_overlap(self, make_rig):
        plan = self._campaign(
            make_rig(), seed=9, n_faults=40, kinds=("node-crash",)
        ).sample()
        outages = sorted(
            (f.time, f.time + f.duration)
            for f in plan
            if f.kind == "node-crash"
        )
        for (_, end), (start, _) in zip(outages, outages[1:]):
            assert end <= start

    def test_master_and_node_crashes_always_recover(self, make_rig):
        plan = self._campaign(make_rig(), seed=5, n_faults=50).sample()
        for fault in plan:
            if fault.kind in ("master-crash", "node-crash"):
                assert fault.duration is not None
                assert fault.time + fault.duration < 100.0

    def test_unknown_kind_rejected(self, make_rig):
        rig = make_rig()
        with pytest.raises(ValueError):
            self._campaign(rig, seed=0, kinds=("meteor-strike",))

    @pytest.mark.parametrize(
        "scheme,kind", [("ignem", "master-crash"), ("dyrs", "shard-crash")]
    )
    def test_explicit_kinds_the_system_cannot_take_are_rejected(self, scheme, kind):
        """Explicit kinds the attached system cannot take fail at
        construction, naming them, not inside the sampler; with no
        faults to draw there is nothing to refuse."""
        system = build_system(
            PaperSetup(scheme=scheme, n_workers=8, seed=0, interference="none")
        )
        injector = FailureInjector(system.cluster, master=system.master)
        with pytest.raises(ValueError, match=kind):
            ChaosCampaign(injector, seed=0, horizon=60.0, kinds=(kind,))
        empty = ChaosCampaign(injector, seed=0, horizon=60.0, n_faults=0, kinds=(kind,))
        assert empty.sample() == []

    @pytest.mark.parametrize("scheme", ["ignem", "naive", "instant"])
    def test_default_kinds_run_to_the_horizon_on_every_baseline(self, scheme):
        """The default kinds are those the attached system supports: a
        push-binding baseline has no master crash/recover path, and the
        instant migrator has no slaves to crash."""
        for seed in range(4):
            system = build_system(
                PaperSetup(scheme=scheme, n_workers=8, seed=seed, interference="none")
            )
            injector = FailureInjector(system.cluster, master=system.master)
            campaign = ChaosCampaign(injector, seed=seed, horizon=60.0, n_faults=12)
            campaign.arm()
            system.runtime.submit(sort_job(system, size=2 * GB, job_id="sort-0"))
            system.sim.run(until=60.0)
            assert system.sim.now == 60.0
            assert "master-crash" not in campaign.kinds
            assert ("slave-crash" in campaign.kinds) == (scheme != "instant")

    def test_sampled_plans_are_pinned(self):
        """Plans drawn on six systems (no master, push-binding, no
        slaves, flat, archive ladder, federation) under three kind
        settings and 25 seeds hash to the digest the per-kind sampler
        drew before the kinds moved into one table: every draw, its
        order and every capability filter are unchanged."""
        digest = hashlib.sha256()
        for scheme in SAMPLED_SYSTEMS:
            system = build_system(
                PaperSetup(
                    scheme=scheme,
                    n_workers=8,
                    seed=0,
                    interference="none",
                    shards=4 if scheme == "dyrs-sharded" else 1,
                )
            )
            injector = FailureInjector(system.cluster, master=system.master)
            for kinds in (None, tuple(reversed(FAULT_KINDS)), ("node-crash",)):
                for seed in range(25):
                    plan = ChaosCampaign(
                        injector, seed=seed, horizon=60.0, n_faults=12, kinds=kinds
                    ).sample()
                    digest.update(repr(plan).encode())
        assert digest.hexdigest() == SAMPLED_PLANS_DIGEST

    def test_arm_schedules_and_fires(self, rig):
        campaign = self._campaign(rig, seed=3, n_faults=4)
        plan = campaign.arm()
        assert len(plan) == 4
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=150)
        assert campaign.injector.log  # the scheduled faults fired


class TestNotifyLiveness:
    """A parked notify-mode slave waits on its signal alone, so every
    fault a campaign throws must leave each idle slave wakeable."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_campaign_leaves_parked_slaves_wakeable(self, seed):
        with tracing() as tracer:
            system = build_system(
                PaperSetup(
                    scheme="dyrs",
                    seed=seed,
                    interference="none",
                    dyrs_overrides={"idle_pull": "notify"},
                )
            )
            injector = FailureInjector(system.cluster, master=system.master)
            plan = ChaosCampaign(injector, seed=seed, horizon=120.0).arm()
            system.runtime.run_to_completion(
                [sort_job(system, size=2 * GB, job_id="sort-0")]
            )
            cleared = max(f.time + (f.duration or 0.0) for f in plan)
            system.sim.run(until=max(system.sim.now, cleared) + 1.0)
            system.client.create_file("late", 1 * GB)
            system.master.migrate(["late"], job_id="late")
            system.sim.run(until=system.sim.now + 10.0)
            memory = system.namenode.directory["memory"]
            assert all(
                b.block_id in memory for b in system.client.blocks_of(["late"])
            )
            system.master.notify_job_finished("late")
            system.sim.run(until=system.sim.now + 30.0)
        # Idle again, every live slave is parked at the master and waits
        # on its signal alone: only a wake can end the wait.
        for slave in system.master.slaves.values():
            if slave.alive:
                signal = slave._work_signal
                assert system.master._parked[slave.node_id] is signal
                assert wait_enders(system.sim, signal) == []
        checker = TraceInvariants(tracer.events)
        assert checker.violations() == []
        assert (
            checker.liveness_violations(
                final_memory_bytes=system.cluster.total_memory_used()
            )
            == []
        )
        assert quiesce_violations(system.master) == []


class TestQueueDepthAccounting:
    def test_grant_depths_are_incremental(self, rig):
        """Each binding in one grant lands on an incrementally deeper
        queue -- not the uniform base + len(granted) it used to report."""
        with tracing() as tracer:
            rig.client.create_file("input", 512 * MB)  # 8 blocks
            rig.master.migrate(["input"], job_id="j1")
            granted = []
            for node_id in rig.master.slaves:
                granted = rig.master.request_work(node_id, 8)
                if len(granted) >= 2:
                    break
        assert len(granted) >= 2, "need a multi-record grant"
        events = [
            e for e in tracer.of_type(T.BIND) if e.fields["node"] == node_id
        ]
        depths = [e.fields["queue_depth"] for e in events[-len(granted):]]
        assert depths == list(range(1, len(granted) + 1))
        log_depths = [
            b.queue_depth_after for b in rig.master.binding_log[-len(granted):]
        ]
        assert log_depths == depths

    def test_bind_depth_series_monotone_within_grant(self, rig):
        """Analyzer view: the per-node depth series steps by one inside
        a same-timestamp grant burst, with no duplicates."""
        from repro.obs.analyze import TraceAnalyzer

        with tracing() as tracer:
            rig.client.create_file("input", 512 * MB)
            rig.master.migrate(["input"], job_id="j1")
            rig.sim.run(until=60)
        analyzer = TraceAnalyzer(tracer.events)
        for node_id in rig.master.slaves:
            by_time = {}
            for t, depth in analyzer.queue_depth_series(node=node_id):
                by_time.setdefault(t, []).append(depth)
            for depths in by_time.values():
                assert depths == sorted(depths)
                assert len(set(depths)) == len(depths)
