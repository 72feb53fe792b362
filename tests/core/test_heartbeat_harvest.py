"""The heartbeat harvest re-reads only the slaves whose load may have
moved, and still gives what a walk over every reported node gives.

:meth:`~repro.core.master.DyrsMaster.on_heartbeat` stamps every live
slave whose node reported, but calls ``heartbeat_load()`` only on
slaves marked by ``slave_changed`` and on slaves last read with a copy
in flight.  Each test below drives one transition that can move a
slave's ``(seconds_per_byte, queued_blocks)`` and audits every tick
(:class:`HarvestAudit`) against what :func:`full_walk` -- the harvest
as a walk over every reported node -- guarantees:

* every live reported slave's stored :class:`SlaveLoad` equals the
  slave's own ``(estimator.seconds_per_byte, queued_blocks)``;
* the stamps are the full walk's: the tick time for exactly the live
  reported slaves, unchanged for every other slave;
* every live reported slave with a claimed disk-lane copy is read
  exactly once, so its §IV-A refresh runs once per tick, and no slave
  is read twice or while dead or silent.

A slave without a claimed disk-lane copy is not refreshed by a read,
so
whether such a slave is read cannot be observed beyond the first two
points.
"""

from collections import Counter

import pytest

from repro.cluster import Cluster, ClusterSpec, PersistentInterference
from repro.core import DyrsConfig, DyrsMaster, DyrsSlave, MigrationStatus
from repro.core.failures import ChaosCampaign, ChaosFault, FailureInjector
from repro.core.standby import StandbyCoordinator
from repro.core.targeting import SlaveLoad
from repro.dfs import DFSClient, EvictionMode, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.experiments.chaos import CHAOS_TIER_OVERRIDES
from repro.experiments.common import PaperSetup, build_system
from repro.system import System, SystemConfig
from repro.units import GB, MB
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs


def full_walk(master, report):
    """The reference harvest: read every live slave whose node
    reported, stamp it, and store its pair when it differs."""
    for node_id in report.node_ids:
        slave = master.slaves.get(node_id)
        if slave is None or not slave.alive:
            continue
        spb, queued = slave.heartbeat_load()
        master._last_slave_report[node_id] = report.time
        load = master._loads.get(node_id)
        if (
            load is None
            or load.seconds_per_byte != spb
            or load.queued_blocks != queued
        ):
            master._loads[node_id] = SlaveLoad(
                seconds_per_byte=spb, queued_blocks=queued
            )


def _copy_claimed(slave):
    return slave._active is not None


class HarvestAudit:
    """Checks every tick of every DYRS master built while installed.

    Errors are collected, not raised: the harvest runs inside the
    heartbeat process, whose exceptions the engine keeps to itself.
    """

    def __init__(self, monkeypatch, harvest=None):
        self.ticks = 0
        self.errors = []
        self._reads = Counter()
        harvest = harvest or DyrsMaster.on_heartbeat
        read = DyrsSlave.heartbeat_load
        audit = self

        def counted_read(slave):
            audit._reads[slave] += 1
            return read(slave)

        def audited(master, report):
            before = dict(master._last_slave_report)
            audit._reads.clear()
            harvest(master, report)
            audit._check(master, report, before)

        monkeypatch.setattr(DyrsSlave, "heartbeat_load", counted_read)
        monkeypatch.setattr(DyrsMaster, "on_heartbeat", audited)

    def _check(self, master, report, before):
        self.ticks += 1
        time = report.time
        reported = set(report.node_ids)
        live = {
            node_id
            for node_id, slave in master.slaves.items()
            if slave.alive and node_id in reported
        }
        stamps = {
            node_id: time if node_id in live else stamp
            for node_id, stamp in before.items()
        }
        if master._last_slave_report != stamps:
            wrong = sorted(
                node_id
                for node_id, stamp in stamps.items()
                if master._last_slave_report.get(node_id) != stamp
            )
            self.errors.append(f"t={time}: stamps of nodes {wrong} differ")
        for node_id in sorted(live):
            slave = master.slaves[node_id]
            actual = SlaveLoad(
                seconds_per_byte=slave.estimator.seconds_per_byte,
                queued_blocks=slave.queued_blocks,
            )
            held = master._loads.get(node_id)
            if held != actual:
                self.errors.append(
                    f"t={time}: node {node_id} held {held}, slave has {actual}"
                )
            reads = self._reads[slave]
            if _copy_claimed(slave) and reads != 1:
                self.errors.append(
                    f"t={time}: node {node_id} has a copy in flight, "
                    f"read {reads} times"
                )
        for slave, reads in self._reads.items():
            if reads > 1 or slave.node_id not in live:
                self.errors.append(
                    f"t={time}: node {slave.node_id} read {reads} times "
                    f"({'live' if slave.node_id in live else 'not live'})"
                )

    def assert_clean(self, min_ticks=1):
        assert self.ticks >= min_ticks
        assert self.errors == []


@pytest.fixture
def audit(monkeypatch):
    """Install the audit before the test builds its system: masters
    subscribe their ``on_heartbeat`` when they are built."""
    return HarvestAudit(monkeypatch)


def _bind_at_master_only(rig):
    """One block, targeted and bound without reaching its slave (the
    grant never leaves the master), one second after the first tick
    that read every slave.  Returns (record, slave)."""
    rig.sim.run(until=rig.namenode.heartbeat_interval + 1)
    rig.client.create_file("one", 64 * MB)
    (record,) = rig.master.migrate(["one"], job_id="j1")
    assert rig.master.request_work(record.target_node, 1) == [record]
    return record, rig.slaves[record.target_node]


def _enqueue_at_tick(rig, record, slave, tick):
    """Enqueue ``record`` at ``tick`` ahead of that tick's heartbeat:
    the call is scheduled before the heartbeat timer, and the worker it
    wakes runs after the tick.  Returns what each tick saw of the
    slave, recorded after the master harvested it."""
    rig.sim.call_at(tick, lambda: slave.enqueue(record))
    seen = {}
    rig.namenode.add_heartbeat_observer(
        lambda report: seen.setdefault(
            report.time, (slave.queued_blocks, slave._active)
        )
    )
    return seen


class TestTransitions:
    def test_enqueue_onto_an_idle_slave(self, audit, make_rig):
        rig = make_rig()
        tick = 3 * rig.namenode.heartbeat_interval
        record, slave = _bind_at_master_only(rig)
        seen = _enqueue_at_tick(rig, record, slave, tick)
        rig.sim.run(until=tick + 0.1)
        assert seen[tick] == (1, None)  # queued, not yet claimed
        assert rig.master._loads[slave.node_id].queued_blocks == 1
        audit.assert_clean()

    def test_terminal_record_popped_from_the_queue(self, audit, make_rig):
        rig = make_rig()
        interval = rig.namenode.heartbeat_interval
        tick = 3 * interval
        record, slave = _bind_at_master_only(rig)
        seen = _enqueue_at_tick(rig, record, slave, tick)
        # Discarded right after the tick read it queued: the worker then
        # pops a terminal record and claims nothing.
        rig.namenode.add_heartbeat_observer(
            lambda report: report.time == tick
            and rig.master.discard(record, reason="missed-read")
        )
        rig.sim.run(until=tick + interval + 0.1)
        assert seen[tick] == (1, None)
        assert seen[tick + interval] == (0, None)
        assert record.status is MigrationStatus.DISCARDED
        assert record.started_at is None
        assert rig.master._loads[slave.node_id].queued_blocks == 0
        audit.assert_clean()

    def test_copy_done(self, audit, make_rig):
        """Copies run across ticks and end between them; on the slowed
        node they overrun their estimates, so ticks refresh them."""
        rig = make_rig(n_workers=3)
        PersistentInterference(rig.cluster.node(0), streams=4, start=0.0).start()
        rig.client.create_file("input", 1 * GB)
        rig.master.migrate(["input"], job_id="j1")
        rig.sim.run(until=90)
        assert all(r.status is MigrationStatus.DONE for r in rig.master.record_log)
        assert rig.slaves[0].estimator.refreshes > 0
        assert all(load.queued_blocks == 0 for load in rig.master._loads.values())
        audit.assert_clean(min_ticks=30)

    def test_slave_crash_then_restart(self, audit, make_rig):
        rig = make_rig()
        interval = rig.namenode.heartbeat_interval
        rig.client.create_file("input", 2 * GB)
        rig.master.migrate(["input"], job_id="j1")
        injector = FailureInjector(rig.cluster, master=rig.master)
        injector.inject(ChaosFault(1.5 * interval, "slave-crash", 1, 2 * interval))
        rig.sim.run(until=4 * interval + 0.1)
        # Down over the ticks at 2 and 3 intervals, back for the 4th.
        assert [action for _, action, _ in injector.log] == [
            "slave-crash",
            "slave-restart",
        ]
        assert rig.master._last_slave_report[1] == 4 * interval
        audit.assert_clean()

    def test_grant_between_ticks(self, audit, make_rig):
        rig = make_rig()
        interval = rig.namenode.heartbeat_interval
        record, slave = _bind_at_master_only(rig)
        assert rig.master._loads[slave.node_id].queued_blocks == 1
        rig.sim.run(until=2 * interval + 0.1)
        assert rig.master._loads[slave.node_id].queued_blocks == 0
        audit.assert_clean()

    def test_master_crash_then_recover(self, audit, make_rig):
        """The crash loses every load; the ticks during the outage
        rebuild them even for slaves that sit idle throughout."""
        rig = make_rig()
        interval = rig.namenode.heartbeat_interval
        rig.client.create_file("input", 256 * MB)
        rig.master.migrate(["input"], job_id="j1")
        injector = FailureInjector(rig.cluster, master=rig.master)
        # Down over the ticks at 2 and 3 intervals.
        injector.inject(ChaosFault(1.5 * interval, "master-crash", None, 2 * interval))
        idle = []
        rig.namenode.add_heartbeat_observer(
            lambda report: idle.append(
                not any(_copy_claimed(s) for s in rig.slaves)
            )
        )
        rig.sim.run(until=4 * interval + 0.1)
        assert [action for _, action, _ in injector.log] == [
            "master-crash",
            "master-recover",
        ]
        assert idle[1:4] == [True, True, True]  # ticks at 2-4 intervals
        rig.client.create_file("more", 512 * MB)
        rig.master.migrate(["more"], job_id="j2")
        rig.sim.run(until=10 * interval + 0.1)
        assert all(r.status is MigrationStatus.DONE for r in rig.master.record_log[-8:])
        audit.assert_clean(min_ticks=10)

    def test_standby_failover(self, audit):
        """The standby inherits slaves with copies in flight; from its
        first tick it stamps every live slave and refreshes them."""
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
        for slave in slaves:
            slave.start()
        PersistentInterference(cluster.node(0), streams=4, start=0.0).start()
        client.create_file("input", 2 * GB)
        coordinator.primary.migrate(["input"], job_id="j1")
        cluster.sim.run(until=4.5)
        busy = {s.node_id for s in slaves if _copy_claimed(s)}
        assert busy
        coordinator.fail_primary()
        new = coordinator.fail_over()
        ticks_before = audit.ticks
        cluster.sim.run(until=30)
        assert audit.ticks > ticks_before
        assert new._last_slave_report == dict.fromkeys(range(4), 30.0)
        audit.assert_clean()

    def test_ssd_lane_copy(self, audit):
        """An ssd->memory promotion runs on the SSD lane of a slave
        whose disk lane is idle; slowed, it runs across several ticks.
        It moves nothing the master reads, so after the tick that saw
        it claimed, no tick reads the slave, and every stored load
        still equals the slave's own."""
        system = System(
            SystemConfig(
                cluster=ClusterSpec(n_workers=4, seed=3, ssd=True),
                block_size=64 * MB,
                dyrs=DyrsConfig(),
            )
        ).start()
        sim = system.sim
        entry = system.client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        system.master.migrate(["f"], job_id="j1", eviction=EvictionMode.IMPLICIT)
        sim.run(until=30)
        # The read drops the last reference: the block steps down to SSD.
        system.client.read_block(block, reader_node=None, job_id="j1")
        sim.run(until=40)
        holder = system.namenode.directory["ssd"][block.block_id]
        slave = system.master.slaves[holder]
        channel = system.cluster.node(holder).ssd.channel
        channel.set_capacity(channel.capacity / 1000)
        (record,) = system.master.migrate(["f"], job_id="j2")
        assert record.source_tier == "ssd"
        sim.run(until=40 + 3 * system.namenode.heartbeat_interval)
        assert slave._ssd_active is record and slave._active is None
        assert audit._reads[slave] == 0  # the last tick did not read it
        audit.assert_clean()


#: (preset, shards, seed): a flat, a storage-ladder and a 4-shard
#: federated master, each under a 16-fault campaign.
CAMPAIGNS = (
    ("dyrs", 1, 4),
    ("dyrs-tiered", 1, 4),
    ("dyrs-sharded-async", 4, 2),
)
HORIZON = 60.0


@pytest.mark.parametrize("preset,shards,seed", CAMPAIGNS)
def test_fault_campaign(audit, preset, shards, seed):
    """Every tick of a seeded chaos run holds the audit's guarantees."""
    system = build_system(
        PaperSetup(
            scheme=preset,
            seed=seed,
            interference="alt-10s-1",
            shards=shards,
            tier_overrides=(
                dict(CHAOS_TIER_OVERRIDES) if preset == "dyrs-tiered" else {}
            ),
        )
    )
    injector = FailureInjector(system.cluster, master=system.master)
    plan = ChaosCampaign(injector, seed=seed, horizon=HORIZON, n_faults=16).arm()
    kinds = {fault.kind for fault in plan}
    assert {"slave-crash", "master-crash", "partition"} <= kinds
    descriptors = generate_swim_workload(
        system.cluster.rngs.stream("harvest.swim"),
        n_jobs=24,
        total_input=12 * GB,
        max_input=2 * GB,
        small_fraction=0.75,
        mean_interarrival=4.0,
    )
    system.runtime.run_to_completion(materialize_swim_jobs(system, descriptors))
    system.sim.run(until=max(system.sim.now, HORIZON) + 60.0)
    audit.assert_clean(min_ticks=40)


def test_full_walk_passes_the_audit(monkeypatch):
    """The audit holds the reference harvest to the same guarantees."""
    audit = HarvestAudit(monkeypatch, harvest=full_walk)
    system = build_system(PaperSetup(scheme="dyrs", seed=4, interference="alt-10s-1"))
    injector = FailureInjector(system.cluster, master=system.master)
    ChaosCampaign(injector, seed=4, horizon=HORIZON, n_faults=16).arm()
    system.client.create_file("input", 4 * GB)
    system.master.migrate(["input"], job_id="j1")
    system.sim.run(until=HORIZON + 30.0)
    audit.assert_clean(min_ticks=30)
