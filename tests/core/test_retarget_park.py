"""Parked retarget ticks: every wake re-arms the tick exactly.

A DYRS master with nothing pending and nothing bound parks its
retarget tick: no tick is simulated until a retarget pass finds records
pending, or, on the storage ladder, a push binds a record without one.
Each test here drives one way a parked master wakes and runs the same
scenario a second time with parking switched off (``DyrsMaster._idle``
patched to answer False), then checks that the two runs

* bind the same records to the same nodes at the same instants;
* leave every migration record in the same state at the same times;
* count the same Algorithm 1 passes (``retarget_passes``);
* run ``reclaim_unavailable`` at the same instants whenever the master
  had work (a parked master skips only ticks that would find none);
* emit the same trace.

Deleting any one wake fails at least one of these tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.compute.job import mapreduce_job
from repro.core import DyrsConfig, DyrsMaster, DyrsSlave
from repro.core.master import RETARGET_RANK
from repro.core.records import MigrationStatus
from repro.core.standby import StandbyCoordinator
from repro.dfs import DFSClient, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.obs import trace as obs
from repro.sim.events import TRAILING_PRIORITY
from repro.system import System, SystemConfig
from repro.units import MB

#: Off the 0.5 s tick grid: a wake here re-arms the tick at 10.5.
OFF_GRID = 10.02


@dataclass
class World:
    """One wired deployment: its clock, client, slaves and masters."""

    sim: object
    client: DFSClient
    slaves: list
    masters: Callable[[], list]
    system: Optional[System] = None
    coordinator: Optional[StandbyCoordinator] = None
    #: ``(instant, had work)`` per ``reclaim_unavailable`` call.
    reclaims: list = field(default_factory=list)
    #: Whether each master's tick was parked, by sample instant.
    parked: dict = field(default_factory=dict)
    #: What a test's actions saw in this run.
    notes: dict = field(default_factory=dict)

    @property
    def master(self):
        return self.masters()[-1]


def _has_work(master) -> bool:
    """Whether a tick could do anything: records pending, bound, or
    (on the storage ladder) a live cache fill."""
    return bool(
        master.pending_count
        or master._inflight_by_node
        or getattr(master, "_tier_records", None)
    )


def _spy(world: World, master) -> None:
    """Log each ``reclaim_unavailable`` call of ``master``."""
    original = master.reclaim_unavailable

    def reclaim_unavailable():
        world.reclaims.append((master.sim.now, _has_work(master)))
        return original()

    master.reclaim_unavailable = reclaim_unavailable


def _system(n_workers=4, shards=None, ssd=False, size=256 * MB) -> World:
    system = System(
        SystemConfig(
            cluster=ClusterSpec(n_workers=n_workers, seed=3, ssd=ssd),
            shards=shards,
        )
    )
    world = World(
        system.sim, system.client, system.slaves, lambda: [system.master], system
    )
    _spy(world, system.master)
    system.start()
    world.client.create_file("a", size)
    return world


def _standby() -> World:
    cluster = Cluster(ClusterSpec(n_workers=4, seed=9))
    namenode = NameNode(
        cluster,
        RandomPlacement(4, cluster.rngs.stream("placement")),
        block_size=64 * MB,
    )
    config = DyrsConfig()
    coordinator = StandbyCoordinator(namenode, config)
    masters = [coordinator.primary]
    slaves = [
        DyrsSlave(namenode.datanodes[n.node_id], coordinator.primary, config)
        for n in cluster.nodes
    ]
    heartbeats = HeartbeatService(namenode)
    coordinator.attach_heartbeats(heartbeats)
    world = World(cluster.sim, DFSClient(namenode), slaves, lambda: masters)
    world.coordinator = coordinator
    _spy(world, coordinator.primary)
    heartbeats.start()
    coordinator.start()
    for slave in slaves:
        slave.start()
    world.client.create_file("a", 256 * MB)
    return world


def _migrate(world: World, name: str = "a") -> None:
    world.client.migrate([name], job_id=f"j-{name}")


def _heat(world: World) -> None:
    """Read every block of "a" from disk, undeclared: the blocks turn
    HOT, so the next lifecycle pass fills them into the SSD."""
    for block in world.client.blocks_of(["a"]):
        world.client.read_block(block, reader_node=None, job_id="scan")


def _live_ticks(sim) -> list:
    """Retarget ticks still scheduled to pop."""
    return [
        event
        for _when, priority, key, event in sim._heap
        if priority == TRAILING_PRIORITY
        and key[0] == RETARGET_RANK
        and not event._discarded
    ]


def _note_parked(world: World) -> None:
    tick = world.master._retarget_tick
    world.parked[world.sim.now] = tick is not None and tick.event is None


def _outcome(world: World, tracer) -> tuple:
    records = []
    bindings = []
    passes = []
    for master in world.masters():
        for r in (*master.record_log, *getattr(master, "tier_record_log", ())):
            records.append(
                (
                    r.block_id,
                    r.source_tier,
                    r.dest_tier,
                    r.status.name,
                    r.bound_node,
                    r.bound_at,
                    r.started_at,
                    r.completed_at,
                    r.discarded_at,
                    r.discard_reason,
                )
            )
        bindings.extend(master.binding_log)
        passes.append(master.retarget_passes)
    with_work = [when for when, busy in world.reclaims if busy]
    trace = [e.to_json() for e in tracer.events]
    return records, bindings, passes, with_work, trace


@contextmanager
def _traced(park):
    """Trace a run; ``park=False`` switches tick parking off for it."""
    with pytest.MonkeyPatch.context() as patch:
        if not park:
            patch.setattr(DyrsMaster, "_idle", lambda self: False)
        with obs.tracing() as tracer:
            yield tracer


def _play(build, actions, until, park=True, samples=(), between=None):
    """Run one scenario; return its outcome, engine steps and world.

    ``actions`` fire inside events at their instants; ``between``, a
    ``(instant, action)`` pair, fires between two runs, after every
    event of its instant."""
    with _traced(park) as tracer:
        world = build()
        for when, action in actions:
            world.sim.call_at(when, partial(action, world))
        for when in samples:
            world.sim.call_at(when, partial(_note_parked, world))
        if between is not None:
            when, action = between
            world.sim.run(until=when)
            action(world)
        world.sim.run(until=until)
    return _outcome(world, tracer), world.sim.steps, world


def _assert_exact(build, actions, until, samples=(), between=None):
    """The scenario decides the same with parking on and off, and the
    parked run spends fewer engine events; return both worlds."""
    outcome, steps, world = _play(build, actions, until, True, samples, between)
    reference, ref_steps, ref_world = _play(
        build, actions, until, False, samples, between
    )
    assert steps < ref_steps
    records, bindings, passes, with_work, trace = outcome
    assert records == reference[0]
    assert bindings == reference[1]
    assert passes == reference[2]
    assert with_work == reference[3]
    assert trace == reference[4]
    assert bindings, "nothing bound"
    return world, ref_world


def _first_reclaim_with_work(world: World) -> float:
    return next(when for when, busy in world.reclaims if busy)


class TestWakes:
    def test_migrate_inside_an_event_off_the_tick_grid(self):
        """A request at 10.02 wakes the idle master; its first tick
        with work runs at 10.5, as the unparked tick did."""
        world, _ = _assert_exact(
            _system,
            [(OFF_GRID, _migrate)],
            until=60,
            samples=[OFF_GRID - 0.01],
        )
        assert world.parked[OFF_GRID - 0.01]
        assert _first_reclaim_with_work(world) == 10.5
        for block in world.client.blocks_of(["a"]):
            assert block.block_id in world.master.namenode.directory["memory"]
        # Parked again once every copy finished.
        assert world.master._retarget_tick.event is None
        assert _live_ticks(world.sim) == []

    def test_migrate_between_runs_on_a_tick_instant(self):
        """``run(until=30)`` has run the 30.0 s tick, so a request
        made between runs there is first ticked at 30.5."""
        world, _ = _assert_exact(
            _system, [], until=90, samples=[29.99], between=(30.0, _migrate)
        )
        assert world.parked[29.99]
        assert _first_reclaim_with_work(world) == 30.5

    def test_job_submitted_on_a_tick_instant(self):
        """A job submitted at 10.0 s asks for its input inside a normal
        event of the tick's instant, so the tick due then still runs,
        after it, as the unparked tick did."""

        def build():
            world = _system()
            blocks = world.client.blocks_of(["a"])
            job = mapreduce_job(
                "job", blocks, ["a"], shuffle_bytes=0, output_bytes=0, submit_time=10.0
            )
            world.system.runtime.submit(job)
            return world

        world, _ = _assert_exact(build, [], until=90, samples=[9.99])
        assert world.parked[9.99]
        assert _first_reclaim_with_work(world) == 10.0
        assert world.system.metrics.job("job").finished_at is not None

    def test_lifecycle_pass_fills_the_ssd(self):
        """The lifecycle pass writes its disk->ssd fills into the
        pending list itself and then runs a retarget pass, which wakes
        the idle master's tick."""
        world, _ = _assert_exact(
            partial(_system, ssd=True),
            [(1.02, _heat)],
            until=60,
            samples=[9.99],
        )
        assert world.parked[9.99]
        fills = world.master.tier_record_log
        assert fills and all(r.status is MigrationStatus.DONE for r in fills)
        assert _first_reclaim_with_work(world) == 10.0

    def test_push_bind_of_an_ssd_copy(self):
        """A request for blocks cached on the SSD binds each to its
        holder without a retarget pass; that bind wakes the tick, which
        reclaims the copies from holders that then crash for good."""

        def migrate_and_crash(world):
            _migrate(world)
            records = world.master.record_log
            bound = {r.bound_node for r in records if r.bound_node is not None}
            for node_id in sorted(bound):
                world.slaves[node_id].crash()

        world, _ = _assert_exact(
            partial(_system, ssd=True),
            [(1.02, _heat), (40.02, migrate_and_crash)],
            until=90,
            samples=[40.01],
        )
        assert world.parked[40.01]
        lost = [
            r for r in world.master.record_log if r.discard_reason == "slave-failure"
        ]
        assert lost and all(r.source_tier == "ssd" for r in lost)

    def test_batch_routed_to_a_downed_shard_leaves_the_tick_parked(self):
        """Records routed to a crashed shard are discarded on arrival:
        the master stays idle and its tick stays parked.  A later batch
        that reaches a live shard wakes it."""

        def build():
            world = _system(shards=4)
            world.client.create_file("b", 64 * MB)
            return world

        def crash_owner(world):
            (block,) = world.client.blocks_of(["b"])
            world.master.crash_shard(world.master.shard_of_block(block))

        world, _ = _assert_exact(
            build,
            [
                (OFF_GRID, crash_owner),
                (OFF_GRID, partial(_migrate, name="b")),
                (12.02, _migrate),
            ],
            until=60,
            samples=[10.01, 12.01],
        )
        assert world.parked[10.01] and world.parked[12.01]
        (block,) = world.client.blocks_of(["b"])
        assert world.master.record_of(block.block_id).discard_reason == "shard-down"
        assert _first_reclaim_with_work(world) == 12.5


class TestStops:
    def test_crash_and_recover_while_parked(self):
        """A crash discards the chain, parked or not, so nothing pops
        for it; the recovered master starts a fresh one, parked since
        it is idle, and a second ``start`` adds none."""

        def crash(world):
            world.master.crash()
            world.notes["after crash"] = _live_ticks(world.sim)
            world.notes["tick"] = world.master._retarget_tick

        def recover(world):
            world.master.recover()
            world.notes["recovered"] = world.master._retarget_tick
            world.master.start()

        world, ref_world = _assert_exact(
            _system,
            [(OFF_GRID, crash), (12.3, recover), (14.02, _migrate)],
            until=60,
            samples=[10.01, 13.0],
        )
        assert world.parked[10.01] and world.parked[13.0]
        for run in (world, ref_world):
            assert run.notes["after crash"] == [] and run.notes["tick"] is None
            assert run.notes["recovered"] is run.master._retarget_tick
            # No tick popped while the master was down.
            assert not [t for t, _ in run.reclaims if OFF_GRID < t < 12.8]
        # The recovered master ticks on its own grid: 12.8, 13.3, ...
        assert _first_reclaim_with_work(world) == 14.3

    def test_start_twice_keeps_one_chain(self):
        """``start`` on a running master, parked or armed, keeps its
        one chain."""
        world = _system()
        world.sim.run(until=5.0)
        master = world.master
        tick = master._retarget_tick
        master.start()
        assert master._retarget_tick is tick and tick.event is None
        _migrate(world)
        master.start()
        assert master._retarget_tick is tick
        assert _live_ticks(world.sim) == [tick.event]
        world.sim.run(until=5.6)
        assert len(_live_ticks(world.sim)) == 1

    def test_standby_failover_while_parked(self):
        """Failover stops the dead primary's parked tick for good; the
        standby's chain starts parked and the first request wakes it."""

        def fail_over(world):
            world.coordinator.fail_primary()
            world.masters().append(world.coordinator.fail_over())
            primary, standby = world.masters()
            _spy(world, standby)
            world.notes["primary tick"] = primary._retarget_tick
            world.notes["live ticks"] = _live_ticks(world.sim)

        world, ref_world = _assert_exact(
            _standby,
            [(OFF_GRID, fail_over), (11.0, _migrate)],
            until=60,
            samples=[10.01, 10.9],
        )
        assert world.parked[10.01] and world.parked[10.9]
        assert world.notes["primary tick"] is None
        assert world.notes["live ticks"] == []
        # Unparked, only the standby's fresh tick is armed.
        assert len(ref_world.notes["live ticks"]) == 1
        _, standby = world.masters()
        # The standby ticks on its own grid: 10.52, 11.02, ...
        assert _first_reclaim_with_work(world) == 11.02
        for block in world.client.blocks_of(["a"]):
            assert block.block_id in standby.namenode.directory["memory"]
