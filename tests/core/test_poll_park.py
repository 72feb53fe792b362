"""Parked re-poll chains: every trigger rebuilds the chain exactly.

An idle poll-mode slave whose pull came back empty, while its master
targets nothing at its node, parks its re-poll chain: its re-polls are
no longer simulated until something could make one bind or change what
one does.  Each test here drives one such trigger against parked
slaves and runs the same scenario a second time with parking switched
off (``DyrsSlave._maybe_park`` patched out), then checks that

* the two runs decide the same: every migration record, every binding
  and every trace event but the pull-leg lines (a trace records only
  the polls that were simulated);
* every slave that is not parked at a sample instant holds exactly the
  pull state (open legs, undelivered grants, queue, copy) the
  reference slave holds then;
* every parked slave is consistently parked: listed at the master it
  asks, holding no work and no timer, with its current RPC delay.

Deleting any one trigger fails at least one of these tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import DyrsConfig, DyrsSlave
from repro.core.failures import ChaosFault, FailureInjector
from repro.core.records import MigrationStatus
from repro.core.standby import StandbyCoordinator
from repro.dfs import DFSClient, NameNode, RandomPlacement
from repro.dfs.heartbeat import HeartbeatService
from repro.obs import trace as obs
from repro.system import System, SystemConfig
from repro.units import MB

#: Slaves start at t=0 and park after their first (empty) pull, so a
#: parked chain's re-polls fall at t=2, 4, 6, ...; a trigger at 10.02
#: lands inside the outbound half of the virtual leg sent at t=10.
TRIGGER = 10.02


@dataclass
class World:
    """One wired deployment: its clock, client, slaves and masters."""

    sim: object
    client: DFSClient
    slaves: list
    masters: Callable[[], list]
    injector: FailureInjector | None = None
    coordinator: StandbyCoordinator | None = None
    #: What a test's spies saw in this run.
    notes: dict = field(default_factory=dict)

    @property
    def master(self):
        return self.masters()[-1]


def _system(scheme="dyrs", n_workers=4, shards=None, size=1024 * MB) -> World:
    system = System(
        SystemConfig(
            scheme=scheme,
            cluster=ClusterSpec(n_workers=n_workers, seed=3),
            shards=shards,
        )
    ).start()
    world = World(system.sim, system.client, system.slaves, lambda: [system.master])
    world.client.create_file("a", size)
    world.injector = FailureInjector(system.cluster, master=system.master)
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
    heartbeats.start()
    coordinator.start()
    for slave in slaves:
        slave.start()

    def masters_seen():
        if coordinator.primary is not masters[-1]:
            masters.append(coordinator.primary)
        return masters

    world = World(cluster.sim, DFSClient(namenode), slaves, masters_seen)
    world.client.create_file("a", 256 * MB)
    world.coordinator = coordinator
    return world


def _migrate(world: World) -> None:
    world.client.migrate(["a"], job_id="j1")


def _check_parked(slave) -> None:
    """A parked slave holds no work and no timer, is listed at the
    master it asks, and keeps its current RPC delay."""
    listed = slave.master._polling_parked
    if slave._parked is None:
        assert listed.get(slave.node_id) is not slave
        return
    assert listed.get(slave.node_id) is slave
    assert slave.alive
    assert not slave._queue and slave._active is None
    assert slave._undelivered == 0
    assert not any(slave._leg_outstanding.values())
    assert slave._work_signal.timer is None
    assert slave._parked[1] == slave._rpc_leg_delay()


def _sample(world: World, seen: dict) -> None:
    now = world.sim.now
    for slave in world.slaves:
        _check_parked(slave)
        state = None
        if slave._parked is None:
            state = (
                {k: v for k, v in slave._leg_outstanding.items() if v},
                slave._undelivered,
                len(slave._queue),
                slave._active is not None,
            )
        seen[(now, slave.node_id)] = state


def _outcome(world: World, tracer) -> tuple:
    records = []
    bindings = []
    for master in world.masters():
        for r in master.record_log:
            records.append(
                (
                    r.block_id,
                    r.status.name,
                    r.bound_node,
                    r.bound_at,
                    r.completed_at,
                    r.discarded_at,
                    r.discard_reason,
                )
            )
        bindings.extend(getattr(master, "binding_log", ()))
    legs = (obs.PULL_LEG_OPEN, obs.PULL_LEG_CLOSE)
    trace = [e.to_json() for e in tracer.events if e.type not in legs]
    return records, bindings, trace


@contextmanager
def _traced(park):
    """Trace a run; ``park=False`` switches parking off for it."""
    with pytest.MonkeyPatch.context() as patch:
        if not park:
            patch.setattr(DyrsSlave, "_maybe_park", lambda self: None)
        with obs.tracing() as tracer:
            yield tracer


def _play(build, actions, samples, until, park=True, arm=None):
    """Run one scenario; return its outcome, pull-state samples, engine
    steps and the world."""
    with _traced(park) as tracer:
        world = build()
        if arm is not None:
            arm(world)
        for when, action in actions:
            world.sim.call_at(when, partial(action, world))
        seen: dict = {}
        for when in samples:
            world.sim.call_at(when, partial(_sample, world, seen))
        world.sim.run(until=until)
    return _outcome(world, tracer), seen, world.sim.steps, world


def _play_between_runs(between, until, park=True):
    """Run a one-worker system to t=10, a parked re-poll's instant,
    call ``between`` there between runs, then run on to ``until``;
    return the outcome, whether the slave was parked at t=10, and the
    world."""
    with _traced(park) as tracer:
        world = _system(n_workers=1)
        world.sim.run(until=10.0)
        parked = world.slaves[0]._parked is not None
        between(world)
        world.sim.run(until=until)
    return _outcome(world, tracer), parked, world


def _window(start, stop, step=0.01):
    n = round((stop - start) / step)
    return [round(start + i * step, 6) for i in range(n + 1)]


def _assert_exact(build, actions, samples, until, arm=None):
    """The scenario decides the same with parking on and off, and a
    slave not parked at a sample holds the reference's pull state."""
    outcome, seen, steps, world = _play(build, actions, samples, until, arm=arm)
    reference, ref_seen, ref_steps, _ = _play(
        build, actions, samples, until, park=False, arm=arm
    )
    assert any(state is None for state in seen.values()), "nothing parked"
    assert steps < ref_steps
    assert outcome[0] == reference[0]
    assert outcome[1] == reference[1]
    assert outcome[2] == reference[2]
    for key, state in seen.items():
        if state is not None:
            assert state == ref_seen[key], key
    return outcome, seen, world


def _parked_before_trigger(seen, world):
    return all(seen[(TRIGGER - 0.02, s.node_id)] is None for s in world.slaves)


class TestTriggers:
    def test_retarget_wakes_a_parked_chain(self):
        """A retarget pass that aims work at a parked node rebuilds its
        chain: the leg its last re-poll has on the wire binds on
        arrival, as it would have unparked."""
        samples = [TRIGGER - 0.02, *_window(TRIGGER, TRIGGER + 0.3)]
        outcome, seen, world = _assert_exact(
            _system, [(TRIGGER, _migrate)], samples, until=60
        )
        assert _parked_before_trigger(seen, world)
        binds = [b.time for b in world.master.binding_log]
        assert binds and binds[0] == pytest.approx(10.05)
        for block in world.client.blocks_of(["a"]):
            assert block.block_id in world.master.namenode.directory["memory"]

    def test_ignem_push_rebuilds_a_parked_chain(self):
        """Ignem never binds on a pull, so its slaves park after every
        empty one; a push resumes the worker, whose next pull must wait
        for the leg the parked chain has on the wire."""
        samples = [TRIGGER - 0.02, *_window(TRIGGER, TRIGGER + 0.3)]
        outcome, seen, world = _assert_exact(
            partial(_system, "ignem"), [(TRIGGER, _migrate)], samples, until=60
        )
        assert _parked_before_trigger(seen, world)
        for block in world.client.blocks_of(["a"]):
            assert block.block_id in world.master.namenode.directory["memory"]

    def test_crash_inside_a_virtual_leg(self):
        """A crash inside the outbound half of a leg the parked chain
        sent: the leg still binds (its request was on the wire) and its
        grant is requeued on delivery, while the restarted process's
        budget counts only its own grant."""

        def spy(world):
            master = world.master
            original = master.bind_from_shard
            grants = world.notes["grants"] = []

            def bind_from_shard(shard_id, generation, node_id, max_blocks):
                granted = original(shard_id, generation, node_id, max_blocks)
                grants.append((world.sim.now, list(granted)))
                return granted

            master.bind_from_shard = bind_from_shard

        def note_budget(world):
            world.notes["budget"] = world.slaves[0]._undelivered

        actions = [
            (TRIGGER, lambda w: w.slaves[0].crash()),
            (TRIGGER + 0.01, lambda w: w.slaves[0].restart()),
            (TRIGGER + 0.01, _migrate),
            (10.085, note_budget),
        ]
        samples = [TRIGGER - 0.02, *_window(TRIGGER + 0.01, TRIGGER + 0.3)]
        outcome, seen, world = _assert_exact(
            partial(_system, n_workers=1), actions, samples, until=120, arm=spy
        )
        assert _parked_before_trigger(seen, world)
        after = [(t, g) for t, g in world.notes["grants"] if t > TRIGGER]
        (t_stale, stale), (t_fresh, fresh) = after[:2]
        assert t_stale == pytest.approx(10.05) and stale
        assert t_fresh == pytest.approx(10.08) and fresh
        for record in stale:
            assert record.status is MigrationStatus.DISCARDED
            assert record.discard_reason == "undelivered"
        assert world.notes["budget"] == len(fresh)
        assert world.slaves[0]._undelivered == 0
        for block in world.client.blocks_of(["a"]):
            assert block.block_id in world.master.namenode.directory["memory"]

    def test_crash_between_runs_after_a_virtual_re_poll(self):
        """A trigger fired between runs follows every event of the
        instant the run stopped at: the leg of a re-poll due at that
        instant is on the wire, so it still binds after a crash there
        and its grant is requeued, as in an unparked run."""

        def between(world):
            world.slaves[0].crash()
            world.slaves[0].restart()
            _migrate(world)

        outcome, parked, world = _play_between_runs(between, until=120)
        reference, _, _ = _play_between_runs(between, until=120, park=False)
        assert parked
        assert outcome == reference
        requeued = [
            r for r in world.master.record_log if r.discard_reason == "undelivered"
        ]
        assert requeued
        assert world.slaves[0]._undelivered == 0

    def test_fault_scheduled_for_the_instant_a_run_stopped_at(self):
        """A fault injected between runs for the instant the run stopped
        at fires after that instant's re-poll: the re-poll's leg keeps
        the delay it was sent with, as in an unparked run."""

        def between(world):
            world.injector.inject(ChaosFault(10.0, "rpc-delay", 0, 3.0, param=1.0))
            world.sim.call_at(10.02, partial(_migrate, world))

        outcome, parked, world = _play_between_runs(between, until=90)
        reference, _, _ = _play_between_runs(between, until=90, park=False)
        assert parked
        assert outcome == reference
        binds = [b.time for b in world.master.binding_log]
        assert binds[0] == pytest.approx(10.05)  # the leg sent at t=10

    @pytest.mark.parametrize("migrate_at", [12.3, 16.02])
    def test_rpc_delay_fault_starting_and_ending_while_parked(self, migrate_at):
        """A parked chain's legs keep the delay they were sent with:
        the fault's start and end each rebuild the chain first, so work
        requested during the spike binds on the slow leg already on the
        wire, and work requested after it on a fast one."""

        def arm(world):
            world.injector.inject(ChaosFault(TRIGGER, "rpc-delay", 0, 3.0, param=0.5))

        samples = [
            TRIGGER - 0.02,
            *_window(TRIGGER, TRIGGER + 0.1),
            11.0,
            13.5,
            *_window(migrate_at, migrate_at + 0.6),
        ]
        outcome, seen, world = _assert_exact(
            partial(_system, n_workers=1),
            [(migrate_at, _migrate)],
            samples,
            until=90,
            arm=arm,
        )
        assert _parked_before_trigger(seen, world)
        assert seen[(11.0, 0)] is None  # parked through the spike
        for block in world.client.blocks_of(["a"]):
            assert block.block_id in world.master.namenode.directory["memory"]

    def test_standby_failover_while_parked(self):
        """Failover rebuilds the chains parked at the dead primary before
        rewiring their slaves: they re-park at the standby, whose first
        retarget wakes them."""

        def fail_over(world):
            world.coordinator.fail_primary()
            world.coordinator.fail_over()

        actions = [(TRIGGER, fail_over), (11.0, _migrate)]
        samples = [
            TRIGGER - 0.02,
            *_window(TRIGGER, TRIGGER + 0.1),
            10.5,
            *_window(11.0, 11.3),
        ]
        outcome, seen, world = _assert_exact(_standby, actions, samples, until=60)
        assert _parked_before_trigger(seen, world)
        primary, standby = world.masters()
        assert primary._polling_parked == {}
        assert all(seen[(10.5, s.node_id)] is None for s in world.slaves)
        for block in world.client.blocks_of(["a"]):
            assert block.block_id in standby.namenode.directory["memory"]

    def test_shard_crash_and_recovery_while_parked(self):
        """A shard's crash and its recovery each change every pull
        plan, so each rebuilds every parked chain first: a leg on the
        wire keeps the plan it was sent with, whenever its chain is
        rebuilt later (here, at once, by ``materialize_parked``)."""

        def materialize(world):
            world.master.materialize_parked()

        actions = [
            (TRIGGER, lambda w: w.master.crash_shard(1)),
            (TRIGGER + 0.01, materialize),
            (12.02, lambda w: w.master.recover_shard(1)),
            (12.03, materialize),
            (14.02, _migrate),
        ]
        samples = [
            TRIGGER - 0.02,
            *_window(TRIGGER, TRIGGER + 0.1),
            *_window(12.0, 12.1),
            *_window(14.02, 14.3),
        ]
        outcome, seen, world = _assert_exact(
            partial(_system, shards=4), actions, samples, until=60
        )
        assert _parked_before_trigger(seen, world)
        # The legs the crash found on the wire still include shard 1.
        assert seen[(10.04, 0)][0] == {0: 1, 1: 1, 2: 1, 3: 1}
        for block in world.client.blocks_of(["a"]):
            assert block.block_id in world.master.namenode.directory["memory"]
