"""The pull leg under a sharded master: pins, windows, isolation.

Every slave pulls through detached legs, one per master endpoint (a
shard here).  Three anchors hold the protocol to the ground truth:

* **byte-identity at window 1** -- the two sharded presets differ only
  by the window, so ``dyrs-sharded-async`` pinned to window 1 must
  replay stock ``dyrs-sharded`` exactly, on sort and on the SWIM mix;
* **isolation at every window** -- a slow service on one shard's legs
  must leave the other shards' legs landing inside the delayed leg's
  open interval, which is the whole point of detaching them;
* **collected legs stay silent** -- a leg left suspended by an
  abandoned run must not write into the trace of whatever run is
  recording when the garbage collector closes it.

The legs of one pull share one outbound timeout: they leave together,
reach their endpoints in plan order, and cost one engine event to
arrive.
"""

import gc

import pytest

from repro.core import DyrsConfig
from repro.core.failures import ChaosFault, FailureInjector
from repro.core.slave import RPC_LATENCY, _PullLeg
from repro.experiments.common import PaperSetup, build_system
from repro.obs import trace as obs
from repro.obs.invariants import TraceInvariants
from repro.system import SystemConfig
from repro.units import GB, MB
from repro.workloads.sort import sort_job
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs


def _record_tuples(master):
    return [
        (
            r.block_id,
            r.status.name,
            r.target_node,
            r.bound_node,
            r.requested_at,
            r.bound_at,
            r.started_at,
            r.completed_at,
        )
        for r in master.record_log
    ]


def _sort_logs(scheme, overrides=None):
    system = build_system(
        PaperSetup(
            scheme=scheme,
            seed=11,
            interference="alt-10s-1",
            shards=4,
            dyrs_overrides=overrides or {},
        )
    )
    job = sort_job(system, size=6 * GB, job_id="s", extra_lead_time=20.0)
    system.runtime.run_to_completion([job])
    return _record_tuples(system.master), list(system.master.binding_log), system.sim.now


def _swim_logs(scheme, overrides=None):
    system = build_system(
        PaperSetup(scheme=scheme, seed=7, shards=4, dyrs_overrides=overrides or {})
    )
    descriptors = generate_swim_workload(
        system.cluster.rngs.stream("swim"),
        n_jobs=30,
        total_input=12 * GB,
        max_input=4 * GB,
        small_fraction=0.75,
        mean_interarrival=4.0,
    )
    jobs = materialize_swim_jobs(system, descriptors)
    system.runtime.run_to_completion(jobs)
    return _record_tuples(system.master), list(system.master.binding_log), system.sim.now


class TestWindowOneByteIdentity:
    def test_sort_identical_to_stock_sharded(self):
        stock = _sort_logs("dyrs-sharded")
        pinned = _sort_logs("dyrs-sharded-async", {"shard_pull_window": 1})
        assert pinned == stock

    def test_swim_identical_to_stock_sharded(self):
        stock = _swim_logs("dyrs-sharded")
        pinned = _swim_logs("dyrs-sharded-async", {"shard_pull_window": 1})
        assert pinned == stock

    def test_explicit_window_one_on_stock_sharded_is_inert(self):
        stock = _sort_logs("dyrs-sharded")
        explicit = _sort_logs("dyrs-sharded", {"shard_pull_window": 1})
        assert explicit == stock


def _preset_window(scheme, shards, overrides=None):
    """The pull window a preset builds, at ``shards`` shards."""
    system = build_system(
        PaperSetup(
            scheme=scheme,
            n_workers=2,
            interference="none",
            shards=shards,
            dyrs_overrides=overrides or {},
        )
    )
    return system.config.dyrs.shard_pull_window


class TestWindowResolution:
    def test_async_scheme_defaults_to_shard_count(self):
        assert _preset_window("dyrs-sharded-async", 4) == 4
        assert _preset_window("dyrs-sharded-async", 1) == 2

    def test_stock_schemes_default_to_one(self):
        assert _preset_window("dyrs-sharded", 4) == 1
        assert SystemConfig(shards=4).dyrs.shard_pull_window == 1
        assert SystemConfig(scheme="dyrs").dyrs.shard_pull_window == 1

    def test_explicit_window_survives_resolution(self):
        overrides = {"shard_pull_window": 2}
        assert _preset_window("dyrs-sharded-async", 4, overrides) == 2

    def test_wide_window_requires_sharded_scheme(self):
        with pytest.raises(ValueError):
            SystemConfig(scheme="dyrs", dyrs=DyrsConfig(shard_pull_window=3))
        wide = SystemConfig(shards=1, dyrs=DyrsConfig(shard_pull_window=3))
        assert wide.dyrs.shard_pull_window == 3

    def test_window_validated_positive(self):
        with pytest.raises(ValueError):
            DyrsConfig(shard_pull_window=0)


def _run_async_sort(overrides, arm=None):
    """One traced async-scheme sort; returns the tracer's events."""
    with obs.tracing() as tracer:
        system = build_system(
            PaperSetup(
                scheme="dyrs-sharded-async",
                seed=0,
                interference="none",
                block_size=16 * MB,
                shards=4,
                dyrs_overrides=overrides,
            )
        )
        if arm is not None:
            arm(system)
        job = sort_job(system, size=2 * GB, job_id="async-sort")
        system.runtime.run_to_completion([job])
        system.sim.run(until=system.sim.now + 60.0)
    return tracer.events


class TestAsyncProtocol:
    OVERRIDES = {"pull_service_cost": 0.02, "queue_depth": 4}

    def test_legs_open_close_and_respect_window(self):
        events = _run_async_sort(self.OVERRIDES)
        opens = [e for e in events if e.type == obs.PULL_LEG_OPEN]
        closes = [e for e in events if e.type == obs.PULL_LEG_CLOSE]
        assert opens and closes
        assert all(e.fields["window"] == 4 for e in opens)
        assert all(1 <= e.fields["outstanding"] <= 4 for e in opens)
        # Every opened leg eventually lands.
        assert len(opens) == len(closes)
        checker = TraceInvariants(events)
        assert checker.violations() == []
        assert checker.shard_violations() == []

    def test_delayed_shard_leg_does_not_stall_the_others(self):
        """At the scheme's default window (the shard count)."""
        self._assert_delayed_shard_isolated(self.OVERRIDES)

    def test_window_one_still_isolates_a_delayed_shard(self):
        """Window 1 bounds legs per shard, not per pull: a node's legs
        to the healthy shards still land while its shard-2 leg waits."""
        self._assert_delayed_shard_isolated(
            {**self.OVERRIDES, "shard_pull_window": 1}
        )

    def _assert_delayed_shard_isolated(self, overrides):
        """The isolation property, stated on the trace: while the
        delayed shard's leg interval is open on some node, another
        shard's leg *on the same node* opens and lands inside it."""

        def arm(system):
            # Shard 2 services every leg 3 s slower from 0.5 s to 55.5 s.
            master = system.master
            service = master.pull_service_seconds

            def slow_shard_two(shard_id):
                seconds = service(shard_id)
                if shard_id == 2 and 0.5 <= system.sim.now < 55.5:
                    seconds += 3.0
                return seconds

            master.pull_service_seconds = slow_shard_two

        events = _run_async_sort(overrides, arm=arm)
        checker = TraceInvariants(events)
        assert checker.violations() == []
        assert checker.shard_violations() == []

        # Pair each shard-2 open with its close, per node (window legs
        # to one shard land in FIFO order -- identical delays).
        slow_intervals = []
        open_stack: dict[int, list[float]] = {}
        for e in events:
            if e.type == obs.PULL_LEG_OPEN and e.fields["shard"] == 2:
                open_stack.setdefault(e.fields["node"], []).append(e.time)
            elif e.type == obs.PULL_LEG_CLOSE and e.fields["shard"] == 2:
                stack = open_stack.get(e.fields["node"])
                if stack:
                    slow_intervals.append((e.fields["node"], stack.pop(0), e.time))
        # The delay actually bit: some shard-2 leg took >= the 3s spike.
        slow = [(n, a, b) for n, a, b in slow_intervals if b - a >= 3.0]
        assert slow, slow_intervals
        overlapped = False
        for node, t_open, t_close in slow:
            for e in events:
                if (
                    e.type == obs.PULL_LEG_CLOSE
                    and e.fields["node"] == node
                    and e.fields["shard"] != 2
                    and t_open < e.time < t_close
                ):
                    overlapped = True
                    break
            if overlapped:
                break
        assert overlapped, "no other-shard leg landed inside a delayed interval"


def _traced_dyrs_sort(during_build=None):
    """One traced flat-``dyrs`` sort; ``during_build`` runs inside the
    trace scope before the simulation starts."""
    with obs.tracing() as tracer:
        system = build_system(PaperSetup(scheme="dyrs", seed=3, interference="none"))
        if during_build is not None:
            during_build()
        job = sort_job(system, size=1 * GB, job_id="clean-sort")
        system.runtime.run_to_completion([job])
    return [(e.type, e.time, e.fields) for e in tracer.events]


class TestCollectedLegs:
    def test_collected_legs_do_not_write_into_another_trace(self):
        clean = _traced_dyrs_sort()
        # An untraced async run stopped at t=2 s with legs suspended.
        system = build_system(
            PaperSetup(
                scheme="dyrs-sharded-async",
                seed=0,
                interference="none",
                block_size=16 * MB,
                shards=4,
                dyrs_overrides=TestAsyncProtocol.OVERRIDES,
            )
        )
        system.runtime.submit(sort_job(system, size=2 * GB, job_id="abandoned"))
        system.sim.run(until=2.0)
        open_legs = sum(
            sum(slave._leg_outstanding.values())
            for slave in system.master.slaves.values()
        )
        assert open_legs > 0
        abandoned = [system]
        del system

        def collect_abandoned_run():
            abandoned.clear()
            gc.collect()

        polluted = _traced_dyrs_sort(during_build=collect_abandoned_run)
        assert polluted == clean
        assert any(e[0] == obs.PULL_LEG_OPEN for e in clean), "flat runs pull by legs"


def _outbound_timeouts(sim):
    """Scheduled events that carry pull legs to their endpoints."""
    return [
        event
        for _when, _priority, _seq, event in sim._heap
        if not event._discarded
        and any(
            getattr(cb, "__func__", None) is _PullLeg._arrived
            for cb in event.callbacks or ()
        )
    ]


class TestOnePullPerTurn:
    def test_copy_opens_one_leg_per_shard_and_claim_none(self):
        """The worker pulls once per turn of its loop.  The pull after a
        copy opens one leg to each live shard; claiming the next record
        leaves the pull space as it was, so the claim opens none."""
        system = build_system(
            PaperSetup(
                scheme="dyrs-sharded-async",
                n_workers=4,
                seed=1,
                interference="none",
                block_size=64 * MB,
                shards=4,
            )
        )
        sim, master = system.sim, system.master
        opened = {}  # (time, node, "copy" or "claim") -> legs opened then
        last = {}  # node -> its latest such key

        def note(node_id, what):
            last[node_id] = (sim.now, node_id, what)
            opened[last[node_id]] = 0

        def slave_changed(slave, changed=master.slave_changed):
            active = slave._active
            if active is not None and active.started_at is None:
                note(slave.node_id, "claim")
            changed(slave)

        def on_migration_complete(record, node_id, duration,
                                  complete=master.on_migration_complete):
            note(node_id, "copy")
            complete(record, node_id, duration)

        master.slave_changed = slave_changed
        master.on_migration_complete = on_migration_complete
        for slave in system.slaves:

            def maybe_pull(slave=slave, pull=slave._maybe_pull):
                before = sum(slave._leg_outstanding.values())
                pull()
                key = last.get(slave.node_id)
                if key is not None and key[0] == sim.now:
                    opened[key] += sum(slave._leg_outstanding.values()) - before

            slave._maybe_pull = maybe_pull
        system.client.create_file("a", 2 * GB)
        master.migrate(["a"], job_id="j1")
        sim.run(until=60)
        copies = [n for (_, _, what), n in opened.items() if what == "copy"]
        claims = [n for (_, _, what), n in opened.items() if what == "claim"]
        assert len(copies) == len(claims) == 32  # every block of "a"
        assert copies == [4] * 32
        assert claims == [0] * 32


class TestSharedOutbound:
    """One outbound timeout per pull, however many legs it opens."""

    @pytest.mark.parametrize("crashed", [(), (0, 3)], ids=["4-legs", "2-legs"])
    def test_one_pull_is_one_heap_entry_and_one_step(
        self, make_shard_rig, monkeypatch, crashed
    ):
        rig = make_shard_rig()
        rig.sim.run(until=1.0)  # idle: the first pulls found nothing
        for shard_id in crashed:
            rig.master.crash_shard(shard_id)
        slave = rig.slaves[2]  # home shard 2: the plan starts mid-range
        plan = [shard_id for shard_id, _ in rig.master.pull_plan(slave.node_id)]
        assert len(plan) == 4 - len(crashed)
        arrivals = []
        arrived = _PullLeg._arrived

        def record(leg, event):
            arrivals.append((leg.shard_id, rig.sim.steps))
            arrived(leg, event)

        monkeypatch.setattr(_PullLeg, "_arrived", record)
        assert _outbound_timeouts(rig.sim) == []
        slave._maybe_pull()
        (outbound,) = _outbound_timeouts(rig.sim)
        assert [cb.__self__.shard_id for cb in outbound.callbacks] == plan
        rig.sim.run(until=1.0 + 2 * RPC_LATENCY)
        assert outbound.processed
        assert [shard_id for shard_id, _ in arrivals] == plan
        # Every leg arrived inside the one step that popped the timeout.
        assert len({steps for _, steps in arrivals}) == 1

    def test_partitioned_pull_closes_every_leg_at_arrival(self, make_shard_rig):
        """Blackholed on arrival: each leg closes there, binds nothing,
        and frees its window slot."""
        with obs.tracing() as tracer:
            rig = make_shard_rig(n_workers=1)  # its first pull is on the wire
            rig.client.create_file("a", 4 * 64 * MB)
            rig.master.migrate(["a"], job_id="j1")
            injector = FailureInjector(rig.cluster, rig.master)
            injector.inject(ChaosFault(0.01, "partition", 0, 10.0))
            rig.sim.run(until=1.0)
        slave = rig.slaves[0]
        plan = [shard_id for shard_id, _ in rig.master.pull_plan(0)]
        assert len(plan) == 4
        closes = [
            (e.time, e.fields["shard"])
            for e in tracer.events
            if e.type == obs.PULL_LEG_CLOSE
        ]
        assert closes == [(RPC_LATENCY, shard_id) for shard_id in plan]
        assert not any(e.type == obs.BIND for e in tracer.events)
        assert sum(slave._leg_outstanding.values()) == 0
