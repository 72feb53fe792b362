"""TraceInvariants: each §III check convicts its synthetic violation."""

import pytest

from repro.obs import trace as T
from repro.obs.invariants import InvariantViolation, TraceInvariants
from repro.obs.trace import Tracer


def _check(*specs):
    t = Tracer()
    for etype, time, fields in specs:
        t.emit(etype, time, **fields)
    return TraceInvariants(t.events).violations()


GOOD_LIFECYCLE = (
    (T.REQUEST, 0.0, {"block": 1, "job": "j"}),
    (T.PENDING, 0.0, {"block": 1}),
    (T.BIND, 1.0, {"block": 1, "node": 0}),
    (T.MLOCK_START, 2.0, {"block": 1, "node": 0, "source": "disk"}),
    (T.MLOCK_DONE, 5.0, {"block": 1, "node": 0, "source": "disk"}),
    (T.READ_MEMORY, 6.0, {"block": 1, "node": 0}),
    (T.BUFFER_RELEASE, 7.0, {"block": 1, "node": 0, "tier": "memory"}),
    (T.EVICTED, 7.0, {"block": 1, "node": 0}),
)


class TestCleanStream:
    def test_full_lifecycle_passes(self):
        assert _check(*GOOD_LIFECYCLE) == []

    def test_check_all_quiet(self):
        t = Tracer()
        for etype, time, fields in GOOD_LIFECYCLE:
            t.emit(etype, time, **fields)
        TraceInvariants(t.events).check_all()  # must not raise

    def test_empty_trace_passes(self):
        assert _check() == []


class TestReadBeforeMlock:
    def test_memory_read_without_mlock_done_flagged(self):
        v = _check((T.READ_MEMORY, 1.0, {"block": 1, "node": 0}))
        assert len(v) == 1
        assert "before its mlock_done" in v[0]

    def test_read_after_release_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 0.5, {"block": 1, "node": 0}),
            (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
            (T.MLOCK_DONE, 2.0, {"block": 1, "node": 0}),
            (T.BUFFER_RELEASE, 3.0, {"block": 1, "node": 0, "tier": "memory"}),
            (T.READ_MEMORY, 4.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1

    def test_preload_counts_as_residency(self):
        assert (
            _check(
                (T.PRELOAD, 0.0, {"block": 1, "node": 0}),
                (T.READ_MEMORY, 1.0, {"block": 1, "node": 0}),
            )
            == []
        )

    def test_residency_is_per_node(self):
        v = _check(
            (T.PRELOAD, 0.0, {"block": 1, "node": 0}),
            (T.READ_MEMORY, 1.0, {"block": 1, "node": 2}),
        )
        assert len(v) == 1

    def test_ssd_dest_mlock_done_grants_no_memory_residency(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 0.5, {"block": 1, "node": 0}),
            (T.MLOCK_START, 1.0, {"block": 1, "node": 0, "dest": "ssd"}),
            (T.MLOCK_DONE, 2.0, {"block": 1, "node": 0, "dest": "ssd"}),
            (T.READ_MEMORY, 3.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1


class TestSerialization:
    def test_overlapping_disk_copies_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.PENDING, 0.0, {"block": 2}),
            (T.BIND, 0.5, {"block": 1, "node": 0}),
            (T.BIND, 0.5, {"block": 2, "node": 0}),
            (T.MLOCK_START, 1.0, {"block": 1, "node": 0, "source": "disk"}),
            (T.MLOCK_START, 2.0, {"block": 2, "node": 0, "source": "disk"}),
        )
        assert len(v) == 1
        assert "serialization" in v[0]

    def test_different_nodes_may_overlap(self):
        assert (
            _check(
                (T.PENDING, 0.0, {"block": 1}),
                (T.PENDING, 0.0, {"block": 2}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.BIND, 0.5, {"block": 2, "node": 1}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
                (T.MLOCK_START, 2.0, {"block": 2, "node": 1}),
            )
            == []
        )

    def test_ssd_lane_is_separate(self):
        assert (
            _check(
                (T.PENDING, 0.0, {"block": 1}),
                (T.PENDING, 0.0, {"block": 2}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.BIND, 0.5, {"block": 2, "node": 0}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0, "source": "disk"}),
                (T.MLOCK_START, 2.0, {"block": 2, "node": 0, "source": "ssd"}),
            )
            == []
        )

    def test_abort_closes_the_interval(self):
        assert (
            _check(
                (T.PENDING, 0.0, {"block": 1}),
                (T.PENDING, 0.0, {"block": 2}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.BIND, 0.5, {"block": 2, "node": 0}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
                (T.MLOCK_ABORT, 2.0, {"block": 1, "node": 0}),
                (T.MLOCK_START, 2.0, {"block": 2, "node": 0}),
            )
            == []
        )


class TestDelayedBinding:
    def test_bind_without_pending_flagged(self):
        v = _check((T.BIND, 1.0, {"block": 1, "node": 0}))
        assert len(v) == 1
        assert "delayed binding" in v[0]

    def test_double_bind_of_one_pending_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 1.0, {"block": 1, "node": 0}),
            (T.BIND, 2.0, {"block": 1, "node": 1}),
        )
        assert len(v) == 1

    def test_pending_drop_then_bind_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.DROPPED, 1.0, {"block": 1, "status": "pending", "reason": "x"}),
            (T.BIND, 2.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1

    def test_bound_drop_keeps_counter(self):
        # Dropping an already-bound record must not free up a phantom
        # pending slot.
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 1.0, {"block": 1, "node": 0}),
            (T.DROPPED, 2.0, {"block": 1, "status": "bound", "reason": "x"}),
            (T.BIND, 3.0, {"block": 1, "node": 1}),
        )
        assert len(v) == 1


class TestEvictedBufferReleased:
    def test_evicted_while_resident_flagged(self):
        v = _check(
            (T.PENDING, 0.0, {"block": 1}),
            (T.BIND, 0.5, {"block": 1, "node": 0}),
            (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
            (T.MLOCK_DONE, 2.0, {"block": 1, "node": 0}),
            (T.EVICTED, 3.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1
        assert "still memory-resident" in v[0]

    def test_ssd_release_does_not_clear_memory_residency(self):
        v = _check(
            (T.PRELOAD, 0.0, {"block": 1, "node": 0}),
            (T.BUFFER_RELEASE, 1.0, {"block": 1, "node": 0, "tier": "ssd"}),
            (T.EVICTED, 2.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1


def _drop(status=None):
    """A ``dropped`` event; check 7 requires its prior ``status`` to
    have a legal ``-> discarded`` edge in ``LEGAL_TRANSITIONS``."""
    fields = {"block": "b1", "reason": "test"}
    if status is not None:
        fields["status"] = status
    return (T.DROPPED, 1.0, fields)


def test_runtime_checker_convicts_a_drop_from_a_terminal_state():
    v = _check((T.PENDING, 0.0, {"block": "b1"}), _drop("done"))
    assert len(v) == 1
    assert "not a legal transition" in v[0]


def test_runtime_checker_accepts_drops_from_every_nonterminal_state():
    for status in ("pending", "bound", "active"):
        assert _check((T.PENDING, 0.0, {"block": "b1"}), _drop(status)) == []


def test_runtime_checker_tolerates_legacy_drops_without_status():
    assert _check(_drop()) == []


class TestRunSegmentation:
    def test_state_resets_at_run_start(self):
        # Run 1 ends with block 1 mid-copy and memory-resident block 2;
        # run 2 reuses both identifiers and must start from nothing.
        assert (
            _check(
                (T.RUN_START, 0.0, {"scheme": "dyrs"}),
                (T.PENDING, 0.0, {"block": 1}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
                (T.PRELOAD, 1.0, {"block": 2, "node": 0}),
                (T.RUN_START, 0.0, {"scheme": "ignem"}),
                (T.PENDING, 0.0, {"block": 1}),
                (T.BIND, 0.5, {"block": 1, "node": 0}),
                (T.MLOCK_START, 1.0, {"block": 1, "node": 0}),
                (T.MLOCK_DONE, 2.0, {"block": 1, "node": 0}),
                (T.BUFFER_RELEASE, 3.0, {"block": 2, "node": 0}),
                (T.EVICTED, 3.0, {"block": 2, "node": 0}),
            )
            == []
        )

    def test_residency_does_not_survive_boundary(self):
        v = _check(
            (T.RUN_START, 0.0, {"scheme": "ram"}),
            (T.PRELOAD, 0.0, {"block": 1, "node": 0}),
            (T.RUN_START, 0.0, {"scheme": "dyrs"}),
            (T.READ_MEMORY, 1.0, {"block": 1, "node": 0}),
        )
        assert len(v) == 1


class TestCheckAll:
    def test_raises_with_every_violation_listed(self):
        t = Tracer()
        t.emit(T.READ_MEMORY, 1.0, block=1, node=0)
        t.emit(T.BIND, 2.0, block=2, node=0)
        with pytest.raises(InvariantViolation) as err:
            TraceInvariants(t.events).check_all()
        message = str(err.value)
        assert "2 trace invariant violation(s)" in message
        assert "mlock_done" in message
        assert "delayed binding" in message

    def test_from_jsonl(self, tmp_path):
        t = Tracer()
        t.emit(T.BIND, 1.0, block=1, node=0)
        path = t.dump_jsonl(tmp_path / "t.jsonl")
        assert len(TraceInvariants.from_jsonl(path).violations()) == 1


def _shard_check(*specs):
    t = Tracer()
    for etype, time, fields in specs:
        t.emit(etype, time, **fields)
    return TraceInvariants(t.events).shard_violations()


class TestPullWindowInvariant:
    """Check 14: per-(node, shard) open legs never exceed the window."""

    def test_legs_within_window_pass(self):
        assert (
            _shard_check(
                (T.PULL_LEG_OPEN, 0.0,
                 {"node": 0, "shard": 1, "window": 2, "outstanding": 1}),
                (T.PULL_LEG_OPEN, 0.1,
                 {"node": 0, "shard": 1, "window": 2, "outstanding": 2}),
                (T.PULL_LEG_CLOSE, 0.5, {"node": 0, "shard": 1}),
                (T.PULL_LEG_OPEN, 0.6,
                 {"node": 0, "shard": 1, "window": 2, "outstanding": 2}),
                (T.PULL_LEG_CLOSE, 0.9, {"node": 0, "shard": 1}),
                (T.PULL_LEG_CLOSE, 1.0, {"node": 0, "shard": 1}),
            )
            == []
        )

    def test_overflow_convicted(self):
        v = _shard_check(
            (T.PULL_LEG_OPEN, 0.0,
             {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
            (T.PULL_LEG_OPEN, 0.1,
             {"node": 0, "shard": 1, "window": 1, "outstanding": 2}),
        )
        assert len(v) == 1
        assert "outstanding budget violated" in v[0]

    def test_budget_is_per_node_and_shard(self):
        # One leg each to two shards, and to the same shard from two
        # nodes: four distinct counters, none over a window of 1.
        assert (
            _shard_check(
                (T.PULL_LEG_OPEN, 0.0,
                 {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
                (T.PULL_LEG_OPEN, 0.1,
                 {"node": 0, "shard": 2, "window": 1, "outstanding": 1}),
                (T.PULL_LEG_OPEN, 0.2,
                 {"node": 3, "shard": 1, "window": 1, "outstanding": 1}),
                (T.PULL_LEG_OPEN, 0.3,
                 {"node": 3, "shard": 2, "window": 1, "outstanding": 1}),
            )
            == []
        )

    def test_slave_crash_zeroes_the_node_counters(self):
        # The crashed incarnation's leg never closes; the new epoch's
        # open must count against a fresh budget, not the stale one.
        assert (
            _shard_check(
                (T.PULL_LEG_OPEN, 0.0,
                 {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
                (T.SLAVE_CRASH, 0.5, {"node": 0}),
                (T.PULL_LEG_OPEN, 1.0,
                 {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
            )
            == []
        )

    def test_crash_of_another_node_does_not_reset(self):
        v = _shard_check(
            (T.PULL_LEG_OPEN, 0.0,
             {"node": 0, "shard": 1, "window": 1, "outstanding": 1}),
            (T.SLAVE_CRASH, 0.5, {"node": 3}),
            (T.PULL_LEG_OPEN, 1.0,
             {"node": 0, "shard": 1, "window": 1, "outstanding": 2}),
        )
        assert len(v) == 1
