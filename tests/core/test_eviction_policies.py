"""Tests for reference tracking / eviction and queue policies."""

from repro.core import (
    FifoPolicy,
    LifoPolicy,
    MigrationRecord,
    ReferenceTracker,
    SmallestJobFirstPolicy,
)
from repro.dfs import Block
from repro.units import MB


class TestReferenceTracker:
    def test_add_and_query(self):
        t = ReferenceTracker()
        t.add_reference(1, "jobA", implicit=False)
        t.add_reference(1, "jobB", implicit=False)
        assert t.jobs_of(1) == {"jobA", "jobB"}
        assert t.blocks_of("jobA") == {1}
        assert t.is_referenced(1)

    def test_unreferenced_callback_fires_once_empty(self):
        evicted = []
        t = ReferenceTracker(on_block_unreferenced=evicted.append)
        t.add_reference(1, "jobA", implicit=False)
        t.add_reference(1, "jobB", implicit=False)
        t.remove_job("jobA")
        assert evicted == []
        t.remove_job("jobB")
        assert evicted == [1]

    def test_implicit_on_read_trims(self):
        evicted = []
        t = ReferenceTracker(on_block_unreferenced=evicted.append)
        t.add_reference(1, "jobA", implicit=True)
        t.on_read(1, "jobA")
        assert evicted == [1]
        assert not t.is_referenced(1)

    def test_explicit_job_unaffected_by_reads(self):
        evicted = []
        t = ReferenceTracker(on_block_unreferenced=evicted.append)
        t.add_reference(1, "jobA", implicit=False)
        t.on_read(1, "jobA")
        assert evicted == []
        assert t.jobs_of(1) == {"jobA"}

    def test_mixed_modes_on_same_block(self):
        evicted = []
        t = ReferenceTracker(on_block_unreferenced=evicted.append)
        t.add_reference(1, "imp", implicit=True)
        t.add_reference(1, "exp", implicit=False)
        t.on_read(1, "imp")
        assert evicted == []  # explicit job still holds it
        t.remove_job("exp")
        assert evicted == [1]

    def test_remove_job_from_blocks_targets_subset(self):
        t = ReferenceTracker()
        t.add_reference(1, "j", implicit=False)
        t.add_reference(2, "j", implicit=False)
        t.remove_job_from_blocks("j", [1])
        assert not t.is_referenced(1)
        assert t.is_referenced(2)

    def test_sweep_inactive(self):
        evicted = []
        t = ReferenceTracker(on_block_unreferenced=evicted.append)
        t.add_reference(1, "dead", implicit=False)
        t.add_reference(2, "alive", implicit=False)
        cleared = t.sweep_inactive(active_jobs=["alive"])
        assert cleared == ["dead"]
        assert evicted == [1]
        assert t.is_referenced(2)

    def test_double_remove_is_noop(self):
        evicted = []
        t = ReferenceTracker(on_block_unreferenced=evicted.append)
        t.add_reference(1, "j", implicit=False)
        t.remove_job("j")
        t.remove_job("j")
        assert evicted == [1]

    def test_tracked_jobs(self):
        t = ReferenceTracker()
        t.add_reference(1, "a", implicit=False)
        t.add_reference(2, "b", implicit=True)
        assert t.tracked_jobs() == {"a", "b"}
        assert t.uses_implicit_eviction("b")
        assert not t.uses_implicit_eviction("a")


def _rec(block_id, requested_at, size=256 * MB):
    return MigrationRecord(
        block=Block(block_id, f"f{block_id}", 0, size=size, replica_nodes=(0,)),
        requested_at=requested_at,
    )


class TestPolicies:
    def test_fifo_orders_by_request_time(self):
        records = [_rec(0, 5.0), _rec(1, 1.0), _rec(2, 3.0)]
        ordered = FifoPolicy().order(records)
        assert [r.block_id for r in ordered] == [1, 2, 0]

    def test_fifo_ties_broken_by_block_id(self):
        records = [_rec(2, 1.0), _rec(0, 1.0), _rec(1, 1.0)]
        ordered = FifoPolicy().order(records)
        assert [r.block_id for r in ordered] == [0, 1, 2]

    def test_lifo_reverses(self):
        records = [_rec(0, 1.0), _rec(1, 2.0)]
        ordered = LifoPolicy().order(records)
        assert [r.block_id for r in ordered] == [1, 0]

    def test_smallest_job_first(self):
        job_of = {0: "big", 1: "big", 2: "small"}.__getitem__
        records = [_rec(0, 0.0), _rec(1, 1.0), _rec(2, 2.0)]
        ordered = SmallestJobFirstPolicy(job_of).order(records)
        assert [r.block_id for r in ordered] == [2, 0, 1]

    def test_policies_do_not_mutate_input(self):
        records = [_rec(0, 5.0), _rec(1, 1.0)]
        FifoPolicy().order(records)
        assert [r.block_id for r in records] == [0, 1]
