"""The correctness anchor: without faults, ``dyrs-sharded`` at
``shards=1`` IS ``dyrs``.

The coordinator reuses the flat master's pool, selection, and grant
accounting, so a one-shard federation must replay the paper scheme
*byte-identically* -- every record timestamp, every binding decision,
not approximately.  These tests pin that equivalence on the
determinism suite's sort setup and on the SWIM mix.  (Under chaos the
two differ by design: a campaign samples shard faults only for a
federation; the ``dyrs-sharded-swim-seed2-chaos`` golden digest pins
that.)
"""

from repro.experiments import swim
from repro.experiments.common import PaperSetup, build_system
from repro.units import GB
from repro.workloads.sort import sort_job


def _sort_logs(scheme):
    system = build_system(
        PaperSetup(
            scheme=scheme,
            seed=11,
            interference="alt-10s-1",
            shards=1,
        )
    )
    job = sort_job(system, size=6 * GB, job_id="s", extra_lead_time=20.0)
    system.runtime.run_to_completion([job])
    records = [
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
        for r in system.master.record_log
    ]
    return records, list(system.master.binding_log), system.sim.now


class TestOneShardByteIdentity:
    def test_sort_record_and_binding_logs_identical(self):
        flat_records, flat_bindings, flat_end = _sort_logs("dyrs")
        shard_records, shard_bindings, shard_end = _sort_logs("dyrs-sharded")
        assert shard_records == flat_records
        assert shard_bindings == flat_bindings
        assert shard_end == flat_end

    def test_swim_mix_identical(self):
        result = swim.run(
            schemes=("hdfs", "dyrs", "dyrs-sharded"), n_jobs=30, seed=7
        )
        assert result.durations["dyrs-sharded"] == result.durations["dyrs"]
        assert (
            result.map_durations["dyrs-sharded"]
            == result.map_durations["dyrs"]
        )
        assert (
            result.migrated_bytes["dyrs-sharded"]
            == result.migrated_bytes["dyrs"]
        )


class TestManyShardsStillComplete:
    def test_four_shard_sort_migrates_the_same_blocks(self):
        """Sharding repartitions control state, not the workload: every
        block the flat master migrated reaches memory under 4 shards
        too (timings legitimately differ -- per-shard Algorithm 1
        passes plan over partial views)."""
        system = build_system(
            PaperSetup(
                scheme="dyrs-sharded",
                seed=11,
                interference="alt-10s-1",
                shards=4,
            )
        )
        job = sort_job(system, size=6 * GB, job_id="s", extra_lead_time=20.0)
        system.runtime.run_to_completion([job])
        statuses = {r.status.name for r in system.master.record_log}
        assert "PENDING" not in statuses and "BOUND" not in statuses
        assert any(
            r.status.name in ("DONE", "EVICTED")
            for r in system.master.record_log
        )
