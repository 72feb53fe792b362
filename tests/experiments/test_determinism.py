"""Determinism: the library's core reproducibility guarantee.

Every experiment claims bit-for-bit reproducibility under a seed; these
tests run full workloads twice and require *identical* results -- not
approximately equal, identical -- all the way down to the bytes of the
exported CSV/JSON artifacts.
"""

from repro.experiments import sort_reads, swim, tracking
from repro.experiments.common import PaperSetup, build_system
from repro.experiments.export import export_result
from repro.units import GB
from repro.workloads.sort import sort_job


def _export_bytes(name, result, outdir):
    """Exported artifact bytes, keyed by file name."""
    return {
        path.name: path.read_bytes() for path in export_result(name, result, outdir)
    }


class TestDeterminism:
    def test_swim_run_is_bit_identical(self):
        a = swim.run(schemes=("hdfs", "dyrs"), n_jobs=60, seed=5)
        b = swim.run(schemes=("hdfs", "dyrs"), n_jobs=60, seed=5)
        assert a.durations == b.durations
        assert a.map_durations == b.map_durations
        assert a.migrated_bytes == b.migrated_bytes

    def test_different_seed_differs(self):
        a = swim.run(schemes=("hdfs", "dyrs"), n_jobs=40, seed=1)
        b = swim.run(schemes=("hdfs", "dyrs"), n_jobs=40, seed=2)
        assert a.durations != b.durations

    def test_lifecycle_run_is_bit_identical(self):
        """The archive tier joins the contract: the full ledger --
        counts, re-heat latencies, per-edge bytes -- replays exactly."""
        from repro.experiments import lifecycle

        a = lifecycle.run(seed=3)
        b = lifecycle.run(seed=3)
        assert a.archived_blocks == b.archived_blocks
        assert a.restored_blocks == b.restored_blocks
        assert a.reheat_latencies == b.reheat_latencies
        assert a.tier_bytes == b.tier_bytes
        assert a.resident_bytes == b.resident_bytes
        for scheme, outcome in a.outcomes.items():
            assert outcome == b.outcomes[scheme]

    def test_full_system_trace_identical(self):
        """Beyond aggregate durations: the entire migration record log
        (timestamps, bindings, statuses) must replay identically."""
        def run():
            system = build_system(
                PaperSetup(scheme="dyrs", seed=11, interference="alt-10s-1")
            )
            job = sort_job(system, size=6 * GB, job_id="s", extra_lead_time=20.0)
            system.runtime.run_to_completion([job])
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
                for r in system.master.record_log
            ]

        assert run() == run()

    def test_estimator_histories_identical(self):
        a = tracking.run(patterns=("alt-20s-1",), seed=3)
        b = tracking.run(patterns=("alt-20s-1",), seed=3)
        assert a.runtimes == b.runtimes
        assert a.estimate_histories == b.estimate_histories


class TestExportDeterminism:
    """Paper-scheme event streams, as exported, are byte-identical."""

    def test_swim_export_bytes_identical(self, tmp_path):
        a = _export_bytes(
            "swim",
            swim.run(schemes=("hdfs", "dyrs"), n_jobs=30, seed=7),
            tmp_path / "a",
        )
        b = _export_bytes(
            "swim",
            swim.run(schemes=("hdfs", "dyrs"), n_jobs=30, seed=7),
            tmp_path / "b",
        )
        assert a == b

    def test_sort_reads_export_bytes_identical(self, tmp_path):
        kwargs = dict(schemes=("hdfs", "dyrs"), cases=("none",), size=4 * GB, seed=7)
        a = _export_bytes("sort-reads", sort_reads.run(**kwargs), tmp_path / "a")
        b = _export_bytes("sort-reads", sort_reads.run(**kwargs), tmp_path / "b")
        assert a == b


class TestObservabilityTransparency:
    """Tracing/metrics capture must not perturb the simulation.

    The tracer only records what components already do (it never reads
    clocks or RNG streams), so a traced run and an untraced run of the
    same seed must export byte-identical artifacts for every paper
    scheme -- and with tracing off (the default), the obs layer is a
    no-op entirely.
    """

    KWARGS = dict(
        schemes=("hdfs", "ignem", "dyrs"), cases=("none",), size=4 * GB, seed=7
    )

    def test_traced_run_is_byte_identical_to_untraced(self, tmp_path):
        from repro.obs.metrics import collecting
        from repro.obs.trace import tracing

        plain = _export_bytes(
            "sort-reads", sort_reads.run(**self.KWARGS), tmp_path / "plain"
        )
        with tracing() as tracer, collecting() as registry:
            traced = _export_bytes(
                "sort-reads", sort_reads.run(**self.KWARGS), tmp_path / "traced"
            )
        assert traced == plain
        # ... while actually capturing something.
        assert len(tracer.events) > 0
        assert registry.snapshot()

    def test_default_off_run_is_byte_identical(self, tmp_path):
        from repro.obs.metrics import NULL_REGISTRY, active_registry
        from repro.obs.trace import NULL_TRACER, active_tracer

        assert active_tracer() is NULL_TRACER
        assert active_registry() is NULL_REGISTRY
        a = _export_bytes(
            "sort-reads", sort_reads.run(**self.KWARGS), tmp_path / "a"
        )
        b = _export_bytes(
            "sort-reads", sort_reads.run(**self.KWARGS), tmp_path / "b"
        )
        assert a == b
        assert len(NULL_TRACER.events) == 0

