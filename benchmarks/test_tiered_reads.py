"""Tiered-storage extension: read-time distributions across schemes.

Not a paper figure.  Runs a two-round sort under plain HDFS, DYRS, and
DYRS with the SSD tier, and compares the map-task read-time
distributions.  Round two re-reads round one's input *without
declaring it* (no ``migrate()`` call -- an ad-hoc query the scheduler
never announced).  That is the case the cache ladder serves: DYRS can
do nothing for an undeclared job, but on an SSD ladder the
evicted-but-warm blocks sit on the SSD and the re-read comes off flash
instead of spinning disk.

A machine-readable summary is exported as JSON via
:func:`repro.experiments.export.export_json`.
"""

from collections import Counter

from repro.cluster import ClusterSpec
from repro.compute.job import mapreduce_job
from repro.experiments.export import export_json
from repro.system import System, SystemConfig
from repro.units import GB
from repro.workloads.sort import sort_job

#: Each row's label and what it runs: plain HDFS, the paper's DYRS, and
#: DYRS on an SSD ladder (what the ``dyrs-tiered`` preset builds).
CONFIGS = {
    "hdfs": SystemConfig(scheme="hdfs"),
    "dyrs": SystemConfig(),
    "dyrs-tiered": SystemConfig(cluster=ClusterSpec(ssd=True)),
}
INPUT_SIZE = 8 * GB


def _quantiles(values: list[float]) -> dict:
    ordered = sorted(values)
    if not ordered:
        return {"n": 0}
    pick = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]  # noqa: E731
    return {
        "n": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": pick(0.50),
        "p90": pick(0.90),
        "max": ordered[-1],
    }


def _run_scheme(scheme: str) -> dict:
    system = System(CONFIGS[scheme]).start()
    first = sort_job(system, size=INPUT_SIZE, job_id="sort-1")
    system.runtime.run_to_completion([first])
    blocks = system.client.blocks_of(["sort-1/input"])
    # Empty input_files: the re-read is never declared via migrate(),
    # so round 2 finds the blocks wherever the lifecycle left them.
    second = mapreduce_job(
        "sort-2",
        blocks,
        [],
        shuffle_bytes=INPUT_SIZE,
        output_bytes=INPUT_SIZE,
        submit_time=system.sim.now,
    )
    system.runtime.run_to_completion([second])

    def read_times(job_id: str) -> list[float]:
        return [
            t.read_time
            for t in system.metrics.jobs[job_id].map_tasks
            if t.read_time is not None
        ]

    sources = Counter(
        record.source.value
        for dn in system.namenode.datanodes.values()
        for record in dn.read_log
    )
    summary = {
        "round1_read_s": _quantiles(read_times("sort-1")),
        "round2_read_s": _quantiles(read_times("sort-2")),
        "read_sources": dict(sources),
        "makespan_s": system.sim.now,
    }
    if scheme == "dyrs-tiered":
        summary["tier_moves"] = {
            f"{s}->{d}": n for (s, d), n in sorted(system.master.tier_moves.items())
        }
        summary["promotions"] = system.master.promotion_count
        summary["demotions"] = system.master.demotion_count
    return summary


def _report(result: dict) -> str:
    lines = [f"{'scheme':12s} {'round1 mean':>12s} {'round2 mean':>12s} sources"]
    for scheme, summary in result.items():
        lines.append(
            f"{scheme:12s} {summary['round1_read_s']['mean']:>11.2f}s "
            f"{summary['round2_read_s']['mean']:>11.2f}s "
            f"{summary['read_sources']}"
        )
    return "\n".join(lines)


def test_tiered_read_distribution(run_experiment, benchmark, tmp_path):
    result = run_experiment(
        lambda: {scheme: _run_scheme(scheme) for scheme in CONFIGS},
        report_fn=_report,
    )
    path = export_json(tmp_path / "tiered_reads.json", result)
    assert path.exists()
    for scheme, summary in result.items():
        benchmark.extra_info[f"{scheme}_round2_mean_read_s"] = summary[
            "round2_read_s"
        ]["mean"]

    tiered = result["dyrs-tiered"]
    # The ladder must actually be exercised ...
    assert any(k.startswith("ssd") for k in tiered["read_sources"]) or any(
        k.startswith("local-ssd") or k.startswith("remote-ssd")
        for k in tiered["read_sources"]
    )
    assert tiered["promotions"] > 0 and tiered["demotions"] > 0
    # ... and the re-read round must beat spinning disk.
    assert (
        tiered["round2_read_s"]["mean"] <= result["hdfs"]["round2_read_s"]["mean"]
    )
