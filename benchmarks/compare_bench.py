"""Compare a benchmark run against its committed baseline.

Usage::

    python benchmarks/compare_bench.py BENCH_scale.json \\
        benchmarks/baselines/BENCH_scale.json [--threshold 0.30]

Both files are pytest-benchmark JSON exports holding the
machine-independent headline numbers in ``benchmarks[].extra_info``:
simulated quantities (``archive_hit_ratio``, ``reheat_latency_s``,
the shard p99 ratio) and engine event counts (``events_per_task_1k``,
``idle_poll_event_ratio``), all deterministic per seed.  Absolute
wall-clock numbers like ``scale_wall_s_1000n`` vary with the runner and
are reported but never gated.

Exits 1 when any gated number regressed by more than ``--threshold``
(default 30%) relative to the baseline -- a *drop* for
higher-is-better keys, a *rise* for lower-is-better ones -- and 2,
naming the file and the command that generates it, when either input
file is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: extra_info keys that gate, higher is better (runner-independent).
GATED = (
    "archive_hit_ratio",
    "shard_p99_ratio",
)
#: extra_info keys that gate, lower is better (latencies, overheads).
GATED_LOWER = (
    "reheat_latency_s",
    "makespan_overhead_ratio",
    "events_per_task_1k",
    "idle_poll_event_ratio",
)
#: extra_info keys shown for context only (absolute; runner-dependent).
INFORMATIONAL = (
    "archived_blocks",
    "restored_blocks",
    "pull_index_speedup_1k",
    "scale_events_per_sec_1000n",
    "scale_wall_s_1000n",
    "scale_peak_rss_mb_400n",
    "idle_notify_wall_ratio",
)

#: Benchmark file behind each ``BENCH_<suite>.json`` (the CI bench matrix).
SUITE_FILES = {
    "lifecycle": "benchmarks/test_lifecycle.py",
    "shard": "benchmarks/test_shard_bench.py",
    "scale": "benchmarks/test_scale.py",
}


def missing_file_message(path: Path) -> str:
    """Which file is missing, and the command that generates it."""
    suite = path.stem.removeprefix("BENCH_")
    source = SUITE_FILES.get(suite, "benchmarks/<suite file>.py")
    return (
        f"benchmark file not found: {path}\n"
        f"generate it with:\n"
        f"    PYTHONPATH=src python -m pytest {source} "
        f"--benchmark-only -q -s --benchmark-json={path}"
    )


def load_extra_info(path: Path) -> dict[str, dict[str, float]]:
    """name -> extra_info for every benchmark in a pytest-benchmark JSON."""
    with open(path) as handle:
        payload = json.load(handle)
    return {
        bench["name"]: bench.get("extra_info", {})
        for bench in payload["benchmarks"]
    }


def compare(
    current: dict[str, dict[str, float]],
    baseline: dict[str, dict[str, float]],
    threshold: float,
) -> list[str]:
    """Regression messages for every gated ratio past ``threshold``."""
    failures: list[str] = []
    for name, base_info in sorted(baseline.items()):
        cur_info = current.get(name)
        if cur_info is None:
            failures.append(f"{name}: present in baseline but not in this run")
            continue
        for keys, lower_is_better in ((GATED, False), (GATED_LOWER, True)):
            for key in keys:
                if key not in base_info:
                    continue
                base = base_info[key]
                cur = cur_info.get(key)
                if cur is None:
                    failures.append(f"{name}.{key}: missing from this run")
                    continue
                change = (cur - base) / base
                regressed = change > threshold if lower_is_better else (
                    change < -threshold
                )
                status = "REGRESSED" if regressed else "ok"
                arrow = "lower=better" if lower_is_better else "higher=better"
                print(
                    f"{name}.{key}: {cur:.3f} vs baseline {base:.3f} "
                    f"({change:+.1%}, {arrow}) [{status}]"
                )
                if regressed:
                    failures.append(
                        f"{name}.{key} regressed {abs(change):.1%} "
                        f"(> {threshold:.0%} allowed): "
                        f"{cur:.3f} vs baseline {base:.3f}"
                    )
        for key in INFORMATIONAL:
            if key in base_info and key in cur_info:
                print(
                    f"{name}.{key}: {cur_info[key]:,.0f} vs baseline "
                    f"{base_info[key]:,.0f} (informational, not gated)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="this run's benchmark JSON")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="max allowed relative drop in a gated ratio (default 0.30)",
    )
    args = parser.parse_args(argv)

    missing = [path for path in (args.current, args.baseline) if not path.is_file()]
    if missing:
        for path in missing:
            print(missing_file_message(path), file=sys.stderr)
        return 2
    failures = compare(
        load_extra_info(args.current),
        load_extra_info(args.baseline),
        args.threshold,
    )
    if failures:
        print("\nBenchmark regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nAll gated benchmark ratios within threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
