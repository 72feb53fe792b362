"""Benchmark harness helpers.

The experiment benchmarks (storage ladder, shard sweep, tiered reads)
run one experiment, print its report, and record headline numbers in
``benchmark.extra_info`` (visible in pytest-benchmark's JSON output;
``compare_bench.py`` checks a suite's numbers against ``baselines/``).
Run with::

    pytest benchmarks/ --benchmark-only -s

(-s shows the rendered tables).
"""

import pytest


@pytest.fixture
def run_experiment(benchmark):
    """Run an experiment exactly once under the benchmark timer and
    print its report."""

    def _run(fn, report_fn=None, **extra_info):
        result = benchmark.pedantic(fn, rounds=1, iterations=1)
        if report_fn is not None:
            print()
            print(report_fn(result))
        for key, value in extra_info.items():
            benchmark.extra_info[key] = value
        return result

    return _run
