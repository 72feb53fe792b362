"""Unit tests for the benchmark regression gate
(``benchmarks/compare_bench.py``).

The gate is the only thing standing between a silent perf/behaviour
regression and a green CI run, so its ratio arithmetic, direction
handling (higher- vs lower-is-better), and missing-key semantics get
pinned here.  The module lives outside ``src`` (it is a CI script),
hence the ``sys.path`` shim.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import compare_bench  # noqa: E402


def _bench_json(tmp_path, name, benchmarks):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {"name": bench_name, "extra_info": info}
                    for bench_name, info in benchmarks.items()
                ]
            }
        )
    )
    return path


def test_key_lists_disjoint():
    gated = set(compare_bench.GATED)
    gated_lower = set(compare_bench.GATED_LOWER)
    info = set(compare_bench.INFORMATIONAL)
    assert not gated & gated_lower
    assert not gated & info
    assert not gated_lower & info


def test_load_extra_info(tmp_path):
    path = _bench_json(
        tmp_path, "b.json", {"test_a": {"archive_hit_ratio": 2.0}, "test_b": {}}
    )
    info = compare_bench.load_extra_info(path)
    assert info == {"test_a": {"archive_hit_ratio": 2.0}, "test_b": {}}


class TestCompare:
    def test_within_threshold_passes(self):
        baseline = {"bench": {"archive_hit_ratio": 2.0}}
        current = {"bench": {"archive_hit_ratio": 1.5}}  # -25% < 30%
        assert compare_bench.compare(current, baseline, 0.30) == []

    def test_gated_drop_past_threshold_fails(self):
        baseline = {"bench": {"archive_hit_ratio": 2.0}}
        current = {"bench": {"archive_hit_ratio": 1.3}}  # -35%
        failures = compare_bench.compare(current, baseline, 0.30)
        assert len(failures) == 1
        assert "archive_hit_ratio" in failures[0]
        assert "regressed" in failures[0]

    def test_gated_improvement_never_fails(self):
        baseline = {"bench": {"archive_hit_ratio": 2.0}}
        current = {"bench": {"archive_hit_ratio": 10.0}}
        assert compare_bench.compare(current, baseline, 0.30) == []

    def test_gated_lower_rise_past_threshold_fails(self):
        """Lower-is-better keys gate on a *rise*."""
        baseline = {"bench": {"reheat_latency_s": 1.0}}
        current = {"bench": {"reheat_latency_s": 1.5}}  # +50%
        failures = compare_bench.compare(current, baseline, 0.30)
        assert len(failures) == 1
        assert "reheat_latency_s" in failures[0]

    def test_gated_lower_drop_never_fails(self):
        baseline = {"bench": {"events_per_task_1k": 60.0}}
        current = {"bench": {"events_per_task_1k": 20.0}}
        assert compare_bench.compare(current, baseline, 0.30) == []

    def test_missing_benchmark_fails(self):
        baseline = {"bench": {"archive_hit_ratio": 2.0}}
        failures = compare_bench.compare({}, baseline, 0.30)
        assert len(failures) == 1
        assert "not in this run" in failures[0]

    def test_missing_gated_key_fails(self):
        baseline = {"bench": {"archive_hit_ratio": 2.0, "shard_p99_ratio": 3.0}}
        current = {"bench": {"archive_hit_ratio": 2.0}}
        failures = compare_bench.compare(current, baseline, 0.30)
        assert len(failures) == 1
        assert "shard_p99_ratio" in failures[0]
        assert "missing" in failures[0]

    def test_new_key_in_current_only_ignored(self):
        """Keys the baseline does not know about cannot gate -- a new
        metric lands with its baseline in the same PR."""
        baseline = {"bench": {}}
        current = {"bench": {"archive_hit_ratio": 0.01}}
        assert compare_bench.compare(current, baseline, 0.30) == []

    def test_informational_keys_never_gate(self):
        baseline = {"bench": {"scale_events_per_sec_1000n": 1_000_000.0}}
        current = {"bench": {"scale_events_per_sec_1000n": 1.0}}
        assert compare_bench.compare(current, baseline, 0.30) == []

    def test_threshold_is_exclusive(self):
        """A change of exactly the threshold does not gate."""
        baseline = {"bench": {"archive_hit_ratio": 2.0}}
        current = {"bench": {"archive_hit_ratio": 1.0}}  # exactly -50%
        assert compare_bench.compare(current, baseline, 0.50) == []
        failures = compare_bench.compare(current, baseline, 0.49)
        assert len(failures) == 1

    def test_scale_keys_gate_in_both_directions(self):
        """Both scale keys are event volumes: a rise past the threshold
        gates, and a fall of any size passes."""
        baseline = {
            "bench": {
                "idle_poll_event_ratio": 1.0,
                "events_per_task_1k": 30.0,
            }
        }
        bad_ratio = {
            "bench": {
                "idle_poll_event_ratio": 2.2,  # +120%: parking lost
                "events_per_task_1k": 30.0,
            }
        }
        bad_volume = {
            "bench": {
                "idle_poll_event_ratio": 1.0,
                "events_per_task_1k": 60.0,  # +100%: regressed
            }
        }
        better = {
            "bench": {
                "idle_poll_event_ratio": 0.5,
                "events_per_task_1k": 15.0,
            }
        }
        assert len(compare_bench.compare(bad_ratio, baseline, 0.30)) == 1
        assert len(compare_bench.compare(bad_volume, baseline, 0.30)) == 1
        assert compare_bench.compare(better, baseline, 0.30) == []


class TestMain:
    def test_main_exit_codes(self, tmp_path):
        baseline = _bench_json(
            tmp_path, "base.json", {"bench": {"archive_hit_ratio": 2.0}}
        )
        good = _bench_json(
            tmp_path, "good.json", {"bench": {"archive_hit_ratio": 2.1}}
        )
        bad = _bench_json(tmp_path, "bad.json", {"bench": {"archive_hit_ratio": 0.5}})
        assert compare_bench.main([str(good), str(baseline)]) == 0
        assert compare_bench.main([str(bad), str(baseline)]) == 1

    def test_missing_baseline_names_file_and_exits_2(self, tmp_path, capsys):
        current = _bench_json(tmp_path, "BENCH_scale.json", {"bench": {}})
        absent = tmp_path / "baselines" / "BENCH_scale.json"
        assert compare_bench.main([str(current), str(absent)]) == 2
        err = capsys.readouterr().err
        assert f"not found: {absent}" in err
        assert "benchmarks/test_scale.py" in err
        assert f"--benchmark-json={absent}" in err

    def test_missing_current_run_exits_2(self, tmp_path, capsys):
        baseline = _bench_json(tmp_path, "base.json", {"bench": {}})
        absent = tmp_path / "BENCH_custom.json"
        assert compare_bench.main([str(absent), str(baseline)]) == 2
        assert f"not found: {absent}" in capsys.readouterr().err

    def test_main_threshold_flag(self, tmp_path):
        baseline = _bench_json(
            tmp_path, "base.json", {"bench": {"archive_hit_ratio": 2.0}}
        )
        current = _bench_json(
            tmp_path, "cur.json", {"bench": {"archive_hit_ratio": 1.5}}
        )  # -25%
        assert compare_bench.main([str(current), str(baseline)]) == 0
        assert (
            compare_bench.main(
                [str(current), str(baseline), "--threshold", "0.10"]
            )
            == 1
        )


@pytest.mark.parametrize("key", compare_bench.GATED + compare_bench.GATED_LOWER)
def test_every_gated_key_produces_output(key, capsys):
    """Each configured gate key actually participates in comparison."""
    baseline = {"bench": {key: 1.0}}
    current = {"bench": {key: 1.0}}
    assert compare_bench.compare(current, baseline, 0.30) == []
    out = capsys.readouterr().out
    assert key in out and "[ok]" in out
