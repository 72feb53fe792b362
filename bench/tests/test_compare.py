"""``bench/compare.py`` verdicts, including unresolved."""

import json
import statistics

from bench import compare
from bench.compare import GUARDS, verdict


def side(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def test_identical_runs_are_unchanged():
    a = side([100.0, 100.0, 100.0])
    assert verdict(a, a, "lower", 0.01) == (0.0, "unchanged")


def test_move_past_the_bound_is_worse_or_better_by_direction():
    a, b = side([100.0, 101.0, 102.0]), side([110.0, 111.0, 112.0])
    assert verdict(a, b, "lower", 0.05)[1] == "worse"
    assert verdict(a, b, "higher", 0.05)[1] == "better"
    assert verdict(b, a, "lower", 0.05)[1] == "better"
    assert verdict(a, b, "lower", 0.2)[1] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    a, b = side([80.0, 100.0, 120.0]), side([90.0, 112.0, 130.0])
    assert verdict(a, b, "lower", 0.05)[1] == "unresolved"


def test_separated_runs_resolve_despite_the_spread():
    a, b = side([80.0, 100.0, 120.0]), side([130.0, 150.0, 170.0])
    assert verdict(a, b, "lower", 0.05)[1] == "worse"
    assert verdict(b, a, "lower", 0.05)[1] == "better"


def _report(spec, scale, quiesce):
    metrics = {
        m["name"]: side([scale * 10.0, scale * 10.0, scale * 10.0])
        for m in spec["end_to_end"]
    }
    return {
        "seed": 0,
        "machine": {"cpu_model": "test"},
        "workloads": {
            "paper-swim": {
                "end_to_end": metrics,
                "per_layer": {name: quiesce for name in GUARDS},
            }
        },
    }


def test_exit_code_reports_any_worse_row(tmp_path, capsys):
    spec = json.loads(compare.SPEC_PATH.read_text())
    base, same, guard_grew = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    base.write_text(json.dumps(_report(spec, 1.0, 0)))
    same.write_text(json.dumps(_report(spec, 1.0, 0)))
    guard_grew.write_text(json.dumps(_report(spec, 1.0, 2)))
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(guard_grew)]) == 1
    assert "worse" in capsys.readouterr().out
