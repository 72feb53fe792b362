"""One test per shipped rule: each fires on its fixture, and only where
the fixture plants a violation."""

from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def findings(fixture: str, rule: str):
    report = lint_paths([FIXTURES / fixture], select=[rule])
    assert not report.errors
    return report.diagnostics


def lines_of(diags):
    return [d.line for d in diags]


def test_sim101_wall_clock_fires_on_clock_imports():
    diags = findings("sim/wall_clock.py", "SIM101")
    assert lines_of(diags) == [3, 4]
    assert all(d.rule == "SIM101" and d.rule_name == "wall-clock" for d in diags)
    assert all(d.hint for d in diags)


def test_sim102_unseeded_rng_fires_but_allows_generator_annotations():
    diags = findings("sim/unseeded_rng.py", "SIM102")
    assert lines_of(diags) == [3, 6, 14]
    assert not any("Generator" in d.message for d in diags)


def test_sim103_unordered_iteration_fires_but_allows_sorted():
    diags = findings("sim/unordered_iter.py", "SIM103")
    assert lines_of(diags) == [6, 12, 17]


def test_sm201_status_assignment_fires_only_on_direct_assignment():
    diags = findings("core/status_assign.py", "SM201")
    assert lines_of(diags) == [7]
    assert "MigrationStatus.DONE" in diags[0].message


def test_sm203_shard_state_reach_fires_only_on_shardish_bases():
    diags = findings("core/shard_reach.py", "SM203")
    assert lines_of(diags) == [5, 9, 13]
    assert all(d.rule_name == "shard-state-reach" for d in diags)
    # self._pending and the public accessors stay legal.
    assert not any(d.line > 13 for d in diags)


def test_sm203_is_silent_inside_the_shard_package(tmp_path):
    # The same access from a module under a `shard/` directory is the
    # package touching its own state.
    out = tmp_path / "shard" / "coordinator.py"
    out.parent.mkdir()
    out.write_text("def peek(shard):\n    return shard._pending\n")
    report = lint_paths([out], select=["SM203"])
    assert report.diagnostics == []


def test_obs301_unguarded_trace_fires_only_without_a_dominating_guard():
    diags = findings("core/unguarded_trace.py", "OBS301")
    # the bare emit and the else-branch emit; the guarded and
    # cheap-argument emits stay legal.
    assert lines_of(diags) == [12, 25]


def test_vt401_float_time_equality_fires_on_eq_and_ne():
    diags = findings("sim/float_time_eq.py", "VT401")
    assert lines_of(diags) == [5, 9]


def test_vt402_heapq_fires_outside_the_engine():
    diags = findings("sim/heapq_outside.py", "VT402")
    assert lines_of(diags) == [7, 11]


def test_scoped_rules_ignore_files_outside_the_simulated_world(tmp_path):
    # The same wall-clock violation in an analysis-layer file is legal:
    # progress reporting may read the host clock.
    out = tmp_path / "analysis" / "progress.py"
    out.parent.mkdir()
    out.write_text((FIXTURES / "sim" / "wall_clock.py").read_text())
    report = lint_paths([out], select=["SIM101"])
    assert report.diagnostics == []


def test_engine_itself_may_mutate_the_event_heap(tmp_path):
    out = tmp_path / "sim" / "engine.py"
    out.parent.mkdir()
    out.write_text((FIXTURES / "sim" / "heapq_outside.py").read_text())
    report = lint_paths([out], select=["VT402"])
    assert report.diagnostics == []
