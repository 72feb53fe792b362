"""The layer profiler: attribution, restoration and transparency."""

import json
from contextlib import nullcontext
from types import SimpleNamespace

import pytest

import bench.layers
from bench.__main__ import SPEC_PATH
from bench.layers import ENTRY_POINTS, LayerProfiler, layer_of
from bench.tests import SMALL
from bench.workloads import run_sub, simulated_outcome
from repro.sim.engine import Simulator


def _outcome(profiler=None) -> dict:
    scope = (lambda: profiler.span("sim.engine")) if profiler else nullcontext
    return simulated_outcome([run_sub(SMALL, seed=3, trace=0, run_scope=scope)])


@pytest.fixture(scope="module")
def profiled():
    assert not hasattr(Simulator.step, "__wrapped__"), "instrumented before the run"
    with LayerProfiler() as profiler:
        outcome = _outcome(profiler)
        installed = profiler.patched
    return SimpleNamespace(
        profiler=profiler,
        outcome=outcome,
        installed=installed,
        report=profiler.report(),
    )


def test_layer_names_follow_module_names():
    assert layer_of("repro.core.slave") == "core.slave"
    assert layer_of("repro.shard.coordinator") == "shard"
    assert layer_of("repro.compute.task") == "compute"
    assert layer_of("repro.sim.process") == "sim.engine"
    assert layer_of("repro.lint.cfg") == "other"
    assert layer_of("numpy.random") is None


def test_owner_resolver_attributes_nearly_every_event(profiled):
    report = profiled.report
    assert report["bench.events_total"] == profiled.outcome["events"]
    assert report["sim.engine.unattributed_share"] <= 0.02
    named = sum(
        v for k, v in report.items() if k.endswith(".events") and k != "other.events"
    )
    assert named >= 0.98 * report["bench.events_total"]


def test_every_wrapped_entry_point_is_restored(profiled):
    assert len(profiled.installed) == len(ENTRY_POINTS) + 1
    for owner, attr, original in profiled.installed:
        assert getattr(owner, attr) is original, f"{owner}.{attr} left wrapped"
    assert profiled.profiler.patched == []


def test_profiling_leaves_the_simulated_outcome_unchanged(profiled):
    assert _outcome() == profiled.outcome


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start/end, outer end
    fake_time = SimpleNamespace(perf_counter=lambda: next(ticks))
    monkeypatch.setattr(bench.layers, "time", fake_time)
    profiler = LayerProfiler()
    with profiler.span("compute"):
        with profiler.span("core.master"):
            pass
    assert profiler.self_s["core.master"] == 2.0
    assert profiler.self_s["compute"] == 8.0


def test_benchmark_json_names_only_metrics_a_pass_produces(profiled):
    spec = json.loads(SPEC_PATH.read_text())
    pass_keys = {"wall_s", "setup_s", "peak_rss_mb"} | set(profiled.outcome)
    assert {m["name"] for m in spec["end_to_end"]} <= pass_keys
    layer_keys = (
        set(profiled.report)
        | set(profiled.outcome)
        | {"bench.trace_overhead_ratio", "obs.tracer_overhead_ratio"}
    )
    assert {m["name"] for m in spec["per_layer"]} <= layer_keys
