"""Tests for the design-choice ablations (DESIGN.md §6)."""

import pytest

from repro.experiments import ablations
from repro.obs import trace as obs


def bind_sequences(axis):
    """Run ``axis`` traced; return each variant's label, scheme and
    ordered ``(block, node)`` bind sequence, in run order."""
    with obs.tracing() as tracer:
        result = axis(seed=0)
    runs = []
    for event in tracer.events:
        if event.type == obs.RUN_START:
            runs.append((event.fields["scheme"], []))
        elif event.type == obs.BIND:
            runs[-1][1].append((event.fields["block"], event.fields["node"]))
    assert len(runs) == len(result.values), "one run per variant"
    return [
        (label, scheme, tuple(binds))
        for label, (scheme, binds) in zip(result.values, runs)
    ]


class TestEveryAxisMovesABinding:
    @pytest.mark.parametrize("axis", ablations.AXES, ids=lambda axis: axis.__name__)
    def test_some_scheme_binds_differently_across_variants(self, axis):
        """ROADMAP item 2's rule, held for every pair of variants: two
        runs that bind the same blocks to the same nodes, in the same
        order, decide the same thing, so one row restates the other.
        A scheme that migrates nothing (hdfs) binds nothing whatever
        the knob; its runs are reference rows, and every pair of
        variants must differ in the runs that bind."""
        first_label: dict[tuple, str] = {}
        restated = []
        for label, _scheme, binds in bind_sequences(axis):
            if binds:
                earlier = first_label.setdefault(binds, label)
                if earlier != label:
                    restated.append((earlier, label))
        assert len(first_label) >= 2
        assert restated == []


class TestBindingDelay:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_binding_delay(seed=0)

    def test_three_variants(self, result):
        assert len(result.values) == 3

    def test_late_binding_beats_submission_binding(self, result):
        """The paper's core argument (§III-A1): the later the binding,
        the better the information, the better the placement."""
        dyrs = result.values["dyrs (late binding)"]
        ignem = result.values["ignem (bound at submission)"]
        assert dyrs < ignem

    def test_report_renders(self, result):
        assert "binding-delay" in ablations.report([result])


class TestEstimatorRefresh:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_estimator_refresh(seed=0)

    def test_refresh_not_worse(self, result):
        """§V-F2: the in-progress refresh makes DYRS respond quicker to
        slowdowns; with it, the sort must be at least as fast."""
        on = result.values["refresh on (paper)"]
        off = result.values["refresh off (early prototype)"]
        assert on <= off * 1.05


class TestQueueDepth:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_queue_depth(seed=0)

    def test_all_depths_complete(self, result):
        assert all(v > 0 for v in result.values.values())

    def test_derived_depth_is_competitive(self, result):
        """§III-B: the derived depth should be within 15% of the best
        swept depth (deep queues bind too early, depth 1 risks disk
        idleness)."""
        auto = result.values["auto (derived)"]
        best = min(result.values.values())
        assert auto <= best * 1.15


class TestPolicies:
    def test_policy_comparison(self):
        result = ablations.run_policies(seed=0, n_jobs=20)
        assert set(result.values) == {"fifo (paper)", "sjf", "lifo"}
        assert all(v > 0 for v in result.values.values())


class TestMemoryLimit:
    def test_shrinking_budget_decays_toward_hdfs(self):
        result = ablations.run_memory_limit(seed=0)
        budgets = ["unlimited", "1GB/node", "512MB/node", "256MB/node"]
        runtimes = [result.values[label] for label in budgets]
        assert runtimes == sorted(runtimes)
        assert result.values["256MB/node"] <= result.values["hdfs (no migration)"] * 1.05


class TestTopologyAblations:
    def test_delay_scheduling_runs_both_schemes(self):
        result = ablations.run_delay_scheduling(seed=0, n_jobs=30)
        assert len(result.values) == 4
        assert all(v > 0 for v in result.values.values())

    def test_dyrs_benefit_survives_two_racks(self):
        result = ablations.run_racks(seed=0)
        one_rack = result.values["dyrs, 1 rack(s)"]
        two_rack = next(
            v for k, v in result.values.items() if k.startswith("dyrs, 2")
        )
        hdfs = result.values["hdfs, 1 rack(s)"]
        assert two_rack < hdfs  # still clearly faster than HDFS
        assert two_rack == pytest.approx(one_rack, rel=0.25)

    def test_cross_rack_traffic_observed(self):
        result = ablations.run_racks(seed=0)
        label = next(k for k in result.values if k.startswith("dyrs, 2"))
        assert "cross-rack" in label
