"""OBS302/CFG601 cross-artifact rules: both drift directions fire on
the fixture trees, and the real tree is drift-free."""

from pathlib import Path

from repro.lint import lint_paths

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def findings(fixture, rule):
    report = lint_paths([FIXTURES / fixture], select=[rule])
    assert not report.errors
    return report.diagnostics


class TestObs302:
    def diags(self):
        return findings("crossref", "OBS302")

    def test_fires_on_both_drift_directions(self):
        diags = self.diags()
        assert [(d.line, d.col) for d in diags] == [(16, 8), (19, 8), (6, 0)]

    def test_undeclared_attribute_names_the_event(self):
        attr = self.diags()[0]
        assert "`PULL_DENIED`" in attr.message
        assert "not declared" in attr.message

    def test_undeclared_literal_is_flagged(self):
        literal = self.diags()[1]
        assert "'surprise_event'" in literal.message

    def test_dead_vocabulary_entry_is_flagged_at_its_declaration(self):
        dead = self.diags()[2]
        assert dead.path.endswith("obs/trace.py")
        assert "`DEAD_EVENT` is dead" in dead.message

    def test_declared_and_conditionally_bound_events_stay_silent(self):
        lines = {d.line for d in self.diags() if d.path.endswith("emitter.py")}
        # The PULL_GRANT emit and the resolved ``etype`` conditional.
        assert lines.isdisjoint({9, 13})

    def test_real_tree_vocabulary_has_no_drift(self):
        report = lint_paths([REPO / "src" / "repro"], select=["OBS302"])
        assert report.diagnostics == [], [
            d.render() for d in report.diagnostics
        ]


class TestCfg601:
    def diags(self):
        return findings("knobrepo", "CFG601")

    def test_fires_on_untested_and_undocumented_knobs(self):
        diags = [d for d in self.diags() if d.path.endswith("config.py")]
        assert [d.line for d in diags] == [10, 10, 20, 20]
        messages = [d.message for d in diags]
        assert "`bad_knob` is referenced by no test" in messages[0]
        assert "`bad_knob` is not documented" in messages[1]
        assert "`use_orphan_hook` is referenced by no test" in messages[2]
        assert "`use_orphan_hook` is not documented" in messages[3]

    def test_tier_config_knobs_are_checked_too(self):
        diags = [d for d in self.diags() if d.path.endswith("lifecycle.py")]
        assert [d.line for d in diags] == [9, 9]
        assert "`bad_tier_knob` is referenced by no test" in diags[0].message
        assert "`bad_tier_knob` is not documented" in diags[1].message

    def test_compute_config_knobs_are_checked_too(self):
        diags = [d for d in self.diags() if d.path.endswith("compute.py")]
        assert [d.line for d in diags] == [9, 9]
        assert "`bad_compute_knob` is referenced by no test" in diags[0].message
        assert "`bad_compute_knob` is not documented" in diags[1].message

    def test_tested_and_documented_knobs_stay_silent(self):
        names = " ".join(d.message for d in self.diags())
        assert "`good_knob`" not in names
        assert "`good_tier_knob`" not in names
        assert "`good_compute_knob`" not in names
        assert "`use_good_hook`" not in names

    def test_real_tree_knobs_are_tested_and_documented(self):
        report = lint_paths([REPO / "src" / "repro"], select=["CFG601"])
        assert report.diagnostics == [], [
            d.render() for d in report.diagnostics
        ]
