"""The SIM501/502/503 family fires on its fixtures -- including the
minimized reconstructions of the PR 4 demote race and the PR 9
heartbeat snapshot bug -- and stays silent on the sanctioned fixes."""

from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def findings(fixture, rule):
    report = lint_paths([FIXTURES / fixture], select=[rule])
    assert not report.errors
    return report.diagnostics


def positions(diags):
    return [(d.line, d.col) for d in diags]


class TestSim501:
    def diags(self):
        return findings("simrace/stale_read.py", "SIM501")

    def test_fires_exactly_on_the_planted_stale_reads(self):
        assert positions(self.diags()) == [
            (10, 12),  # the PR 4 race shape
            (32, 8),   # guard reset by a second yield
            (37, 12),  # record walk without status re-check
            (54, 8),   # yield-from suspension
        ]

    def test_convicts_the_pr4_demote_to_dead_slave_race(self):
        race = self.diags()[0]
        assert race.line == 10
        assert "`slave`" in race.message
        assert "captured from `slaves` on line 8" in race.message
        assert "yield on line 9" in race.message

    def test_guarded_and_reread_variants_stay_silent(self):
        lines = {d.line for d in self.diags()}
        # _demote_loop_guarded, _demote_loop_reread,
        # _records_walk_guarded, _use_before_yield_is_fresh.
        assert lines.isdisjoint({18, 24, 44, 48})

    def test_yield_from_counts_as_a_suspension(self):
        assert any(
            d.line == 54 and "yield on line 53" in d.message
            for d in self.diags()
        )


class TestSim501Directory:
    def diags(self):
        return findings("simrace/stale_directory.py", "SIM501")

    def test_fires_on_the_unguarded_holder_only(self):
        diags = self.diags()
        assert positions(diags) == [(10, 8)]  # not line 17, the guarded use
        assert "captured from `directory` on line 8" in diags[0].message


class TestSim501LoadView:
    def diags(self):
        return findings("simrace/stale_load_view.py", "SIM501")

    def test_fires_on_the_unguarded_harvest_read_only(self):
        diags = self.diags()
        assert positions(diags) == [(10, 8)]  # not line 19, the guarded use
        assert "captured from `_copying_slaves` on line 8" in diags[0].message


class TestSim502:
    def diags(self):
        return findings("simrace/unfenced.py", "SIM502")

    def test_fires_exactly_on_the_unfenced_mutations(self):
        diags = self.diags()
        assert positions(diags) == [(9, 12), (21, 8)]
        assert "`_pending`" in diags[0].message
        assert "yield on line 8" in diags[0].message
        assert "`_records`" in diags[1].message

    def test_epoch_fence_and_pre_yield_mutations_stay_silent(self):
        lines = {d.line for d in self.diags()}
        assert lines.isdisjoint({17, 24})


class TestSim503:
    def diags(self):
        return findings("simrace/snapshot_init.py", "SIM503")

    def test_fires_exactly_on_the_frozen_snapshots(self):
        assert [d.line for d in self.diags()] == [22, 27, 28, 29]

    def test_convicts_the_pr9_heartbeat_snapshot_bug(self):
        pr9 = self.diags()[0]
        assert pr9.line == 22
        assert "registry `datanodes`" in pr9.message
        assert "PR 9" in pr9.message

    def test_lazy_map_and_live_alias_stay_silent(self):
        lines = {d.line for d in self.diags()}
        # LazyHeartbeatService and AliasingService assignments.
        assert lines.isdisjoint({35, 40})
