"""End-to-end tests of ``dyrs`` on an SSD ladder (the ``dyrs-tiered``
preset)."""

import pytest

from repro.cluster import ClusterSpec
from repro.experiments import common
from repro.experiments.cli import main as cli_main
from repro.lifecycle import LifecycleMaster
from repro.system import SCHEMES, System, SystemConfig
from repro.units import GB
from repro.workloads.sort import sort_job

#: What the ``dyrs-tiered`` preset builds: the stock cluster, every
#: worker with an SSD cache.
TIERED = SystemConfig(cluster=ClusterSpec(ssd=True))


class TestSchemeWiring:
    def test_scheme_is_registered(self):
        """The ladder is a preset of ``dyrs``, not a scheme of its own."""
        assert "dyrs-tiered" in common.PRESETS
        assert SCHEMES == ("hdfs", "ram", "dyrs", "ignem", "naive", "instant")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(scheme="bogus")

    def test_tiered_system_gets_ssds_everywhere(self):
        system = System(TIERED)
        assert isinstance(system.master, LifecycleMaster)
        assert all(node.ssd is not None for node in system.cluster.nodes)

    def test_paper_schemes_build_no_ssd_objects(self):
        """Zero-overhead guarantee: the paper's configurations carry no
        SSD devices."""
        for scheme in ("hdfs", "ram", "dyrs", "ignem", "naive", "instant"):
            system = System(SystemConfig(scheme=scheme))
            assert all(node.ssd is None for node in system.cluster.nodes), scheme


class TestSortEndToEnd:
    @pytest.fixture(scope="class")
    def sorted_system(self):
        system = System(TIERED).start()
        job = sort_job(system, size=2 * GB, job_id="sort")
        system.runtime.run_to_completion([job])
        return system

    def test_sort_completes(self, sorted_system):
        system = sorted_system
        assert system.metrics.jobs["sort"].finished_at is not None

    def test_blocks_observably_reach_the_ssd(self, sorted_system):
        system = sorted_system
        # Demote-on-evict parked the read-once input on the flash.
        assert len(system.namenode.directory["ssd"]) > 0
        assert any(node.ssd.peak > 0 for node in system.cluster.nodes)

    def test_promotions_and_demotions_are_counted(self, sorted_system):
        system = sorted_system
        assert system.master.promotion_count > 0
        assert system.master.demotion_count > 0
        assert ("disk", "memory") in system.master.tier_moves
        assert ("memory", "ssd") in system.master.tier_moves


class TestTiersFlag:
    def test_enable_tiered_swaps_only_the_dyrs_scheme(self):
        common.enable_tiered()
        try:
            assert common.tiered_enabled()
            setup = common.PaperSetup(scheme="dyrs", n_workers=2)
            tiered = common.build_system(setup)
            assert isinstance(tiered.master, LifecycleMaster)
            assert all(node.ssd is not None for node in tiered.cluster.nodes)
            baseline = common.PaperSetup(scheme="hdfs", n_workers=2)
            hdfs = common.build_system(baseline)
            assert hdfs.config.scheme == "hdfs"
            assert all(node.ssd is None for node in hdfs.cluster.nodes)
        finally:
            common.enable_tiered(False)

    def test_cli_flag_enables_tiering(self, capsys):
        try:
            assert cli_main(["list", "--tiers"]) == 0
            assert common.tiered_enabled()
            assert "tiered storage enabled" in capsys.readouterr().out
        finally:
            common.enable_tiered(False)

    def test_tiering_is_off_by_default(self):
        assert not common.tiered_enabled()
