"""Unit tests for the declarative lifecycle policy table and for the
tier policy the ladder master derives from its config."""

import pytest

from repro.cluster import ClusterSpec, NodeSpec
from repro.lifecycle import (
    LifecycleRule,
    LifecycleTable,
    TablePolicy,
    TierConfig,
    default_table,
)
from repro.system import System, SystemConfig
from repro.tiers import CostBenefitPolicy, ThresholdPolicy
from repro.tiers.policy import PlacementContext
from repro.tiers.temperature import Temperature


def master(scheme="dyrs-lifecycle", cluster=None, **tiers):
    """The ladder master ``scheme`` builds from ``TierConfig(**tiers)``."""
    config = SystemConfig(
        scheme=scheme,
        cluster=cluster or ClusterSpec(n_workers=2),
        tiers=TierConfig(**tiers),
    )
    return System(config).master


class TestLifecycleRule:
    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError):
            LifecycleRule("floppy")

    def test_rejects_nonpositive_replication(self):
        with pytest.raises(ValueError):
            LifecycleRule("archive", replication=0)

    def test_none_replication_means_keep_configured_factor(self):
        rule = LifecycleRule("disk")
        assert rule.replication is None


class TestLifecycleTable:
    def test_default_table_shape(self):
        table = default_table()
        assert table.hot.placement == "memory"
        assert table.warm.placement == "disk"
        assert table.cold.placement == "archive"
        assert table.cold.replication == 1

    def test_rule_lookup_covers_all_temperatures(self):
        table = default_table()
        assert table.rule(Temperature.HOT) is table.hot
        assert table.rule(Temperature.WARM) is table.warm
        assert table.rule(Temperature.COLD) is table.cold

    def test_replication_override_and_default(self):
        table = default_table(cold_replication=2)
        assert table.replication(Temperature.COLD, default=3) == 2
        # HOT/WARM rules carry no override: the configured factor wins.
        assert table.replication(Temperature.HOT, default=3) == 3

    def test_rejects_non_monotone_ladder(self):
        with pytest.raises(ValueError):
            LifecycleTable(
                hot=LifecycleRule("disk"),
                warm=LifecycleRule("memory"),
            )
        with pytest.raises(ValueError):
            LifecycleTable(cold=LifecycleRule("memory"))


class TestTablePolicy:
    def _ctx(self, temperature, tiers=("disk", "ssd", "memory")):
        return PlacementContext(
            block_size=1.0,
            temperature=temperature,
            access_rate=0.0,
            resident_tier="disk",
            read_seconds=dict.fromkeys(tiers, 1.0),
            move_seconds_per_byte=0.0,
        )

    def test_archive_placement_bottoms_out_at_disk(self):
        """The shared tier machinery never moves data below disk; the
        lifecycle master's archive pass owns that step."""
        policy = TablePolicy()
        assert policy.target_tier(self._ctx(Temperature.COLD)) == "disk"

    def test_hot_placement_degrades_to_best_available(self):
        policy = TablePolicy()
        assert policy.target_tier(self._ctx(Temperature.HOT)) == "memory"
        assert (
            policy.target_tier(self._ctx(Temperature.HOT, tiers=("disk", "ssd")))
            == "ssd"
        )


class TestLifecycleConfig:
    """The archive knobs of :class:`TierConfig` and the tier policy the
    ladder master derives from it."""

    def test_defaults_pick_the_table_policy(self):
        assert TierConfig().policy is None
        assert isinstance(master().tier_policy, TablePolicy)

    def test_derived_default_follows_the_ladder(self):
        """None means the table on a ladder with an archive rung and
        the threshold ladder without one -- whichever scheme built it."""
        assert isinstance(master("dyrs-tiered").tier_policy, ThresholdPolicy)
        archived = ClusterSpec(n_workers=2, node=NodeSpec().with_archive())
        assert isinstance(
            master("dyrs-tiered", cluster=archived).tier_policy, TablePolicy
        )

    def test_explicit_policy_is_honoured(self):
        assert isinstance(master(policy="threshold").tier_policy, ThresholdPolicy)
        assert isinstance(
            master(policy="cost-benefit").tier_policy, CostBenefitPolicy
        )
        assert isinstance(
            master("dyrs-tiered", policy="table").tier_policy, TablePolicy
        )

    def test_archive_age_must_cover_cold_age(self):
        with pytest.raises(ValueError):
            TierConfig(cold_age=300.0, archive_age=200.0)

    def test_cold_replication_must_be_positive(self):
        with pytest.raises(ValueError):
            TierConfig(cold_replication=0)

    def test_cold_replication_reaches_the_master_table(self):
        built = master(cold_replication=2)
        assert built.table.cold.replication == 2
        assert built.tier_policy.table is built.table
        assert built.replication_scheduler.table is built.table
