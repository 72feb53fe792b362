"""The placement rule the ladder master derives from its cluster, and
the archive knob of :class:`TierConfig`."""

import pytest

from repro.cluster import ClusterSpec, NodeSpec
from repro.lifecycle import Temperature, TierConfig
from repro.system import System, SystemConfig

#: The two ladders: an SSD rung, and an SSD plus an archive rung.
SSD = ClusterSpec(n_workers=2, ssd=True)
SSD_ARCHIVE = ClusterSpec(n_workers=2, ssd=True, archive=True)


def master(cluster=SSD_ARCHIVE, **tiers):
    """The ladder master ``dyrs`` builds on ``cluster`` from
    ``TierConfig(**tiers)``."""
    config = SystemConfig(cluster=cluster, tiers=TierConfig(**tiers))
    return System(config).master


class TestLifecycleConfig:
    def test_warm_arm_follows_the_ladder(self):
        """WARM blocks belong on the SSD only on a ladder without an
        archive rung -- however the rung is configured; HOT blocks
        belong there on both."""
        archived = ClusterSpec(n_workers=2, ssd=True, node=NodeSpec(archive=True))
        assert master(SSD)._belongs_on_ssd(Temperature.WARM)
        for cluster in (SSD_ARCHIVE, archived):
            built = master(cluster)
            assert not built._belongs_on_ssd(Temperature.WARM)
            assert built._belongs_on_ssd(Temperature.HOT)

    def test_archive_age_must_cover_cold_age(self):
        with pytest.raises(ValueError):
            TierConfig(cold_age=300.0, archive_age=200.0)
