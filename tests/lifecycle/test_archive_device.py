"""Archive device semantics: budget, shared fabric link, durability."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, StoreFull
from repro.cluster.archive import ARCHIVE_BANDWIDTH, ARCHIVE_CAPACITY, Archive
from repro.sim.engine import Simulator
from repro.units import GB, MB


class TestFreeStandingDevice:
    def test_budget_accounting(self):
        sim = Simulator()
        archive = Archive(sim)
        # Fill the partition to 64 MB short of its budget.
        filled = ARCHIVE_CAPACITY - 64 * MB
        archive.pin("a", filled)
        assert archive.used == filled
        assert archive.fits(64 * MB)
        assert not archive.fits(65 * MB)
        with pytest.raises(StoreFull):
            archive.pin("b", 96 * MB)
        assert archive.unpin("a") == filled
        assert archive.used == 0.0
        # Free-standing: a private link of the archive's shape.
        assert archive.channel.capacity == ARCHIVE_BANDWIDTH

    def test_transfer_charges_the_channel(self):
        sim = Simulator()
        archive = Archive(sim)
        event = archive.channel.transfer(200 * MB)
        sim.run_until_processed(event)
        assert sim.now == pytest.approx(200 * MB / ARCHIVE_BANDWIDTH)


class TestClusterWiring:
    def _cluster(self, **spec_kw):
        return Cluster(
            ClusterSpec(
                n_workers=3,
                seed=1,
                node=NodeSpec(archive=True),
                **spec_kw,
            )
        )

    def test_every_node_shares_the_fabric_link(self):
        cluster = self._cluster()
        link = cluster.fabric.archive_link
        assert link is not None
        for node in cluster.nodes:
            assert node.archive is not None
            assert node.archive.channel is link

    def test_archiveless_cluster_has_no_link(self):
        cluster = Cluster(ClusterSpec(n_workers=3, seed=1))
        assert cluster.fabric.archive_link is None
        assert all(node.archive is None for node in cluster.nodes)

    def test_archive_pins_survive_node_failure(self):
        """Fabric-attached media: the owning node is bookkeeping, so
        ``Node.fail`` must not release archive pins the way it wipes
        memory and SSD state."""
        cluster = self._cluster()
        node = cluster.nodes[0]
        node.archive.pin(42, 1 * GB)
        node.memory.pin(43, 64 * MB)
        node.fail()
        assert node.archive.is_pinned(42)
        assert node.archive.used == 1 * GB
        assert node.memory.used == 0.0
        node.recover()
        assert node.archive.is_pinned(42)
