"""Archive device semantics: budget, shared fabric link, durability."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, StoreFull
from repro.cluster.archive import Archive, ArchiveSpec
from repro.sim.engine import Simulator
from repro.units import GB, MB


class TestArchiveSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ArchiveSpec(capacity=0)
        with pytest.raises(ValueError):
            ArchiveSpec(bandwidth=0)
        with pytest.raises(ValueError):
            ArchiveSpec(latency=-1.0)
        with pytest.raises(ValueError):
            ArchiveSpec(min_efficiency=1.5)


class TestFreeStandingDevice:
    def test_budget_accounting(self):
        sim = Simulator()
        archive = Archive(sim, ArchiveSpec(capacity=128 * MB))
        archive.pin("a", 64 * MB)
        assert archive.used == 64 * MB
        assert archive.fits(64 * MB)
        assert not archive.fits(65 * MB)
        with pytest.raises(StoreFull):
            archive.pin("b", 96 * MB)
        assert archive.unpin("a") == 64 * MB
        assert archive.used == 0.0
        # Free-standing: a private link built from the spec.
        assert archive.channel.capacity == ArchiveSpec().bandwidth

    def test_transfer_charges_the_channel(self):
        sim = Simulator()
        archive = Archive(sim, ArchiveSpec(bandwidth=100 * MB, latency=0.0))
        event = archive.channel.transfer(200 * MB)
        sim.run(until=10.0)
        assert event.triggered
        assert sim.now >= 2.0  # 200 MB at 100 MB/s


class TestClusterWiring:
    def _cluster(self, **spec_kw):
        return Cluster(
            ClusterSpec(
                n_workers=3,
                seed=1,
                node=NodeSpec().with_archive(),
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
