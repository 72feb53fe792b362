"""Tests for the deterministic record -> shard router."""

import pytest

from repro.dfs.block import Block
from repro.shard import ShardRouter
from repro.units import MB


def block(block_id, replicas=(0, 1, 2)):
    return Block(
        block_id=block_id, file="f", index=0, size=64 * MB,
        replica_nodes=tuple(replicas),
    )


class TestValidation:
    def test_shard_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(2, mode="load")


class TestBlockMode:
    def test_stripes_by_block_id(self):
        router = ShardRouter(4)
        assert [router.shard_of(block(i)) for i in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    def test_total_and_deterministic(self):
        router = ShardRouter(3)
        first = [router.shard_of(block(i)) for i in range(100)]
        second = [router.shard_of(block(i)) for i in range(100)]
        assert first == second
        assert all(0 <= shard < 3 for shard in first)
        # Dense ids spread evenly: no shard starves.
        assert {first.count(s) for s in range(3)} == {33, 34}

    def test_one_shard_owns_everything(self):
        router = ShardRouter(1)
        assert {router.shard_of(block(i)) for i in range(50)} == {0}


class FakeHealth:
    """Stand-in health provider for router-only rendezvous tests."""

    def __init__(self, weights=None):
        self.weights = dict(weights or {})

    def shard_weight(self, shard_id):
        return self.weights.get(shard_id, 1.0)


class TestRendezvousMode:
    def test_requires_health_provider(self):
        with pytest.raises(ValueError):
            ShardRouter(4, mode="rendezvous")

    def test_total_and_deterministic(self):
        router = ShardRouter(4, mode="rendezvous", health=FakeHealth())
        first = [router.shard_of(block(i)) for i in range(400)]
        second = [router.shard_of(block(i)) for i in range(400)]
        assert first == second
        assert all(0 <= shard < 4 for shard in first)
        # HRW over equal weights spreads roughly evenly.
        for shard in range(4):
            assert first.count(shard) > 400 // 4 // 2

    def test_weights_shift_share(self):
        even = ShardRouter(4, mode="rendezvous", health=FakeHealth())
        skewed = ShardRouter(
            4, mode="rendezvous", health=FakeHealth(weights={2: 0.5})
        )
        even_share = [even.shard_of(block(i)) for i in range(600)].count(2)
        skewed_share = [skewed.shard_of(block(i)) for i in range(600)].count(2)
        # Half weight -> roughly half the key-space slice.
        assert skewed_share < even_share
