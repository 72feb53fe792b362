"""Tier lifecycle policies: which rung should a block live on?

Two policies, both pure functions from block statistics to a desired
tier name, so they unit-test without a simulator and swap freely inside
the lifecycle master (:mod:`repro.lifecycle.policy` adds the third,
the declarative table):

:class:`ThresholdPolicy`
    The classic temperature ladder (OctopusFS-style): HOT blocks belong
    in memory, WARM blocks on the SSD, COLD blocks stay on disk.

:class:`CostBenefitPolicy`
    Picks the tier with the best *net* value over a decision horizon:
    expected read-time savings versus disk, minus the one-off cost of
    moving the block there.  The move cost comes from the slaves' EWMA
    migration estimators, so the same bandwidth-awareness that drives
    Algorithm 1's disk->memory targeting prices every other tier edge.

Policies only *propose* a tier; the master enforces capacity, reference
lists, and the mechanics of getting there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Mapping, Protocol

from repro.tiers.temperature import Temperature
from repro.tiers.tier import TIER_ORDER

__all__ = [
    "PlacementContext",
    "TierPolicy",
    "ThresholdPolicy",
    "CostBenefitPolicy",
]


@dataclass(frozen=True)
class PlacementContext:
    """Everything a policy may consult about one block.

    Attributes
    ----------
    block_size:
        Bytes of the block.
    temperature:
        The tracker's three-way classification.
    access_rate:
        Smoothed accesses/second (0 when unknown).
    resident_tier:
        Highest tier currently holding the block (``"disk"`` if only
        the DFS replicas exist).
    read_seconds:
        The candidate node's rungs, each mapped to the nominal seconds
        to read the block from it (see
        :func:`~repro.tiers.tier.rung_read_seconds`).
    move_seconds_per_byte:
        EWMA-estimated cost of copying one byte tier-to-tier on the
        candidate node (from the slave's migration estimator).
    """

    block_size: float
    temperature: Temperature
    access_rate: float
    resident_tier: str
    read_seconds: Mapping[str, float]
    move_seconds_per_byte: float


class TierPolicy(Protocol):
    """Maps a block's placement context to its desired tier name."""

    def target_tier(self, ctx: PlacementContext) -> str:
        """The tier the block *should* occupy (may equal the current)."""
        ...  # pragma: no cover - protocol


def _best_available(preferred: str, rungs: Container[str]) -> str:
    """``preferred`` if that rung exists on the node, else the highest
    existing rung at or below it (``disk`` always exists)."""
    start = TIER_ORDER.index(preferred)
    for name in reversed(TIER_ORDER[: start + 1]):
        if name in rungs:
            return name
    return "disk"


class ThresholdPolicy:
    """Temperature ladder: HOT -> memory, WARM -> ssd, COLD -> disk."""

    _LADDER = {
        Temperature.HOT: "memory",
        Temperature.WARM: "ssd",
        Temperature.COLD: "disk",
    }

    def target_tier(self, ctx: PlacementContext) -> str:
        return _best_available(self._LADDER[ctx.temperature], ctx.read_seconds)


class CostBenefitPolicy:
    """Maximize expected read-time savings minus the move cost.

    Over the next ``horizon`` seconds the block is expected to be read
    ``access_rate * horizon`` times.  Each read from tier *t* saves
    ``read_seconds(disk) - read_seconds(t)`` versus the bottom rung;
    moving the block to *t* costs ``block_size * move_seconds_per_byte``
    once (zero for the tier it already occupies, or for dropping to
    disk, whose replicas already exist).  The block belongs on the tier
    with the highest positive net value; ties and the no-benefit case
    fall to the lowest rung, which keeps cold data out of scarce
    fast-tier bytes.
    """

    def __init__(self, horizon: float = 120.0) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.horizon = horizon

    def target_tier(self, ctx: PlacementContext) -> str:
        disk_read = ctx.read_seconds["disk"]
        expected_reads = ctx.access_rate * self.horizon
        move_cost = ctx.block_size * ctx.move_seconds_per_byte
        best_name, best_net = "disk", 0.0
        for name in TIER_ORDER[1:]:
            read = ctx.read_seconds.get(name)
            if read is None:
                continue
            saving = expected_reads * (disk_read - read)
            net = saving - (0.0 if name == ctx.resident_tier else move_cost)
            if net > best_net:
                best_name, best_net = name, net
        return best_name
