"""The storage ladder: rung order, read costs and placement policies.

DYRS hard-codes a two-level hierarchy (disk below, RAM above).  The
storage-ladder extension generalizes it into a ladder ordered by
:data:`~repro.cluster.node.TIER_ORDER` (``archive`` < ``disk`` <
``ssd`` < ``memory``, re-exported here);
moving a block to a higher rung is a *promotion*, to a lower rung a
*demotion*.  The ``archive`` rung sits *below* disk: fabric-attached
cold storage that only the lifecycle master writes.

A policy needs two facts about a node's ladder: which rungs it has,
and what reading a block from each costs.  :func:`rung_read_seconds`
answers both from the node's devices.  Each policy is then a pure
function from one block's :class:`PlacementContext` to the rung it
should occupy, so it unit-tests without a simulator:

:class:`ThresholdPolicy`
    The classic temperature ladder (OctopusFS-style): HOT blocks belong
    in memory, WARM blocks on the SSD, COLD blocks stay on disk.

:class:`CostBenefitPolicy`
    Picks the tier with the best *net* value over a decision horizon:
    expected read-time savings versus disk, minus the one-off cost of
    moving the block there.  The move cost comes from the slaves' EWMA
    migration estimators, so the same bandwidth-awareness that drives
    Algorithm 1's disk->memory targeting prices every other tier edge.

:class:`TablePolicy`
    DLM-style storage policies are tables, not formulas: operators say
    "hot data lives on fast media with full replication, cold data
    moves to ARCHIVE with one durable copy" and the system executes
    it.  :class:`LifecycleTable` holds one :class:`LifecycleRule` per
    :class:`~repro.lifecycle.temperature.Temperature`; the
    :class:`~repro.lifecycle.master.LifecycleMaster` reads it through
    this adapter in its working-tier pass (the default policy on a
    ladder with an archive rung), and through
    :meth:`LifecycleTable.rule` directly in its archive pass and
    replication scheduler.  The adapter maps an ``archive`` placement
    to ``disk`` on purpose: the working-tier pass only drives moves
    between the working tiers, while archive moves are
    integrity-checked, replication-aware operations the master's mover
    serializes itself.

Policies only *propose* a tier; the master enforces capacity, reference
lists, and the mechanics of getting there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Protocol

from repro.cluster.node import TIER_ORDER
from repro.lifecycle.temperature import Temperature

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node

__all__ = [
    "TIER_ORDER",
    "CostBenefitPolicy",
    "LifecycleRule",
    "LifecycleTable",
    "PlacementContext",
    "TablePolicy",
    "ThresholdPolicy",
    "TierPolicy",
    "default_table",
    "is_promotion",
    "rung_read_seconds",
]


def is_promotion(source: str, dest: str) -> bool:
    """Whether moving ``source`` -> ``dest`` climbs the ladder."""
    return TIER_ORDER.index(dest) > TIER_ORDER.index(source)


def rung_read_seconds(node: "Node", nbytes: float) -> dict[str, float]:
    """Nominal seconds to read ``nbytes`` from each rung ``node`` has.

    Always contains ``disk`` and ``memory``; ``ssd`` only when the node
    spec carries an SSD cache, ``archive`` only when it owns an archive
    partition.  Each figure is the idle-device time at the read
    channel's bandwidth; an archive read also pays the per-operation
    setup latency, so archive reads look expensive even for tiny
    blocks.  Load-aware costs come from the slaves' EWMA estimators
    instead.
    """
    seconds = {
        "disk": nbytes / node.disk.channel.capacity,
        "memory": nbytes / node.memory.channel.capacity,
    }
    if node.ssd is not None:
        seconds["ssd"] = nbytes / node.ssd.channel.capacity
    if node.archive is not None:
        seconds["archive"] = node.archive.read_seconds(nbytes)
    return seconds


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
        to read the block from it (see :func:`rung_read_seconds`).
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


def _best_available(preferred: str, rungs: Mapping[str, float]) -> str:
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


@dataclass(frozen=True)
class LifecycleRule:
    """What one temperature class is entitled to.

    Attributes
    ----------
    placement:
        The tier the block should occupy (a :data:`TIER_ORDER` name).
        Placements above the rungs a node actually has degrade to the
        best available one.
    replication:
        Durable-copy target while the rule applies, or None to keep the
        file's configured factor.  An archived copy counts as one
        durable copy.
    """

    placement: str
    replication: Optional[int] = None

    def __post_init__(self) -> None:
        if self.placement not in TIER_ORDER:
            raise ValueError(
                f"placement must be one of {TIER_ORDER}, got {self.placement!r}"
            )
        if self.replication is not None and self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )


@dataclass(frozen=True)
class LifecycleTable:
    """The full policy: one rule per temperature class."""

    hot: LifecycleRule = field(
        default_factory=lambda: LifecycleRule("memory")
    )
    warm: LifecycleRule = field(
        default_factory=lambda: LifecycleRule("disk")
    )
    cold: LifecycleRule = field(
        default_factory=lambda: LifecycleRule("archive", replication=1)
    )

    def __post_init__(self) -> None:
        ranks = [TIER_ORDER.index(r.placement) for r in (self.hot, self.warm, self.cold)]
        if not ranks[0] >= ranks[1] >= ranks[2]:
            raise ValueError(
                "table must be monotone: hot placement >= warm >= cold, got "
                f"{self.hot.placement!r}/{self.warm.placement!r}/"
                f"{self.cold.placement!r}"
            )

    def rule(self, temperature: Temperature) -> LifecycleRule:
        if temperature is Temperature.HOT:
            return self.hot
        if temperature is Temperature.WARM:
            return self.warm
        return self.cold

    def replication(self, temperature: Temperature, default: int) -> int:
        """Durable-copy target under ``temperature`` (``default`` when
        the rule does not override it)."""
        override = self.rule(temperature).replication
        return default if override is None else override


def default_table(cold_replication: int = 1) -> LifecycleTable:
    """The canonical HOT->memory, WARM->disk, COLD->archive table."""
    return LifecycleTable(
        cold=LifecycleRule("archive", replication=cold_replication)
    )


class TablePolicy:
    """Adapter presenting a :class:`LifecycleTable` as a
    :class:`TierPolicy` for the working-tier pass."""

    def __init__(self, table: Optional[LifecycleTable] = None) -> None:
        self.table = table if table is not None else default_table()

    def target_tier(self, ctx: PlacementContext) -> str:
        placement = self.table.rule(ctx.temperature).placement
        if placement == "archive":
            # The working-tier pass bottoms out at disk; the archive
            # pass owns the last step down.
            placement = "disk"
        return _best_available(placement, ctx.read_seconds)
