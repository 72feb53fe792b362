"""Cluster construction.

A :class:`Cluster` bundles the simulator, the RNG registry, the worker
nodes, and the network fabric.  The paper's testbed is one dedicated
master server plus 7 workers (§V-A); the master runs no DataNode, so it
is represented implicitly (the NameNode/DYRS-master objects live in the
DFS layer and are not bandwidth-constrained -- the paper shows master
work is off the critical path, §III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.cluster.network import Fabric
from repro.cluster.node import Node, NodeSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["Cluster", "ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster.

    Attributes
    ----------
    n_workers:
        Number of DataNode/worker servers (paper: 7).
    node:
        Spec applied to every worker unless overridden.
    overrides:
        Mapping of worker index -> :class:`NodeSpec` for heterogeneous
        setups (e.g. one node with a slow disk).
    seed:
        Root seed for all random streams.
    n_racks:
        Racks the workers are striped across (round-robin).  The
        paper's 8-node testbed is a single rack (the default); multi-
        rack setups enable rack-aware placement and charge cross-rack
        traffic to per-rack uplinks
        (:data:`~repro.cluster.network.RACK_UPLINK_BANDWIDTH`).
    ssd:
        Give every worker an SSD cache partition (the tiered-storage
        extension), whatever its node spec says.  False -- the default
        -- reproduces the paper's two-level disk/RAM servers exactly.
    archive:
        Give every worker an archive partition, the same way (the
        lifecycle extension).  When any worker ends up with an archive
        partition the fabric builds one shared archive link, and every
        partition's transfers contend on it.  False -- the default --
        means no cold tier.
    """

    n_workers: int = 7
    node: NodeSpec = field(default_factory=NodeSpec)
    overrides: dict[int, NodeSpec] = field(default_factory=dict)
    seed: int = 0
    n_racks: int = 1
    ssd: bool = False
    archive: bool = False

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        bad = [i for i in self.overrides if not 0 <= i < self.n_workers]
        if bad:
            raise ValueError(f"override indices out of range: {bad}")
        if not 1 <= self.n_racks <= self.n_workers:
            raise ValueError(
                f"n_racks must be in [1, n_workers], got {self.n_racks}"
            )

    def spec_for(self, index: int) -> NodeSpec:
        """The effective spec for worker ``index``."""
        spec = self.overrides.get(index, self.node)
        if self.ssd and not spec.ssd:
            spec = replace(spec, ssd=True)
        if self.archive and not spec.archive:
            spec = replace(spec, archive=True)
        return spec

    def rack_of(self, index: int) -> int:
        """The rack worker ``index`` lives in (round-robin striping)."""
        return index % self.n_racks


class Cluster:
    """A running cluster: simulator + nodes + fabric + RNG streams."""

    def __init__(self, spec: Optional[ClusterSpec] = None) -> None:
        self.spec = spec or ClusterSpec()
        self.sim = Simulator()
        self.rngs = RngRegistry(self.spec.seed)
        specs = [self.spec.spec_for(i) for i in range(self.spec.n_workers)]
        self.fabric = Fabric(
            self.sim,
            n_racks=self.spec.n_racks,
            archive=any(s.archive for s in specs),
        )
        self.nodes: list[Node] = [
            Node(
                self.sim,
                node_id=i,
                spec=specs[i],
                rack_id=self.spec.rack_of(i),
                archive_channel=self.fabric.archive_link,
            )
            for i in range(self.spec.n_workers)
        ]
        for node in self.nodes:
            node.cluster = self

    # -- lookup ------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """The worker with id ``node_id``."""
        return self.nodes[node_id]

    def rack_of(self, node_id: int) -> int:
        """The rack holding worker ``node_id``."""
        return self.nodes[node_id].rack_id

    def same_rack(self, a: Optional[int], b: Optional[int]) -> bool:
        """Whether two workers share a rack (None -> off-cluster)."""
        if a is None or b is None:
            return False
        return self.rack_of(a) == self.rack_of(b)

    def alive_nodes(self) -> Sequence[Node]:
        """Workers currently up."""
        return [n for n in self.nodes if n.alive]

    # -- aggregate metrics ---------------------------------------------------

    def total_memory_used(self) -> float:
        """Bytes of migrated data pinned cluster-wide."""
        return sum(n.memory.used for n in self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster workers={len(self.nodes)} t={self.sim.now:.6g}>"
