"""Network model: per-node NICs on a full-bisection fabric.

The paper's testbed has a 10 Gbps network between 8 servers (§V-A) --
small enough that the fabric core is never the bottleneck, so we model
only NIC capacity.  Each node has one full-duplex NIC: an egress and
an ingress :class:`~repro.sim.bandwidth.BandwidthResource` (no seek
penalty -- packet-switched links share cleanly).

Transfer charging
-----------------

A cross-node transfer in reality is limited by ``min`` of the sender's
egress share and the receiver's ingress share, a coupled max-min
problem.  We use the standard single-charge simplification:

* **remote reads** (a task pulling a block from another node's memory)
  charge the *source egress* -- the served node's uplink is the
  contended side when many tasks fan in on one in-memory replica;
* **shuffle fetches** and replica pipelines charge the *destination
  ingress* -- a reducer pulling from many mappers is limited by its
  own downlink.

Both patterns keep the dominant bottleneck and stay deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.archive import archive_link
from repro.sim.bandwidth import BandwidthResource
from repro.units import Gbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Nic", "Fabric"]

#: Per-direction NIC capacity, bytes/second (paper: 10 Gbps).
NIC_BANDWIDTH = 10 * Gbps
#: Per-direction uplink capacity of each rack's ToR switch,
#: bytes/second, used only with more than one rack: a deliberately
#: skinny 2 Gbps, so cross-rack reads are visibly more expensive.
RACK_UPLINK_BANDWIDTH = 2.5e8


class Nic:
    """A full-duplex NIC: independent egress and ingress pipes."""

    def __init__(self, sim: "Simulator", name: str = "nic") -> None:
        self.egress = BandwidthResource(
            sim, capacity=NIC_BANDWIDTH, name=f"{name}.egress"
        )
        self.ingress = BandwidthResource(
            sim, capacity=NIC_BANDWIDTH, name=f"{name}.ingress"
        )


class Fabric:
    """The cluster interconnect.

    Single-rack clusters (the paper's testbed) are full-bisection: the
    fabric only routes a transfer to the right NIC pipe.  With
    ``n_racks > 1`` each rack gets a pair of uplink pipes (up and down
    through its ToR switch) and cross-rack transfers additionally
    traverse both racks' uplinks -- the standard oversubscription
    model.  A pipelined cross-rack transfer runs at the minimum share
    along its path, which we model by charging all path pipes
    concurrently and completing when the slowest does.
    """

    def __init__(
        self, sim: "Simulator", n_racks: int = 1, archive: bool = False
    ) -> None:
        if n_racks < 1:
            raise ValueError(f"n_racks must be >= 1, got {n_racks}")
        self.sim = sim
        self.n_racks = n_racks
        self.uplinks: dict[int, BandwidthResource] = {}
        self.downlinks: dict[int, BandwidthResource] = {}
        if n_racks > 1:
            for rack in range(n_racks):
                self.uplinks[rack] = BandwidthResource(
                    sim, capacity=RACK_UPLINK_BANDWIDTH, name=f"rack{rack}.up"
                )
                self.downlinks[rack] = BandwidthResource(
                    sim, capacity=RACK_UPLINK_BANDWIDTH, name=f"rack{rack}.down"
                )
        #: The shared archive link (lifecycle extension): one pipe
        #: behind the core switch that every node's archive partition
        #: charges, built only when the cluster has an archive tier.
        self.archive_link: "BandwidthResource | None" = (
            archive_link(sim, "fabric.archive") if archive else None
        )

    @property
    def rack_aware(self) -> bool:
        return self.n_racks > 1

    def cross_rack_flows(
        self, src_rack: int, dst_rack: int, nbytes: float, tag: str
    ) -> list:
        """Start the ToR-uplink flows of a cross-rack transfer.

        Returns the flow handles (empty if same rack or single-rack).
        """
        if not self.rack_aware or src_rack == dst_rack:
            return []
        return [
            self.uplinks[src_rack].start_flow(nbytes, tag=tag),
            self.downlinks[dst_rack].start_flow(nbytes, tag=tag),
        ]
