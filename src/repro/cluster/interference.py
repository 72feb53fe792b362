"""Background interference: the paper's bandwidth-heterogeneity rig.

§V-C creates heterogeneity by running two ``dd`` jobs that repeatedly
read from disk (with ``O_DIRECT``, so they always hit the platter), and
a custom generator producing *alternating* on/off patterns on one or
two nodes.  We reproduce both:

* :class:`PersistentInterference` -- ``streams`` infinite disk reads
  from ``start`` until stopped;
* :class:`AlternatingInterference` -- the same streams toggled
  active/inactive every ``period`` seconds, with an optional phase
  offset so two nodes can alternate in anti-phase (Fig 9d/9e);
* :class:`InterferenceSchedule` -- named factory for the five Table II
  patterns.

Interference consumes bandwidth through ordinary flows on the node's
disk channel (a :class:`~repro.sim.bandwidth.BandwidthResource`), so
migrations, task reads
and interference all contend exactly like they would on a real
actuator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.cluster.topology import Cluster

__all__ = [
    "PersistentInterference",
    "AlternatingInterference",
    "InterferenceSchedule",
]


class _InterferenceBase:
    """Common start/stop lifecycle for interference generators."""

    def __init__(self, node: "Node", streams: int = 2) -> None:
        if streams < 1:
            raise ValueError(f"streams must be >= 1, got {streams}")
        self.node = node
        self.streams = streams
        self._flows: list = []
        self._process: Optional[Process] = None

    @property
    def active(self) -> bool:
        """Whether interference streams are currently running."""
        return bool(self._flows)

    def _turn_on(self) -> None:
        if self._flows:
            return
        self._flows = [
            self.node.disk.channel.start_flow(math.inf, tag=f"interference#{i}")
            for i in range(self.streams)
        ]

    def _turn_off(self) -> None:
        for flow in self._flows:
            self.node.disk.channel.cancel(flow)
        self._flows = []

    def stop(self) -> None:
        """End the interference permanently."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt(cause="stop")
            self._process = None
        self._turn_off()


class PersistentInterference(_InterferenceBase):
    """``streams`` endless disk readers, like the paper's two ``dd`` jobs."""

    def __init__(self, node: "Node", streams: int = 2, start: float = 0.0) -> None:
        super().__init__(node, streams)
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self.start_at = start

    def start(self) -> None:
        """Launch the interference process."""
        if self._process is not None:
            raise RuntimeError("interference already started")
        self._process = self.node.sim.process(self._run(), name="persistent-intf")

    def _run(self):
        try:
            if self.start_at > self.node.sim.now:
                yield self.node.sim.timeout(self.start_at - self.node.sim.now)
            self._turn_on()
            # Sleep forever; only stop() ends us.
            yield self.node.sim.event()
        except Interrupt:
            self._turn_off()


class AlternatingInterference(_InterferenceBase):
    """Interference toggling active/inactive every ``period`` seconds.

    Parameters
    ----------
    node, streams:
        As for :class:`PersistentInterference`.
    period:
        Seconds per active (and per inactive) phase -- the paper uses
        10 s and 20 s (Fig 9b-9e).
    start_active:
        Whether the first phase is active.  Running one generator with
        ``start_active=True`` on node A and one with ``False`` on node
        B yields the anti-phase two-node patterns of Fig 9d/9e.
    start:
        Simulation time at which the pattern begins.
    """

    def __init__(
        self,
        node: "Node",
        period: float,
        streams: int = 2,
        start_active: bool = True,
        start: float = 0.0,
    ) -> None:
        super().__init__(node, streams)
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self.period = float(period)
        self.start_active = start_active
        self.start_at = start
        #: (time, active?) transitions, for plotting/tests.
        self.transitions: list[tuple[float, bool]] = []

    def start(self) -> None:
        """Launch the toggling process."""
        if self._process is not None:
            raise RuntimeError("interference already started")
        self._process = self.node.sim.process(self._run(), name="alternating-intf")

    def _run(self):
        sim = self.node.sim
        try:
            if self.start_at > sim.now:
                yield sim.timeout(self.start_at - sim.now)
            active = self.start_active
            while True:
                if active:
                    self._turn_on()
                else:
                    self._turn_off()
                self.transitions.append((sim.now, active))
                yield sim.timeout(self.period)
                active = not active
        except Interrupt:
            self._turn_off()


@dataclass(frozen=True)
class InterferenceSchedule:
    """Factory for the five named interference patterns of Table II.

    ``pattern`` is one of:

    - ``"persistent-1"``     -- node A persistently active (Fig 9a)
    - ``"alt-10s-1"``        -- node A alternating every 10 s (Fig 9b)
    - ``"alt-20s-1"``        -- node A alternating every 20 s (Fig 9c)
    - ``"alt-10s-2"``        -- nodes A & B anti-phase every 10 s (Fig 9d)
    - ``"alt-20s-2"``        -- nodes A & B anti-phase every 20 s (Fig 9e)
    - ``"none"``             -- homogeneous baseline (Fig 8a)
    """

    pattern: str
    node_a: int = 0
    node_b: int = 1
    streams: int = 2

    PATTERNS = (
        "none",
        "persistent-1",
        "alt-10s-1",
        "alt-20s-1",
        "alt-10s-2",
        "alt-20s-2",
    )

    def __post_init__(self) -> None:
        if self.pattern not in self.PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; choose from {self.PATTERNS}"
            )

    def build(self, cluster: "Cluster") -> Sequence[_InterferenceBase]:
        """Instantiate (unstarted) generators against ``cluster``."""
        a = cluster.node(self.node_a)
        if self.pattern == "none":
            return []
        if self.pattern == "persistent-1":
            return [PersistentInterference(a, streams=self.streams)]
        period = 10.0 if "10s" in self.pattern else 20.0
        generators: list[_InterferenceBase] = [
            AlternatingInterference(
                a, period=period, streams=self.streams, start_active=True
            )
        ]
        if self.pattern.endswith("-2"):
            b = cluster.node(self.node_b)
            generators.append(
                AlternatingInterference(
                    b, period=period, streams=self.streams, start_active=False
                )
            )
        return generators

    def start(self, cluster: "Cluster") -> Sequence[_InterferenceBase]:
        """Build and immediately start the generators."""
        generators = self.build(cluster)
        for g in generators:
            g.start()
        return generators
