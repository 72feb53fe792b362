"""Cluster telemetry: periodic sampling of resource state.

The §II motivation figures were built from per-node utilization time
series; :class:`TelemetryCollector` produces the same series from a
*running simulation*, so any experiment can be inspected the way the
paper inspected the Google trace -- disk utilization, migrated-memory
occupancy, scheduler queue depth, and NIC throughput per node per
sampling interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Cluster
    from repro.compute.scheduler import TaskScheduler

__all__ = ["TelemetryCollector", "TelemetrySample"]


@dataclass(frozen=True)
class TelemetrySample:
    """One sampling interval's cluster state."""

    time: float
    #: Per-node disk busy fraction during the interval.
    disk_utilization: tuple[float, ...]
    #: Per-node migrated bytes resident at sample time.
    memory_used: tuple[float, ...]
    #: Per-node bytes moved by the disk during the interval.
    disk_bytes: tuple[float, ...]
    #: Scheduler queue length at sample time (None if not attached).
    queued_tasks: Optional[int]
    #: Per-node SSD-cache bytes resident at sample time (all zeros on
    #: clusters without SSDs; appended field so older call sites and
    #: pickles stay valid).
    ssd_used: tuple[float, ...] = ()


class TelemetryCollector:
    """Samples a cluster every ``interval`` simulated seconds."""

    def __init__(
        self,
        cluster: "Cluster",
        interval: float = 5.0,
        scheduler: Optional["TaskScheduler"] = None,
        registry: Optional[obs_metrics.MetricsRegistry] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.interval = interval
        self.scheduler = scheduler
        #: Unified metrics sink; defaults to the ambient registry (the
        #: no-op singleton unless a run scoped one in).
        self.registry = (
            registry if registry is not None else obs_metrics.active_registry()
        )
        self.samples: list[TelemetrySample] = []
        self._proc: Optional[Process] = None
        self._last_busy = [0.0] * len(cluster.nodes)
        self._last_bytes = [0.0] * len(cluster.nodes)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._proc is not None and self._proc.is_alive:
            return
        self._proc = self.sim.process(self._run(), name="telemetry")

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt(cause="stop")
        self._proc = None

    # -- sampling ------------------------------------------------------------

    def _take_sample(self) -> None:
        utils = []
        bytes_delta = []
        for i, node in enumerate(self.cluster.nodes):
            busy = node.disk.channel.busy_time
            moved = node.disk.channel.bytes_moved
            utils.append(
                min(1.0, max(0.0, (busy - self._last_busy[i]) / self.interval))
            )
            bytes_delta.append(moved - self._last_bytes[i])
            self._last_busy[i] = busy
            self._last_bytes[i] = moved
        self.samples.append(
            TelemetrySample(
                time=self.sim.now,
                disk_utilization=tuple(utils),
                memory_used=tuple(n.memory.used for n in self.cluster.nodes),
                disk_bytes=tuple(bytes_delta),
                queued_tasks=(
                    self.scheduler.queued_requests
                    if self.scheduler is not None
                    else None
                ),
                ssd_used=tuple(
                    (n.ssd.used if n.ssd is not None else 0.0)
                    for n in self.cluster.nodes
                ),
            )
        )
        reg = self.registry
        if reg.enabled:
            sample = self.samples[-1]
            for i in range(len(self.cluster.nodes)):
                reg.gauge("disk_utilization", node=i).set(sample.disk_utilization[i])
                reg.gauge("memory_used_bytes", node=i).set(sample.memory_used[i])
                if sample.ssd_used:
                    reg.gauge("ssd_used_bytes", node=i).set(sample.ssd_used[i])
            if sample.queued_tasks is not None:
                reg.gauge("queued_tasks").set(sample.queued_tasks)

    def _run(self):
        try:
            while True:
                yield self.sim.timeout(self.interval)
                self._take_sample()
        except Interrupt:
            return

    # -- series accessors -------------------------------------------------------

    def utilization_series(self, node_id: int) -> np.ndarray:
        """One node's disk-utilization series (Fig 1 style)."""
        return np.array([s.disk_utilization[node_id] for s in self.samples])

    def memory_series(self, node_id: int) -> np.ndarray:
        """One node's migrated-memory occupancy series (Fig 7 style)."""
        return np.array([s.memory_used[node_id] for s in self.samples])

    def ssd_series(self, node_id: int) -> np.ndarray:
        """One node's SSD-cache occupancy series (tiered extension)."""
        return np.array(
            [
                s.ssd_used[node_id] if s.ssd_used else 0.0
                for s in self.samples
            ]
        )

    def tier_occupancy_totals(self) -> dict[str, np.ndarray]:
        """Cluster-wide resident bytes per fast tier over time."""
        return {
            "memory": np.array([sum(s.memory_used) for s in self.samples]),
            "ssd": np.array(
                [sum(s.ssd_used) if s.ssd_used else 0.0 for s in self.samples]
            ),
        }

    def utilization_matrix(self) -> np.ndarray:
        """(n_nodes, n_samples) utilization matrix."""
        if not self.samples:
            return np.empty((len(self.cluster.nodes), 0))
        return np.array([s.disk_utilization for s in self.samples]).T

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.samples])
