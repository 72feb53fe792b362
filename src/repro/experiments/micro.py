"""§I micro-claims: the raw speed gap between the read paths.

The paper measures (on its testbed):

* block reads from RAM ~160x faster than from disk at the application
  level;
* map tasks reading from RAM ~10x faster end-to-end (launch overheads
  and compute dilute the raw gap);
* RAM reads ~7x faster than SSD reads.

We reproduce the first two directly.  For the SSD comparison we model
an SSD as a disk with ~3.4x the HDD's sequential bandwidth and no
seek penalty (typical SATA-SSD-vs-HDD of the paper's era), giving the
same ~7x RAM-over-SSD ratio; DESIGN.md documents this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import format_table
from repro.cluster import Cluster, ClusterSpec, DiskSpec, NodeSpec
from repro.experiments.common import PaperSetup, build_system
from repro.units import GB, MB

__all__ = ["MicroResult", "run", "report"]


@dataclass(frozen=True)
class MicroResult:
    """Single-block read times and map-task durations per path."""

    disk_block_read: float
    ssd_block_read: float
    local_memory_block_read: float
    remote_memory_block_read: float
    map_task_disk: float
    map_task_memory: float

    @property
    def ram_over_disk(self) -> float:
        return self.disk_block_read / self.local_memory_block_read

    @property
    def ram_over_ssd(self) -> float:
        return self.ssd_block_read / self.local_memory_block_read

    @property
    def map_task_factor(self) -> float:
        return self.map_task_disk / self.map_task_memory


def _timed_block_read(node_spec: NodeSpec, from_memory: bool, remote: bool = False) -> float:
    """Time one uncontended 256 MB block read on a fresh single node."""
    cluster = Cluster(ClusterSpec(n_workers=1, node=node_spec, seed=0))
    node = cluster.node(0)
    size = 256 * MB
    if from_memory:
        channel = node.nic.egress if remote else node.memory.channel
    else:
        channel = node.disk.channel
    event = channel.transfer(size)
    cluster.sim.run_until_processed(event)
    return cluster.sim.now


def _map_task_duration(scheme: str) -> float:
    """Mean map-task duration of a read-dominated ingest job.

    §I measures map tasks from the Facebook trace workload -- IO-bound
    filters whose reads contend on the disks.  We use a map-only job
    big enough that tasks overlap on every disk (the contended regime
    where the RAM gap is largest).
    """
    from repro.compute import mapreduce_job

    system = build_system(PaperSetup(scheme=scheme, seed=0, interference="none"))
    system.load_input("ingest/input", 20 * GB)
    blocks = system.client.blocks_of(["ingest/input"])
    job = mapreduce_job(
        "ingest",
        blocks,
        ["ingest/input"],
        shuffle_bytes=0.0,
        output_bytes=0.0,
        map_cpu_per_byte=1.0e-9,
        task_overhead_cpu=0.1,
        extra_lead_time=120.0,  # let migration (if any) finish first
    )
    metrics = system.runtime.run_to_completion([job])
    durations = metrics.jobs["ingest"].map_durations()
    return sum(durations) / len(durations)


def run() -> MicroResult:
    """Measure all read paths."""
    hdd = NodeSpec()
    ssd = NodeSpec(disk=DiskSpec(bandwidth=512 * MB, seek_penalty=0.0))
    return MicroResult(
        disk_block_read=_timed_block_read(hdd, from_memory=False),
        ssd_block_read=_timed_block_read(ssd, from_memory=False),
        local_memory_block_read=_timed_block_read(hdd, from_memory=True),
        remote_memory_block_read=_timed_block_read(hdd, from_memory=True, remote=True),
        map_task_disk=_map_task_duration("hdfs"),
        map_task_memory=_map_task_duration("ram"),
    )


def report(result: MicroResult) -> str:
    rows = [
        ["256MB from disk (HDD)", result.disk_block_read],
        ["256MB from SSD", result.ssd_block_read],
        ["256MB from local memory", result.local_memory_block_read],
        ["256MB from remote memory (10Gbps)", result.remote_memory_block_read],
        ["map task, input on disk", result.map_task_disk],
        ["map task, input in RAM", result.map_task_memory],
    ]
    lines = [
        "== §I micro-benchmarks: read paths ==",
        format_table(["operation", "seconds"], rows),
        f"RAM over disk (block): {result.ram_over_disk:.0f}x   (paper: 160x)",
        f"RAM over SSD (block):  {result.ram_over_ssd:.1f}x   (paper: 7x)",
        f"map task RAM speedup:  {result.map_task_factor:.1f}x  (paper: 10x)",
    ]
    return "\n".join(lines)
