#!/usr/bin/env python
"""Operations tour: telemetry, self-healing, drain, and failover.

Walks the operational features a production deployment leans on while
a DYRS workload runs:

1. live telemetry (per-node disk utilization / memory series);
2. re-replication after a node dies;
3. graceful decommissioning of a node;
4. standby-master failover (§III-C1's live-backup).

Run:  python examples/cluster_ops.py
"""

from repro.analysis import TelemetryCollector, ascii_series
from repro.cluster import Cluster, ClusterSpec
from repro.core import DyrsConfig, DyrsSlave, StandbyCoordinator
from repro.dfs import (
    DFSClient,
    HeartbeatService,
    NameNode,
    RandomPlacement,
    ReplicationMonitor,
)
from repro.units import GB, MB


def main() -> None:
    cluster = Cluster(ClusterSpec(n_workers=5, seed=21))
    namenode = NameNode(
        cluster, RandomPlacement(5, cluster.rngs.stream("placement")),
        block_size=128 * MB,
    )
    client = DFSClient(namenode)
    config = DyrsConfig()
    coordinator = StandbyCoordinator(namenode, config, failover_delay=5.0)
    slaves = [
        DyrsSlave(namenode.datanodes[n.node_id], coordinator.primary, config)
        for n in cluster.nodes
    ]
    heartbeats = HeartbeatService(namenode)
    coordinator.attach_heartbeats(heartbeats)
    monitor = ReplicationMonitor(namenode, check_interval=5.0)
    telemetry = TelemetryCollector(cluster, interval=5.0)
    for component in (heartbeats, coordinator, monitor, telemetry):
        component.start()
    for slave in slaves:
        slave.start()

    print("Loading 4GB of cold data and migrating it...")
    client.create_file("warehouse/events", 4 * GB)
    client.migrate(["warehouse/events"], job_id="etl")
    cluster.sim.run(until=40)
    print(f"  blocks in memory: {len(namenode.directory['memory'])}")

    print("\n1) node4 dies; the ReplicationMonitor heals the block map...")
    cluster.node(4).fail()
    slaves[4].crash()
    cluster.sim.run(until=160)
    print(f"  repairs completed: {len(monitor.repair_log)}")
    print(f"  under-replicated blocks now: {len(monitor.under_replicated())}")

    print("\n2) draining node3 gracefully (it keeps serving reads)...")
    namenode.start_decommission(3)
    cluster.sim.run(until=400)
    state = "retired" if 3 in namenode.decommissioned else "still draining"
    print(f"  node3 is {state}; repairs so far: {len(monitor.repair_log)}")

    print("\n3) primary DYRS master dies; standby takes over...")
    coordinator.fail_primary()
    coordinator.fail_over_after()
    cluster.sim.run(until=cluster.sim.now + 10)
    print(f"  coordinator log: {coordinator.log}")
    client.create_file("warehouse/new", 512 * MB)
    assert client.migrate(["warehouse/new"], job_id="etl2") is True
    cluster.sim.run(until=cluster.sim.now + 30)
    migrated = sum(
        1 for b in client.blocks_of(["warehouse/new"])
        if b.block_id in namenode.directory["memory"]
    )
    print(f"  standby migrated {migrated} blocks of the new file")

    print("\n4) telemetry recorded throughout:")
    for node_id in (0, 4):
        series = telemetry.utilization_series(node_id)
        if len(series) >= 2:
            print(ascii_series(list(series), label=f"node{node_id} util"))
    print(
        f"\nsamples: {len(telemetry.samples)}, horizon: "
        f"{telemetry.times()[-1]:.0f}s of simulated operations"
    )


if __name__ == "__main__":
    main()
