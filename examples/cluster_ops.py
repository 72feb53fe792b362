#!/usr/bin/env python
"""Operations tour: standby-master failover (§III-C1's live backup).

A DYRS workload runs under a primary master with a standby behind it;
the primary dies mid-run, the standby takes over after the failover
delay, and new migration requests go through it.

Run:  python examples/cluster_ops.py
"""

from repro.cluster import Cluster, ClusterSpec
from repro.core import DyrsConfig, DyrsSlave, StandbyCoordinator
from repro.dfs import DFSClient, HeartbeatService, NameNode, RandomPlacement
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
    heartbeats.start()
    coordinator.start()
    for slave in slaves:
        slave.start()

    print("Loading 4GB of cold data and migrating it...")
    client.create_file("warehouse/events", 4 * GB)
    client.migrate(["warehouse/events"], job_id="etl")
    cluster.sim.run(until=40)
    print(f"  blocks in memory: {len(namenode.directory['memory'])}")

    print("\nPrimary DYRS master dies; standby takes over...")
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


if __name__ == "__main__":
    main()
