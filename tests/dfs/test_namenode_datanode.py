"""Tests for the NameNode / DataNode pair: routing, heartbeats, failure."""

import pytest

from repro.dfs import ReadSource
from repro.dfs.heartbeat import HeartbeatService
from repro.units import MB


def _start_recording_service(namenode):
    """Move node 0 to the end of ``namenode.datanodes`` and start a
    heartbeat service.  Returns ``(order, seen)``: the datanode order,
    then ``(time, node_ids)`` per delivered tick."""
    namenode.datanodes[0] = namenode.datanodes.pop(0)
    order = list(namenode.datanodes)
    assert order == [1, 2, 3, 0]
    seen = []
    namenode.add_heartbeat_observer(lambda r: seen.append((r.time, r.node_ids)))
    HeartbeatService(namenode).start()
    return order, seen


class TestCreateFile:
    def test_replicas_registered_on_datanodes(self, namenode, client):
        entry = client.create_file("f", 128 * MB)
        for block in entry.blocks:
            for nid in block.replica_nodes:
                assert namenode.datanodes[nid].has_disk_replica(block.block_id)

    def test_validation(self, namenode, cluster):
        from repro.dfs import NameNode, RoundRobinPlacement

        with pytest.raises(ValueError):
            NameNode(cluster, RoundRobinPlacement(4), replication=0)
        with pytest.raises(ValueError):
            NameNode(cluster, RoundRobinPlacement(4), heartbeat_interval=0)
        with pytest.raises(ValueError):
            NameNode(cluster, RoundRobinPlacement(4), heartbeat_miss_limit=0)


class TestReadRouting:
    def test_prefers_local_disk(self, namenode, client):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        local = block.replica_nodes[1]
        dn = namenode.resolve_read(block, reader_node=local)
        assert dn.node_id == local

    def test_remote_disk_when_no_local_replica(self, namenode, client, cluster):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        outside = next(
            n.node_id for n in cluster.nodes if n.node_id not in block.replica_nodes
        )
        dn = namenode.resolve_read(block, reader_node=outside)
        assert dn.node_id in block.replica_nodes

    def test_memory_replica_wins_even_remote(self, namenode, client):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        mem_node = block.replica_nodes[0]
        other = block.replica_nodes[1]
        namenode.datanodes[mem_node].pin_block(block)
        namenode.record_memory_replica(block.block_id, mem_node)
        dn = namenode.resolve_read(block, reader_node=other)
        assert dn.node_id == mem_node
        ev, source = dn.read(block, reader_node=other)
        assert source is ReadSource.REMOTE_MEMORY

    def test_stale_directory_falls_back_to_disk(self, namenode, client):
        """Soft state: directory says in-memory, slave already evicted."""
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        mem_node = block.replica_nodes[0]
        namenode.record_memory_replica(block.block_id, mem_node)  # stale
        dn = namenode.resolve_read(block, reader_node=mem_node)
        ev, source = dn.read(block, reader_node=mem_node)
        assert source is ReadSource.LOCAL_DISK

    def test_no_available_replica_raises(self, namenode, client, cluster):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        for nid in block.replica_nodes:
            cluster.node(nid).fail()
        with pytest.raises(LookupError):
            namenode.resolve_read(block, reader_node=0)

    def test_read_of_unknown_block_raises(self, namenode, client):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        outside = next(
            nid for nid in namenode.datanodes if nid not in block.replica_nodes
        )
        with pytest.raises(KeyError):
            namenode.datanodes[outside].read(block, reader_node=0)

    def test_read_log_records_source(self, namenode, client, cluster):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        ev, source = client.read_block(block, reader_node=block.replica_nodes[0])
        cluster.sim.run_until_processed(ev)
        dn = namenode.datanodes[block.replica_nodes[0]]
        assert len(dn.read_log) == 1
        assert dn.read_log[0].source is ReadSource.LOCAL_DISK
        assert dn.read_log[0].nbytes == block.size


class TestMigrationSupport:
    def test_migrate_requires_disk_replica(self, namenode, client):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        outside = next(
            nid for nid in namenode.datanodes if nid not in block.replica_nodes
        )
        with pytest.raises(KeyError):
            namenode.datanodes[outside].migrate_block_to_memory(block)

    def test_migration_consumes_disk_bandwidth(self, namenode, client, cluster):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        dn = namenode.datanodes[block.replica_nodes[0]]
        done = dn.migrate_block_to_memory(block)
        cluster.sim.run_until_processed(done)
        expected = block.size / dn.node.spec.disk.bandwidth
        assert cluster.sim.now == pytest.approx(expected)

    def test_pin_then_read_from_memory(self, namenode, client, cluster):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        nid = block.replica_nodes[0]
        dn = namenode.datanodes[nid]
        dn.pin_block(block)
        namenode.record_memory_replica(block.block_id, nid)
        ev, source = client.read_block(block, reader_node=nid)
        assert source is ReadSource.LOCAL_MEMORY

    def test_unpin_is_idempotent(self, namenode, client):
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        dn = namenode.datanodes[block.replica_nodes[0]]
        dn.pin_block(block)
        assert dn.unpin_block(block.block_id) == block.size
        assert dn.unpin_block(block.block_id) == 0.0


class TestHeartbeatsAndFailure:
    def test_heartbeats_keep_node_available(self, namenode, cluster):
        service = HeartbeatService(namenode)
        service.start()
        cluster.sim.run(until=100)
        assert all(namenode.is_available(nid) for nid in namenode.datanodes)

    def test_missed_heartbeats_mark_unavailable(self, namenode, cluster):
        service = HeartbeatService(namenode)
        service.start()
        cluster.sim.run(until=10)
        cluster.node(2).fail()
        limit = namenode.heartbeat_interval * namenode.heartbeat_miss_limit
        cluster.sim.run(until=10 + limit + namenode.heartbeat_interval + 1)
        assert not namenode.is_available(2)
        assert namenode.is_available(0)

    def test_failed_node_excluded_from_routing(self, namenode, client, cluster):
        service = HeartbeatService(namenode)
        service.start()
        entry = client.create_file("f", 64 * MB)
        block = entry.blocks[0]
        primary = block.replica_nodes[0]
        cluster.node(primary).fail()
        limit = namenode.heartbeat_interval * (namenode.heartbeat_miss_limit + 2)
        cluster.sim.run(until=limit)
        dn = namenode.resolve_read(block, reader_node=primary)
        assert dn.node_id != primary
        assert dn.node_id in block.replica_nodes

    def test_reports_follow_datanode_order(self, namenode, cluster):
        """Each tick delivers one report listing every node in
        ``namenode.datanodes`` order (not node-id order), stamped with
        the tick time, and the NameNode stamps all of them live."""
        order, seen = _start_recording_service(namenode)
        interval = namenode.heartbeat_interval
        cluster.sim.run(until=3 * interval + 0.1)  # ticks 0-3
        assert seen == [(tick * interval, order) for tick in range(4)]
        assert namenode._last_heartbeat == dict.fromkeys(order, 3 * interval)

    def test_reports_skip_down_nodes(self, namenode, cluster):
        """A failed or partitioned node is left out of the tick (and not
        stamped live) while the others keep their order; a healed
        partition reports again at the next tick."""
        order, seen = _start_recording_service(namenode)
        interval = namenode.heartbeat_interval
        failed, partitioned = order[1], order[2]
        cluster.sim.run(until=2 * interval + 0.1)  # ticks 0-2: everyone
        cluster.node(failed).fail()
        namenode.partitioned.add(partitioned)
        cluster.sim.run(until=4 * interval + 0.1)  # ticks 3-4: both skipped
        assert namenode._last_heartbeat[failed] == 2 * interval
        assert namenode._last_heartbeat[partitioned] == 2 * interval
        namenode.partitioned.discard(partitioned)
        cluster.sim.run(until=5 * interval + 0.1)  # tick 5: partition healed
        down = {3: {failed, partitioned}, 4: {failed, partitioned}, 5: {failed}}
        expected = [
            (tick * interval, [n for n in order if n not in down.get(tick, ())])
            for tick in range(6)
        ]
        assert seen == expected

    def test_late_datanode_reports_next_tick(self, namenode, cluster):
        """The service reads ``namenode.datanodes`` afresh every tick, so
        a DataNode registered after the service was built (and after
        its first tick) appears in the next one."""
        late = namenode.datanodes.pop(3)
        service = HeartbeatService(namenode)
        seen = []
        namenode.add_heartbeat_observer(lambda r: seen.append(r.node_ids))
        service.start()  # tick 0 runs inside start()
        namenode.datanodes[3] = late
        cluster.sim.run(until=namenode.heartbeat_interval + 0.1)
        assert seen == [[0, 1, 2], [0, 1, 2, 3]]

    def test_node_memory_drop(self, namenode, client):
        entry = client.create_file("f", 128 * MB)
        b0, b1 = entry.blocks[0], entry.blocks[1]
        namenode.record_memory_replica(b0.block_id, 1)
        namenode.record_memory_replica(b1.block_id, 2)
        namenode.drop_node_memory_state(1)
        assert b0.block_id not in namenode.memory_directory
        assert namenode.memory_directory[b1.block_id] == 2

    def test_service_stop(self, namenode, cluster):
        service = HeartbeatService(namenode)
        service.start()
        cluster.sim.run(until=5)
        service.stop()
        before = dict(namenode._last_heartbeat)
        cluster.sim.run(until=50)
        assert namenode._last_heartbeat == before


class TestDFSClientFacade:
    def test_migrate_without_master_returns_false(self, client):
        client.create_file("f", 64 * MB)
        assert client.migrate(["f"], job_id="j1") is False
        assert client.evict(["f"], job_id="j1") is False

    def test_write_file_charges_pipeline(self, client, cluster):
        done = client.write_file("out", 64 * MB, writer_node=0)
        cluster.sim.run_until_processed(done)
        entry = client.namenode.namespace.file("out")
        block = entry.blocks[0]
        # Every replica node's disk saw the write.
        for nid in block.replica_nodes:
            assert cluster.node(nid).disk.bytes_moved == pytest.approx(block.size)

    def test_blocks_of(self, client):
        client.create_file("a", 128 * MB)
        client.create_file("b", 64 * MB)
        blocks = client.blocks_of(["a", "b"])
        assert len(blocks) == 3
