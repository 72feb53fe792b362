"""Contracts of the scale fast paths.

The ledger's failure scans -- :meth:`MigrationMaster.on_slave_failed
<repro.core.base.MigrationMaster.on_slave_failed>` and
:meth:`DyrsMaster.reclaim_unavailable
<repro.core.master.DyrsMaster.reclaim_unavailable>` -- read the per-node
in-flight index instead of walking the record table.  These tests pin
that the index always holds exactly the table's BOUND/ACTIVE rows and
that each scan files its replacement records in the victims'
first-filing (``_arrival_seq``) order, the order a table walk would
visit them.  Whole-run behaviour is pinned by the golden digests in
``tests/test_golden_digests.py``.

Also here: ``idle_pull="notify"`` completes the same migrations as the
paper's poll mode.
"""

import pytest

from repro.core.records import MigrationStatus
from repro.experiments.common import PaperSetup, build_system
from repro.units import GB
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs


def assert_index_matches_table(master):
    """The in-flight index holds exactly the BOUND/ACTIVE rows of the
    record table, each under its bound node."""
    table = {
        (r.bound_node, r.block_id): r
        for r in master._records.values()
        if r.status in (MigrationStatus.BOUND, MigrationStatus.ACTIVE)
    }
    index = {
        (node_id, block_id): r
        for node_id, bucket in master._inflight_by_node.items()
        for block_id, r in bucket.items()
    }
    assert index.keys() == table.keys()
    assert all(index[key] is table[key] for key in table)


def scan_and_collect(master, victims, scan):
    """Run one failure scan; return the block ids it re-filed (in
    filing order) and the ids expected in first-filing order."""
    seq = master._arrival_seq
    expected = [r.block_id for r in sorted(victims, key=lambda r: seq[r.block_id])]
    filed_before = len(master.record_log)
    scan()
    refiled = [r.block_id for r in master.record_log[filed_before:]]
    assert_index_matches_table(master)
    return refiled, expected


class TestLedgerScanEquivalence:
    def _rig_at_two_seconds(self, rig):
        rig.client.create_file("f", 2 * GB)
        rig.master.migrate(["f"], job_id="j1")  # j1 keeps every reference
        rig.sim.run(until=2.0)
        return rig

    def test_slave_failure_refiles_in_first_filing_order(self, rig):
        """A crashed slave's DONE records (from its directory entries)
        and BOUND/ACTIVE ones (from the index) are replaced in one
        first-filing order.  The second crash hits a node whose index
        bucket holds records re-filed by the first, so bucket order and
        first-filing order differ there."""
        master = self._rig_at_two_seconds(rig).master

        def crash_slave(node_id):
            done = [
                master.record_of(block_id)
                for block_id, holder in master.namenode.directory["memory"].items()
                if holder == node_id
            ]
            inflight = list(master._inflight_by_node[node_id].values())
            assert len(done) >= 2 and len(inflight) >= 2
            slave = rig.slaves[node_id]
            slave.crash()
            victims = done + inflight
            refiled, expected = scan_and_collect(master, victims, slave.restart)
            assert refiled == expected
            return refiled, victims

        crash_slave(0)
        rig.sim.run(until=3.0)
        refiled, victims = crash_slave(1)
        assert refiled != [r.block_id for r in victims]

    def test_reclaim_refiles_in_first_filing_order(self, rig):
        """Work bound to a node the NameNode considers down is reclaimed
        in first-filing order, not in the order it was bound."""
        self._rig_at_two_seconds(rig)
        rig.slaves[0].crash()
        rig.slaves[0].restart()
        rig.sim.run(until=3.0)
        master = rig.master
        bucket = list(master._inflight_by_node[2].values())
        assert len(bucket) >= 2
        rig.cluster.node(2).fail()
        refiled, expected = scan_and_collect(master, bucket, master.reclaim_unavailable)
        assert refiled == expected
        assert refiled != [r.block_id for r in bucket]
        assert 2 not in master._inflight_by_node

    def test_inflight_index_matches_table(self):
        """Structural check: after a full run, the incremental
        in-flight index holds exactly the BOUND/ACTIVE rows of the
        record table."""
        system = build_system(
            PaperSetup(scheme="dyrs", seed=3, interference="none")
        )
        descriptors = generate_swim_workload(
            system.cluster.rngs.stream("equiv.swim"),
            n_jobs=10,
            total_input=4 * GB,
            max_input=1 * GB,
            mean_interarrival=4.0,
        )
        jobs = materialize_swim_jobs(system, descriptors)
        system.runtime.run_to_completion(jobs)
        assert_index_matches_table(system.master)


class TestIdlePullNotify:
    """``idle_pull="notify"`` is a *modeled protocol change* (parked
    idle slaves are woken by retarget instead of re-polling), so it is
    NOT byte-identical to the paper's poll mode -- these tests pin that
    it still completes the same work and that the default stays poll."""

    def test_default_is_poll(self):
        from repro.core.master import DyrsConfig

        assert DyrsConfig().idle_pull == "poll"
        with pytest.raises(ValueError):
            DyrsConfig(idle_pull="push")

    def test_notify_completes_same_migrations(self):
        def _final_states(mode):
            system = build_system(
                PaperSetup(
                    scheme="dyrs",
                    seed=11,
                    interference="none",
                    dyrs_overrides={"idle_pull": mode},
                )
            )
            descriptors = generate_swim_workload(
                system.cluster.rngs.stream("equiv.swim"),
                n_jobs=10,
                total_input=4 * GB,
                max_input=1 * GB,
                mean_interarrival=4.0,
            )
            jobs = materialize_swim_jobs(system, descriptors)
            system.runtime.run_to_completion(jobs)
            # Let in-flight migrations drain past job completion.
            system.sim.run(until=system.sim.now + 120.0)
            return {
                (r.block_id, r.status.name) for r in system.master.record_log
            }, system.master

        poll_states, _ = _final_states("poll")
        notify_states, master = _final_states("notify")
        assert notify_states == poll_states
        assert len(notify_states) > 0
        # Idle slaves park at steady state -- but only while nothing
        # is pending for them (a parked slave with a target would be a
        # lost wakeup).
        assert not master._pending
        for signal in master._parked.values():
            assert not signal.triggered
