"""Golden digests: committed sha256 fingerprints of seeded runs.

Each case runs one small seeded scheme x workload configuration and
hashes everything the simulation decided:

* the migration record log -- every status, binding and timestamp --
  plus the tier master's background-promotion and archive-move logs;
* the master's binding log -- every Algorithm-1 decision;
* the tier master's bytes moved per ladder edge;
* each job's finish time, and the clock when the run ended.

A second table pins the trace of a few runs: the sha256 of the JSON
lines ``Tracer.dump_jsonl`` would write.  The run digests above do not
see the order of read or buffer-release events, and no run case reads
from the SSD or the archive, so a change to those emits could move
only the trace.  A trace records only the polls that were simulated: a
parked idle re-poll chain (``repro.core.slave``) emits no pull-leg
lines, and a leg its rebuild finds on the wire is traced as opened at
the rebuild.

A third table pins what the failure injector did: the sha256 of
``FailureInjector.log`` -- every fault, recovery and skipped action
with its time and subject -- for each chaos case and for one scripted
run that injects every fault kind.  ``bench/workloads.py`` counts
faults by these action strings, so a renamed action must move a digest
here before it silently zeroes a benchmark's fault count.

A change that only makes the simulator cheaper (fewer engine events,
faster kernels, deleted oracles) must leave every digest unchanged.  A
change that moves a digest is a deliberate behaviour change; regenerate
the table with::

    PYTHONPATH=src python -m tests.test_golden_digests

and say in the change log why the digest moved.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import ClusterSpec
from repro.compute.job import mapreduce_job
from repro.core.failures import ChaosCampaign, ChaosFault, FailureInjector
from repro.experiments import lifecycle
from repro.experiments.chaos import CHAOS_TIER_OVERRIDES
from repro.experiments.common import PaperSetup, build_system
from repro.obs import trace as obs
from repro.system import System, SystemConfig
from repro.units import GB, MB
from repro.workloads.sort import sort_job
from repro.workloads.swim import generate_swim_workload, materialize_swim_jobs

#: Every case: (scheme, workload, seed, chaos faults).
CASES = (
    ("dyrs", "sort", 3, 0),
    ("dyrs", "swim", 5, 0),
    ("ignem", "sort", 3, 0),
    ("ignem", "swim", 5, 0),
    ("dyrs-tiered", "sort", 3, 0),
    ("dyrs-tiered", "swim", 5, 0),
    ("dyrs-tiered", "promote", 3, 0),
    ("dyrs-lifecycle", "sort", 3, 0),
    ("dyrs-lifecycle", "swim", 5, 0),
    ("dyrs-sharded-async", "sort", 3, 0),
    ("dyrs-sharded-async", "swim", 5, 0),
    ("dyrs", "swim-memcap", 5, 0),
    ("dyrs", "swim-paper", 5, 0),
    ("dyrs", "swim", 1, 8),
    ("dyrs-sharded-async", "swim", 2, 8),
    ("dyrs", "swim-notify", 5, 0),
    ("naive", "sort", 3, 0),
    ("dyrs-sharded", "swim", 2, 8),
    ("dyrs-tiered", "reread", 3, 0),
    ("dyrs-lifecycle", "promote", 3, 0),
    ("dyrs", "swim-service", 1, 8),
    ("dyrs-sharded-async", "swim-service", 2, 8),
    ("dyrs-lifecycle", "swim", 3, 8),
)

#: Horizon over which a chaos case spreads its faults, simulated seconds.
CHAOS_HORIZON = 60.0
#: Per-node memory cap of the ``swim-memcap`` workload: migrations
#: wait for eviction, and idle slaves keep re-polling.
MEMCAP = 512 * MB
#: DYRS overrides per workload.  ``swim-notify`` parks idle slaves at
#: the master, the idle-pull mode every 1k-node scale run uses;
#: ``swim-service`` makes every pull leg wait out a master-side
#: service time (the ``sharded-chaos`` benchmark's cost), so a crash
#: can land inside that wait.
WORKLOAD_OVERRIDES = {
    "swim-notify": {"idle_pull": "notify"},
    "swim-service": {"pull_service_cost": 0.002},
}
#: Master shards per sharded scheme.  ``dyrs-sharded`` runs a
#: one-shard federation: under chaos it must not replay the flat
#: master, because the campaign samples shard faults only for a
#: federation (at seed 2 it draws two ``shard-loss`` faults).
SHARDS = {"dyrs-sharded": 1, "dyrs-sharded-async": 4}
#: Simulated seconds every case idles after its last job, so tier
#: demotions, archive moves and chaos recoveries land in the digest.
IDLE_TAIL = 120.0
#: Compressed temperature timescales: data cools, demotes and (under
#: ``dyrs-lifecycle``) archives inside the idle tail.
TIER_OVERRIDES = {
    "dyrs-tiered": {"lifecycle_interval": 5.0, "hot_age": 10.0, "cold_age": 25.0},
    "dyrs-lifecycle": dict(CHAOS_TIER_OVERRIDES),
}
#: Timescales of the ``promote`` workload: a file read once is WARM at
#: the 15 s pass (background disk->ssd promotion) and stays off COLD
#: until its declared re-read at 45 s promotes it ssd->memory.
PROMOTE_TIER_OVERRIDES = {
    "lifecycle_interval": 15.0,
    "hot_age": 10.0,
    "cold_age": 40.0,
}


def _case_id(case) -> str:
    scheme, workload, seed, faults = case
    return f"{scheme}-{workload}-seed{seed}" + ("-chaos" if faults else "")


GOLDEN = {
    "dyrs-sort-seed3": (
        "605e3ee2981f16947f0d404362ba04b4cc1b97c368e9bd5153101bd23e05158a"
    ),
    "dyrs-swim-seed5": (
        "2e490b91f29a8dc98ac8a0e95f6af5f5a5b2a31fa86af8b259ab0838c2dd4501"
    ),
    "ignem-sort-seed3": (
        "3c3e6e1518ba704698132d3ce5d3b61d8b05f16684b8866b10a42de8542845c6"
    ),
    "ignem-swim-seed5": (
        "5f8065f73c8d2d817fd20203ca90e446ee91596cb98ce387c1ab19a6d11254c8"
    ),
    "dyrs-tiered-sort-seed3": (
        "d90fd7aac0a50b5d63323002d30a21ef6b6fb12a0943dc500636036f43fbf13f"
    ),
    "dyrs-tiered-swim-seed5": (
        "46ea8121ec89ba09c073113f9e69d38fec455d4c2dab2785f8064d6d58418906"
    ),
    "dyrs-tiered-promote-seed3": (
        "59371b1b1c71767b2347cb6a7a067675c3b7c18d78f8b1389f4cb7ae38e53e7a"
    ),
    "dyrs-lifecycle-sort-seed3": (
        "4c201165d364a0a1c67a2ff5765a32720a64a0557fc52e3f71298fecac1f4c63"
    ),
    "dyrs-lifecycle-swim-seed5": (
        "4c9748bccb086ed9b56d73ecaef646242750dc8a325b60e6c575eda4731872e7"
    ),
    "dyrs-sharded-async-sort-seed3": (
        "e10e9b6f5bd5f555a94fa4b37ec689b8e57ea9a19c619fe633e44819c6a43d02"
    ),
    "dyrs-sharded-async-swim-seed5": (
        "fe83309bd6480a09b3426eeda024747c92ae5fb5376967ae567b8f9ac9ceb346"
    ),
    "dyrs-swim-memcap-seed5": (
        "d0dae67011cb01bada523e8a562f0700c3b3a472aca82867384d203827701368"
    ),
    "dyrs-swim-paper-seed5": (
        "bbc987d54c5c3f7c475e367b8a10cf2211dc3b334ee49b8d7d4c03d57c0393a0"
    ),
    "dyrs-swim-seed1-chaos": (
        "57b9a6f0deb1df81fcd3d6ec692f0188efaa2cb46ab04984e49585238f3b7ece"
    ),
    "dyrs-sharded-async-swim-seed2-chaos": (
        "d1152bb576defba45b31562bfdc550e1c74d891bde929e002f5eadee6ae980a3"
    ),
    "dyrs-swim-notify-seed5": (
        "9d8b9fa54751d66c1aff231892e2d2cd8b50fee1e224669c697df2810c7e3be0"
    ),
    "naive-sort-seed3": (
        "6d60eae2d06daab6c822607565d5754ac24743dabfefac073f1c0c7b44c3b4c8"
    ),
    "dyrs-sharded-swim-seed2-chaos": (
        "59212f3642c8d5f0981a2a07d4d4aa467218146de5ff2bf68cf3ab76580937a2"
    ),
    "dyrs-tiered-reread-seed3": (
        "e8f9ac51640f4ffdcb54b511159e2074df3b8d2c7107ac22676063e86678b457"
    ),
    "dyrs-lifecycle-promote-seed3": (
        "16cee430db60dbcf71d7c0194d77dc0feca1c08a98d9a71d6682fd3e8d7a6ed4"
    ),
    "dyrs-swim-service-seed1-chaos": (
        "acd3d59ac01bbec59270d4c218b79b2fa93d58937c590a34365bf4e29ddf3ab3"
    ),
    "dyrs-sharded-async-swim-service-seed2-chaos": (
        "9c57fe8a5c9a651b6e8562a98b29eef358f1b1b2c1e472fe90da000cd8502af4"
    ),
    "dyrs-lifecycle-swim-seed3-chaos": (
        "40d7e1e2df4f1bbbd11481648925c695356c281e37788855da5e950158f2bdfd"
    ),
}

#: Runs whose trace is pinned: the two SSD-reading ladder cases, the
#: archive-crossing swim mix, a chaos run (crash, orphan and buffer
#: release paths), and the lifecycle experiment, the only run that
#: reads from the archive.
TRACE_CASES = (
    ("dyrs-tiered", "promote", 3, 0),
    ("dyrs-tiered", "reread", 3, 0),
    ("dyrs-lifecycle", "swim", 5, 0),
    ("dyrs", "swim", 1, 8),
    "lifecycle-experiment-seed0",
)

TRACE_GOLDEN = {
    "dyrs-tiered-promote-seed3": (
        "3107728264ff020993f233171c3fa0636ec387043fc6f457fcc67638bd032353"
    ),
    "dyrs-tiered-reread-seed3": (
        "24239e79cd668ad53ae61ac1bdba3829d2639690e93747c718e20509c77bece3"
    ),
    "dyrs-lifecycle-swim-seed5": (
        "f51b739571d965bf833121b0cf0d15084356fcffd22601777318af9472acaa25"
    ),
    "dyrs-swim-seed1-chaos": (
        "10dd149e2907fe3b4b8a5721506a086b03621fca007f616d01c9ec22effe4025"
    ),
    "lifecycle-experiment-seed0": (
        "e5896933ae2377deaa9a60d6204754f69669736055ff19aa49d89e664025c84a"
    ),
}


def _jobs(system, workload: str):
    if workload == "reread":
        # A declared scan migrates its file; the undeclared re-read at
        # 20 s finds it demoted to the SSD and reads it from there.
        system.load_input("scan/input", 4 * GB)
        blocks = system.client.blocks_of(["scan/input"])
        return [
            mapreduce_job(
                "scan-0", blocks, ["scan/input"], shuffle_bytes=0, output_bytes=0
            ),
            mapreduce_job(
                "scan-1", blocks, [], shuffle_bytes=0, output_bytes=0, submit_time=20.0
            ),
        ]
    if workload == "promote":
        # Crosses every working-tier edge: the undeclared scan warms
        # its file into a background disk->ssd fill, the sort migrates
        # disk->memory and demotes memory->ssd on eviction, the
        # declared re-scan promotes ssd->memory, and both SSD sets
        # expire ssd->disk in the idle tail.  On the archive ladder
        # (``dyrs-lifecycle``) only HOT blocks are filled or demoted,
        # and WARM SSD copies expire at the next pass.
        system.load_input("scan/input", 2 * GB)
        blocks = system.client.blocks_of(["scan/input"])
        return [
            mapreduce_job("scan-0", blocks, [], shuffle_bytes=0, output_bytes=0),
            sort_job(system, size=2 * GB, job_id="sort-0", submit_time=5.0),
            mapreduce_job(
                "scan-1",
                blocks,
                ["scan/input"],
                shuffle_bytes=0,
                output_bytes=0,
                submit_time=45.0,
            ),
        ]
    if workload == "sort":
        return [
            sort_job(system, size=4 * GB, job_id="sort-0", extra_lead_time=10.0),
            sort_job(system, size=2 * GB, job_id="sort-1", submit_time=15.0),
        ]
    rng = system.cluster.rngs.stream("golden.swim")
    if workload == "swim-paper":
        # The paper's SWIM mix at full size (200 jobs, 170 GB, a 24 GB
        # largest job, 6 s mean interarrival): enough pulls per slave
        # that the pull protocol's timing shows in the digest.
        descriptors = generate_swim_workload(rng)
    else:
        descriptors = generate_swim_workload(
            rng,
            n_jobs=24,
            total_input=12 * GB,
            max_input=2 * GB,
            small_fraction=0.75,
            mean_interarrival=4.0,
        )
    return materialize_swim_jobs(system, descriptors)


def _simulate(scheme: str, workload: str, seed: int, faults: int):
    """Run one case to the end of its idle tail; returns the system and
    its failure injector (None without faults)."""
    system = build_system(
        PaperSetup(
            scheme=scheme,
            seed=seed,
            interference="alt-10s-1",
            memory_limit=MEMCAP if workload == "swim-memcap" else None,
            dyrs_overrides=WORKLOAD_OVERRIDES.get(workload, {}),
            shards=SHARDS.get(scheme, 1),
            tier_overrides=(
                PROMOTE_TIER_OVERRIDES
                if workload == "promote"
                else TIER_OVERRIDES.get(scheme, {})
            ),
        )
    )
    injector = None
    if faults:
        injector = FailureInjector(system.cluster, master=system.master)
        ChaosCampaign(
            injector, seed=seed, horizon=CHAOS_HORIZON, n_faults=faults
        ).arm()
    system.runtime.run_to_completion(_jobs(system, workload))
    system.sim.run(until=max(system.sim.now, CHAOS_HORIZON) + IDLE_TAIL)
    return system, injector


def run_case(scheme: str, workload: str, seed: int, faults: int) -> str:
    """Run one case and return the sha256 of its outcome."""
    system, _ = _simulate(scheme, workload, seed, faults)
    master = system.master
    digest = hashlib.sha256()
    records = list(master.record_log)
    records += getattr(master, "tier_record_log", [])
    records += getattr(master, "lifecycle_record_log", [])
    for r in records:
        digest.update(
            repr(
                (
                    r.block_id,
                    r.status.name,
                    r.target_node,
                    r.bound_node,
                    r.requested_at,
                    r.bound_at,
                    r.started_at,
                    r.completed_at,
                    r.discarded_at,
                    r.discard_reason,
                )
            ).encode()
        )
    # Push-binding baselines (Ignem) bind at submission and keep no log.
    for event in getattr(master, "binding_log", ()):
        digest.update(repr(event).encode())
    digest.update(repr(sorted(getattr(master, "tier_bytes", {}).items())).encode())
    for job_id, jm in sorted(system.metrics.jobs.items()):
        digest.update(f"{job_id}={jm.finished_at!r};".encode())
    digest.update(f"end={system.sim.now!r}".encode())
    return digest.hexdigest()


def _trace_case_id(case) -> str:
    return case if isinstance(case, str) else _case_id(case)


def trace_case(case) -> str:
    """Run one trace case and return the sha256 of its JSON-lines trace."""
    with obs.tracing() as tracer:
        if isinstance(case, str):
            lifecycle.run(seed=0)
        else:
            _simulate(*case)
    digest = hashlib.sha256()
    for event in tracer.events:
        digest.update(event.to_json().encode())
        digest.update(b"\n")
    return digest.hexdigest()


#: Every fault kind, timed so that each recovery path and the skip paths
#: of overlapping faults run: node 2's slave restart finds its server
#: down, the shard recovery finds the whole master down, and a second
#: master crash lands inside the first one's outage.
SCRIPTED_FAULTS = (
    ChaosFault(2.0, "slave-crash", 1, 10.0),
    ChaosFault(3.0, "slave-crash", 2, 5.0),
    ChaosFault(3.5, "degrade-fabric", None, 30.0, param=0.2),
    ChaosFault(4.0, "node-crash", 2, 8.0),
    ChaosFault(5.0, "rpc-delay", 6, 20.0, param=0.5),
    ChaosFault(6.0, "degrade-disk", 3, 10.0, param=0.3),
    ChaosFault(8.0, "degrade-nic", 4, 10.0, param=0.5),
    ChaosFault(10.0, "partition", 5, 15.0),
    ChaosFault(18.0, "shard-crash", 0, 4.0),
    ChaosFault(20.0, "master-crash", None, 5.0),
    ChaosFault(22.0, "master-crash", None, 5.0),
    ChaosFault(30.0, "crash-tier-move", None, 10.0),
    ChaosFault(35.0, "shard-loss", 7, None),
)


def _scripted_run() -> FailureInjector:
    """Inject :data:`SCRIPTED_FAULTS` into the one system that can take
    every kind -- a four-shard federation whose workers share an
    archive link -- under the small SWIM mix; returns the injector."""
    system = System(
        SystemConfig(
            scheme="dyrs",
            cluster=ClusterSpec(n_workers=8, seed=3, archive=True),
            shards=4,
        )
    ).start()
    injector = FailureInjector(system.cluster, master=system.master)
    for fault in SCRIPTED_FAULTS:
        injector.inject(fault)
    system.runtime.run_to_completion(_jobs(system, "swim"))
    system.sim.run(until=max(system.sim.now, CHAOS_HORIZON) + IDLE_TAIL)
    return injector


#: Runs whose injector log is pinned: every chaos case, and the
#: scripted run.
INJECTOR_CASES = tuple(case for case in CASES if case[3]) + ("scripted-all-kinds",)

INJECTOR_GOLDEN = {
    "dyrs-swim-seed1-chaos": (
        "ae979b8a040733dc4cba5b6ef3b1f43d00f0d7ccb64cb8387650b06524ea44a1"
    ),
    "dyrs-sharded-async-swim-seed2-chaos": (
        "e43d2a72d167319fa0e5fdbf02fa678451e2efbdf2d4280805bb09169f09bc54"
    ),
    "dyrs-sharded-swim-seed2-chaos": (
        "cc46401618fab02ac610acf96f294af6176f0103a3fa21f67553c40d6875ce6f"
    ),
    "dyrs-swim-service-seed1-chaos": (
        "ae979b8a040733dc4cba5b6ef3b1f43d00f0d7ccb64cb8387650b06524ea44a1"
    ),
    "dyrs-sharded-async-swim-service-seed2-chaos": (
        "e43d2a72d167319fa0e5fdbf02fa678451e2efbdf2d4280805bb09169f09bc54"
    ),
    "dyrs-lifecycle-swim-seed3-chaos": (
        "f0ec023b3ac1d9634e931003e19d515afbd8148dc7600a96ac21ac9aa96f8049"
    ),
    "scripted-all-kinds": (
        "4002698e67423e81cdbc1ff5c32955dd640bcc32302bd017d79d01e41e2c0e0b"
    ),
}


def injector_log_case(case) -> str:
    """Run one injector case and return the sha256 of its log."""
    if isinstance(case, str):
        injector = _scripted_run()
    else:
        _, injector = _simulate(*case)
    digest = hashlib.sha256()
    for entry in injector.log:
        digest.update(repr(entry).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_digest(case):
    assert run_case(*case) == GOLDEN[_case_id(case)]


@pytest.mark.parametrize("case", TRACE_CASES, ids=_trace_case_id)
def test_trace_digest(case):
    assert trace_case(case) == TRACE_GOLDEN[_trace_case_id(case)]


@pytest.mark.parametrize("case", INJECTOR_CASES, ids=_trace_case_id)
def test_injector_log_digest(case):
    assert injector_log_case(case) == INJECTOR_GOLDEN[_trace_case_id(case)]


def test_scripted_run_takes_every_fault_and_skip_path():
    """The scripted digest pins every fault kind only while each one
    takes effect, recovers, or is skipped as scripted."""
    actions = [action for _, action, _ in _scripted_run().log]
    assert sorted(set(actions)) == sorted(
        {
            "slave-crash",
            "slave-restart",
            "skip-slave-restart",
            "node-crash",
            "node-recover",
            "master-crash",
            "skip-master-crash",
            "master-recover",
            "skip-master-recover",
            "degrade-disk",
            "restore-disk",
            "degrade-nic",
            "restore-nic",
            "degrade-fabric",
            "restore-fabric",
            "partition",
            "heal-partition",
            "rpc-delay",
            "clear-rpc-delay",
            "crash-tier-move",
            "recover-tier-move",
            "shard-crash",
            "skip-shard-recover",
        }
    )
    assert actions.count("shard-crash") == 2
    assert "shard-recover" not in actions


def test_lifecycle_chaos_case_draws_both_archive_kinds():
    """No other chaos case draws an archive fault kind."""
    system, injector = _simulate("dyrs-lifecycle", "swim", 3, 8)
    actions = {action for _, action, _ in injector.log}
    assert {"degrade-fabric", "crash-tier-move"} <= actions


def test_promote_case_crosses_every_working_tier_edge():
    """The digest only pins what the case exercises: it must keep
    moving blocks along all five working-tier edges, with background
    promotions in the tier record log."""
    master = _simulate("dyrs-tiered", "promote", 3, 0)[0].master
    assert set(master.tier_moves) == {
        ("disk", "memory"),
        ("disk", "ssd"),
        ("memory", "ssd"),
        ("ssd", "memory"),
        ("ssd", "disk"),
    }
    assert master.tier_record_log
    assert all(r.status.name == "DONE" for r in master.tier_record_log)


def test_lifecycle_promote_case_promotes_and_expires_on_the_archive_ladder():
    """On a ladder with an archive rung only a HOT block belongs on the
    SSD.  The digest pins that arm of the rule only while the case
    still promotes HOT disk-only blocks and expires WARM SSD copies,
    and eviction follows the same rule: the sort's blocks are WARM
    when evicted, so none steps down memory->ssd."""
    master = _simulate("dyrs-lifecycle", "promote", 3, 0)[0].master
    assert master.tier_moves[("disk", "ssd")] == 8
    assert master.tier_moves[("ssd", "disk")] == 8
    assert ("memory", "ssd") not in master.tier_moves
    assert all(r.status.name == "DONE" for r in master.tier_record_log)


def test_reread_case_reads_from_the_ssd():
    """The reread digests pin the SSD read path only while every block
    of the undeclared re-read is served from the SSD."""
    system, _ = _simulate("dyrs-tiered", "reread", 3, 0)
    reads = [r for dn in system.namenode.datanodes.values() for r in dn.read_log]
    rereads = [r for r in reads if r.time >= 20.0]
    assert len(rereads) == len(system.client.blocks_of(["scan/input"])) == 16
    assert all(r.source.is_ssd for r in rereads)


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f'    "{_case_id(case)}": (\n        "{run_case(*case)}"\n    ),')
    print("}\n\nTRACE_GOLDEN = {")
    for case in TRACE_CASES:
        print(
            f'    "{_trace_case_id(case)}": (\n        "{trace_case(case)}"\n    ),'
        )
    print("}\n\nINJECTOR_GOLDEN = {")
    for case in INJECTOR_CASES:
        print(
            f'    "{_trace_case_id(case)}": (\n'
            f'        "{injector_log_case(case)}"\n    ),'
        )
    print("}")
