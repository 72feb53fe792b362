"""Golden digests: committed sha256 fingerprints of seeded runs.

Each case runs one small seeded scheme x workload configuration and
hashes everything the simulation decided:

* the migration record log -- every status, binding and timestamp --
  plus the tier master's background-promotion and archive-move logs;
* the master's binding log -- every Algorithm-1 decision;
* the tier master's bytes moved per ladder edge;
* each job's finish time, and the clock when the run ended.

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

from repro.compute.job import mapreduce_job
from repro.core.failures import ChaosCampaign, FailureInjector
from repro.experiments.chaos import CHAOS_TIER_OVERRIDES
from repro.experiments.common import PaperSetup, build_system
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
)

#: Horizon over which a chaos case spreads its faults, simulated seconds.
CHAOS_HORIZON = 60.0
#: Per-node memory cap of the ``swim-memcap`` workload: migrations
#: wait for eviction, and idle slaves keep re-polling.
MEMCAP = 512 * MB
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
        "5d50fea8ade84b650c019026f7d46cb71a89752f83efa2856b1b0ef2cfe57d8e"
    ),
    "dyrs-lifecycle-swim-seed5": (
        "6f052020f51daf762e827910364c7226d166283e7aa81067d55642c505f2ebb4"
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
}


def _jobs(system, workload: str):
    if workload == "promote":
        # Crosses every working-tier edge: the undeclared scan warms
        # its file into a background disk->ssd fill, the sort migrates
        # disk->memory and demotes memory->ssd on eviction, the
        # declared re-scan promotes ssd->memory, and both SSD sets
        # expire ssd->disk in the idle tail.
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
    """Run one case to the end of its idle tail; returns the system."""
    system = build_system(
        PaperSetup(
            scheme=scheme,
            seed=seed,
            interference="alt-10s-1",
            memory_limit=MEMCAP if workload == "swim-memcap" else None,
            shards=4 if scheme.startswith("dyrs-sharded") else 1,
            tier_overrides=(
                PROMOTE_TIER_OVERRIDES
                if workload == "promote"
                else TIER_OVERRIDES.get(scheme, {})
            ),
        )
    )
    master = system.master
    if faults:
        injector = FailureInjector(system.cluster, master=master)
        ChaosCampaign(
            injector, seed=seed, horizon=CHAOS_HORIZON, n_faults=faults
        ).arm()
    system.runtime.run_to_completion(_jobs(system, workload))
    system.sim.run(until=max(system.sim.now, CHAOS_HORIZON) + IDLE_TAIL)
    return system


def run_case(scheme: str, workload: str, seed: int, faults: int) -> str:
    """Run one case and return the sha256 of its outcome."""
    system = _simulate(scheme, workload, seed, faults)
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


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_digest(case):
    assert run_case(*case) == GOLDEN[_case_id(case)]


def test_promote_case_crosses_every_working_tier_edge():
    """The digest only pins what the case exercises: it must keep
    moving blocks along all five working-tier edges, with background
    promotions in the tier record log."""
    master = _simulate("dyrs-tiered", "promote", 3, 0).master
    assert set(master.tier_moves) == {
        ("disk", "memory"),
        ("disk", "ssd"),
        ("memory", "ssd"),
        ("ssd", "memory"),
        ("ssd", "disk"),
    }
    assert master.tier_record_log
    assert all(r.status.name == "DONE" for r in master.tier_record_log)


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{_case_id(case)}": (\n        "{run_case(*case)}"\n    ),')
