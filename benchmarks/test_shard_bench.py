"""Sharded-master benchmark (DESIGN.md §11, not a paper figure).

Two layers:

* the **shard sweep** -- binding-latency p50/p99 and queue depth at
  1/2/4/8 shards with a non-zero pull service cost (simulated
  quantities, deterministic per seed).  The headline gate is
  ``shard_p99_ratio`` = p99(1 shard) / p99(8 shards): the federation
  must cut tail binding latency at least in half (the ISSUE's
  acceptance bar), and the committed baseline keeps it from eroding;
* the **pull-index micro-bench** -- satellite of the same PR: the
  per-target index must beat the legacy full-scan candidate selection
  by >= 2x at 1k pending records (wall-clock ratio on one machine, so
  runner speed cancels out).
"""

import time

from repro.core.pending import PendingPool
from repro.core.policies import FifoPolicy
from repro.core.records import MigrationRecord
from repro.dfs.block import Block
from repro.experiments import shard_sweep
from repro.units import MB

N_RECORDS = 1000
N_NODES = 8
SELECT_ROUNDS = 200


def test_shard_sweep(run_experiment, benchmark):
    result = run_experiment(
        lambda: shard_sweep.run(seed=0), report_fn=shard_sweep.report
    )

    assert result.ok, [v for p in result.points for v in p.violations]
    # The acceptance bar: p99 binding latency at 8 shards must be at
    # most half the 1-shard value.
    assert result.p99_speedup >= 2.0, result.p99_speedup

    benchmark.extra_info["shard_p99_ratio"] = result.p99_speedup
    for point in result.points:
        k = point.shards
        benchmark.extra_info[f"binding_p50_s_{k}shards"] = point.binding_p50
        benchmark.extra_info[f"binding_p99_s_{k}shards"] = point.binding_p99
        benchmark.extra_info[f"queue_depth_max_{k}shards"] = point.queue_depth_max
        benchmark.extra_info[f"bind_events_{k}shards"] = point.n_bindings


def _pool_of(n_records, n_nodes):
    pool = PendingPool()
    for i in range(n_records):
        record = MigrationRecord(
            block=Block(
                block_id=i, file="f", index=i, size=64 * MB,
                replica_nodes=(i % n_nodes,),
            ),
            requested_at=0.0,
            target_node=i % n_nodes,
        )
        pool[record.block_id] = record
    return pool


def test_pull_index_speedup_1k(benchmark):
    """The per-target index makes candidate selection O(granted):
    measure legacy full-scan selection vs the indexed path over the
    same 1k-record pool."""
    policy = FifoPolicy()
    pool = _pool_of(N_RECORDS, N_NODES)

    def legacy_select():
        for node_id in range(N_NODES):
            candidates = [
                record
                for record in policy.order(list(pool.values()))
                if record.target_node == node_id
            ]
            assert len(candidates) == N_RECORDS // N_NODES

    def indexed_select():
        for node_id in range(N_NODES):
            candidates = policy.order(pool.targeted_at(node_id))
            assert len(candidates) == N_RECORDS // N_NODES

    start = time.perf_counter()
    for _ in range(SELECT_ROUNDS):
        legacy_select()
    legacy_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(SELECT_ROUNDS):
        indexed_select()
    indexed_s = time.perf_counter() - start

    speedup = legacy_s / indexed_s
    print(
        f"\npull candidate selection at {N_RECORDS} pending: "
        f"legacy {legacy_s:.3f}s, indexed {indexed_s:.3f}s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 2.0, speedup

    benchmark.pedantic(indexed_select, rounds=5, iterations=1)
    benchmark.extra_info["pull_index_speedup_1k"] = speedup
    benchmark.extra_info["legacy_select_s"] = legacy_s
    benchmark.extra_info["indexed_select_s"] = indexed_s
