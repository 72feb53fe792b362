"""The chaos soak: seeded campaigns must leave zero invariant debris.

This is the acceptance gate for the failure-path fixes: 20 seeds per
scheme x workload pair, each arming a randomized fault schedule (slave/
master/node crashes, degraded devices, partitions, RPC delay spikes),
each audited by the trace invariants (tier moves included), the
liveness ledger, and the quiesce state checks.  One stranded binding
anywhere fails the sweep.
"""

import pytest

from repro.experiments import chaos
from repro.obs.invariants import TraceInvariants

SEEDS = range(20)
PAIRS = [
    (scheme, workload)
    for scheme in ("dyrs", "dyrs-tiered", "ignem")
    for workload in ("sort", "swim")
] + [
    # The lifecycle scheme adds the archive fault kinds (degraded
    # fabric link, crash mid-tier-move); the aging workload drives the
    # full demote/restore arc those faults interrupt.
    ("dyrs-lifecycle", "swim"),
    ("dyrs-lifecycle", "aging"),
    # The sharded federation runs at shards=4 (see chaos.run_case) so
    # the shard-crash/shard-loss fault kinds have partitions to lose
    # and the per-shard failover path gets soaked alongside everything
    # else.
    ("dyrs-sharded", "sort"),
    ("dyrs-sharded", "swim"),
    # The async scheme resolves shard_pull_window to the shard count,
    # soaking the detached per-shard legs (window accounting, epoch/
    # generation fencing, undelivered-grant rescue) under every fault
    # kind, audited by the same invariants plus the window check.
    ("dyrs-sharded-async", "sort"),
    ("dyrs-sharded-async", "swim"),
]


@pytest.mark.parametrize("scheme,workload", PAIRS)
def test_soak_pair_has_zero_violations(scheme, workload):
    failures = []
    for seed in SEEDS:
        result = chaos.run_case(scheme, workload, seed)
        if not result.ok:
            failures.append((seed, result.violations))
    assert not failures, (
        f"{scheme}/{workload}: invariant violations under chaos: {failures}"
    )


def test_case_is_deterministic_in_seed():
    a = chaos.run_case("dyrs", "sort", seed=4)
    b = chaos.run_case("dyrs", "sort", seed=4)
    assert a.plan == b.plan
    assert a.injections == b.injections
    assert a.migrated_bytes == b.migrated_bytes
    assert a.sim_time == b.sim_time


def test_report_renders_verdict():
    results = chaos.run(seeds=[0], schemes=("dyrs",), workloads=("sort",))
    text = chaos.report(results)
    assert "PASS" in text or "FAIL" in text
    assert "dyrs" in text


def test_case_audits_tier_moves(monkeypatch):
    """The lifecycle cases are the campaign's only runs that move blocks
    between tiers; each case holds its tier moves to checks 8-10."""
    moves_audited = []
    audit = TraceInvariants.lifecycle_violations

    def counted(checker):
        moves_audited.append(sum(e.type == "tier_move" for e in checker.events))
        return audit(checker)

    monkeypatch.setattr(TraceInvariants, "lifecycle_violations", counted)
    result = chaos.run_case("dyrs-lifecycle", "aging", seed=0)
    assert result.ok
    assert len(moves_audited) == 1 and moves_audited[0] > 0


def test_faults_actually_fire():
    # A campaign that injects nothing would make the soak vacuous.
    result = chaos.run_case("dyrs", "sort", seed=0)
    assert result.injections > 0
    assert result.plan
