"""The shard coordinator: a federated drop-in DYRS master.

``ShardCoordinator`` *is a* :class:`~repro.core.master.DyrsMaster`
whose binding state lives in N :class:`~repro.shard.shard.MasterShard`
partitions instead of one flat pool.  The split follows the
``RecordLedger`` / ``MigrationMaster`` seam in ``core/base.py``:

* **shard-local** -- the pending map, Algorithm 1 retargeting over it,
  and the bind half of a pull leg;
* **coordinator-owned** -- everything cluster-wide: the record ledger,
  reference tracking, eviction and memory pressure, the load view from
  heartbeats, global reclaim of work bound to dead slaves, and the
  crash/recover machinery (whole-master *and* per-shard).

Each live shard is one endpoint of the slave's pull: a pull opens a
detached leg per shard, in rotation order from the node's *home shard*
(``node_id % n_shards``), so concurrent pulls from different nodes
start on different shards instead of all draining shard 0 first, and a
slow shard delays only its own legs.

At ``shards=1`` every code path reduces to the flat master's --
same pool, same selection (:func:`~repro.core.pending.bind_from_pool`),
same grant accounting (``_record_grant``) -- which is what the pinned
equivalence tests in ``tests/shard/`` hold the coordinator to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.master import DyrsConfig, DyrsMaster
from repro.core.policies import MigrationPolicy
from repro.core.records import MigrationRecord
from repro.obs import metrics
from repro.obs import trace as obs
from repro.shard.router import ShardRouter
from repro.shard.shard import MasterShard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import Cluster
    from repro.dfs.namenode import HeartbeatReport, NameNode

__all__ = ["ShardCoordinator"]


class ShardCoordinator(DyrsMaster):
    """Partitioned DYRS master behind the flat-master interface."""

    def __init__(
        self,
        namenode: "NameNode",
        config: Optional[DyrsConfig] = None,
        policy: Optional[MigrationPolicy] = None,
        n_shards: int = 1,
        router_mode: str = "block",
        cluster: Optional["Cluster"] = None,
    ) -> None:
        super().__init__(namenode, config, policy)
        self._router = ShardRouter(
            n_shards,
            mode=router_mode,
            cluster=cluster or namenode.cluster,
            health=self,
        )
        #: The shard count is fixed for the life of the run (the trace
        #: invariant checker convicts anything else): resharding would
        #: silently re-home records mid-flight.
        self._shards = [MasterShard(i) for i in range(n_shards)]
        #: Per-shard freshness: when a shard's *home nodes* (those with
        #: ``home_shard_of(node) == shard``) last heartbeat.
        self._shard_reports: dict[int, float] = {}
        #: Shards declared permanently lost (stayed down past
        #: ``shard_dead_after``).  Declaration is lazy -- evaluated on
        #: the next health query after the deadline -- and one-shot per
        #: incarnation; ``recover_shard`` clears the entry.
        self._shards_declared_dead: set[int] = set()
        #: Chaos hook: per-shard extra RPC delay (seconds) applied to
        #: every pull leg to that shard (``delay_rpc_at(...,
        #: shard_id=...)``).  Empty in normal operation.
        self._shard_rpc_extra: dict[int, float] = {}

    # -- shard topology (the public cross-shard API, lint SM203) ---------------

    @property
    def n_shards(self) -> int:
        return self._router.n_shards

    def home_shard_of(self, node_id: int) -> int:
        """Where node ``node_id``'s pull rotation starts (also the shard
        whose freshness its heartbeats refresh)."""
        return node_id % self.n_shards

    def shard_of_block(self, block) -> int:
        """The shard owning ``block`` (pure routing, never stored)."""
        return self._router.shard_of(block)

    def shard_is_alive(self, shard_id: int) -> bool:
        return self._shards[shard_id].alive

    def shard_generation(self, shard_id: int) -> int:
        return self._shards[shard_id].generation

    def shard_pending_count(self, shard_id: int) -> int:
        """Queue depth of one shard (coordinator-mediated access)."""
        return len(self._shards[shard_id])

    @property
    def pending_count(self) -> int:
        """Unbound migrations across all shards (cross-shard memory
        pressure is aggregated here, never read off a shard)."""
        return sum(len(shard) for shard in self._shards)

    # -- shard health (feeds the rendezvous router and the gauges) --------------

    def shard_staleness(self, shard_id: int) -> float:
        """Seconds since shard ``shard_id``'s home nodes last reported.

        A shard that has never reported is maximally stale
        (``sim.now``): before the first heartbeat round every shard
        reads equally stale, so freshness weighting cannot skew the
        initial routing.  Exported as the
        ``dyrs_shard_staleness_seconds`` gauge on every read so
        collected runs see the same values the router acted on.
        """
        last = self._shard_reports.get(shard_id)
        staleness = self.sim.now if last is None else self.sim.now - last
        metrics.active_registry().gauge(
            "dyrs_shard_staleness_seconds", shard=shard_id
        ).set(staleness)
        return staleness

    def _shard_dead(self, shard: MasterShard) -> bool:
        """Whether ``shard`` is declared *permanently* lost.

        Lazy declaration: a crashed shard crosses the line the first
        time a health query lands more than ``shard_dead_after``
        seconds after its crash.  The declaration is sticky for the
        incarnation (one ``shard_dead`` event) and is undone only by
        ``recover_shard``.
        """
        if shard.alive:
            return False
        dead_after = self.config.shard_dead_after
        if dead_after is None or shard.crashed_at is None:
            return False
        if shard.shard_id in self._shards_declared_dead:
            return True
        if self.sim.now - shard.crashed_at > dead_after:
            self._shards_declared_dead.add(shard.shard_id)
            if obs.enabled():
                obs.emit(
                    obs.SHARD_DEAD,
                    self.sim.now,
                    shard=shard.shard_id,
                    n_shards=self.n_shards,
                    dead_after=dead_after,
                )
            return True
        return False

    def routable_shards(self) -> list[int]:
        """Shards the router may still name, in shard-id order.

        A *crashed but not yet declared-dead* shard stays routable:
        records routed to it are discarded (today's §III-C semantics),
        preserving the outage behaviour until the permanent-loss
        deadline actually passes.  Only a declared-dead shard loses its
        routing slice.
        """
        return [
            shard.shard_id for shard in self._shards if not self._shard_dead(shard)
        ]

    def shard_weight(self, shard_id: int) -> float:
        """Rendezvous weight: fresh shards pull full slices.

        A shard whose home nodes have been silent past the NameNode's
        failure-detection horizon (``heartbeat_interval x
        heartbeat_miss_limit``) is de-weighted to half a slice -- load
        awareness without flapping, since the threshold matches the
        detector the rest of the system already trusts.
        """
        horizon = (
            self.config.heartbeat_interval * self.namenode.heartbeat_miss_limit
        )
        return 0.5 if self.shard_staleness(shard_id) > horizon else 1.0

    # -- heartbeats (per-shard freshness) -------------------------------------

    def on_heartbeat(self, report: "HeartbeatReport") -> None:
        """Refresh the load view, then the home shard of every reporting
        node that hosts a slave -- its process up or not, since the
        node itself got through."""
        super().on_heartbeat(report)
        slaves = self.slaves
        shard_reports = self._shard_reports
        time = report.time
        for node_id in report.node_ids:
            if node_id in slaves:
                shard_reports[self.home_shard_of(node_id)] = time

    # -- routing ----------------------------------------------------------------

    def _on_new_records(self, records: list[MigrationRecord]) -> None:
        for record in records:
            shard = self._shards[self._router.shard_of(record.block)]
            if not shard.alive:
                # §III-C1 at shard granularity: a request routed to a
                # downed shard is lost -- the job reads from disk.  The
                # record still reaches a terminal state (liveness).
                self.discard(record, reason="shard-down")
                continue
            shard.admit(record)
            obs.emit(
                obs.SHARD_ASSIGN,
                self.sim.now,
                block=record.block_id,
                shard=shard.shard_id,
                n_shards=self.n_shards,
            )
        # Unconditional immediate pass, exactly like the flat master.
        self.retarget()

    def _on_record_discarded(self, record: MigrationRecord) -> None:
        if self._router.mode == "rendezvous":
            # Rendezvous verdicts are time-varying (weights and the
            # routable set move with shard health), so the shard that
            # admitted this record may no longer be the shard the
            # router would name.  ``forget`` is a keyed no-op on every
            # non-owner, so sweeping all shards is safe and exact.
            for shard in self._shards:
                shard.forget(record.block_id)
            return
        # Block/rack routing is time-invariant, so the owner is
        # recomputed, never looked up -- a record can never be filed
        # under a shard the router would not name today.
        self._shards[self._router.shard_of(record.block)].forget(record.block_id)

    # -- Algorithm 1, fanned ------------------------------------------------------

    def retarget(self) -> dict[int, int]:
        """One shard-local Algorithm 1 pass per live shard.

        Each shard plans over only its own pending map against the
        same cluster-wide eligible-load snapshot; the merged target
        dict has disjoint keys because ownership is a partition.
        """
        self.retarget_passes += 1
        if all(len(shard) == 0 for shard in self._shards):
            # Same empty-pass skip as the flat master: no shard has
            # anything to place, so no pass can change state.
            return {}
        loads = self._eligible_loads()
        targets: dict[int, int] = {}
        for shard in self._shards:
            if shard.alive:
                targets.update(
                    shard.retarget(
                        loads,
                        self.policy,
                        self.config.reference_block_size,
                    )
                )
        self._wake_parked()
        return targets

    def _targeted_nodes(self) -> frozenset[int]:
        targeted: set[int] = set()
        for shard in self._shards:
            if shard.alive:
                targeted |= shard.targeted_nodes()
        return frozenset(targeted)

    # -- the pull protocol: one leg per live shard ---------------------------------

    def pull_plan(self, node_id: int) -> list[tuple[int, int]]:
        """The shards a pull from ``node_id`` should open legs to.

        Live shards in rotation order (home shard first), each paired
        with its current generation so a leg that lands after a
        crash/recover cycle can be fenced out (the shard-level analogue
        of the slave epoch).
        """
        n = self.n_shards
        start = self.home_shard_of(node_id)
        plan: list[tuple[int, int]] = []
        for offset in range(n):
            shard = self._shards[(start + offset) % n]
            if shard.alive:
                plan.append((shard.shard_id, shard.generation))
        return plan

    def bind_from_shard(
        self, shard_id: int, generation: int, node_id: int, max_blocks: int
    ) -> list[MigrationRecord]:
        """The bind half of one pull leg, generation-fenced.

        Returns nothing when the budget is gone, the coordinator or
        shard is down, or the leg was planned against a previous shard
        incarnation -- a stale leg must not bind from a shard it never
        talked to.  Grants go through the flat master's accounting
        (``_record_grant``).
        """
        if max_blocks <= 0 or not self.alive:
            return []
        shard = self._shards[shard_id]
        if not shard.alive or shard.generation != generation:
            return []
        granted = shard.take(node_id, max_blocks, self.policy, self.sim.now)
        if granted:
            self._record_grant(node_id, granted)
        return granted

    def request_work(self, node_id: int, max_blocks: int) -> list[MigrationRecord]:
        """Bind up to ``max_blocks`` across the whole federation.

        Walks the live shards in :meth:`pull_plan` order until the
        budget is spent.  Slaves never call this -- they bind shard by
        shard through their legs -- but it answers the flat master's
        question for callers that want one federation-wide grant.
        """
        if max_blocks <= 0:
            return []
        granted: list[MigrationRecord] = []
        for shard_id, _ in self.pull_plan(node_id):
            remaining = max_blocks - len(granted)
            if remaining <= 0:
                break
            granted.extend(
                self._shards[shard_id].take(
                    node_id, remaining, self.policy, self.sim.now
                )
            )
        if granted:
            self._record_grant(node_id, granted)
        return granted

    def pull_service_seconds(self, shard_id: int) -> float:
        """Service time of one leg: linear in *that* shard's pending
        map only -- the control-plane win the shard sweep measures (a
        dead shard costs nothing; its leg binds nothing)."""
        cost = self.config.pull_service_cost
        if not cost:
            return 0.0
        shard = self._shards[shard_id]
        return cost * len(shard) if shard.alive else 0.0

    def shard_rpc_extra(self, shard_id: int) -> float:
        """Extra outbound delay (chaos) on this shard's pull legs."""
        return self._shard_rpc_extra.get(shard_id, 0.0)

    def add_shard_rpc_delay(self, shard_id: int, extra: float) -> None:
        """Injector hook: slow every pull leg to ``shard_id``."""
        self._shard_rpc_extra[shard_id] = (
            self._shard_rpc_extra.get(shard_id, 0.0) + extra
        )

    def clear_shard_rpc_delay(self, shard_id: int, extra: float) -> None:
        """Injector hook: undo a matching ``add_shard_rpc_delay``."""
        remaining = max(0.0, self._shard_rpc_extra.get(shard_id, 0.0) - extra)
        if remaining:
            self._shard_rpc_extra[shard_id] = remaining
        else:
            self._shard_rpc_extra.pop(shard_id, None)

    # -- teardown / failover -------------------------------------------------------

    def _discard_all_pending(self, reason: str) -> None:
        for shard in self._shards:
            for record in shard.drain():
                self.discard(record, reason=reason)

    def crash_shard(self, shard_id: int) -> None:
        """One shard's process dies: its partition of the pending map
        is lost (discarded -- records stay terminal), but every other
        shard, the ledger, and all bound/active work keep running.
        """
        shard = self._shards[shard_id]
        if not shard.alive:
            return
        if obs.enabled():
            obs.emit(
                obs.SHARD_CRASH,
                self.sim.now,
                shard=shard_id,
                pending_lost=len(shard),
                n_shards=self.n_shards,
            )
        shard.alive = False
        # Start the permanent-loss clock: staying down past
        # ``shard_dead_after`` re-homes this shard's routing slice.
        shard.crashed_at = self.sim.now
        for record in shard.drain():
            self.discard(record, reason="shard-crash")

    def recover_shard(self, shard_id: int) -> None:
        """Stand up a fresh incarnation of a downed shard.

        Soft-state recovery at shard granularity: the replacement
        starts empty and repopulates from new routing; nothing global
        needs rebuilding because the ledger and directory never lived
        on the shard.
        """
        old = self._shards[shard_id]
        if old.alive:
            return
        replacement = MasterShard(shard_id, generation=old.generation + 1)
        self._shards[shard_id] = replacement
        # A fresh incarnation is healthy: undo any permanent-loss
        # declaration so the shard's routing slice comes home.
        self._shards_declared_dead.discard(shard_id)
        if obs.enabled():
            obs.emit(
                obs.SHARD_RECOVER,
                self.sim.now,
                shard=shard_id,
                generation=replacement.generation,
                n_shards=self.n_shards,
            )
