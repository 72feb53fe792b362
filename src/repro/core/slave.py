"""The DYRS slave: serialized migration worker on each DataNode.

Responsibilities (§III, §IV):

* keep a shallow **local queue** of bound migrations -- deep enough
  that the disk never idles while the next pull is in flight, shallow
  enough that binding stays late (§III-A1/§III-B);
* **serialize** migrations *per source device* -- one disk-sourced
  copy at a time to avoid seek thrashing (§III-B), and, in the tiered
  extension, one SSD-sourced copy at a time on a separate lane so a
  fast ssd->memory promotion never waits behind a slow disk read;
* maintain the **EWMA migration-time estimator**, including the
  every-heartbeat in-progress refresh (§IV-A);
* **pull** bound work from the master (§III-A1): each pull is one
  detached leg per master endpoint -- the flat master is a single
  endpoint, a sharded federation one per live shard -- at most
  ``shard_pull_window`` legs outstanding per endpoint;
* report ``(estimate, queue depth)`` at every heartbeat (§III-D);
* respect the **memory hard limit**: when space is short, hold
  migrations until eviction frees memory or the migration is
  discarded by a missed read (§IV-A1);
* trigger the memory-pressure **GC sweep** when usage crosses a
  threshold (§III-C3).

The slave is shared by every master implementation (DYRS, Ignem,
naive): masters only differ in *when and where* records land in local
queues.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.estimator import MigrationTimeEstimator
from repro.core.records import MigrationRecord, MigrationStatus
from repro.obs import trace as obs
from repro.sim.events import AnyOf, Event
from repro.sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import MigrationMaster
    from repro.core.master import DyrsConfig
    from repro.dfs.datanode import DataNode

__all__ = ["DyrsSlave"]


class DyrsSlave:
    """Per-node migration worker."""

    def __init__(
        self,
        datanode: "DataNode",
        master: "MigrationMaster",
        config: "DyrsConfig",
    ) -> None:
        self.datanode = datanode
        self.node = datanode.node
        self.node_id = datanode.node_id
        self.master = master
        self.config = config
        self.sim = datanode.node.sim
        #: Disk-lane estimator -- the ``estMigrationTime`` of §IV-A and
        #: the load signal Algorithm 1 consumes.  Seeded from the
        #: migration lane's channel capacity (the unloaded rate).
        self.estimator = MigrationTimeEstimator(
            initial_rate=self.node.disk.channel.capacity,
            alpha=config.ewma_alpha,
        )
        #: SSD-lane estimator (tiered extension); None on SSD-less
        #: nodes so the paper's configurations build nothing extra.
        self.ssd_estimator: Optional[MigrationTimeEstimator] = (
            MigrationTimeEstimator(
                initial_rate=self.node.ssd.channel.capacity,
                alpha=config.ewma_alpha,
            )
            if self.node.ssd is not None
            else None
        )
        self._queue: deque[MigrationRecord] = deque()
        self._active: Optional[MigrationRecord] = None
        self._worker: Optional[Process] = None
        self._work_signal: Optional[Event] = None
        self._space_signal: Optional[Event] = None
        #: SSD-sourced lane: queue, serialized worker (spawned lazily
        #: on first use), and its own memory-space signal.
        self._ssd_queue: deque[MigrationRecord] = deque()
        self._ssd_active: Optional[MigrationRecord] = None
        self._ssd_worker: Optional[Process] = None
        self._ssd_space_signal: Optional[Event] = None
        #: Process generation.  Bumped on every crash so RPC responses
        #: addressed to a dead incarnation cannot feed (or unwedge) a
        #: restarted one -- the sim equivalent of an epoch number in the
        #: RPC header.
        self._epoch = 0
        #: Master<->slave link state (chaos fault): a partitioned slave
        #: keeps running but its pulls and heartbeats are blackholed.
        self._partitioned = False
        #: Extra one-way RPC delay (chaos fault: delayed-RPC spike).
        self._rpc_extra = 0.0
        #: Outstanding-leg budget per master endpoint (1 unless a
        #: sharded scheme widens it).
        self._pull_window = config.shard_pull_window or 1
        #: Open RPC legs per endpoint (the window the invariant checker
        #: proves is never exceeded) and records bound at the master but
        #: still riding an inbound leg -- space already spoken for, so
        #: concurrent legs cannot overshoot the queue-depth target.
        self._leg_outstanding: dict[int, int] = {}
        self._undelivered = 0
        self.alive = False
        #: Completed migrations: (record, duration), for metrics.
        self.completed: list[tuple[MigrationRecord, float]] = []
        master.register_slave(self)

    # -- sizing ------------------------------------------------------------------

    @property
    def queue_depth_target(self) -> int:
        """Ideal local queue length (§III-B): the heartbeat interval
        divided by the best-case per-block migration time."""
        if self.config.queue_depth is not None:
            return self.config.queue_depth
        best_block_time = (
            self.config.reference_block_size / self.node.disk.channel.capacity
        )
        return max(1, math.ceil(self.config.heartbeat_interval / best_block_time))

    @property
    def queued_blocks(self) -> int:
        """Disk-lane queue length including the active migration --
        the ``numQueued`` the master sees (Algorithm 1)."""
        return len(self._queue) + (1 if self._active is not None else 0)

    @property
    def ssd_queued_blocks(self) -> int:
        """SSD-lane queue length including its active copy."""
        return len(self._ssd_queue) + (1 if self._ssd_active is not None else 0)

    @property
    def memory_limit(self) -> float:
        """Hard cap on migrated bytes held on this node (§IV-A1)."""
        if self.config.memory_limit is not None:
            return min(self.config.memory_limit, self.node.memory.spec.capacity)
        return self.node.memory.spec.capacity

    def _memory_fits(self, nbytes: float) -> bool:
        return self.node.memory.used + nbytes <= self.memory_limit + 1e-9

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Launch the worker loop (idempotent)."""
        if self.alive:
            return
        self.alive = True
        self._worker = self.sim.process(self._run(), name=f"dyrs-slave:{self.node_id}")

    def crash(self) -> None:
        """Kill the slave *process*: local queue and buffered data are
        lost; the OS reclaims the buffer space (§III-C2).

        Record-status bookkeeping is deliberately left to the master's
        :meth:`~repro.core.base.MigrationMaster.on_slave_failed` -- a
        dead process cannot tell anyone anything; the master learns of
        the failure from the replacement's registration or from missed
        heartbeats.
        """
        if not self.alive:
            return
        self.alive = False
        # Invalidate any in-flight pull leg: its response now addresses
        # a dead epoch and must not be delivered to whatever process
        # runs here next.  The leg counters belong to the dead
        # incarnation and must not leak into (or be decremented by) the
        # next one.
        self._epoch += 1
        self._leg_outstanding.clear()
        self._undelivered = 0
        obs.emit(obs.SLAVE_CRASH, self.sim.now, node=self.node_id)
        for record in (self._active, self._ssd_active):
            # Close the copy interval of any migration the dead process
            # had in flight (the copy's bytes are lost with the buffer).
            if record is not None and record.status is MigrationStatus.ACTIVE:
                obs.emit(
                    obs.MLOCK_ABORT,
                    self.sim.now,
                    block=record.block_id,
                    node=self.node_id,
                    source=record.source_tier,
                )
        if self._worker is not None and self._worker.is_alive:
            self._worker.interrupt(cause="crash")
        self._worker = None
        self._active = None
        self._queue.clear()
        if self._ssd_worker is not None and self._ssd_worker.is_alive:
            self._ssd_worker.interrupt(cause="crash")
        self._ssd_worker = None
        self._ssd_active = None
        self._ssd_queue.clear()
        for block_id in self.datanode.memory_block_ids():
            self.datanode.unpin_block(block_id)
        # The SSD cache is slave-managed soft state (like the memory
        # directory); the replacement process starts it cold.
        for block_id in self.datanode.ssd_block_ids():
            self.datanode.unpin_block_ssd(block_id)

    def restart(self) -> None:
        """Start a fresh slave process after a crash.

        "The new slave process should direct the master to drop state
        about blocks that were previously buffered on that server"
        (§III-C2).
        """
        if self.alive:
            raise RuntimeError(f"slave {self.node_id} is already running")
        obs.emit(obs.SLAVE_RESTART, self.sim.now, node=self.node_id)
        self.master.on_slave_failed(self.node_id)
        # crash() reset the leg counters; a pre-crash leg still in
        # flight belongs to the old epoch and can no longer touch them.
        self.start()

    # -- master-facing API ------------------------------------------------------------

    def enqueue(self, record: MigrationRecord) -> None:
        """Add a bound record to its source device's lane.

        Used both by the pull path (the worker's own fetches) and by
        push-style masters (Ignem binds at submission, §VI; the tiered
        master push-binds ssd-sourced promotions the same way).
        """
        if record.source_tier == "ssd":
            self._ssd_queue.append(record)
            if self.alive and (
                self._ssd_worker is None or not self._ssd_worker.is_alive
            ):
                # The lane's first step runs inside ``sim.process``; if
                # it drains the queue without yielding, its ``finally``
                # has already cleared the slot and the handle stored
                # here is dead -- hence the liveness test, not ``None``.
                self._ssd_worker = self.sim.process(
                    self._run_ssd(), name=f"dyrs-slave-ssd:{self.node_id}"
                )
            return
        self._queue.append(record)
        if self._work_signal is not None and not self._work_signal.triggered:
            self._work_signal.succeed()

    def notify_memory_freed(self) -> None:
        """Eviction freed memory; wake any lane stalled on space."""
        if self._space_signal is not None and not self._space_signal.triggered:
            self._space_signal.succeed()
        if (
            self._ssd_space_signal is not None
            and not self._ssd_space_signal.triggered
        ):
            self._ssd_space_signal.succeed()

    def heartbeat_load(self) -> tuple[float, int]:
        """Refresh both lanes' estimators against their active copies
        (§IV-A) and return the disk lane's ``(seconds_per_byte,
        queued_blocks)`` -- the load a heartbeat carries to the master
        (§III-D)."""
        if self.config.estimator_refresh:
            now = self.sim.now
            active = self._active
            if active is not None and active.started_at is not None:
                self.estimator.refresh(
                    now - active.started_at, active.block.size, now=now
                )
            ssd_active = self._ssd_active
            if (
                ssd_active is not None
                and ssd_active.started_at is not None
                and self.ssd_estimator is not None
            ):
                self.ssd_estimator.refresh(
                    now - ssd_active.started_at, ssd_active.block.size, now=now
                )
        return self.estimator.seconds_per_byte, self.queued_blocks

    # -- worker internals --------------------------------------------------------------

    def _pull_space(self) -> int:
        """Queue space not yet spoken for by an in-flight grant.

        Recomputed at *bind* time inside each leg (the simulation is
        single-threaded, so the value is exact there): legs never carve
        up a stale launch-time budget, so a slow endpoint cannot strand
        space and concurrent fast legs cannot overshoot the target.
        """
        return self.queue_depth_target - self.queued_blocks - self._undelivered

    def _maybe_pull(self) -> None:
        """Fetch more work if there is queue space: open one RPC leg to
        every endpoint of the master's pull plan, bounded per endpoint
        by the pull window.

        The flat master is one endpoint, so at window 1 this is the
        paper's single pull in flight; during its round trip the worker
        keeps draining the local queue -- that is precisely why the
        queue exists (§III-B).  A sharded master names each live shard,
        home shard first so concurrent nodes start on different shards.
        Legs are detached: an endpoint whose leg is delayed (chaos) or
        whose map is deep cannot stall binding from the others.
        """
        if not self.alive or self._pull_space() <= 0:
            return
        window = self._pull_window
        sim = self.sim
        for shard_id, generation in self.master.pull_plan(self.node_id):
            outstanding = self._leg_outstanding.get(shard_id, 0)
            if outstanding >= window:
                continue
            self._leg_outstanding[shard_id] = outstanding + 1
            if obs.enabled():
                obs.emit(
                    obs.PULL_LEG_OPEN,
                    sim.now,
                    node=self.node_id,
                    shard=shard_id,
                    window=window,
                    outstanding=outstanding + 1,
                )
            sim.process(
                self._pull_leg(shard_id, generation, self._epoch),
                name=f"pull-leg:{self.node_id}:{shard_id}",
            )

    def _rpc_leg_delay(self) -> float:
        """One-way RPC delay including any injected spike."""
        return self.config.rpc_latency + self._rpc_extra

    def _pull_leg(self, shard_id: int, generation: int, epoch: int):
        """One detached pull leg to one master endpoint.

        Outbound delay (plus any endpoint-targeted chaos extra),
        master-side service, bind, inbound delay -- fenced by both the
        slave epoch and the endpoint generation.  There is no timeout:
        a blackholed request (partition, master down) ends the leg at
        once, an empty grant ends it without waiting for the inbound
        delay, and the worker loop re-polls at heartbeat cadence.  A
        slow leg holds only its own window slot.
        """
        sim = self.sim
        master = self.master
        collected = False
        try:
            outbound = self._rpc_leg_delay() + master.shard_rpc_extra(shard_id)
            if outbound > 0:
                yield sim.timeout(outbound)
            if self._partitioned or not master.alive:
                # Blackholed request: nothing was bound.
                return
            service = master.pull_service_seconds(shard_id)
            if service > 0:
                yield sim.timeout(service)
                if not self.alive or self._epoch != epoch:
                    # Crashed while the master was servicing the call;
                    # nothing was bound yet, so walking away is safe.
                    return
            granted = master.bind_from_shard(
                shard_id, generation, self.node_id, self._pull_space()
            )
            if not granted:
                return
            if self._epoch == epoch:
                # Only the live incarnation's space is spoken for.  A
                # leg whose slave crashed during the outbound half
                # still binds -- the request was on the wire -- and is
                # requeued below; counting it here would shrink the
                # restarted process's budget for good.
                self._undelivered += len(granted)
            inbound = self._rpc_leg_delay()
            if inbound > 0:
                yield sim.timeout(inbound)
            if not self.alive or self._epoch != epoch:
                # Crashed (or crashed and restarted) while the response
                # was in flight.  The crash already zeroed the
                # undelivered counter for the old epoch; without this
                # requeue the records would stay BOUND forever -- the
                # node keeps heartbeating, so no failure detector ever
                # reclaims them.
                master.requeue_undelivered(granted)
                return
            self._undelivered -= len(granted)
            for record in granted:
                if not record.status.is_terminal:
                    self.enqueue(record)
        except GeneratorExit:
            # Closed while suspended: the garbage collector reclaimed a
            # simulation abandoned mid-leg.  Its window slot died with
            # that run, and an emit now would land in whatever trace is
            # being recorded at collection time.
            collected = True
            raise
        finally:
            if not collected:
                if self._epoch == epoch:
                    count = self._leg_outstanding.get(shard_id, 0)
                    if count > 0:
                        self._leg_outstanding[shard_id] = count - 1
                if obs.enabled():
                    obs.emit(
                        obs.PULL_LEG_CLOSE,
                        sim.now,
                        node=self.node_id,
                        shard=shard_id,
                    )

    def _run(self):
        sim = self.sim
        try:
            while True:
                self._maybe_pull()
                if not self._queue:
                    self._work_signal = Event(sim, name=f"work:{self.node_id}")
                    if self.config.idle_pull == "notify":
                        # Notify mode: park at the master and wait to be
                        # woken by a retarget pass that aims work here.
                        # The backstop keeps liveness if a wake is lost
                        # (master failover, shard crash); it is long --
                        # 50 heartbeat intervals -- because on an idle
                        # 1k-node cluster these periodic re-polls are
                        # the dominant event-heap load, and correctness
                        # never depends on them.
                        self.master.park_idle_slave(self.node_id, self._work_signal)
                        backstop = sim.timeout(self.config.heartbeat_interval * 50.0)
                        yield AnyOf(sim, [self._work_signal, backstop])
                        self.master.unpark_idle_slave(self.node_id, self._work_signal)
                        if not backstop.processed:
                            sim.discard(backstop)
                    else:
                        # Idle: wait for work, re-polling the master at
                        # heartbeat cadence (periodic query, §III-A1).
                        # Work that arrives first leaves the re-poll
                        # timer nothing to wake, so drop it.
                        repoll = sim.timeout(self.config.heartbeat_interval)
                        yield AnyOf(sim, [self._work_signal, repoll])
                        if not repoll.processed:
                            sim.discard(repoll)
                    self._work_signal = None
                    continue
                record = self._queue.popleft()
                if record.status.is_terminal:
                    continue  # discarded while queued (missed read etc.)
                # Claim the slot *before* pulling, so the in-flight
                # record counts against the queue-depth target and a
                # racing pull cannot overshoot it.
                self._active = record
                self._maybe_pull()  # space just opened
                try:
                    done = yield from self._migrate_one(record)
                finally:
                    self._active = None
                if done:
                    self._maybe_pull()
        except Interrupt:
            return

    def _run_ssd(self):
        """The SSD-sourced lane: serialized like the disk lane, but
        push-fed (no pulls) and spawned lazily, so configurations
        without tiering run zero extra processes.  Exits when the
        queue drains; :meth:`enqueue` respawns it."""
        try:
            while self.alive and self._ssd_queue:
                record = self._ssd_queue.popleft()
                if record.status.is_terminal:
                    continue
                self._ssd_active = record
                try:
                    yield from self._migrate_one(record)
                finally:
                    self._ssd_active = None
        except Interrupt:
            return
        finally:
            self._ssd_worker = None

    def _ssd_dest_fits(self, nbytes: float) -> bool:
        return self.node.ssd is not None and self.node.ssd.fits(nbytes)

    def _migrate_one(self, record: MigrationRecord):
        """Execute one serialized migration; returns True if completed.

        ``record.source_tier`` selects the lane's device and estimator;
        ``record.dest_tier`` selects the space discipline: memory
        destinations wait for eviction under the hard limit (§IV-A1),
        while a full SSD discards the promotion immediately -- stalling
        a lane for optional cache fill would starve real work.
        """
        sim = self.sim
        block = record.block
        lane = record.source_tier
        if record.dest_tier == "memory":
            # Memory-pressure GC, then wait for space (§IV-A1, §III-C3).
            if self.node.memory.used >= self.config.gc_threshold * self.memory_limit:
                self.master.gc_sweep()
            while not self._memory_fits(block.size):
                signal = Event(sim, name=f"space:{lane}:{self.node_id}")
                if lane == "ssd":
                    self._ssd_space_signal = signal
                else:
                    self._space_signal = signal
                recheck = sim.timeout(self.config.heartbeat_interval)
                yield AnyOf(sim, [signal, recheck])
                if not recheck.processed:
                    sim.discard(recheck)
                if lane == "ssd":
                    self._ssd_space_signal = None
                else:
                    self._space_signal = None
                if record.status.is_terminal:
                    return False  # discarded while waiting (missed read)
        elif not self._ssd_dest_fits(block.size):
            self.master.discard(record, reason="ssd-full")
            return False
        if record.status.is_terminal:
            # The GC sweep above may have discarded this very record
            # (its job went inactive while it sat in our queue).
            return False
        record.mark_active(sim.now)
        obs.emit(
            obs.MLOCK_START,
            sim.now,
            block=block.block_id,
            node=self.node_id,
            source=lane,
            dest=record.dest_tier,
        )
        started = sim.now
        copy_done = self.datanode.copy_block(
            block, source_tier=lane, tag=f"migrate:{block.block_id}"
        )
        yield copy_done
        duration = sim.now - started
        if record.status.is_terminal:
            # Discarded mid-copy (e.g. the master reclaimed work from a
            # presumed-dead slave); the bytes were read for nothing.
            obs.emit(
                obs.MLOCK_ABORT,
                sim.now,
                block=block.block_id,
                node=self.node_id,
                source=lane,
            )
            return False
        estimator = self.ssd_estimator if lane == "ssd" else self.estimator
        estimator.observe(duration, block.size, now=sim.now)
        if record.dest_tier == "ssd":
            if not self._ssd_dest_fits(block.size):
                # The cache filled up while the copy ran.
                obs.emit(
                    obs.MLOCK_ABORT,
                    sim.now,
                    block=block.block_id,
                    node=self.node_id,
                    source=lane,
                )
                self.master.discard(record, reason="ssd-full")
                return False
            if not self.datanode.has_ssd_replica(block.block_id):
                # A copy may already be physically present when a stale
                # fill lands on a node whose earlier copy lost its
                # directory entry (e.g. overwritten by a demotion
                # elsewhere); re-pinning would raise and kill the lane.
                self.datanode.pin_block_ssd(block)
        else:
            self.datanode.pin_block(block)
        record.mark_done(sim.now)
        obs.emit(
            obs.MLOCK_DONE,
            sim.now,
            block=block.block_id,
            node=self.node_id,
            source=lane,
            dest=record.dest_tier,
            duration=duration,
            nbytes=block.size,
        )
        self.completed.append((record, duration))
        self.master.on_migration_complete(record, self.node_id, duration)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return (
            f"<DyrsSlave node{self.node_id} {state} queued={len(self._queue)} "
            f"active={self._active is not None}>"
        )
