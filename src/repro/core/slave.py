"""The DYRS slave: serialized migration worker on each DataNode.

Responsibilities (§III, §IV):

* keep a shallow **local queue** of bound migrations -- deep enough
  that the disk never idles while the next pull is in flight, shallow
  enough that binding stays late (§III-A1/§III-B);
* **serialize** migrations *per source device* -- one disk-sourced
  copy at a time to avoid seek thrashing (§III-B), and, in the tiered
  extension, one SSD-sourced copy at a time on a separate lane so a
  fast ssd->memory promotion never waits behind a slow disk read;
* maintain the disk lane's **EWMA migration-time estimator**,
  including the every-heartbeat in-progress refresh (§IV-A);
* **pull** bound work from the master (§III-A1): each pull is one
  detached leg per master endpoint -- the flat master is a single
  endpoint, a sharded federation one per live shard -- at most
  ``shard_pull_window`` legs outstanding per endpoint.  Each leg is
  a :class:`_PullLeg`, whose bound methods are the callbacks of the
  pull's one outbound timeout and of its own service and inbound
  timeouts;
* wait **idle** -- for work, or for memory space -- on a signal that
  a timer (the re-poll or the space re-check) also ends
  (:func:`_idle_wait`); a parked notify-mode slave waits for a wake;
* report ``(estimate, queue depth)`` at every heartbeat (§III-D), and
  tell its master whenever that load may have moved, so a heartbeat
  tick re-reads only the slaves that changed (see
  :meth:`~repro.core.master.DyrsMaster.on_heartbeat`);
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
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.node import FAST_TIERS
from repro.core.estimator import MigrationTimeEstimator
from repro.core.records import MigrationRecord, MigrationStatus
from repro.obs import trace as obs
from repro.sim.events import Event
from repro.sim.process import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import MigrationMaster
    from repro.core.master import DyrsConfig
    from repro.dfs.datanode import DataNode
    from repro.sim.engine import Simulator

__all__ = ["DyrsSlave"]

#: One-way master<->slave RPC delay, seconds; the local queue exists to
#: cover exactly this gap (§III-B).
RPC_LATENCY = 0.05
#: Smoothing weight of the migration-time estimator (§IV-A).
EWMA_ALPHA = 0.4
#: Memory fraction above which a slave triggers the inactive-job sweep
#: (§III-C3).
GC_THRESHOLD = 0.9


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
        #: The DFS whose heartbeat interval and block size pace this
        #: slave's polls and size its queue.
        self.namenode = master.namenode
        self.config = config
        self.sim = datanode.node.sim
        #: Disk-lane estimator -- the ``estMigrationTime`` of §IV-A and
        #: the load signal Algorithm 1 consumes.  Seeded from the
        #: migration lane's channel capacity (the unloaded rate).
        self.estimator = MigrationTimeEstimator(
            initial_rate=self.node.disk.channel.capacity,
            alpha=EWMA_ALPHA,
        )
        self._queue: deque[MigrationRecord] = deque()
        self._active: Optional[MigrationRecord] = None
        self._worker: Optional[Process] = None
        self._work_signal: Optional[Event] = None
        self._space_signal: Optional[_Signal] = None
        #: SSD-sourced lane: queue, serialized worker (spawned lazily
        #: on first use), and its own memory-space signal.
        self._ssd_queue: deque[MigrationRecord] = deque()
        self._ssd_active: Optional[MigrationRecord] = None
        self._ssd_worker: Optional[Process] = None
        self._ssd_space_signal: Optional[_Signal] = None
        #: Process generation.  Bumped on every crash so RPC responses
        #: addressed to a dead incarnation cannot feed (or unwedge) a
        #: restarted one -- the sim equivalent of an epoch number in the
        #: RPC header.
        self._epoch = 0
        #: Extra one-way RPC delay (chaos fault: delayed-RPC spike).
        self._rpc_extra = 0.0
        #: Outstanding-leg budget per master endpoint (1 unless a
        #: federation widens it).
        self._pull_window = config.shard_pull_window
        #: Open RPC legs per endpoint (the window the invariant checker
        #: proves is never exceeded) and records bound at the master but
        #: still riding an inbound leg -- space already spoken for, so
        #: concurrent legs cannot overshoot the queue-depth target.
        self._leg_outstanding: dict[int, int] = {}
        self._undelivered = 0
        self.alive = False
        master.register_slave(self)

    # -- sizing ------------------------------------------------------------------

    @property
    def queue_depth_target(self) -> int:
        """Ideal local queue length (§III-B): the heartbeat interval
        divided by the best-case per-block migration time."""
        if self.config.queue_depth is not None:
            return self.config.queue_depth
        namenode = self.namenode
        best_block_time = (
            namenode.namespace.block_size / self.node.disk.channel.capacity
        )
        return max(1, math.ceil(namenode.heartbeat_interval / best_block_time))

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
            return min(self.config.memory_limit, self.node.memory.capacity)
        return self.node.memory.capacity

    def _memory_fits(self, nbytes: float) -> bool:
        return self.node.memory.used + nbytes <= self.memory_limit + 1e-9

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Launch the worker loop (idempotent)."""
        if self.alive:
            return
        self.alive = True
        self.master.slave_changed(self)
        self._worker = self.sim.process(self._run(), name=f"dyrs-slave:{self.node_id}")
        self._worker.add_callback(_reraise_failure)

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
        # The SSD cache is slave-managed soft state like the memory
        # buffers; the replacement process starts both cold.
        for rung in FAST_TIERS:
            for block_id in self.datanode.pinned_ids(rung):
                self.datanode.unpin(rung, block_id)
        # Simulator bookkeeping, not a message from the dead process:
        # the master's heartbeat harvest stops reading this slave.
        self.master.slave_changed(self)

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
                self._ssd_worker.add_callback(_reraise_failure)
            return
        self._queue.append(record)
        self.master.slave_changed(self)
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

    @property
    def copy_in_flight(self) -> bool:
        """Whether the disk lane holds a claimed copy.  Such a slave's
        load moves without a notification (its estimator is refreshed
        at every heartbeat, and the copy's end clears the slot), so
        the master re-reads it at every tick while this holds.  An
        SSD-lane copy changes nothing the master reads."""
        return self._active is not None

    def heartbeat_load(self) -> tuple[float, int]:
        """Refresh the disk lane's estimator against its active copy
        (§IV-A) and return its ``(seconds_per_byte, queued_blocks)`` --
        the load a heartbeat carries to the master (§III-D)."""
        if self.config.estimator_refresh:
            active = self._active
            if active is not None and active.started_at is not None:
                now = self.sim.now
                self.estimator.refresh(
                    now - active.started_at, active.block.size, now=now
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

        The worker's only pull, at the top of its loop: at start, after
        each wait and after each copy.  A claim leaves the space as is.

        The flat master is one endpoint, so at window 1 this is the
        paper's single pull in flight; during its round trip the worker
        keeps draining the local queue -- that is precisely why the
        queue exists (§III-B).  A sharded master names each live shard,
        home shard first so concurrent nodes start on different shards.
        The legs of one pull share one outbound timeout, which reaches
        their endpoints in plan order; from arrival on they are
        detached: an endpoint whose service is slow or whose map is
        deep cannot stall binding from the others.
        """
        if not self.alive or self._pull_space() <= 0:
            return
        window = self._pull_window
        sim = self.sim
        outbound: Optional[Event] = None
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
            if outbound is None:
                # The outbound half: every leg of this pull is on the
                # wire from now and lands after the same delay.
                outbound = sim.timeout(self._rpc_leg_delay())
            outbound.add_callback(_PullLeg(self, shard_id, generation)._arrived)

    def _rpc_leg_delay(self) -> float:
        """One-way RPC delay including any injected spike."""
        return RPC_LATENCY + self._rpc_extra

    def _run(self):
        sim = self.sim
        try:
            while True:
                self._maybe_pull()
                if not self._queue:
                    if self.config.idle_pull == "notify":
                        # Park at the master and wait on the signal alone:
                        # a retarget pass that targets this node wakes it,
                        # and so does a standby's promotion.
                        self._work_signal = signal = sim.event()
                        self.master.park_idle_slave(self.node_id, signal)
                        yield signal
                        self.master.unpark_idle_slave(self.node_id, signal)
                    else:
                        # Idle: wait for work, re-polling the master at
                        # heartbeat cadence (periodic query, §III-A1).
                        interval = self.namenode.heartbeat_interval
                        self._work_signal, timer = _idle_wait(sim, interval)
                        try:
                            yield self._work_signal
                        except Interrupt:
                            sim.discard(timer)  # a crash ends the wait
                            raise
                        sim.discard(timer)  # work came first
                    self._work_signal = None
                    continue
                record = self._queue.popleft()
                if not record.status.is_terminal:
                    # Claim the slot: the record moves from the queue to
                    # the slot, so the pull space stays as it was.
                    self._active = record
                self.master.slave_changed(self)
                if self._active is not record:
                    continue  # discarded while queued (missed read etc.)
                try:
                    yield from self._migrate_one(record)
                finally:
                    self._active = None
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
                self.master.slave_changed(self)
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
        """Execute one serialized migration.

        ``record.source_tier`` selects the lane's device (only the disk
        lane feeds the estimator the master reads);
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
            if self.node.memory.used >= GC_THRESHOLD * self.memory_limit:
                self.master.gc_sweep()
            while not self._memory_fits(block.size):
                # Re-check at heartbeat cadence, or as soon as an
                # eviction frees memory; drop the re-check it beat.
                signal, timer = _idle_wait(sim, self.namenode.heartbeat_interval)
                if lane == "ssd":
                    self._ssd_space_signal = signal
                else:
                    self._space_signal = signal
                try:
                    yield signal
                except Interrupt:
                    sim.discard(timer)
                    raise
                sim.discard(timer)
                if lane == "ssd":
                    self._ssd_space_signal = None
                else:
                    self._space_signal = None
                if record.status.is_terminal:
                    return  # discarded while waiting (missed read)
        elif not self._ssd_dest_fits(block.size):
            self.master.discard(record, reason="ssd-full")
            return
        if record.status.is_terminal:
            # The GC sweep above may have discarded this very record
            # (its job went inactive while it sat in our queue).
            return
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
            return
        if lane == "disk":
            self.estimator.observe(duration, block.size, now=sim.now)
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
                return
            if not self.datanode.holds("ssd", block.block_id):
                # A copy may already be physically present when a stale
                # fill lands on a node whose earlier copy lost its
                # directory entry (e.g. overwritten by a demotion
                # elsewhere); re-pinning would raise and kill the lane.
                self.datanode.pin("ssd", block)
        else:
            self.datanode.pin("memory", block)
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
        self.master.on_migration_complete(record, self.node_id, duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return (
            f"<DyrsSlave node{self.node_id} {state} queued={len(self._queue)} "
            f"active={self._active is not None}>"
        )


class _Signal(Event):
    """A work or memory-space signal that a timer also ends.

    The worker yields the signal itself.  :meth:`DyrsSlave.enqueue` or
    :meth:`DyrsSlave.notify_memory_freed` triggers it, and it resumes
    the worker when the engine pops it; the timer's callback,
    :meth:`_expire`, ends the wait in place.
    Whichever of the two is processed first resumes the worker, without
    building a condition event over the two: a signal triggered at the
    timer's instant but still queued behind it loses.
    """

    __slots__ = ()

    def _expire(self, _timer: Event) -> None:
        if self._processed:
            return  # the worker that waited was interrupted (crash)
        if self._ok is not None:
            # Triggered at this instant but queued behind the timer:
            # drop the queued entry, the timer resumes the worker.
            self.sim.discard(self)
        self._fire(True, None)


def _idle_wait(sim: "Simulator", seconds: float) -> tuple[_Signal, Event]:
    """A fresh signal to wait on, and the timer that ends the wait after
    ``seconds`` (the poll-mode re-poll or the space re-check).  A worker
    that the signal resumed discards the timer, and so does one a crash
    interrupts, in an ``except Interrupt`` clause.  Not in a
    ``finally``: that would also run when the garbage collector closes
    a finished run's workers, and a heap compaction there puts the
    dying run's events in a new list, which keeps the whole run alive
    for one more collection.

    The timer refers to the signal through its callback, never the
    other way round, so a discarded timer and its signal are freed by
    reference counting alone.
    """
    signal = _Signal(sim)
    timer = sim.timeout(seconds)
    timer.add_callback(signal._expire)
    return signal, timer


def _reraise_failure(worker: Process) -> None:
    """Exit callback of both worker loops.  Nothing awaits a worker, so
    a loop that raised would leave its slave ``alive`` but never
    migrating again; re-raising stops the run instead."""
    if not worker.ok:
        raise worker.value


class _PullLeg:
    """One detached pull leg from a slave to one master endpoint.

    Outbound delay (:data:`RPC_LATENCY` plus any chaos extra),
    master-side service, bind, inbound delay -- fenced by both the
    slave epoch and the endpoint generation.  Each delay is a timeout
    whose callback is the next stage, a bound method of this object.
    The outbound timeout is the pull's, not the leg's:
    :meth:`DyrsSlave._maybe_pull` creates one per pull and registers
    each new leg's :meth:`_arrived` on it in ``pull_plan`` order, so
    the legs of a pull cost one engine event between them to arrive.
    Splitting it would change nothing else: the legs share one delay
    and would sit on consecutive heap keys, and no stage schedules an
    urgent event that could pop between them.  Both RPC halves always
    wait, and only a zero service delay binds at once.  A leg has no
    deadline: a blackholed request (partition, master down) ends the
    leg at once, an empty grant ends it without waiting for the
    inbound delay, and the worker loop asks again at its next re-poll
    or wake.  A slow leg holds only its own window slot.

    Nothing waits on a leg.  Every stage runs in a timeout's callback,
    so an exception inside any stage propagates out of
    :meth:`~repro.sim.engine.Simulator.step`; if it is raised on
    arrival, the later legs of the same pull never arrive (the run
    stops either way).  A simulation abandoned mid-leg leaves only a
    timeout holding a stage that never runs; its collection writes
    into no trace.
    """

    __slots__ = ("slave", "master", "shard_id", "generation", "epoch", "granted")

    def __init__(self, slave: DyrsSlave, shard_id: int, generation: int) -> None:
        self.slave = slave
        #: The master the request was sent to.  A standby promoted
        #: while the leg is on the wire never sees it: the leg ends at
        #: the dead master it addressed.
        self.master = slave.master
        self.shard_id = shard_id
        self.generation = generation
        self.epoch = slave._epoch
        #: The grant riding the inbound half, set at bind time.
        self.granted: Sequence[MigrationRecord] = ()

    def _arrived(self, _event: Event) -> None:
        """The request reached the endpoint, which services it."""
        slave = self.slave
        master = self.master
        if slave.node_id in slave.namenode.partitioned or not master.alive:
            # Blackholed request: nothing was bound.
            self._close()
            return
        service = master.pull_service_seconds(self.shard_id)
        if service > 0:
            slave.sim.timeout(service).add_callback(self._serviced)
        else:
            self._bind()

    def _serviced(self, _event: Event) -> None:
        """The endpoint finished servicing the request."""
        slave = self.slave
        if not slave.alive or slave._epoch != self.epoch:
            # Crashed while the master was servicing the call; nothing
            # was bound yet, so walking away is safe.
            self._close()
            return
        self._bind()

    def _bind(self) -> None:
        """Bind against the queue space left now, then send the grant
        back on the inbound half."""
        slave = self.slave
        granted = self.master.bind_from_shard(
            self.shard_id, self.generation, slave.node_id, slave._pull_space()
        )
        if not granted:
            self._close()
            return
        if slave._epoch == self.epoch:
            # Only the live incarnation's space is spoken for.  A leg
            # whose slave crashed during the outbound half still binds
            # -- the request was on the wire -- and is requeued on
            # delivery; counting it here would shrink the restarted
            # process's budget for good.
            slave._undelivered += len(granted)
        self.granted = granted
        slave.sim.timeout(slave._rpc_leg_delay()).add_callback(self._delivered)

    def _delivered(self, _event: Event) -> None:
        """The response landed: enqueue the grant, or requeue it if the
        slave that asked is gone."""
        slave = self.slave
        granted = self.granted
        if not slave.alive or slave._epoch != self.epoch:
            # Crashed (or crashed and restarted) while the response was
            # in flight.  The crash already zeroed the undelivered
            # counter for the old epoch; without this requeue the
            # records would stay BOUND forever -- the node keeps
            # heartbeating, so no failure detector ever reclaims them.
            self.master.requeue_undelivered(granted)
        else:
            slave._undelivered -= len(granted)
            for record in granted:
                if not record.status.is_terminal:
                    slave.enqueue(record)
        self._close()

    def _close(self) -> None:
        """Free the window slot (only the live epoch's) and trace the
        leg's end."""
        slave = self.slave
        if slave._epoch == self.epoch:
            outstanding = slave._leg_outstanding
            count = outstanding.get(self.shard_id, 0)
            if count > 0:
                outstanding[self.shard_id] = count - 1
        if obs.enabled():
            obs.emit(
                obs.PULL_LEG_CLOSE,
                slave.sim.now,
                node=slave.node_id,
                shard=self.shard_id,
            )
