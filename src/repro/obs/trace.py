"""Structured lifecycle tracing: spans for every migration stage.

The paper's evaluation reasons about *when* things happen to a block --
when its migration was requested, how long binding was delayed
(§III-A1), when the serialized copy ran (§III-B), when the buffer was
reclaimed (§III-C).  :class:`Tracer` captures exactly those moments as
an append-only stream of :class:`TraceEvent` records that
:class:`~repro.obs.analyze.TraceAnalyzer` and
:class:`~repro.obs.invariants.TraceInvariants` consume.

Design constraints:

* **zero-dependency** -- stdlib only, importable from anywhere in the
  tree without cycles;
* **byte-identical when off** -- the default tracer is a no-op
  singleton; the emit fast path is one global load and one attribute
  check, touches no RNG, reads no clock, and allocates nothing, so
  paper-scheme results cannot be perturbed by the instrumentation;
* **explicit timestamps** -- emitting components pass ``sim.now``;
  the tracer never reads wall time, so a trace replays exactly.

Event vocabulary (module constants): the migration lifecycle
``REQUEST -> PENDING -> BIND -> MLOCK_START -> MLOCK_DONE`` with the
early exits ``DROPPED`` (cancelled before completion), ``MLOCK_ABORT``
(copy ran for nothing) and ``EVICTED`` (completed then reclaimed);
read-path spans ``READ_MEMORY`` / ``READ_SSD`` / ``READ_DISK`` (+
``READ_DONE``); memory accounting ``BUFFER_RELEASE`` / ``PRELOAD`` /
``DEMOTE``; job markers ``JOB_SUBMIT`` / ``JOB_FINISH``; and the
§III-C failure events ``SLAVE_CRASH`` / ``SLAVE_RESTART`` /
``MASTER_CRASH`` / ``MASTER_RECOVER`` / ``FAILOVER`` /
``ORPHAN_EVICTED``.  ``RUN_START`` marks the boundary between
independent simulated worlds when one trace spans several runs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

__all__ = [
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "active_tracer",
    "set_tracer",
    "tracing",
    "enabled",
    "emit",
    "load_jsonl",
]

# -- event types -------------------------------------------------------------

#: Boundary between independent simulated worlds in one trace: block
#: and node identifiers are only unique within a run, so multi-run
#: streams (``dyrs-bench`` runs one system per scheme x case) are
#: segmented on it by the analyzer and the invariant checker.
RUN_START = "run_start"
REQUEST = "request"
PENDING = "pending"
BIND = "bind"
MLOCK_START = "mlock_start"
MLOCK_DONE = "mlock_done"
MLOCK_ABORT = "mlock_abort"
DROPPED = "dropped"
EVICTED = "evicted"
BUFFER_RELEASE = "buffer_release"
PRELOAD = "preload"
DEMOTE = "demote"
READ_MEMORY = "read_memory"
READ_SSD = "read_ssd"
READ_DISK = "read_disk"
READ_ARCHIVE = "read_archive"
READ_DONE = "read_done"
JOB_SUBMIT = "job_submit"
JOB_FINISH = "job_finish"
GC_SWEEP = "gc_sweep"
UNREFERENCED = "unreferenced"
SLAVE_CRASH = "slave_crash"
SLAVE_RESTART = "slave_restart"
MASTER_CRASH = "master_crash"
MASTER_RECOVER = "master_recover"
FAILOVER = "failover"
ORPHAN_EVICTED = "orphan_evicted"
#: Chaos-campaign fault markers: a fault taking effect and clearing.
#: ``kind`` names the fault (slave-crash, node-crash, master-crash,
#: degrade-disk, degrade-nic, partition, rpc-delay).
FAULT_INJECT = "fault_inject"
FAULT_CLEAR = "fault_clear"
#: Lifecycle tier-move vocabulary (:mod:`repro.lifecycle`): a
#: completed integrity-checked move between storage tiers, and a move
#: whose checksum verification failed.  ``TIER_MOVE`` carries the
#: authoritative post-move residency (``resident`` tier list), the
#: durable-copy ledger (``replicas_before``/``replicas_after``/
#: ``target_replicas``) and the recorded ``checksum``; the invariant
#: checker audits all three (see ``TraceInvariants.
#: lifecycle_violations``).
TIER_MOVE = "tier_move"
TIER_MOVE_CORRUPT = "tier_move_corrupt"
#: A tier move abandoned before completion (source unavailable, block
#: re-heated mid-move, crash).  Deliberately *not* ``dropped``: archive
#: moves never emit ``pending``, so reusing the migration-record
#: vocabulary would corrupt the liveness ledger.
TIER_MOVE_ABORT = "tier_move_abort"
#: Sharded-master vocabulary (:mod:`repro.shard`).  ``SHARD_ASSIGN``
#: records a fresh pending record being routed to its owning shard
#: (``block``, ``shard``, ``n_shards``); ``SHARD_CRASH`` /
#: ``SHARD_RECOVER`` bracket a single shard's outage (``shard``,
#: ``n_shards``, plus ``pending_lost`` on crash and ``generation`` on
#: recover).  Every event carries ``n_shards`` so the invariant
#: checker can prove the shard count never changes mid-run and that
#: each record is owned by exactly one shard (see
#: ``TraceInvariants.shard_violations``).
SHARD_ASSIGN = "shard_assign"
SHARD_CRASH = "shard_crash"
SHARD_RECOVER = "shard_recover"
#: The slave's pull protocol: one RPC leg to a master endpoint (the
#: flat master's endpoint 0, or a shard) opening (``node``, ``shard``,
#: ``window``, ``outstanding``) and landing (``node``, ``shard``).  The
#: checker proves per-(node, shard) open legs never exceed the window
#: carried on the open event.
PULL_LEG_OPEN = "pull_leg_open"
PULL_LEG_CLOSE = "pull_leg_close"


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``time`` is the simulated timestamp supplied by the emitter (None
    for clock-less emitters such as the reference tracker when no
    clock was wired).  ``fields`` holds the event's payload; keys
    ``type`` and ``time`` are reserved for the envelope.
    """

    type: str
    time: Optional[float]
    fields: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"type": self.type, "time": self.time}
        payload.update(self.fields)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        payload = json.loads(line)
        etype = payload.pop("type")
        time = payload.pop("time", None)
        return cls(type=etype, time=time, fields=payload)


class Tracer:
    """In-memory trace buffer with JSON-lines export."""

    __slots__ = ("events",)

    #: Class-level so the emit fast path is a single attribute check.
    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, etype: str, time: Optional[float], **fields) -> None:
        self.events.append(TraceEvent(etype, time, fields))

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, *etypes: str) -> list[TraceEvent]:
        """Events matching any of ``etypes``, in stream order."""
        wanted = set(etypes)
        return [e for e in self.events if e.type in wanted]

    def dump_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the trace as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for event in self.events:
                handle.write(event.to_json())
                handle.write("\n")
        return path


class _NullTracer(Tracer):
    """The default: swallows every event, enables nothing."""

    __slots__ = ()

    enabled = False

    def emit(self, etype: str, time: Optional[float], **fields) -> None:
        pass


NULL_TRACER = _NullTracer()

_active: Tracer = NULL_TRACER


def active_tracer() -> Tracer:
    """The tracer currently receiving events (NULL_TRACER when off)."""
    return _active


def enabled() -> bool:
    """Whether tracing is currently on (cheap guard for emitters that
    would otherwise allocate, e.g. completion callbacks)."""
    return _active.enabled


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` (None = off); returns the previous tracer."""
    global _active
    previous = _active
    _active = NULL_TRACER if tracer is None else tracer
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope a tracer: everything emitted inside the block lands in it.

    >>> with tracing() as t:
    ...     run_workload()
    >>> t.dump_jsonl("out.jsonl")
    """
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def emit(etype: str, time: Optional[float], **fields) -> None:
    """Module-level emit: the instrumentation entry point.

    With tracing off this is one global load plus one class-attribute
    check -- nothing else runs.
    """
    tracer = _active
    if tracer.enabled:
        tracer.events.append(TraceEvent(etype, time, fields))


def load_jsonl(path: Union[str, Path]) -> list[TraceEvent]:
    """Parse a JSON-lines trace file back into events."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json(line))
    return events
