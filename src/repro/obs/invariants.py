"""Assert §III semantics from a trace alone.

:class:`TraceInvariants` re-derives the protocol's correctness
conditions from the event stream, independent of the simulator's own
data structures -- if an implementation change breaks the protocol,
the trace convicts it even when unit tests pass.  Checked:

1. **No memory read before mlock_done** -- a ``read_memory`` span for
   a block on a node requires that block to be memory-resident there
   (an earlier ``mlock_done``/``preload`` not yet undone by a
   ``buffer_release``).  This is the delayed-binding safety property:
   readers never see a partially locked buffer.
2. **Per-disk migrations serialized (§III-B)** -- at most one
   ``mlock_start``..``mlock_done|mlock_abort`` interval open at a time
   per (node, disk lane).
3. **Every bind preceded by a pending (§III-A1)** -- delayed binding
   means no record is bound that was never queued.
4. **Every evicted block's buffer released (§III-C3)** -- when an
   ``evicted`` event appears, the block must no longer be
   memory-resident on that node (the eviction path unpins before it
   marks the record).
7. **Drops leave a legal state (§III-A)** -- a ``dropped`` event's
   ``status`` field (the record's state before the drop) must be a
   legal source of a ``-> discarded`` edge in
   :data:`LEGAL_TRANSITIONS`, the lattice the ``mark_*`` guards of
   ``core/records.py`` enforce.

:meth:`TraceInvariants.lifecycle_violations` audits the lifecycle
extension's ``tier_move`` vocabulary (no-op on paper-scheme traces,
which emit none):

8. **No block resident in zero tiers** -- every ``tier_move`` (and
   every ``tier_move_corrupt``, whose contract is
   verify-before-delete) carries the authoritative post-move
   ``resident`` tier list, which must be non-empty.
9. **No archive copy without a checksum** -- a move leaving the block
   archive-resident must carry the recorded digest.
10. **Replica conservation** -- an archive demotion lands exactly on
    its durable-copy target (``replicas_after == target_replicas``)
    and every move keeps at least one durable copy.

:meth:`TraceInvariants.liveness_violations` adds the chaos-campaign
*liveness* conditions -- the properties the stranded-binding fixes
exist to uphold, checked per run segment:

5. **Every pending record terminates** -- each ``pending`` emission is
   eventually closed by a ``dropped`` or ``mlock_done`` before the
   segment ends.  A binding stranded at a dead slave process shows up
   here as an open record at quiesce.
6. **Migrated-bytes conservation** -- every byte that entered memory
   (``mlock_done`` with ``dest=memory``, plus ``preload``) either left
   through a traced ``buffer_release`` or is still resident at segment
   end.  Crash paths that silently dropped buffers would break the
   ledger.

All checks walk the stream in emission order: on a discrete-event
simulator, same-timestamp events are causally ordered by emission, so
re-sorting by time would destroy exactly the ordering being verified.
``run_start`` events reset all state: block/node identifiers are only
unique within one simulated world, and a multi-run trace (one system
per scheme x case) reuses them.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Optional, Union

from repro.obs import trace as T
from repro.obs.trace import TraceEvent, load_jsonl

__all__ = ["TraceInvariants", "InvariantViolation", "LEGAL_TRANSITIONS"]

#: The §III migration-record lattice, as ``(from, to)`` enum *value*
#: strings -- the spelling trace events use in their ``status`` fields.
#: This is the trace checker's own copy of the table whose guards live
#: in the ``mark_*`` methods of ``core/records.py``: the checker must
#: not import what it verifies.  ``tests/core/test_records.py`` runs
#: every guard from every status and holds the accepted pairs equal to
#: this table, and :meth:`TraceInvariants.violations` checks every
#: traced drop's prior status against it (check 7).
LEGAL_TRANSITIONS: frozenset[tuple[str, str]] = frozenset(
    {
        ("pending", "bound"),
        ("bound", "active"),
        ("active", "done"),
        ("done", "evicted"),
        # DISCARDED is reachable from every non-terminal state
        # (mark_discarded guards on ``status.is_terminal`` only).
        ("pending", "discarded"),
        ("bound", "discarded"),
        ("active", "discarded"),
    }
)


class InvariantViolation(AssertionError):
    """Raised by :meth:`TraceInvariants.check_all` on any violation."""


class TraceInvariants:
    """Stream-order invariant checker over a finished trace."""

    def __init__(self, events: list[TraceEvent]) -> None:
        self.events = events

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "TraceInvariants":
        return cls(load_jsonl(path))

    def violations(self) -> list[str]:
        """All violations found, as human-readable one-liners."""
        found: list[str] = []
        # (node, block) -> memory-resident?
        resident: set[tuple[str, str]] = set()
        # (node, lane) -> block with an open copy interval
        copying: dict[tuple[str, str], str] = {}
        # block -> outstanding pending count (not yet bound/dropped)
        pending: dict[str, int] = defaultdict(int)

        for i, event in enumerate(self.events):
            etype, f = event.type, event.fields
            where = f"event #{i} t={event.time}"

            if etype == T.RUN_START:
                # A new simulated world: identifiers start over, so
                # carrying state across the boundary would fabricate
                # violations (and mask real ones).
                resident.clear()
                copying.clear()
                pending.clear()

            elif etype == T.PENDING:
                pending[f["block"]] += 1

            elif etype == T.BIND:
                block = f["block"]
                if pending[block] <= 0:
                    found.append(
                        f"{where}: bind of {block} on {f.get('node')} "
                        "with no outstanding pending (delayed binding "
                        "violated, §III-A1)"
                    )
                else:
                    pending[block] -= 1

            elif etype == T.DROPPED:
                block = f["block"]
                prior = f.get("status")
                if prior is not None and (prior, "discarded") not in LEGAL_TRANSITIONS:
                    found.append(
                        f"{where}: drop of {block} from status "
                        f"{prior!r} is not a legal transition "
                        "(record lattice violated, §III-A)"
                    )
                if prior == "pending" and pending[block] > 0:
                    pending[block] -= 1

            elif etype == T.MLOCK_START:
                key = (f["node"], f.get("source", "disk"))
                if key in copying:
                    found.append(
                        f"{where}: mlock_start of {f['block']} on "
                        f"{key[0]} lane={key[1]} while {copying[key]} "
                        "still copying (per-disk serialization "
                        "violated, §III-B)"
                    )
                copying[key] = f["block"]

            elif etype == T.MLOCK_DONE:
                key = (f["node"], f.get("source", "disk"))
                copying.pop(key, None)
                if f.get("dest", "memory") == "memory":
                    resident.add((f["node"], f["block"]))

            elif etype == T.MLOCK_ABORT:
                copying.pop((f["node"], f.get("source", "disk")), None)

            elif etype == T.PRELOAD:
                resident.add((f["node"], f["block"]))

            elif etype == T.READ_MEMORY:
                key = (f["node"], f["block"])
                if key not in resident:
                    found.append(
                        f"{where}: read_memory of {f['block']} on "
                        f"{f['node']} before its mlock_done (read "
                        "served from an unlocked buffer)"
                    )

            elif etype == T.BUFFER_RELEASE:
                if f.get("tier", "memory") == "memory":
                    resident.discard((f["node"], f["block"]))

            elif etype == T.EVICTED:
                key = (f["node"], f["block"])
                if key in resident:
                    found.append(
                        f"{where}: block {f['block']} evicted on "
                        f"{f['node']} while still memory-resident "
                        "(buffer not released, §III-C3)"
                    )

        return found

    def lifecycle_violations(self) -> list[str]:
        """Tier-move invariants (checks 8-10 above).

        Each ``tier_move`` event self-certifies with the post-move
        residency and replica ledger the lifecycle master computed from
        NameNode state; the checks hold every event to the contract, so
        a move that deleted its source before verifying, archived
        without a digest, or dropped the durable-copy count convicts
        itself.
        """
        found: list[str] = []
        for i, event in enumerate(self.events):
            etype, f = event.type, event.fields
            if etype not in (T.TIER_MOVE, T.TIER_MOVE_CORRUPT):
                continue
            where = f"event #{i} t={event.time}"
            block = f.get("block")
            resident = f.get("resident") or []
            if not resident:
                what = (
                    "corrupt move left"
                    if etype == T.TIER_MOVE_CORRUPT
                    else "move left"
                )
                found.append(
                    f"{where}: {what} block {block} resident in zero "
                    "tiers (source deleted before the copy was safe)"
                )
            if etype == T.TIER_MOVE_CORRUPT:
                # Verify-before-delete: nothing else to check; the
                # resident list above already convicts a lost source.
                continue
            if "archive" in resident and not f.get("checksum"):
                found.append(
                    f"{where}: block {block} archive-resident without "
                    "a recorded checksum (integrity model violated)"
                )
            after = f.get("replicas_after")
            if after is not None and after < 1:
                found.append(
                    f"{where}: move of block {block} left "
                    f"{after} durable copies (conservation violated)"
                )
            if f.get("dest") == "archive":
                target = f.get("target_replicas")
                if after is not None and target is not None and after != target:
                    found.append(
                        f"{where}: archive demotion of block {block} "
                        f"left {after} durable copies, target "
                        f"{target} (replication scheduler violated)"
                    )
        return found

    def shard_violations(self) -> list[str]:
        """Sharded-master invariants (no-op on unsharded traces).

        The ``shard_assign``/``shard_crash``/``shard_recover``/
        ``pull_leg_*`` vocabulary self-certifies the partitioning
        contract:

        11. **Single ownership** -- every ``shard_assign`` names an
            outstanding pending record, and a record admitted to one
            shard is not re-assigned until a ``bind`` or ``dropped``
            closes the first assignment.  Named shard ids must be in
            ``range(n_shards)``.
        12. **Fixed shard count** -- every SHARD_* event carries
            ``n_shards``; a segment where two events disagree convicts
            a mid-run reshard (which would silently re-home records).
        13. **Monotone incarnations** -- each ``shard_recover`` bumps
            that shard's generation by exactly one.
        14. **Window never exceeded** -- per (node, shard), open pull
            legs (``pull_leg_open`` minus ``pull_leg_close``)
            never exceed the window carried on the open event.  A
            ``slave_crash`` zeroes the node's counters: the old
            incarnation's closes still arrive, but the new epoch opens
            fresh legs against a fresh count.
        """
        found: list[str] = []
        pending: dict[str, int] = defaultdict(int)
        assigned: dict[str, int] = {}  # block -> owning shard
        n_shards: Optional[int] = None
        generations: dict[int, int] = {}
        open_legs: dict[tuple[int, int], int] = defaultdict(int)
        segment = 0

        def reset() -> None:
            nonlocal n_shards
            pending.clear()
            assigned.clear()
            generations.clear()
            open_legs.clear()
            n_shards = None

        for i, event in enumerate(self.events):
            etype, f = event.type, event.fields
            where = f"event #{i} t={event.time}"
            if etype == T.RUN_START:
                reset()
                segment += 1
                continue
            if etype == T.PENDING:
                pending[f["block"]] += 1
                continue
            if etype in (T.BIND, T.DROPPED):
                assigned.pop(f["block"], None)
                closes_pending = (
                    etype == T.BIND or f.get("status") == "pending"
                )
                if closes_pending and pending[f["block"]] > 0:
                    pending[f["block"]] -= 1
                continue
            if etype == T.SLAVE_CRASH:
                node = f.get("node")
                for key in [k for k in open_legs if k[0] == node]:
                    del open_legs[key]
                continue
            if etype == T.PULL_LEG_OPEN:
                key = (f["node"], f["shard"])
                open_legs[key] += 1
                window = f.get("window")
                if window is not None and open_legs[key] > window:
                    found.append(
                        f"{where}: node {key[0]} has {open_legs[key]} "
                        f"open pull legs to shard {key[1]}, window "
                        f"{window} (outstanding budget violated)"
                    )
                continue
            if etype == T.PULL_LEG_CLOSE:
                key = (f["node"], f["shard"])
                if open_legs[key] > 0:
                    open_legs[key] -= 1
                continue
            if etype not in (T.SHARD_ASSIGN, T.SHARD_CRASH, T.SHARD_RECOVER):
                continue

            count = f.get("n_shards")
            if n_shards is None:
                n_shards = count
            elif count != n_shards:
                found.append(
                    f"{where}: segment {segment} shard count changed "
                    f"{n_shards} -> {count} (resharding mid-run "
                    "re-homes records)"
                )
            shard = f.get("shard")
            if count is not None and not 0 <= shard < count:
                found.append(
                    f"{where}: shard id {shard} outside "
                    f"range({count})"
                )
            if etype == T.SHARD_ASSIGN:
                block = f["block"]
                if block in assigned:
                    found.append(
                        f"{where}: block {block} assigned to shard "
                        f"{shard} while shard {assigned[block]} still "
                        "owns it (single ownership violated)"
                    )
                elif pending[block] <= 0:
                    found.append(
                        f"{where}: shard_assign of {block} with no "
                        "outstanding pending record"
                    )
                assigned[block] = shard
            elif etype == T.SHARD_RECOVER:
                generation = f.get("generation")
                prior = generations.get(shard, 0)
                if generation != prior + 1:
                    found.append(
                        f"{where}: shard {shard} recovered at "
                        f"generation {generation}, expected {prior + 1}"
                    )
                generations[shard] = generation
        return found

    def liveness_violations(
        self, final_memory_bytes: Optional[float] = None
    ) -> list[str]:
        """Chaos liveness + conservation checks (5 and 6 above).

        These only hold once the system has *quiesced* -- run them on a
        trace captured after all jobs drained and every scheduled
        recovery fired, not mid-flight (an open record mid-run is just
        work in progress).

        ``final_memory_bytes`` (optional, single-run traces): the
        actual pinned-byte total at quiesce, e.g.
        ``cluster.total_memory_used()``.  The ledger built from
        ``mlock_done``/``preload`` minus ``buffer_release`` must agree
        with it exactly; a crash path that unpins without tracing (or
        traces without unpinning) breaks the equality.
        """
        found: list[str] = []
        # block -> records opened by PENDING and not yet closed
        open_records: dict[str, int] = defaultdict(int)
        # (node, block) -> bytes resident per the trace ledger
        ledger: dict[tuple[str, str], float] = {}
        segment = 0

        def close_segment() -> None:
            for block, n in sorted(open_records.items()):
                if n > 0:
                    found.append(
                        f"segment {segment}: record for {block} never "
                        f"reached a terminal state ({n} still open at "
                        "quiesce -- stranded binding or lost pending)"
                    )

        for event in self.events:
            etype, f = event.type, event.fields
            if etype == T.RUN_START:
                close_segment()
                open_records.clear()
                ledger.clear()
                segment += 1
            elif etype == T.PENDING:
                open_records[f["block"]] += 1
            elif etype == T.DROPPED:
                # Any drop closes exactly one open record, whatever
                # status it had reached (pending, bound, or active).
                if open_records[f["block"]] > 0:
                    open_records[f["block"]] -= 1
            elif etype == T.MLOCK_DONE:
                if open_records[f["block"]] > 0:
                    open_records[f["block"]] -= 1
                if f.get("dest", "memory") == "memory" and "nbytes" in f:
                    ledger[(f["node"], f["block"])] = f["nbytes"]
            elif etype == T.PRELOAD:
                if "nbytes" in f:
                    ledger[(f["node"], f["block"])] = f["nbytes"]
            elif etype == T.BUFFER_RELEASE:
                if f.get("tier", "memory") != "memory":
                    continue
                key = (f["node"], f["block"])
                entered = ledger.pop(key, None)
                released = f.get("nbytes")
                if (
                    entered is not None
                    and released is not None
                    and abs(released - entered) > 1e-6
                ):
                    found.append(
                        f"segment {segment}: {f['block']} on "
                        f"{f['node']} released {released} bytes but "
                        f"{entered} entered memory (conservation)"
                    )
        close_segment()
        if final_memory_bytes is not None:
            total = sum(ledger.values())
            if abs(total - final_memory_bytes) > 1e-6:
                found.append(
                    f"conservation: trace ledger holds {total} resident "
                    f"bytes but memory actually pins {final_memory_bytes}"
                )
        return found

    def check_all(self) -> None:
        """Raise :class:`InvariantViolation` listing every violation
        (protocol checks 1-4/7, lifecycle checks 8-10, and shard
        checks 11-13)."""
        found = (
            self.violations()
            + self.lifecycle_violations()
            + self.shard_violations()
        )
        if found:
            raise InvariantViolation(
                f"{len(found)} trace invariant violation(s):\n"
                + "\n".join(f"  - {v}" for v in found)
            )

    def check_liveness(self, final_memory_bytes: Optional[float] = None) -> None:
        """Raise on any liveness/conservation violation (see
        :meth:`liveness_violations`)."""
        found = self.liveness_violations(final_memory_bytes)
        if found:
            raise InvariantViolation(
                f"{len(found)} liveness invariant violation(s):\n"
                + "\n".join(f"  - {v}" for v in found)
            )
