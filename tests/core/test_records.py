"""The record lattice, checked by running its guards.

Every ``mark_*`` guard of :class:`MigrationRecord` is called on a
record in each of the six statuses.  The ``(from, to)`` pairs the
guards accept must be exactly the trace checker's
:data:`~repro.obs.invariants.LEGAL_TRANSITIONS`: a guard that accepts
a transition outside the §III lattice, or refuses one inside it,
fails here.  The checker keeps its own copy of the table, so the two
encodings stay independent and this test holds them equal.
"""

from repro.core.records import MigrationRecord, MigrationStatus
from repro.dfs.block import Block
from repro.obs.invariants import LEGAL_TRANSITIONS

#: The arguments each guard is called with.
GUARD_ARGS = {
    "mark_bound": (0, 1.0),
    "mark_active": (1.0,),
    "mark_done": (1.0,),
    "mark_discarded": (1.0, "test"),
    "mark_evicted": (),
}


def record_in(status: MigrationStatus) -> MigrationRecord:
    block = Block(7, "f", 0, size=1.0, replica_nodes=(0,))
    return MigrationRecord(block=block, requested_at=0.0, status=status)


def accepted_transitions() -> set[tuple[str, str]]:
    accepted = set()
    for status in MigrationStatus:
        for guard, args in GUARD_ARGS.items():
            record = record_in(status)
            try:
                getattr(record, guard)(*args)
            except RuntimeError:
                continue
            accepted.add((status.value, record.status.value))
    return accepted


def test_every_guard_is_exercised():
    guards = {name for name in dir(MigrationRecord) if name.startswith("mark_")}
    assert guards == set(GUARD_ARGS)


def test_guards_accept_exactly_the_legal_transitions():
    assert accepted_transitions() == LEGAL_TRANSITIONS


def test_a_refused_transition_leaves_the_record_unchanged():
    for status in MigrationStatus:
        for guard, args in GUARD_ARGS.items():
            record = record_in(status)
            try:
                getattr(record, guard)(*args)
            except RuntimeError:
                assert record == record_in(status), (guard, status)
