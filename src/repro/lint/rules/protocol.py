"""Protocol state-machine rule: the §III migration-record lattice.

``PENDING -> BOUND -> ACTIVE -> DONE -> EVICTED`` with ``DISCARDED``
reachable from any non-terminal state is the paper's record lifecycle
(§III-A/§III-C).  The ``mark_*`` guards in ``core/records.py`` enforce
it at runtime, and ``tests/core/test_records.py`` runs every guard
from every status to hold them equal to the trace checker's
``LEGAL_TRANSITIONS``.  What no test can see is a caller that skips
the guards, so one rule closes that gap:

* **SM201 status-assignment** -- outside ``records.py`` nothing may
  assign ``<record>.status = MigrationStatus.X`` directly: that
  bypasses the ``mark_*`` guards and can fabricate an illegal
  transition that no runtime check will see (the guards *are* the
  check).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.runner import ModuleContext


@register
class StatusAssignmentRule(Rule):
    id = "SM201"
    name = "status-assignment"
    description = "record states change only through the mark_* guards"
    hint = (
        "call record.mark_bound/mark_active/mark_done/mark_discarded/"
        "mark_evicted so the transition guard runs"
    )
    scopes = ("core", "lifecycle")

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if ctx.parts[-2:] == ("core", "records.py"):
            return  # the mark_* bodies themselves
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr == "status":
                    value = getattr(node, "value", None)
                    if (
                        isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "MigrationStatus"
                    ):
                        yield self.diagnostic(
                            ctx.path,
                            node.lineno,
                            node.col_offset,
                            f"direct status assignment to MigrationStatus."
                            f"{value.attr} bypasses the transition guards",
                        )
