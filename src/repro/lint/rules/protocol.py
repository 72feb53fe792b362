"""Protocol state-machine rules: the §III migration-record lattice.

``PENDING -> BOUND -> ACTIVE -> DONE -> EVICTED`` with ``DISCARDED``
reachable from any non-terminal state is the paper's record lifecycle
(§III-A/§III-C); both the runtime guards in ``core/records.py`` and
the trace checker in ``obs/invariants.py`` encode it.  Two rules keep
every encoding honest:

* **SM201 status-assignment** -- outside ``records.py`` nothing may
  assign ``<record>.status = MigrationStatus.X`` directly: that
  bypasses the ``mark_*`` guards and can fabricate an illegal
  transition that no runtime check will see (the guards *are* the
  check).
* **SM202 transition-table-drift** -- the lattice statically
  extracted from the ``mark_*`` guards must equal
  :data:`repro.obs.invariants.LEGAL_TRANSITIONS`, the table the
  runtime trace checker enforces.  A transition added to one side
  and not the other means the static table and the runtime checker
  have drifted -- exactly the bug class this rule exists to block.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.runner import ModuleContext, Project
from repro.lint.statemachine import ExtractionError, extract_lattice_from_source


@register
class StatusAssignmentRule(Rule):
    id = "SM201"
    name = "status-assignment"
    description = "record states change only through the mark_* guards"
    hint = (
        "call record.mark_bound/mark_active/mark_done/mark_discarded/"
        "mark_evicted so the transition guard runs"
    )
    scopes = ("core", "tiers", "lifecycle")

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


@register
class TransitionTableDriftRule(Rule):
    id = "SM202"
    name = "transition-table-drift"
    description = "static lattice == runtime checker's transition table"
    hint = (
        "reconcile core/records.py mark_* guards with "
        "obs/invariants.py LEGAL_TRANSITIONS (both must describe the "
        "same §III lattice)"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        ctx = project.find("core", "records.py")
        if ctx is None:
            return  # records module not part of this run
        # Imported lazily so the lint package stays usable on partial
        # trees (e.g. fixtures) where repro.obs may be absent.
        from repro.obs.invariants import LEGAL_TRANSITIONS

        try:
            extracted = extract_lattice_from_source("\n".join(ctx.lines))
        except ExtractionError as exc:
            yield self.diagnostic(
                ctx.path, 1, 0, f"state-lattice extraction failed: {exc}"
            )
            return
        for src, dst in sorted(extracted - LEGAL_TRANSITIONS):
            yield self.diagnostic(
                ctx.path,
                1,
                0,
                f"transition {src}->{dst} is legal at runtime but missing "
                "from obs/invariants.py LEGAL_TRANSITIONS",
            )
        for src, dst in sorted(LEGAL_TRANSITIONS - extracted):
            yield self.diagnostic(
                ctx.path,
                1,
                0,
                f"transition {src}->{dst} is in obs/invariants.py "
                "LEGAL_TRANSITIONS but no mark_* guard allows it",
            )
