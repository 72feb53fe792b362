"""``dyrs-lint``: domain-specific static analysis for the reproduction.

The simulator's headline guarantees -- bit-for-bit determinism, the
§III migration-record lattice, observability that cannot perturb paper
schemes -- are runtime-checked by the trace invariants and the chaos
campaigns, but those only convict a regression after a soak.  This
package catches the same bug classes at *analysis* time, FindBugs
style: an AST pass with a rule registry, per-line/per-file suppression
comments (``# simlint: disable=RULE``), structured diagnostics, and a
``dyrs-lint`` CLI that gates CI.

See :mod:`repro.lint.rules` for the rule battery and DESIGN §9 for the
rationale mapping each rule to the paper section it protects.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, all_rules, get_rule, register
from repro.lint.runner import LintReport, lint_paths

__all__ = [
    "Diagnostic",
    "LintReport",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register",
]

# Imported last: each rule module registers itself through
# ``repro.lint.registry``, so the package is complete on import.
import repro.lint.rules  # noqa: E402, F401
