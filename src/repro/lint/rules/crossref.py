"""Cross-artifact consistency: trace vocabulary and config knobs.

Each rule reads two artifacts that must agree and convicts drift
between them, across the observability and configuration surface:

* **OBS302 trace-vocab-drift** -- every event type passed to
  ``trace.emit`` must be a constant declared in the ``obs/trace.py``
  vocabulary, and (vice versa) every declared constant must be
  emitted somewhere in the linted tree.  Event types reach ``emit``
  three ways, all resolved: a direct ``obs.X`` attribute, a string
  literal, or a local variable bound (possibly conditionally) to
  vocabulary attributes -- the ``etype = obs.READ_SSD if ... else
  obs.READ_DISK`` idiom of the datanode read path.
* **CFG601 unvalidated-knob** -- every configuration knob (a
  :class:`~repro.core.master.DyrsConfig`,
  :class:`~repro.lifecycle.master.TierConfig` or
  :class:`~repro.compute.runtime.ComputeConfig` dataclass field, or a
  module-level ``use_*`` registry context manager) must be referenced
  by at least one file under ``tests/`` and documented in
  ``DESIGN.md``.  An untested knob is a code path nothing exercises;
  an undocumented one is a behavior nobody agreed to.  The repo root
  is located by walking up from the config module until a directory
  holding both ``tests/`` and ``DESIGN.md`` appears, so the rule
  works unchanged on fixture trees.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Optional

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.runner import ModuleContext, Project


def _is_emit_call(node: ast.Call, ctx: ModuleContext) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ctx.emit_names
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "emit"
        and isinstance(func.value, ast.Name)
        and func.value.id in ctx.trace_aliases
    )


def _vocabulary(ctx: ModuleContext) -> dict[str, tuple[str, int]]:
    """``NAME -> (value, lineno)`` for the trace module's constants."""
    vocab: dict[str, tuple[str, int]] = {}
    for node in ctx.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            vocab[node.targets[0].id] = (node.value.value, node.lineno)
    return vocab


def _enclosing_function(
    ctx: ModuleContext, node: ast.AST
) -> Optional[ast.AST]:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def _event_tokens(
    arg: ast.expr, ctx: ModuleContext, scope: Optional[ast.AST]
) -> list[tuple[str, str]]:
    """Resolve an emit call's event argument to vocabulary tokens.

    Returns ``(kind, token)`` pairs: ``("attr", NAME)`` for an
    ``obs.NAME`` reference, ``("literal", value)`` for a string
    literal.  A plain name is resolved one hop through assignments in
    the enclosing function (conditional bindings contribute every
    branch); anything unresolvable resolves to nothing, which the
    caller treats as out of the rule's reach.
    """
    if isinstance(arg, ast.Attribute):
        if isinstance(arg.value, ast.Name) and arg.value.id in ctx.trace_aliases:
            return [("attr", arg.attr)]
        return []
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return [("literal", arg.value)]
    if isinstance(arg, ast.IfExp):
        return _event_tokens(arg.body, ctx, scope) + _event_tokens(
            arg.orelse, ctx, scope
        )
    if isinstance(arg, ast.Name):
        tokens: list[tuple[str, str]] = []
        if scope is not None:
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == arg.id
                ):
                    tokens.extend(_event_tokens(node.value, ctx, scope))
        return tokens
    return []


@register
class TraceVocabDriftRule(Rule):
    id = "OBS302"
    name = "trace-vocab-drift"
    description = "emit sites and the obs/trace.py vocabulary agree both ways"
    hint = (
        "declare the event as a constant in obs/trace.py (and emit "
        "through it), or delete the dead vocabulary entry; the "
        "analyzer and invariant checker only see declared events"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        trace_ctx = project.find("obs", "trace.py")
        if trace_ctx is None:
            return
        vocab = _vocabulary(trace_ctx)
        values = {value for value, _ in vocab.values()}
        emitted: set[str] = set()

        for ctx in project.modules:
            if ctx is trace_ctx:
                continue
            if not ctx.trace_aliases and not ctx.emit_names:
                continue
            for node in ast.walk(ctx.tree):
                if not (isinstance(node, ast.Call) and _is_emit_call(node, ctx)):
                    continue
                if not node.args:
                    continue
                scope = _enclosing_function(ctx, node)
                for kind, token in _event_tokens(node.args[0], ctx, scope):
                    if kind == "attr":
                        if token in vocab:
                            emitted.add(token)
                        else:
                            yield self.diagnostic(
                                ctx.path,
                                node.lineno,
                                node.col_offset,
                                f"emit of `{token}`: not declared in the "
                                "obs/trace.py event vocabulary",
                            )
                    else:
                        if token in values:
                            emitted.update(
                                name
                                for name, (value, _) in vocab.items()
                                if value == token
                            )
                        else:
                            yield self.diagnostic(
                                ctx.path,
                                node.lineno,
                                node.col_offset,
                                f"emit of string literal {token!r}: not a "
                                "declared obs/trace.py event value",
                            )

        for name in sorted(vocab):
            if name not in emitted:
                _, lineno = vocab[name]
                yield self.diagnostic(
                    trace_ctx.path,
                    lineno,
                    0,
                    f"vocabulary entry `{name}` is dead: no emit site in "
                    "the linted tree ever produces it",
                )


#: The dataclasses whose fields are configuration knobs.
_CONFIG_CLASSES = ("DyrsConfig", "TierConfig", "ComputeConfig")


def _config_fields(project: Project) -> dict[str, tuple[str, int]]:
    """``field -> (path, line)`` over every linted config dataclass."""
    knobs: dict[str, tuple[str, int]] = {}
    for ctx in project.modules:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and node.name in _CONFIG_CLASSES:
                knobs.update(
                    (stmt.target.id, (ctx.path, stmt.lineno))
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                )
    return knobs


def _registry_knobs(project: Project) -> dict[str, tuple[str, int]]:
    """Module-level ``use_*`` registry hooks: ``name -> (path, line)``."""
    knobs: dict[str, tuple[str, int]] = {}
    for ctx in project.modules:
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("use_"):
                knobs[node.name] = (ctx.path, node.lineno)
    return knobs


def _find_root(start: Path) -> Optional[Path]:
    for parent in start.resolve().parents:
        if (parent / "tests").is_dir() and (parent / "DESIGN.md").is_file():
            return parent
    return None


@register
class UnvalidatedKnobRule(Rule):
    id = "CFG601"
    name = "unvalidated-knob"
    description = "every config/registry knob is tested and documented"
    hint = (
        "add a test referencing the knob (its validation bounds are "
        "the cheapest) and a row in the DESIGN.md knob table"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        knobs = _config_fields(project)
        knobs.update(_registry_knobs(project))
        if not knobs:
            return
        root = _find_root(Path(next(iter(knobs.values()))[0]))
        if root is None:
            return  # no surrounding repo (bare fixture run): nothing to check
        tests_text = "\n".join(
            path.read_text()
            for path in sorted((root / "tests").rglob("*.py"))
        )
        design_text = (root / "DESIGN.md").read_text()
        for name in sorted(knobs):
            path, line = knobs[name]
            if name not in tests_text:
                yield self.diagnostic(
                    path,
                    line,
                    0,
                    f"config knob `{name}` is referenced by no test under "
                    "tests/ (nothing exercises this code path)",
                )
            if name not in design_text:
                yield self.diagnostic(
                    path,
                    line,
                    0,
                    f"config knob `{name}` is not documented in DESIGN.md",
                )
