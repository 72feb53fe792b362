"""Def-use chains, guard recognition, and may-yield summaries.

Built on the per-function CFG (:mod:`repro.lint.cfg`), this module
answers the one question the sim-race rules keep asking: *can control
flow from this definition to this use while crossing a yield barrier
without passing a recognized revalidation guard?*

Three registries parameterize the analysis, each extensible by
naming the conventions the codebase already follows instead of
hard-wiring one call site:

* :data:`PROTOCOL_STATE_ATTRS` -- attribute names that hold shared
  mutable protocol state (the pending/record maps the SM201/SM203
  encapsulation rules already police, the load and liveness maps, the
  NameNode directories).  A value *derived from* one of these is what
  can go stale across a yield.
* :data:`GUARD_TOKENS` -- identifier fragments whose appearance in a
  branch test marks it as a revalidation guard: epoch/generation
  compares, ``alive``/``is_available`` checks, record ``status``
  re-checks, ``_pull_space`` recomputation, ``triggered`` event
  state.
* :data:`MUTATOR_METHODS` -- method names that mutate a container in
  place; a call through a protocol-state attribute
  (``self._pending.pop(...)``) is an actuation of shared state.

Interprocedural summary
-----------------------

:func:`may_yield_functions` computes, per module, the set of
function/method names that may suspend: direct ``yield``/``yield
from``, plus one propagation level -- a function whose body does
``yield from self.helper()`` or spawns ``sim.process(self.helper())``
carries its callee's may-yield (DESIGN §14).  The sim-race rules use
the summary to pick which functions get the CFG treatment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.lint.cfg import CFG, FunctionNode, contains_yield

__all__ = [
    "GUARD_TOKENS",
    "MUTATOR_METHODS",
    "PROTOCOL_STATE_ATTRS",
    "StalePath",
    "TaintedDef",
    "guard_in",
    "may_yield_functions",
    "names_read",
    "names_written",
    "protocol_reads",
    "protocol_mutation",
    "stale_paths",
    "tainted_defs",
    "unguarded_from_entry",
]

#: Attribute names holding shared mutable protocol state.  Mirrors the
#: encapsulation surface SM201/SM203 already classify: record ledgers,
#: pending pools, shard maps, per-slave load/liveness views (including
#: the heartbeat harvest's live, changed and copying sets), and the
#: NameNode's residency directory.
PROTOCOL_STATE_ATTRS = frozenset(
    {
        "_pending",
        "_records",
        "_shards",
        "_loads",
        "_last_slave_report",
        "_live_slaves",
        "_changed_slaves",
        "_copying_slaves",
        "_inflight_by_node",
        "_parked",
        "slaves",
        "datanodes",
        "directory",
    }
)

#: Identifier fragments that mark a branch test as a revalidation
#: guard (substring match, case-insensitive): re-checking liveness,
#: fencing on epoch/generation, re-reading record status, or
#: recomputing space from live state.
GUARD_TOKENS = (
    "epoch",
    "generation",
    "alive",
    "is_available",
    "triggered",
    "status",
    "_pull_space",
)

#: In-place container mutators: a call through a protocol-state
#: attribute counts as actuating shared state.
MUTATOR_METHODS = frozenset(
    {
        "pop",
        "popitem",
        "push",
        "append",
        "appendleft",
        "add",
        "admit",
        "remove",
        "discard",
        "clear",
        "update",
        "setdefault",
        "extend",
        "insert",
        "reindex",
        "requeue",
    }
)

_NEW_SCOPE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if not isinstance(child, _NEW_SCOPE):
                stack.append(child)


def _header_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """The expressions a compound statement's CFG node evaluates.

    Body statements have their own nodes, so reads/writes inside them
    must not be attributed to the header.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: list[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def names_read(stmt: ast.stmt) -> set[str]:
    """Local names loaded by this CFG node (header-only for compounds)."""
    read: set[str] = set()
    for root in _header_exprs(stmt):
        for node in _walk_same_scope(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    return read


def names_written(stmt: ast.stmt) -> set[str]:
    """Local names (re)bound by this CFG node."""
    written: set[str] = set()
    for root in _header_exprs(stmt):
        for node in _walk_same_scope(root):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                written.add(node.id)
            elif isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                written.add(node.target.id)
    return written


def protocol_reads(
    expr: ast.AST, state_attrs: frozenset[str] = PROTOCOL_STATE_ATTRS
) -> list[str]:
    """Protocol-state attribute names read anywhere inside ``expr``."""
    found: list[str] = []
    for node in _walk_same_scope(expr):
        if isinstance(node, ast.Attribute) and node.attr in state_attrs:
            found.append(node.attr)
    return found


def guard_in(stmt: ast.stmt, tokens: tuple[str, ...] = GUARD_TOKENS) -> bool:
    """Whether this CFG node evaluates a revalidation guard.

    Branch tests (``if``/``while``), assertions, and bare guard calls
    count; loading fresh liveness/epoch state anywhere in the node's
    own expressions is what makes the post-yield action informed.
    """
    roots: list[ast.AST]
    if isinstance(stmt, (ast.If, ast.While)):
        roots = [stmt.test]
    elif isinstance(stmt, ast.Assert):
        roots = [stmt.test]
    elif isinstance(stmt, ast.Expr):
        roots = [stmt.value]
    else:
        return False
    for root in roots:
        for node in _walk_same_scope(root):
            ident = None
            if isinstance(node, ast.Attribute):
                ident = node.attr
            elif isinstance(node, ast.Name):
                ident = node.id
            if ident is not None:
                lowered = ident.lower()
                if any(token in lowered for token in tokens):
                    return True
    return False


@dataclass(frozen=True)
class TaintedDef:
    """A local variable bound from shared protocol state."""

    node_index: int
    name: str
    #: The protocol-state attribute the value derives from.
    source: str


def tainted_defs(
    cfg: CFG, state_attrs: frozenset[str] = PROTOCOL_STATE_ATTRS
) -> list[TaintedDef]:
    """Definitions whose right-hand side reads protocol state.

    Covers plain/annotated/augmented assignments, tuple unpacking, and
    ``for`` targets iterating a protocol-state container.
    """
    defs: list[TaintedDef] = []
    for node in cfg.nodes:
        stmt = node.stmt
        value: Optional[ast.AST] = None
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        elif isinstance(stmt, ast.AugAssign):
            value, targets = stmt.value, [stmt.target]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            value, targets = stmt.iter, [stmt.target]
        if value is None:
            continue
        sources = protocol_reads(value, state_attrs)
        if not sources:
            continue
        for target in targets:
            for inner in ast.walk(target):
                if isinstance(inner, ast.Name) and isinstance(
                    inner.ctx, ast.Store
                ):
                    defs.append(TaintedDef(node.index, inner.id, sources[0]))
    return defs


@dataclass(frozen=True)
class StalePath:
    """A def-to-use path crossing an unguarded yield barrier."""

    use_index: int
    barrier_line: int


def _use_in_node(stmt: ast.stmt, name: str) -> bool:
    return name in names_read(stmt)


def stale_paths(
    cfg: CFG,
    definition: TaintedDef,
    tokens: tuple[str, ...] = GUARD_TOKENS,
) -> list[StalePath]:
    """Uses of ``definition`` reachable across an unguarded barrier.

    Walks the CFG from the definition with a three-state frontier
    ``(node, crossed_barrier, guarded_since_barrier)``:

    * crossing a barrier node sets ``crossed`` and *resets* the guard
      (a guard before a second yield proves nothing about the second);
    * passing a guard node after a barrier sets ``guarded``;
    * a node that rebinds the variable kills the path (re-reading is
      exactly the sanctioned fix) -- but its own reads happen first,
      so ``x = refresh(x)`` still reports the stale ``x`` read;
    * reaching a node that reads the variable in state
      ``(crossed=True, guarded=False)`` is a finding.

    Reads *within a barrier statement* happen before the suspension
    (``yield f(x)`` sends a fresh ``x``), so the node's own barrier
    effect applies after its read/kill checks.
    """
    name = definition.name
    findings: dict[int, int] = {}  # use node -> barrier line
    # State: (node, crossed, guarded); barrier line carried per path.
    start = cfg.nodes[definition.node_index]
    seen: set[tuple[int, bool, bool]] = set()
    stack: list[tuple[int, bool, bool, int]] = []

    def push(index: int, crossed: bool, guarded: bool, barrier_line: int) -> None:
        if index == CFG.EXIT:
            return
        key = (index, crossed, guarded)
        if key not in seen:
            seen.add(key)
            stack.append((index, crossed, guarded, barrier_line))

    # The definition's own statement may itself be a barrier (``x =
    # yield from f()``): the binding happens *after* resuming, so
    # successors start un-crossed either way.
    for succ in start.succs:
        push(succ, False, False, 0)

    while stack:
        index, crossed, guarded, barrier_line = stack.pop()
        node = cfg.nodes[index]
        stmt = node.stmt
        # A guard node's own read of the variable IS the revalidation
        # (``if not slave.alive: continue``) -- never a stale use.
        if (
            crossed
            and not guarded
            and _use_in_node(stmt, name)
            and not guard_in(stmt, tokens)
        ):
            findings.setdefault(index, barrier_line)
        if name in names_written(stmt):
            continue  # rebound: downstream uses see the fresh value
        if node.is_barrier:
            crossed, guarded = True, False
            barrier_line = node.line
        elif crossed and guard_in(stmt, tokens):
            guarded = True
        for succ in node.succs:
            push(succ, crossed, guarded, barrier_line)
    return [
        StalePath(use_index=index, barrier_line=line)
        for index, line in sorted(findings.items())
    ]


def protocol_mutation(
    stmt: ast.stmt, state_attrs: frozenset[str] = PROTOCOL_STATE_ATTRS
) -> Optional[str]:
    """The protocol-state attribute this node mutates, if any.

    Recognizes subscript/attribute stores through a protocol-state
    attribute (``self._pending[k] = r``, ``del self._records[k]``)
    and in-place mutator calls (``self._pending.pop(k)``).
    """
    for root in _header_exprs(stmt):
        for node in _walk_same_scope(root):
            if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                sources = protocol_reads(node, state_attrs)
                if sources:
                    return sources[0]
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
            ):
                sources = protocol_reads(node.func.value, state_attrs)
                if sources:
                    return sources[0]
    return None


def unguarded_from_entry(
    cfg: CFG,
    tokens: tuple[str, ...] = GUARD_TOKENS,
) -> dict[int, int]:
    """Nodes reachable from entry across an unguarded barrier.

    Returns ``{node index: barrier line}`` for every node some path
    reaches with a crossed, unrevalidated yield -- the reachability
    core of SIM502 (unfenced actuation).
    """
    if cfg.entry is None:
        return {}
    reached: dict[int, int] = {}
    seen: set[tuple[int, bool, bool]] = set()
    stack: list[tuple[int, bool, bool, int]] = [(cfg.entry, False, False, 0)]
    seen.add((cfg.entry, False, False))
    while stack:
        index, crossed, guarded, barrier_line = stack.pop()
        node = cfg.nodes[index]
        if crossed and not guarded:
            reached.setdefault(index, barrier_line)
        if node.is_barrier:
            crossed, guarded = True, False
            barrier_line = node.line
        elif crossed and guard_in(node.stmt, tokens):
            guarded = True
        for succ in node.succs:
            if succ == CFG.EXIT:
                continue
            key = (succ, crossed, guarded)
            if key not in seen:
                seen.add(key)
                stack.append((succ, crossed, guarded, barrier_line))
    return reached


# -- interprocedural may-yield summary --------------------------------------


def _direct_yield(func: FunctionNode) -> bool:
    return any(contains_yield(stmt) for stmt in func.body)


def _spawn_callees(func: FunctionNode) -> set[str]:
    """Names of local callees spawned via ``sim.process(callee(...))``."""
    callees: set[str] = set()
    for node in _walk_same_scope(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "process"
        ):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Call):
                inner = arg.func
                if isinstance(inner, ast.Name):
                    callees.add(inner.id)
                elif isinstance(inner, ast.Attribute):
                    callees.add(inner.attr)
    return callees


def _yield_from_callees(func: FunctionNode) -> set[str]:
    callees: set[str] = set()
    for node in _walk_same_scope(func):
        if isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
            inner = node.value.func
            if isinstance(inner, ast.Name):
                callees.add(inner.id)
            elif isinstance(inner, ast.Attribute):
                callees.add(inner.attr)
    return callees


def may_yield_functions(tree: ast.Module) -> dict[str, bool]:
    """Per-module may-yield summary, one propagation level deep.

    Keys are bare function/method names (the codebase never overloads
    a generator name across classes in one module).  A function
    may-yield when it yields directly, or when it ``yield from``-s or
    ``sim.process(...)``-spawns a local callee that yields directly --
    the one-level interprocedural summary of DESIGN §14.
    """
    funcs: dict[str, FunctionNode] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs.setdefault(node.name, node)
    direct = {name: _direct_yield(func) for name, func in funcs.items()}
    # Propagate against the *direct* summary so the result is exactly
    # one level deep regardless of definition order.
    summary = dict(direct)
    for name, func in funcs.items():
        if direct[name]:
            continue
        callees = _yield_from_callees(func) | _spawn_callees(func)
        if any(direct.get(callee, False) for callee in callees):
            summary[name] = True
    return summary
