"""Virtual-time hygiene rules.

The fair-share kernel (PR 2) made simulated time an arithmetic object:
virtual finish tags, deadlines, and wake-up times are accumulated
floats.  Two habits that are harmless elsewhere corrupt such a
system:

* **VT401 float-time-equality** -- ``==``/``!=`` on accumulated float
  timestamps is order-of-operations dependent; two mathematically
  equal times can differ in the last ulp and silently take the wrong
  branch.  Compare with ``<``/``>=`` against an epsilon-free ordering
  (the engine's heap already totally orders ties by sequence number),
  or restructure so identity, not equality, decides.
* **VT402 heapq-outside-engine** -- the event heap's ordering
  contract (``(time, priority, seq)`` with a global sequence counter)
  lives in ``sim/engine.py``; mutating heaps through ``heapq``
  elsewhere re-implements that contract and has historically
  re-introduced tie-ordering nondeterminism.  Kernel-internal heaps
  that are *not* the event queue (the bandwidth kernel's
  virtual-finish heap, the resource queue) are legitimate exceptions
  -- they carry a file-level ``# simlint: disable-file=VT402`` with a
  justification.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.runner import ModuleContext

_SIM_SCOPES = ("sim", "core", "dfs", "cluster", "lifecycle")

#: Identifiers that denote a point in virtual time.
_TIME_NAMES = {"now", "when", "deadline", "vtime", "vfinish"}
_TIME_SUFFIXES = ("_at", "_time", "_deadline", "_vfinish", "_until", "_vtime")

_HEAP_MUTATORS = {"heappush", "heappop", "heapify", "heapreplace", "heappushpop"}


def _timeish_name(name: str) -> bool:
    stripped = name.lstrip("_")
    return stripped in _TIME_NAMES or any(
        name.endswith(suffix) for suffix in _TIME_SUFFIXES
    )


def _is_time_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return _timeish_name(node.id)
    if isinstance(node, ast.Attribute):
        return _timeish_name(node.attr)
    return False


@register
class FloatTimeEqualityRule(Rule):
    id = "VT401"
    name = "float-time-equality"
    description = "no ==/!= on accumulated virtual-time floats"
    hint = (
        "order with </>= (ties are already broken by the engine's "
        "sequence numbers) or compare identities, not float equality"
    )
    scopes = _SIM_SCOPES

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(
                    isinstance(o, ast.Constant) and o.value is None
                    for o in (left, right)
                ):
                    continue  # `x == None` is an identity check, not float eq
                if _is_time_expr(left) or _is_time_expr(right):
                    yield self.diagnostic(
                        ctx.path,
                        node.lineno,
                        node.col_offset,
                        "float equality on a virtual-time value "
                        "(last-ulp drift takes the wrong branch)",
                    )
                    break


@register
class HeapqOutsideEngineRule(Rule):
    id = "VT402"
    name = "heapq-outside-engine"
    description = "event-ordering heaps are mutated only by the engine"
    hint = (
        "schedule through Simulator.call_at/_schedule, or -- for a "
        "kernel-internal heap that is not the event queue -- add a "
        "file-level `# simlint: disable-file=VT402 -- <why>`"
    )
    scopes = _SIM_SCOPES

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if ctx.parts[-2:] == ("sim", "engine.py"):
            return  # the engine owns the event heap
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else ""
            )
            if name in _HEAP_MUTATORS:
                yield self.diagnostic(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    f"direct heapq.{name} outside sim/engine.py "
                    "(re-implements the event-ordering contract)",
                )
