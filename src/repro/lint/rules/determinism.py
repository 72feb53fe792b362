"""Determinism rules: the simulation must be a pure function of seed.

The reproduction's first claim is bit-for-bit reproducibility: two
runs with the same config and root seed produce identical traces,
schedules, and figures (DESIGN §5, ROADMAP "seed tests").  Three bug
classes silently break that:

* **SIM101 wall-clock** -- ``time``/``datetime`` reads make event
  timing depend on the host.  Simulated components must take time
  from ``sim.now`` only.
* **SIM102 unseeded-rng** -- ``random`` or direct ``numpy.random``
  construction bypasses the named-stream registry
  (:class:`repro.sim.rng.RngRegistry`), so draws depend on import
  order or global state instead of the root seed.
* **SIM103 unordered-iteration** -- iterating a ``set`` expression
  feeds hash order into whatever the loop schedules.  Python salts
  ``str`` hashes per process, so event ordering downstream of such a
  loop differs run to run.  (``dict`` iteration is insertion-ordered
  and therefore deterministic; only sets are flagged.  A set-typed
  *variable* is invisible to a syntactic pass -- this catches set
  literals, comprehensions, constructors, and set-algebra results.)

Scope: the simulation packages (``sim``, ``core``, ``dfs``,
``cluster``, ``lifecycle``).  Experiments and analysis code may read
the wall clock for progress reporting; the simulated world may not.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.runner import ModuleContext

_SIM_SCOPES = ("sim", "core", "dfs", "cluster", "lifecycle")

_CLOCK_MODULES = {"time", "datetime"}
_RANDOM_MODULES = {"random"}
#: ``numpy.random`` attributes that are legal outside ``sim/rng.py``:
#: type annotations and seed plumbing, not draw sources.
_NP_RANDOM_ALLOWED = {"Generator", "BitGenerator", "SeedSequence"}


def _import_findings(
    rule: Rule, ctx: ModuleContext, forbidden: set[str], what: str
) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in forbidden:
                    yield rule.diagnostic(
                        ctx.path,
                        node.lineno,
                        node.col_offset,
                        f"import of {alias.name!r} ({what})",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in forbidden:
                yield rule.diagnostic(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    f"import from {node.module!r} ({what})",
                )


@register
class WallClockRule(Rule):
    id = "SIM101"
    name = "wall-clock"
    description = "no host-clock reads inside the simulated world"
    hint = (
        "take timestamps from sim.now; wall-clock progress reporting "
        "belongs in experiments/, not in simulated components"
    )
    scopes = _SIM_SCOPES

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        return _import_findings(
            self,
            ctx,
            _CLOCK_MODULES,
            "host clock in a simulated component breaks determinism",
        )


@register
class UnseededRngRule(Rule):
    id = "SIM102"
    name = "unseeded-rng"
    description = "all randomness flows through the named-stream registry"
    hint = (
        "draw from RngRegistry.stream(name) (sim/rng.py) so the run "
        "stays a pure function of the root seed"
    )
    scopes = _SIM_SCOPES

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if ctx.parts[-2:] == ("sim", "rng.py"):
            return  # the blessed module: the registry itself
        yield from _import_findings(
            self,
            ctx,
            _RANDOM_MODULES,
            "stdlib random bypasses the seeded stream registry",
        )
        np_random_aliases = {
            alias.split("!")[0]
            for alias in ctx.numpy_aliases
            if alias.endswith("!random")
        }
        plain_np = {
            alias for alias in ctx.numpy_aliases if not alias.endswith("!random")
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            # np.random.<attr>
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in plain_np
            ) or (
                # <alias>.<attr> where alias is numpy.random itself
                isinstance(value, ast.Name) and value.id in np_random_aliases
            ):
                if node.attr not in _NP_RANDOM_ALLOWED:
                    yield self.diagnostic(
                        ctx.path,
                        node.lineno,
                        node.col_offset,
                        f"direct numpy.random.{node.attr} use outside "
                        "sim/rng.py",
                    )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "numpy.random",
                "numpy.random._generator",
            ):
                for alias in node.names:
                    if alias.name not in _NP_RANDOM_ALLOWED:
                        yield self.diagnostic(
                            ctx.path,
                            node.lineno,
                            node.col_offset,
                            f"import of numpy.random.{alias.name} outside "
                            "sim/rng.py",
                        )


def _is_set_expression(node: ast.expr) -> bool:
    """Syntactically set-valued expressions with salted iteration order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # Set algebra (a | b, a - b) -- only when an operand is itself
        # syntactically a set, to avoid flagging integer arithmetic.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


@register
class UnorderedIterationRule(Rule):
    id = "SIM103"
    name = "unordered-iteration"
    description = "no hash-ordered set iteration feeding event ordering"
    hint = "wrap the iterable in sorted(...) to pin a deterministic order"

    scopes = _SIM_SCOPES

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            iterables: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                iterables.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.DictComp):
                iterables.extend(gen.iter for gen in node.generators)
            for candidate in iterables:
                if _is_set_expression(candidate):
                    yield self.diagnostic(
                        ctx.path,
                        candidate.lineno,
                        candidate.col_offset,
                        "iteration over a set expression (hash order is "
                        "salted per process)",
                    )
