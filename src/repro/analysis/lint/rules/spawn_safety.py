"""``spawn-safety``: pool workers get picklable, closure-free callables.

Everything crossing a process boundary under the ``spawn`` start
method travels by pickle.  Two patterns work under ``fork`` (Linux
default) and then break — or worse, silently diverge — on spawn
platforms and in the CI spawn job:

* **Lambdas / nested functions handed to pool entry points.**  They do
  not pickle, so under spawn the call falls back to running inline;
  and a closure hides what it captures (a ``Graph``, say) from the
  context a pooled call pickles once and ships to each worker.  Worker
  callables must be module-level functions referenced by name, with
  shared state passed as the call's context.
* **Module-global writes inside worker-executed functions.**  Under
  spawn each worker owns its own module globals, so a rebind in a
  worker never reaches the parent (and vice versa): state that looks
  shared quietly forks per process.

Worker-executed functions are identified statically: anything passed
to the repro pool seams (``map_shards`` / ``imap_shards``), to
``multiprocessing`` dispatch methods (``apply_async`` / ``imap`` /
``imap_unordered``), or as a pool ``initializer=``.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.lint.engine import FileContext, Finding, Rule

#: repro's own pool seams: first positional argument runs in workers.
_POOL_SEAMS = frozenset({"map_shards", "imap_shards"})

#: multiprocessing.Pool dispatch methods with a worker callable first.
_POOL_METHODS = frozenset({"apply_async", "imap", "imap_unordered"})


def _callable_positions(node: ast.Call) -> list[ast.AST]:
    """Expressions in ``node`` that will execute inside pool workers."""
    positions: list[ast.AST] = []
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name in _POOL_SEAMS or name in _POOL_METHODS:
        if node.args:
            positions.append(node.args[0])
        for keyword in node.keywords:
            if keyword.arg == "kernel":
                positions.append(keyword.value)
    for keyword in node.keywords:
        if keyword.arg == "initializer":
            positions.append(keyword.value)
    return positions


class SpawnSafetyRule(Rule):
    id = "spawn-safety"
    title = "worker callables must pickle; workers must not write globals"
    hint = (
        "pass a module-level function by name; ship graphs in the call's "
        "context argument, not a closure"
    )
    NODE_TYPES: ClassVar[tuple[type, ...]] = ()

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_library

    def check_module(self, ctx: FileContext) -> Iterator[Finding]:
        module_defs: dict[str, ast.AST] = {
            node.name: node
            for node in ctx.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        nested_defs: set[str] = set()
        for name, definition in module_defs.items():
            for node in ast.walk(definition):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node is not definition
                ):
                    nested_defs.add(node.name)
        nested_defs -= set(module_defs)

        worker_functions: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for candidate in _callable_positions(node):
                if isinstance(candidate, ast.Lambda):
                    yield self.finding(
                        ctx,
                        candidate,
                        "lambda passed to a pool seam: lambdas do not pickle "
                        "under spawn, and a closure hides what it captures "
                        "from the call's shipped context",
                    )
                elif isinstance(candidate, ast.Name):
                    if candidate.id in nested_defs:
                        yield self.finding(
                            ctx,
                            candidate,
                            f"nested function {candidate.id!r} passed to a pool "
                            "seam: nested defs do not pickle under spawn; hoist "
                            "it to module level",
                        )
                    elif candidate.id in module_defs:
                        worker_functions.add(candidate.id)

        for name in sorted(worker_functions):
            for node in ast.walk(module_defs[name]):
                if isinstance(node, ast.Global):
                    yield self.finding(
                        ctx,
                        node,
                        f"worker function {name!r} rebinds module global(s) "
                        f"{', '.join(node.names)}: under spawn each worker owns "
                        "its own module state, so the write never reaches the "
                        "parent process",
                        hint=(
                            "return the value to the parent, or ship state "
                            "through the task context tuple"
                        ),
                    )
