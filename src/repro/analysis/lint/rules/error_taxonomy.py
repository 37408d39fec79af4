"""``error-taxonomy``: no handler swallows errors it cannot classify.

Failures are only useful while they keep their type: campaigns record
each failed entry's ``error_type`` in the manifest, and callers catch
library failures by class (:class:`~repro.errors.ReproError` and its
subclasses) while programming errors propagate.  An
``except Exception`` that swallows breaks that chain — a
configuration error masquerades as success, and neither the manifest
nor the caller ever learns what failed.

The rule flags, in library code:

* bare ``except:`` — always (it also eats ``KeyboardInterrupt`` and
  ``SystemExit``);
* ``except Exception`` / ``except BaseException`` handlers that
  neither re-``raise`` nor *use* the caught error (passing it to a
  classifier, recorder, or message keeps the taxonomy alive).

Deliberate best-effort handlers (cleanup paths, probe-and-degrade)
carry an inline ``# repro: ignore[error-taxonomy]`` with their
justification.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.lint.engine import FileContext, Finding, Rule

_BROAD = frozenset({"Exception", "BaseException"})


def _exception_names(annotation: ast.AST) -> list[str]:
    """Exception class names an ``except`` clause matches on."""
    nodes = annotation.elts if isinstance(annotation, ast.Tuple) else [annotation]
    names: list[str] = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


class ErrorTaxonomyRule(Rule):
    id = "error-taxonomy"
    title = "broad handlers must re-raise or classify, never swallow"
    hint = (
        "narrow the exception types, re-raise a ReproError subclass, or "
        "record the error (its type and message) before moving on"
    )
    NODE_TYPES: ClassVar[tuple[type, ...]] = (ast.ExceptHandler,)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_library

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield self.finding(
                ctx,
                node,
                "bare except: catches KeyboardInterrupt and SystemExit too, "
                "and erases the error type callers and manifests rely on",
            )
            return
        broad = [name for name in _exception_names(node.type) if name in _BROAD]
        if not broad:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Raise):
                return
            if (
                node.name is not None
                and isinstance(child, ast.Name)
                and child.id == node.name
                and isinstance(child.ctx, ast.Load)
            ):
                # The error object flows somewhere (record, message,
                # wrapper): the taxonomy survives.
                return
        yield self.finding(
            ctx,
            node,
            f"except {' / '.join(broad)} swallows the error without re-raise "
            "or record: the failure's type and message are lost",
        )
