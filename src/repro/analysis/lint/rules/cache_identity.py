"""``cache-identity``: everything a run computes from is in its key.

A cache hit must be indistinguishable from a recomputation.  Two
structural properties carry that guarantee and both are checkable
statically:

* **Workload field coverage.**  Every field declared on a ``Workload``
  dataclass must have a ``FieldSpec`` in its ``FIELDS`` mapping —
  that mapping drives coercion *and* the ``to_dict`` serialisation
  that becomes every run's cache identity.  A field
  missing from ``FIELDS`` would crash at construction, but only when
  that workload is first built; the rule reports it at definition
  time.  (``Workload.to_dict`` iterates dataclass fields, so FIELDS
  coverage is exactly serialisation coverage.)
* **Explicit spec versions.**  ``ExperimentSpec`` is part of every
  result-cache key, and its ``version`` is the knob that invalidates
  cached results when a methodology changes.  A spec relying on the
  implicit default can be "bumped" by editing the default — silently
  invalidating every other experiment's cache — so experiment modules
  must pin ``version=`` explicitly.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.lint.engine import FileContext, Finding, Rule


def _is_classvar(annotation: ast.AST) -> bool:
    """Whether an annotation is ``ClassVar[...]`` (not a workload field)."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "ClassVar"
    return isinstance(annotation, ast.Name) and annotation.id == "ClassVar"


def _base_names(class_def: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in class_def.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


class CacheIdentityRule(Rule):
    id = "cache-identity"
    title = "workload fields and spec versions must cover the cache key"
    hint = "see repro.scenarios.base (FIELDS) and repro.experiments.spec (version)"
    NODE_TYPES: ClassVar[tuple[type, ...]] = (ast.ClassDef, ast.Call)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_library

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            if "Workload" in _base_names(node):
                yield from self._check_workload(node, ctx)
            return
        assert isinstance(node, ast.Call)
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "ExperimentSpec":
            if not any(keyword.arg == "version" for keyword in node.keywords):
                yield self.finding(
                    ctx,
                    node,
                    "ExperimentSpec without an explicit version=: the version "
                    "is part of every result-cache key, so it must be pinned "
                    "where the methodology lives, not inherited from a default",
                    hint='add version="1" (the current default) or the real revision',
                )

    def _check_workload(self, node: ast.ClassDef, ctx: FileContext) -> Iterator[Finding]:
        declared: list[str] = []
        fields_keys: list[str] | None = None
        fields_node: ast.AST = node
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                if _is_classvar(item.annotation):
                    if item.target.id == "FIELDS" and isinstance(item.value, ast.Dict):
                        fields_node = item
                        fields_keys = [
                            key.value
                            for key in item.value.keys
                            if isinstance(key, ast.Constant) and isinstance(key.value, str)
                        ]
                else:
                    declared.append(item.target.id)
            elif isinstance(item, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "FIELDS"
                for target in item.targets
            ):
                if isinstance(item.value, ast.Dict):
                    fields_node = item
                    fields_keys = [
                        key.value
                        for key in item.value.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ]
        if fields_keys is None:
            yield self.finding(
                ctx,
                node,
                f"workload {node.name} declares no FIELDS mapping: fields "
                "without a FieldSpec are neither coerced nor serialised into "
                "the cache identity",
            )
            return
        missing = sorted(set(declared) - set(fields_keys))
        extra = sorted(set(fields_keys) - set(declared))
        if missing:
            yield self.finding(
                ctx,
                fields_node,
                f"workload {node.name} fields {missing} have no FieldSpec in "
                "FIELDS: they would be silently absent from coercion and "
                "crash construction",
            )
        if extra:
            yield self.finding(
                ctx,
                fields_node,
                f"workload {node.name} FIELDS entries {extra} name no declared "
                "field: stale spec entries mask missing coverage",
            )
