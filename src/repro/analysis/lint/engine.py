"""Rule-engine core: file walking, AST dispatch, suppressions, findings.

One :class:`Finding` per violation, anchored to ``path:line:column``
with the rule id and a fix hint.  Rules subclass :class:`Rule` and
declare the node types they dispatch on (:attr:`Rule.NODE_TYPES`);
whole-module rules override :meth:`Rule.check_module` instead.  Each
file is parsed once and walked once — every node is offered to exactly
the rules registered for its type, so adding a rule never adds a pass
over the tree.

Suppressions are inline comments::

    risky_call()  # repro: ignore[rule-id] -- one-line justification
    # repro: ignore[rule-a,rule-b] -- a standalone comment suppresses
    the_next_line()

A suppression names the rule ids it silences (``*`` silences every
rule on that line); findings anchored to a suppressed line are dropped
before reporting.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Iterator, Sequence

#: Directories never descended into when expanding path arguments.
_SKIPPED_DIRS = frozenset(
    {".git", "__pycache__", ".mypy_cache", ".ruff_cache", ".pytest_cache", "node_modules"}
)

_SUPPRESSION_RE = re.compile(r"#\s*repro:\s*ignore\[([^\]]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    hint: str = ""

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-shaped form (the ``--format json`` record)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        """One-line human-readable form."""
        text = f"{self.path}:{self.line}:{self.column} [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class FileContext:
    """Everything the rules know about one source file.

    ``imports`` maps local names to the dotted origin they were bound
    from (``np`` -> ``numpy``, ``default_rng`` ->
    ``numpy.random.default_rng``), which is what lets rules resolve
    attribute chains without executing the module.
    """

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def basename(self) -> str:
        """File name without directories (``_rng.py`` exemptions key on it)."""
        return self.path.name

    @property
    def in_library(self) -> bool:
        """Whether this file is part of the ``repro`` library tree.

        Library-only rules (determinism, spawn safety, error taxonomy)
        key on the canonical ``src/repro`` layout, which fixtures can
        reproduce under a temporary directory.
        """
        return "src/repro" in self.display_path.replace("\\", "/")

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted origin of a ``Name``/``Attribute`` chain, or ``None``.

        ``np.random.seed`` with ``import numpy as np`` resolves to
        ``"numpy.random.seed"``; unresolvable heads keep their literal
        spelling so rules can still match same-module names.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.imports.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether an inline comment silences this finding's line."""
        rules = self.suppressions.get(finding.line)
        if rules is None:
            return False
        return "*" in rules or finding.rule in rules


class Rule:
    """Base class of one lint rule.

    Subclasses set the class attributes and implement :meth:`visit`
    for the node types in :attr:`NODE_TYPES`, and/or
    :meth:`check_module` for whole-file analyses (call graphs, class
    shape checks).  :meth:`applies` gates the rule per file — path
    scoping lives there, not inside the checks.
    """

    id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    hint: ClassVar[str] = ""
    NODE_TYPES: ClassVar[tuple[type, ...]] = ()

    def applies(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (default: always)."""
        return True

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Findings for one dispatched node (default: none)."""
        return iter(())

    def check_module(self, ctx: FileContext) -> Iterator[Finding]:
        """Findings from whole-module analysis (default: none)."""
        return iter(())

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        """A :class:`Finding` anchored to ``node`` with this rule's id."""
        line = getattr(node, "lineno", 0)
        column = getattr(node, "col_offset", -1) + 1
        return Finding(
            rule=self.id,
            path=ctx.display_path,
            line=line,
            column=column,
            message=message,
            hint=self.hint if hint is None else hint,
        )


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run over a set of paths."""

    findings: tuple[Finding, ...]
    files_checked: int

    @property
    def clean(self) -> bool:
        """Whether no findings survived suppressions."""
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        """JSON-shaped form, the ``--format json`` payload."""
        return {
            "files_checked": self.files_checked,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def iter_source_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """All ``.py`` files under ``paths``, each exactly once, sorted.

    Directories are walked recursively (skipping VCS/cache dirs); file
    arguments are taken verbatim.  Sorting makes finding order — and
    therefore CI artifacts — independent of filesystem enumeration
    order.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not (_SKIPPED_DIRS & set(part for part in candidate.parts))
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            marker = candidate.resolve()
            if marker not in seen:
                seen.add(marker)
                yield candidate


def _parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids silenced there.

    A comment suppresses its own line; a comment that *is* the whole
    line (a standalone suppression) additionally covers the next line,
    so multi-line statements can be annotated above their first line.
    """
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if not rules:
                continue
            line = token.start[0]
            suppressions.setdefault(line, set()).update(rules)
            standalone = token.line[: token.start[1]].strip() == ""
            if standalone:
                suppressions.setdefault(line + 1, set()).update(rules)
    except tokenize.TokenError:
        pass
    return {line: frozenset(rules) for line, rules in suppressions.items()}


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, from every import in the module."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{module}.{alias.name}" if module else alias.name
    return imports


def build_context(path: Path, display_path: str | None = None) -> FileContext:
    """Parse one file into the context every rule receives.

    Raises :class:`SyntaxError` for unparseable sources; the engine
    turns that into a ``syntax`` finding rather than crashing the run.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(
        path=path,
        display_path=display_path if display_path is not None else path.as_posix(),
        source=source,
        tree=tree,
        imports=_collect_imports(tree),
        suppressions=_parse_suppressions(source),
    )


def _display_path(path: Path) -> str:
    """Repo-relative posix form when possible, else the given path."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(path: Path, rules: Sequence[Rule], display_path: str | None = None) -> list[Finding]:
    """All unsuppressed findings of ``rules`` on one file."""
    shown = display_path if display_path is not None else _display_path(path)
    try:
        ctx = build_context(path, shown)
    except SyntaxError as error:
        return [
            Finding(
                rule="syntax",
                path=shown,
                line=error.lineno or 0,
                column=(error.offset or 1),
                message=f"file does not parse: {error.msg}",
                hint="repro lint only checks files the interpreter could import",
            )
        ]
    active = [rule for rule in rules if rule.applies(ctx)]
    if not active:
        return []
    dispatch: dict[type, list[Rule]] = {}
    for rule in active:
        for node_type in rule.NODE_TYPES:
            dispatch.setdefault(node_type, []).append(rule)

    findings: list[Finding] = []
    for rule in active:
        findings.extend(rule.check_module(ctx))
    if dispatch:
        for node in ast.walk(ctx.tree):
            for rule in dispatch.get(type(node), ()):
                findings.extend(rule.visit(node, ctx))
    kept = [finding for finding in findings if not ctx.is_suppressed(finding)]
    kept.sort(key=lambda finding: (finding.line, finding.column, finding.rule))
    return kept


def lint_paths(
    paths: Sequence[Path | str],
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Run ``rules`` (default: all registered) over ``paths``."""
    if rules is None:
        from repro.analysis.lint.rules import all_rules

        rules = all_rules()
    findings: list[Finding] = []
    files = 0
    for path in iter_source_files(paths):
        files += 1
        findings.extend(lint_file(path, rules))
    return LintReport(findings=tuple(findings), files_checked=files)
