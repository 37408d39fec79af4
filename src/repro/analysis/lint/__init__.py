"""``repro lint``: static enforcement of the repository's invariants.

The reproduction's claims rest on invariants the dynamic test suite can
only probe — seed-stable RNG streams, cache keys that cover every
parameter, spawn-safe worker plumbing.  The rule engine here checks
them *statically*: every rule is an AST visitor producing
:class:`~repro.analysis.lint.engine.Finding` records with a stable rule
id, a file:line anchor, and a fix hint.

Violations that are deliberate carry an inline suppression::

    horizon = time.time()  # repro: ignore[determinism] -- GC horizon

Every other finding is fixed, not recorded: each rule shipped with its
violations fixed, and ``tests/analysis/test_lint_repo.py`` keeps the
repository clean.

Run it as ``cobra-repro lint [paths] [--format json|text]``; the
process exits 0 when clean, 2 when findings remain.
"""

from repro.analysis.lint.engine import (
    FileContext,
    Finding,
    LintReport,
    Rule,
    iter_source_files,
    lint_paths,
)
from repro.analysis.lint.rules import all_rules, rules_by_id

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "iter_source_files",
    "lint_paths",
    "rules_by_id",
]
