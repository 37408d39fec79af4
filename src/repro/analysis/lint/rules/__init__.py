"""The repository's rule set, one module per invariant family.

=================  ==========================================================
rule id            invariant
=================  ==========================================================
rng-discipline     all randomness flows through seeded NumPy generators
determinism        no iteration-order or wall-clock nondeterminism in repro
cache-identity     workload fields and spec versions cover the cache key
spawn-safety       pool workers get picklable, closure-free callables
error-taxonomy     no over-broad handlers that swallow without classifying
=================  ==========================================================
"""

from __future__ import annotations

from repro.analysis.lint.engine import Rule
from repro.analysis.lint.rules.cache_identity import CacheIdentityRule
from repro.analysis.lint.rules.determinism import DeterminismRule
from repro.analysis.lint.rules.error_taxonomy import ErrorTaxonomyRule
from repro.analysis.lint.rules.rng import RngDisciplineRule
from repro.analysis.lint.rules.spawn_safety import SpawnSafetyRule

#: Registration order is presentation order in ``--list-rules``.
_RULE_TYPES: tuple[type[Rule], ...] = (
    RngDisciplineRule,
    DeterminismRule,
    CacheIdentityRule,
    SpawnSafetyRule,
    ErrorTaxonomyRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    return [rule_type() for rule_type in _RULE_TYPES]


def rules_by_id() -> dict[str, Rule]:
    """Registered rules keyed by id (the ``--rules`` selector)."""
    return {rule.id: rule for rule in all_rules()}


__all__ = [
    "CacheIdentityRule",
    "DeterminismRule",
    "ErrorTaxonomyRule",
    "RngDisciplineRule",
    "SpawnSafetyRule",
    "all_rules",
    "rules_by_id",
]
