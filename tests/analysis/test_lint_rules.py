"""Per-rule fixtures: one flagging and one clean case for every rule."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint.engine import Finding, Rule, lint_file
from repro.analysis.lint.rules import all_rules, rules_by_id
from repro.analysis.lint.rules.cache_identity import CacheIdentityRule
from repro.analysis.lint.rules.determinism import DeterminismRule
from repro.analysis.lint.rules.error_taxonomy import ErrorTaxonomyRule
from repro.analysis.lint.rules.rng import RngDisciplineRule
from repro.analysis.lint.rules.spawn_safety import SpawnSafetyRule


def _lint(
    tmp_path: Path,
    source: str,
    rule: Rule,
    name: str = "mod.py",
    library: bool = True,
) -> list[Finding]:
    directory = tmp_path / ("src/repro" if library else "scripts")
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(source, encoding="utf-8")
    return lint_file(path, [rule])


def test_rule_registry_is_complete_and_unique():
    rules = all_rules()
    ids = [rule.id for rule in rules]
    assert len(ids) == len(set(ids)) == 5
    assert rules_by_id().keys() == set(ids)


# --- rng-discipline ---------------------------------------------------


def test_rng_flags_legacy_global_numpy_randomness(tmp_path):
    findings = _lint(
        tmp_path,
        "import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n",
        RngDisciplineRule(),
    )
    assert [finding.rule for finding in findings] == ["rng-discipline"] * 2


def test_rng_flags_stdlib_random_and_unseeded_default_rng(tmp_path):
    findings = _lint(
        tmp_path,
        "import random\n"
        "from numpy.random import default_rng\n"
        "a = random.random()\n"
        "b = default_rng()\n"
        "c = default_rng(None)\n",
        RngDisciplineRule(),
    )
    assert len(findings) == 4  # import + call + two unseeded constructions


def test_rng_clean_on_seeded_generators_and_exempts_rng_module(tmp_path):
    clean = (
        "from numpy.random import default_rng\n"
        "rng = default_rng(123)\n"
        "rng2 = default_rng(seed_sequence)\n"
    )
    assert _lint(tmp_path, clean, RngDisciplineRule()) == []
    exempt = "from numpy.random import default_rng\nrng = default_rng()\n"
    assert _lint(tmp_path, exempt, RngDisciplineRule(), name="_rng.py") == []


# --- determinism ------------------------------------------------------


def test_determinism_flags_set_iteration_and_fs_enumeration(tmp_path):
    findings = _lint(
        tmp_path,
        "import os\n"
        "for x in {1, 2}:\n"
        "    pass\n"
        "names = [n for n in os.listdir('.')]\n"
        "paths = [p for p in root.glob('*.json')]\n",
        DeterminismRule(),
    )
    assert [finding.rule for finding in findings] == ["determinism"] * 3


def test_determinism_flags_wall_clock_reads(tmp_path):
    findings = _lint(
        tmp_path,
        "import time\nstamp = time.time()\n",
        DeterminismRule(),
    )
    assert len(findings) == 1
    assert "wall-clock" in findings[0].message


def test_determinism_clean_when_sorted_or_monotonic(tmp_path):
    clean = (
        "import time\n"
        "for p in sorted(root.glob('*.json')):\n"
        "    pass\n"
        "names = sorted(n for n in root.rglob('*.py'))\n"
        "total = sum(1 for _ in root.iterdir())\n"
        "t0 = time.perf_counter()\n"
    )
    assert _lint(tmp_path, clean, DeterminismRule()) == []


def test_determinism_only_applies_to_the_library_tree(tmp_path):
    source = "import time\nstamp = time.time()\n"
    assert _lint(tmp_path, source, DeterminismRule(), library=False) == []


# --- cache-identity ---------------------------------------------------


def test_cache_identity_flags_fields_gaps_both_ways(tmp_path):
    source = (
        "from typing import ClassVar\n"
        "from repro.scenarios.base import Workload\n"
        "class DemoWorkload(Workload):\n"
        "    alpha: float = 1.0\n"
        "    beta: int = 0\n"
        "    FIELDS: ClassVar[dict] = {'alpha': None, 'gamma': None}\n"
    )
    findings = _lint(tmp_path, source, CacheIdentityRule())
    messages = " | ".join(finding.message for finding in findings)
    assert len(findings) == 2
    assert "beta" in messages and "gamma" in messages


def test_cache_identity_flags_missing_fields_mapping_and_version(tmp_path):
    source = (
        "from repro.scenarios.base import Workload\n"
        "from repro.experiments.spec import ExperimentSpec\n"
        "class BareWorkload(Workload):\n"
        "    alpha: float = 1.0\n"
        "SPEC = ExperimentSpec(experiment_id='EX', title='t', claim='c')\n"
    )
    findings = _lint(tmp_path, source, CacheIdentityRule())
    rules = [finding.rule for finding in findings]
    assert rules == ["cache-identity"] * 2


def test_cache_identity_clean_on_covered_fields_and_pinned_version(tmp_path):
    source = (
        "from typing import ClassVar\n"
        "from repro.scenarios.base import Workload\n"
        "from repro.experiments.spec import ExperimentSpec\n"
        "class DemoWorkload(Workload):\n"
        "    alpha: float = 1.0\n"
        "    FIELDS: ClassVar[dict] = {'alpha': None}\n"
        "SPEC = ExperimentSpec(experiment_id='EX', title='t', claim='c', version='1')\n"
    )
    assert _lint(tmp_path, source, CacheIdentityRule()) == []


# --- spawn-safety -----------------------------------------------------


def test_spawn_safety_flags_lambda_and_nested_worker(tmp_path):
    source = (
        "from repro.parallel import imap_shards\n"
        "def run(tasks):\n"
        "    def _inner(context, task):\n"
        "        return task\n"
        "    list(imap_shards(lambda c, t: t, tasks, None))\n"
        "    list(imap_shards(_inner, tasks, None))\n"
    )
    findings = _lint(tmp_path, source, SpawnSafetyRule())
    messages = " | ".join(finding.message for finding in findings)
    assert len(findings) == 2
    assert "lambda" in messages and "_inner" in messages


def test_spawn_safety_flags_global_writes_in_worker_functions(tmp_path):
    source = (
        "from repro.parallel import imap_shards\n"
        "COUNTER = 0\n"
        "def _work(context, task):\n"
        "    global COUNTER\n"
        "    COUNTER += 1\n"
        "    return task\n"
        "def run(tasks):\n"
        "    return list(imap_shards(_work, tasks, None))\n"
    )
    findings = _lint(tmp_path, source, SpawnSafetyRule())
    assert len(findings) == 1
    assert "COUNTER" in findings[0].message


def test_spawn_safety_clean_on_module_level_pure_worker(tmp_path):
    source = (
        "from repro.parallel import imap_shards\n"
        "def _work(context, task):\n"
        "    return task * 2\n"
        "def run(tasks):\n"
        "    return list(imap_shards(_work, tasks, None))\n"
    )
    assert _lint(tmp_path, source, SpawnSafetyRule()) == []


# --- error-taxonomy ---------------------------------------------------


def test_error_taxonomy_flags_bare_and_swallowing_handlers(tmp_path):
    source = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except:\n"
        "        pass\n"
        "def g():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        return None\n"
    )
    findings = _lint(tmp_path, source, ErrorTaxonomyRule())
    assert [finding.rule for finding in findings] == ["error-taxonomy"] * 2


def test_error_taxonomy_clean_when_reraised_used_or_narrow(tmp_path):
    source = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception as error:\n"
        "        raise RuntimeError('wrapped') from error\n"
        "def g():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception as error:\n"
        "        record(error)\n"
        "def h():\n"
        "    try:\n"
        "        work()\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    assert _lint(tmp_path, source, ErrorTaxonomyRule()) == []
