"""Meta-test: the repository passes its own invariant checker.

This is the enforcement point — a change that introduces an unseeded
generator, an unsorted directory walk, an off-protocol kernel op, an
uncovered workload field, a spawn hazard, or a swallowing handler
fails here before it reaches CI's dedicated static-analysis job.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis.lint import lint_paths

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def _tree(name: str) -> Path:
    path = REPO_ROOT / name
    assert path.is_dir(), f"expected {path} to exist"
    return path


def test_repository_lints_clean():
    report = lint_paths(
        [_tree("src"), _tree("tests"), _tree("benchmarks"), _tree("examples")]
    )
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.clean, f"repro lint found violations:\n{rendered}"
    assert report.files_checked > 100  # the walk really covered the tree
