"""Engine core: walking, suppressions, syntax handling, serialisation."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint import Finding, iter_source_files, lint_paths
from repro.analysis.lint.engine import build_context, lint_file
from repro.analysis.lint.rules import all_rules
from repro.analysis.lint.rules.rng import RngDisciplineRule


def _write(path: Path, source: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def test_finding_round_trips_through_dict():
    # The ``--format json`` record carries every field of the finding.
    finding = Finding(
        rule="rng-discipline", path="a.py", line=3, column=5, message="m", hint="h"
    )
    assert Finding(**finding.to_dict()) == finding


def test_iter_source_files_sorted_deduplicated_and_skips_caches(tmp_path):
    _write(tmp_path / "pkg" / "b.py", "")
    _write(tmp_path / "pkg" / "a.py", "")
    _write(tmp_path / "pkg" / "__pycache__" / "junk.py", "")
    _write(tmp_path / "pkg" / ".git" / "hook.py", "")
    found = list(iter_source_files([tmp_path, tmp_path / "pkg" / "a.py"]))
    names = [path.name for path in found]
    assert names == ["a.py", "b.py"]


def test_non_python_file_argument_is_ignored(tmp_path):
    data = _write(tmp_path / "notes.txt", "import random\n")
    report = lint_paths([data])
    assert report.files_checked == 0
    assert report.clean


def test_syntax_error_becomes_a_finding_not_a_crash(tmp_path):
    bad = _write(tmp_path / "bad.py", "def broken(:\n")
    findings = lint_file(bad, all_rules())
    assert [finding.rule for finding in findings] == ["syntax"]
    assert "does not parse" in findings[0].message


def test_same_line_suppression_silences_only_named_rule(tmp_path):
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng()  # repro: ignore[rng-discipline] -- fixture\n"
        "rng2 = np.random.default_rng()\n"
    )
    path = _write(tmp_path / "mod.py", source)
    findings = lint_file(path, [RngDisciplineRule()])
    assert [finding.line for finding in findings] == [3]


def test_standalone_suppression_covers_the_next_line(tmp_path):
    source = (
        "import numpy as np\n"
        "# repro: ignore[rng-discipline] -- fixture\n"
        "rng = np.random.default_rng()\n"
    )
    path = _write(tmp_path / "mod.py", source)
    assert lint_file(path, [RngDisciplineRule()]) == []


def test_wildcard_suppression_silences_every_rule(tmp_path):
    source = "import numpy as np\nnp.random.seed(0)  # repro: ignore[*] -- fixture\n"
    path = _write(tmp_path / "mod.py", source)
    assert lint_file(path, all_rules()) == []


def test_suppression_for_a_different_rule_does_not_silence(tmp_path):
    source = (
        "import numpy as np\n"
        "np.random.seed(0)  # repro: ignore[determinism] -- wrong id\n"
    )
    path = _write(tmp_path / "mod.py", source)
    findings = lint_file(path, [RngDisciplineRule()])
    assert len(findings) == 1


def test_context_resolves_aliased_attribute_chains(tmp_path):
    path = _write(
        tmp_path / "mod.py",
        "import numpy as np\nfrom numpy.random import default_rng as mk\n",
    )
    ctx = build_context(path)
    assert ctx.imports["np"] == "numpy"
    assert ctx.imports["mk"] == "numpy.random.default_rng"


def test_in_library_keys_on_src_repro_layout(tmp_path):
    inside = _write(tmp_path / "src" / "repro" / "mod.py", "x = 1\n")
    outside = _write(tmp_path / "elsewhere" / "mod.py", "x = 1\n")
    assert build_context(inside).in_library
    assert not build_context(outside).in_library
