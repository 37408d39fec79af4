"""``repro lint`` CLI: exit codes, formats, rule selection."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths
from repro.cli import main

CLEAN = "from numpy.random import default_rng\nrng = default_rng(7)\n"
DIRTY = "import numpy as np\nnp.random.seed(0)\n"


def _write(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


def test_exit_zero_and_clean_summary_on_clean_tree(tmp_path, capsys):
    path = _write(tmp_path, CLEAN)
    assert main(["lint", str(path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_two_with_rendered_findings_on_violations(tmp_path, capsys):
    path = _write(tmp_path, DIRTY)
    assert main(["lint", str(path)]) == 2
    out = capsys.readouterr().out
    assert "[rng-discipline]" in out
    assert "hint:" in out


def test_json_format_emits_machine_readable_findings(tmp_path, capsys):
    path = _write(tmp_path, DIRTY)
    assert main(["lint", str(path), "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["rule"] == "rng-discipline"


def test_json_payload_is_the_report(tmp_path, capsys):
    path = _write(tmp_path, DIRTY)
    assert main(["lint", str(path), "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload == lint_paths([path]).to_dict()
    assert sorted(payload) == ["files_checked", "findings"]


@pytest.mark.parametrize("flag", ["--baseline", "--update-baseline"])
def test_baseline_flags_are_gone(tmp_path, flag):
    # Nothing is grandfathered: a run reports every finding it makes.
    path = _write(tmp_path, CLEAN)
    with pytest.raises(SystemExit) as caught:
        main(["lint", str(path), flag])
    assert caught.value.code == 2


def test_rules_flag_restricts_to_named_rules(tmp_path):
    path = _write(tmp_path, DIRTY)
    assert main(["lint", str(path), "--rules", "error-taxonomy"]) == 0
    assert main(["lint", str(path), "--rules", "rng-discipline"]) == 2


def test_unknown_rule_id_is_a_usage_error(tmp_path):
    path = _write(tmp_path, CLEAN)
    assert main(["lint", str(path), "--rules", "no-such-rule"]) == 1


def test_list_rules_prints_the_registry(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "rng-discipline",
        "determinism",
        "cache-identity",
        "spawn-safety",
        "error-taxonomy",
    ):
        assert rule_id in out
