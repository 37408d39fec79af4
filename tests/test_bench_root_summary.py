"""The repo-root ``BENCH_<name>.json`` rows are written by full benchmark runs only."""

from __future__ import annotations

import json

from benchmarks import _root_summary


def test_quick_summary_writes_nothing(monkeypatch, tmp_path):
    monkeypatch.setattr(_root_summary, "ROOT", tmp_path)
    assert _root_summary.write_root_summary("event", {"quick": True, "cell": 1}) is None
    assert list(tmp_path.iterdir()) == []


def test_full_summary_writes_sorted_json(monkeypatch, tmp_path):
    monkeypatch.setattr(_root_summary, "ROOT", tmp_path)
    summary = {"quick": False, "b": {"z": 1, "a": 2}, "a": [3]}
    path = _root_summary.write_root_summary("event", summary)
    assert path == tmp_path / "BENCH_event.json"
    assert path.read_text() == json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert list(json.loads(path.read_text())) == ["a", "b", "quick"]
