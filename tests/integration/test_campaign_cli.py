"""CLI campaign surface: exit codes, streaming, sharding — and the full
SIGKILL-and-rerun drill in a real subprocess."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.experiments import e5_growth_bound

SRC_ROOT = Path(repro.__file__).resolve().parents[1]

_REAL_E5_RUN = e5_growth_bound.run


def _failing_run(workload, seed: int = 0):
    if seed == 1:
        raise RuntimeError(f"entry broke on seed {seed}")
    return _REAL_E5_RUN(workload, seed)


def _campaign_file(tmp_path: Path, n: int = 2, name: str = "clidrill") -> Path:
    path = tmp_path / "campaign.json"
    path.write_text(
        json.dumps(
            {
                "name": name,
                "entries": [
                    {"experiment_id": "E5", "mode": "quick", "seed": seed}
                    for seed in range(n)
                ],
            }
        )
    )
    return path


class TestCampaignExitCodes:
    def test_failed_entry_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(e5_growth_bound, "run", _failing_run)
        file = _campaign_file(tmp_path)
        code = main(["--jobs", "1", "campaign", str(file), "--out", str(tmp_path / "out")])
        assert code == 3
        out = capsys.readouterr().out
        assert "(1 failed)" in out
        assert "failed E5 (quick, seed 1): RuntimeError: entry broke on seed 1" in out
        manifest = json.loads((tmp_path / "out" / "clidrill" / "manifest.json").read_text())
        record = manifest["entries"][1]
        assert record["error_type"] == "RuntimeError"
        assert "_failing_run" in record["traceback"]
        assert "error" not in manifest["entries"][0]

    def test_stream_marks_errors_and_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(e5_growth_bound, "run", _failing_run)
        file = _campaign_file(tmp_path)
        code = main(
            [
                "--jobs", "1", "campaign", str(file), "--out", str(tmp_path / "out"),
                "--stream",
            ]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "[2/2] E5 (quick, seed 1) ERROR RuntimeError: entry broke on seed 1" in out

    def test_bad_shard_exits_1(self, tmp_path, capsys):
        file = _campaign_file(tmp_path)
        code = main(
            ["campaign", str(file), "--out", str(tmp_path / "out"), "--shard", "9/2"]
        )
        assert code == 1
        assert "shard" in capsys.readouterr().err

    def test_shard_writes_shard_manifest(self, tmp_path, capsys):
        file = _campaign_file(tmp_path, n=3)
        out = tmp_path / "out"
        assert main(["campaign", str(file), "--out", str(out), "--shard", "1/2"]) == 0
        manifest = json.loads(
            (out / "clidrill" / "manifest.shard1of2.json").read_text()
        )
        assert manifest["shard"] == "1/2"
        assert [record["seed"] for record in manifest["entries"]] == [1]

    def test_stream_counts_the_entries_the_shard_owns(self, tmp_path, capsys):
        file = _campaign_file(tmp_path, n=3)
        out = tmp_path / "out"
        code = main(
            ["campaign", str(file), "--out", str(out), "--shard", "0/2", "--stream"]
        )
        assert code == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]
        assert [line.split()[0] for line in lines] == ["[1/2]", "[2/2]"]


class TestKillAndRerun:
    """SIGKILL a live campaign process, re-run it with the same cache, and
    prove the final warm manifest is byte-identical to an uninterrupted
    run's."""

    CAMPAIGN = {
        "name": "killer",
        "entries": [
            # A fast first entry (cached quickly) then two slower ones,
            # so the kill reliably lands mid-campaign.
            {"experiment_id": "E5", "mode": "quick", "seed": 0},
            {
                "experiment_id": "E4", "mode": "quick", "seed": 0,
                "overrides": {"trials": 600, "exact_t_max": 3},
            },
            {
                "experiment_id": "E4", "mode": "quick", "seed": 1,
                "overrides": {"trials": 600, "exact_t_max": 3},
            },
        ],
    }

    @staticmethod
    def _env() -> dict[str, str]:
        return {**os.environ, "PYTHONPATH": str(SRC_ROOT)}

    def _cli(self, tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=tmp_path, env=self._env(), capture_output=True, text=True, timeout=300,
        )

    def test_sigkill_then_rerun_matches_uninterrupted_run(self, tmp_path):
        file = tmp_path / "campaign.json"
        file.write_text(json.dumps(self.CAMPAIGN))
        base = [str(file), "--jobs", "1"]

        # Uninterrupted reference: cold run, then a warm rerun whose
        # manifest is fully cached and timing-free.
        ref = self._cli(
            tmp_path, "campaign", *base, "--out", "out_a", "--cache-dir", "cache_a"
        )
        assert ref.returncode == 0, ref.stderr
        warm_a = self._cli(
            tmp_path, "campaign", *base, "--out", "out_a", "--cache-dir", "cache_a"
        )
        assert warm_a.returncode == 0, warm_a.stderr
        manifest_a = (tmp_path / "out_a" / "killer" / "manifest.json").read_bytes()

        # Interrupted run: SIGKILL the whole process group as soon as
        # the first entry's result file exists.  Its cache entry was
        # published (atomically) before the result file was written.
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", *base,
                "--out", "out_b", "--cache-dir", "cache_b",
            ],
            cwd=tmp_path, env=self._env(), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        first_result = tmp_path / "out_b" / "killer" / "e5_quick_s0.json"
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if victim.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
                if first_result.exists():
                    break
                time.sleep(0.02)
            else:
                pytest.fail("the first entry never wrote its result file")
            os.killpg(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=60)
        assert not (tmp_path / "out_b" / "killer" / "manifest.json").exists()

        # Re-running with the same cache finishes the campaign,
        # recomputing only unfinished entries: the entry that finished
        # before the kill comes back as a pure cache hit.
        rerun = self._cli(
            tmp_path, "campaign", *base, "--out", "out_b", "--cache-dir", "cache_b"
        )
        assert rerun.returncode == 0, rerun.stderr
        manifest = json.loads(
            (tmp_path / "out_b" / "killer" / "manifest.json").read_text()
        )
        assert len(manifest["entries"]) == 3
        assert all("error" not in record for record in manifest["entries"])
        assert manifest["entries"][0]["cached"] is True

        # The warm rerun after the restart is byte-identical to the warm
        # rerun after the uninterrupted run: the kill left no trace.
        warm_b = self._cli(
            tmp_path, "campaign", *base, "--out", "out_b", "--cache-dir", "cache_b"
        )
        assert warm_b.returncode == 0, warm_b.stderr
        manifest_b = (tmp_path / "out_b" / "killer" / "manifest.json").read_bytes()
        assert manifest_b == manifest_a
