"""Concurrency and corruption behaviour of the result cache and streaming.

The cache is shared by campaign workers running in separate processes,
so the contract under contention is: concurrent writers of one key
both leave a complete entry behind (atomic rename, last wins), readers
never observe a torn write, corruption degrades to a miss, and the
streaming campaign iterator delivers every entry exactly once even
when a worker raises.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.analysis.tables import Table
from repro.cache import ResultCache
from repro.experiments import e5_growth_bound
from repro.experiments.campaign import Campaign, CampaignEntry, iter_campaign
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec

PARAMS = {"sizes": [8, 16]}


def _toy_result(tag: int) -> ExperimentResult:
    spec = ExperimentSpec(
        experiment_id="E0",
        title="toy",
        claim="race safety",
        paper_reference="none",
    )
    return ExperimentResult(
        spec=spec,
        mode="quick",
        seed=0,
        parameters=dict(PARAMS),
        tables={"t": Table(["tag"], rows=[(tag,)])},
        findings=[f"written by writer {tag}"],
    )


def _racing_writer(cache_dir: str, barrier, tag: int) -> None:
    """One contender: wait at the barrier, then hammer the shared key."""
    cache = ResultCache(cache_dir)
    barrier.wait(timeout=30)
    for _ in range(10):
        cache.put("E0", "quick", 0, PARAMS, _toy_result(tag))


class TestConcurrentWriters:
    def test_same_key_race_is_safe(self, tmp_path):
        """N processes hammering one key leave exactly one valid entry."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        context = multiprocessing.get_context("fork")
        n_writers = 4
        barrier = context.Barrier(n_writers)
        writers = [
            context.Process(target=_racing_writer, args=(str(tmp_path), barrier, tag))
            for tag in range(n_writers)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert all(writer.exitcode == 0 for writer in writers)

        cache = ResultCache(tmp_path)
        assert cache.size()[0] == 1
        assert not list(tmp_path.glob(".tmp-*"))
        winner = cache.get("E0", "quick", 0, PARAMS)
        assert winner is not None
        # Whoever won, the entry is one complete write, not a blend.
        (finding,) = winner.findings
        tag = int(finding.rsplit(" ", 1)[1])
        assert winner.tables["t"].column("tag") == [tag]

    def test_reader_during_writes_never_sees_torn_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        for tag in range(20):
            cache.put("E0", "quick", 0, PARAMS, _toy_result(tag))
            seen = cache.get("E0", "quick", 0, PARAMS)
            assert seen is not None
            assert seen.findings == [f"written by writer {tag}"]


class TestCorruption:
    def test_truncated_entry_is_miss_then_rewritten(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 0, PARAMS, _toy_result(1))
        complete = path.read_bytes()
        path.write_bytes(complete[: len(complete) // 3])

        assert cache.get("E0", "quick", 0, PARAMS) is None
        cache.put("E0", "quick", 0, PARAMS, _toy_result(2))
        refreshed = cache.get("E0", "quick", 0, PARAMS)
        assert refreshed is not None
        assert refreshed.findings == ["written by writer 2"]

    def test_empty_file_and_wrong_json_shape_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.entry_path("E0", "quick", 0, PARAMS)
        path.write_text("")
        assert cache.get("E0", "quick", 0, PARAMS) is None
        path.write_text("[1, 2, 3]")
        assert cache.get("E0", "quick", 0, PARAMS) is None
        path.write_text('{"schema": 1, "key": "mismatched", "result": {}}')
        assert cache.get("E0", "quick", 0, PARAMS) is None


def _exploding_run(workload, seed: int = 0):
    if seed == 1:
        raise RuntimeError(f"worker died on seed {seed}")
    return _REAL_E5_RUN(workload, seed)


_REAL_E5_RUN = e5_growth_bound.run


class TestStreamingWithFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_iter_campaign_yields_every_entry_exactly_once(
        self, tmp_path, monkeypatch, jobs
    ):
        if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        monkeypatch.setattr(e5_growth_bound, "run", _exploding_run)
        campaign = Campaign(
            name="faulty",
            entries=[CampaignEntry("E5", seed=seed) for seed in range(3)],
        )
        yielded = list(iter_campaign(campaign, tmp_path, jobs=jobs))

        assert sorted(index for index, _ in yielded) == [0, 1, 2]
        by_index = {index: record for index, record in yielded}
        assert "error" in by_index[1]
        assert "RuntimeError" in by_index[1]["error"]
        assert "worker died on seed 1" in by_index[1]["error"]
        # The record is built where the entry ran: under a pool the
        # traceback is the worker's own, down to the raising frame.
        assert by_index[1]["error_type"] == "RuntimeError"
        assert "_exploding_run" in by_index[1]["traceback"]
        assert by_index[1]["traceback"].endswith(
            "RuntimeError: worker died on seed 1"
        )
        for index in (0, 2):
            assert by_index[index]["findings"]
            assert "error" not in by_index[index]

        # The manifest preserves campaign order and carries the error record.
        manifest = json.loads((tmp_path / "faulty" / "manifest.json").read_text())
        assert [entry["seed"] for entry in manifest["entries"]] == [0, 1, 2]
        assert "error" in manifest["entries"][1]
        # Failed entries leave no result files behind.
        assert not (tmp_path / "faulty" / "e5_quick_s1.json").exists()
        assert (tmp_path / "faulty" / "e5_quick_s0.json").exists()
