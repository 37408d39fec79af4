"""Unit tests for the content-addressed result cache."""

from __future__ import annotations

import json

import pytest

from repro.analysis.tables import Table
from repro.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    canonical_json,
    result_key,
)
from repro.errors import CacheError
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec


@pytest.fixture
def result() -> ExperimentResult:
    spec = ExperimentSpec(
        experiment_id="E0",
        title="toy experiment",
        claim="everything works",
        paper_reference="Theorem 0",
    )
    table = Table(["n", "mean"], rows=[(10, 1.5), (20, 2.5)])
    return ExperimentResult(
        spec=spec,
        mode="quick",
        seed=0,
        parameters={"sizes": [10, 20]},
        tables={"cover": table},
        figures={"fig": "o--o"},
        findings=["it works"],
    )


PARAMS = {"sizes": [10, 20], "rho": 0.5}


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_tuples_become_lists(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_numpy_scalars_normalised(self):
        import numpy as np

        assert canonical_json({"n": np.int64(3)}) == canonical_json({"n": 3})
        assert canonical_json(np.float64(0.5)) == canonical_json(0.5)

    def test_int_and_float_distinct(self):
        assert canonical_json(1) != canonical_json(1.0)

    def test_bool_and_int_distinct(self):
        assert canonical_json(True) != canonical_json(1)

    def test_nan_rejected(self):
        with pytest.raises(CacheError, match="finite"):
            canonical_json(float("nan"))
        with pytest.raises(CacheError, match="finite"):
            canonical_json({"x": float("inf")})

    def test_non_string_keys_rejected(self):
        with pytest.raises(CacheError, match="keys must be strings"):
            canonical_json({1: "x"})

    def test_arbitrary_objects_rejected(self):
        with pytest.raises(CacheError, match="JSON-serialisable"):
            canonical_json({"f": object()})


class TestResultKey:
    def test_case_insensitive_experiment_id(self):
        assert result_key("e5", "quick", 0, PARAMS) == result_key("E5", "quick", 0, PARAMS)

    def test_distinct_across_fields(self):
        base = result_key("E5", "quick", 0, PARAMS)
        assert result_key("E6", "quick", 0, PARAMS) != base
        assert result_key("E5", "full", 0, PARAMS) != base
        assert result_key("E5", "quick", 1, PARAMS) != base
        assert result_key("E5", "quick", 0, {**PARAMS, "rho": 0.75}) != base


class TestResultCache:
    def test_roundtrip(self, tmp_path, result):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("E0", "quick", 0, PARAMS) is None
        path = cache.put("E0", "quick", 0, PARAMS, result)
        assert path.exists()
        loaded = cache.get("E0", "quick", 0, PARAMS)
        assert loaded is not None
        assert loaded.to_json_dict() == result.to_json_dict()
        assert cache.stats.to_dict() == {"hits": 1, "misses": 1, "writes": 1}

    def test_entry_is_self_describing(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 3, PARAMS, result)
        entry = json.loads(path.read_text())
        assert entry["schema"] == CACHE_SCHEMA_VERSION
        assert entry["key"] == result_key("E0", "quick", 3, PARAMS)
        assert entry["experiment_id"] == "E0"
        assert entry["seed"] == 3

    def test_different_parameters_do_not_collide(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put("E0", "quick", 0, PARAMS, result)
        assert cache.get("E0", "quick", 0, {**PARAMS, "rho": 0.75}) is None
        assert cache.get("E0", "quick", 1, PARAMS) is None

    def test_truncated_entry_is_a_miss_and_rewritten(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 0, PARAMS, result)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get("E0", "quick", 0, PARAMS) is None
        assert cache.stats.misses == 1
        cache.put("E0", "quick", 0, PARAMS, result)
        assert cache.get("E0", "quick", 0, PARAMS) is not None

    def test_foreign_schema_is_a_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 0, PARAMS, result)
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get("E0", "quick", 0, PARAMS) is None

    def test_size_clear_prune(self, tmp_path, result):
        import os
        import time

        cache = ResultCache(tmp_path)
        cache.put("E0", "quick", 0, PARAMS, result)
        cache.put("E0", "quick", 1, PARAMS, result)
        entries, total_bytes = cache.size()
        assert entries == 2
        assert total_bytes > 0

        # Corrupt one entry, leave one *stale* temp file behind.
        corrupt = cache.entry_path("E0", "quick", 1, PARAMS)
        corrupt.write_text("{half an entry")
        stray = tmp_path / ".tmp-stray.tmp"
        stray.write_text("x")
        ancient = time.time() - 7200
        os.utime(stray, (ancient, ancient))
        assert cache.prune() == 2
        assert cache.size()[0] == 1
        assert cache.get("E0", "quick", 0, PARAMS) is not None

        assert cache.clear() == 1
        assert cache.size() == (0, 0)

    def test_prune_spares_fresh_temp_files(self, tmp_path, result):
        # A fresh .tmp-* file belongs to a concurrent writer mid-publish;
        # prune must not break that writer's atomic rename.
        cache = ResultCache(tmp_path)
        in_flight = tmp_path / ".tmp-inflight.tmp"
        in_flight.write_text("partial payload")
        assert cache.prune() == 0
        assert in_flight.exists()

    def test_in_flight_temp_files_invisible_to_size(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put("E0", "quick", 0, PARAMS, result)
        (tmp_path / ".tmp-inflight.tmp").write_text("partial payload")
        assert cache.size()[0] == 1

    def test_create_false_is_read_only(self, tmp_path):
        missing = tmp_path / "never-made"
        cache = ResultCache(missing, create=False)
        assert cache.size() == (0, 0)
        assert cache.prune() == 0
        assert cache.clear() == 0
        assert not missing.exists()

    def test_no_temp_files_left_behind(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put("E0", "quick", 0, PARAMS, result)
        assert not list(tmp_path.glob(".tmp-*"))

    def test_cache_path_must_be_directory(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        with pytest.raises(CacheError, match="not a directory"):
            ResultCache(blocker)

    def test_stats_summary_counts(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put("E0", "quick", 0, PARAMS, result)
        cache.get("E0", "quick", 0, PARAMS)
        cache.get("E0", "quick", 9, PARAMS)
        summary = cache.stats_summary()
        assert summary["entries"] == 1
        assert summary["hits"] == 1
        assert summary["misses"] == 1
        assert summary["writes"] == 1
        assert summary["schema"] == CACHE_SCHEMA_VERSION


class TestQuarantine:
    def test_corrupt_entry_quarantined_on_read(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 0, PARAMS, result)
        path.write_text("{torn write")
        assert cache.get("E0", "quick", 0, PARAMS) is None
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.read_text() == "{torn write"  # evidence preserved

    def test_quarantined_entry_invisible_to_size_and_get(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 0, PARAMS, result)
        path.write_text("junk")
        cache.get("E0", "quick", 0, PARAMS)
        assert cache.size() == (0, 0)
        # A second read is a plain miss, not a re-parse of the junk.
        assert cache.get("E0", "quick", 0, PARAMS) is None
        assert cache.stats.misses == 2

    def test_put_after_quarantine_publishes_clean_entry(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 0, PARAMS, result)
        path.write_text("junk")
        cache.get("E0", "quick", 0, PARAMS)
        cache.put("E0", "quick", 0, PARAMS, result)
        assert cache.get("E0", "quick", 0, PARAMS) is not None

    def test_prune_collects_quarantined_files(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 0, PARAMS, result)
        path.write_text("junk")
        cache.get("E0", "quick", 0, PARAMS)  # quarantines
        assert cache.prune() == 1
        assert not list(tmp_path.glob("*.corrupt"))

    def test_clear_removes_quarantined_files(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 0, PARAMS, result)
        path.write_text("junk")
        cache.get("E0", "quick", 0, PARAMS)
        cache.put("E0", "quick", 1, PARAMS, result)
        assert cache.clear() == 2  # one live entry + one quarantined
        assert cache.size() == (0, 0)

    def test_stale_schema_entries_are_not_quarantined(self, tmp_path, result):
        # A foreign-schema entry is valid JSON from another era — stale,
        # not corrupt; prune() deletes it but get() leaves it in place.
        cache = ResultCache(tmp_path)
        path = cache.put("E0", "quick", 0, PARAMS, result)
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get("E0", "quick", 0, PARAMS) is None
        assert path.exists()
        assert not list(tmp_path.glob("*.corrupt"))

