"""Restarting, healing and sharding campaigns through the result cache.

Everything here runs real (tiny) experiments — E5's quick preset costs
a fraction of a second — and damages state only by touching files
between runs, so the behaviours hold under both fork and spawn start
methods.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.campaign import (
    Campaign,
    CampaignEntry,
    _resolve_shard,
    iter_campaign,
    owned_indices,
    run_campaign,
)


def _mini(n: int = 3) -> Campaign:
    return Campaign(
        name="restart", entries=[CampaignEntry("E5", seed=seed) for seed in range(n)]
    )


class TestCacheCorruption:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupted_cache_write_heals_on_next_campaign(self, tmp_path, jobs):
        # A torn cache entry (a crash midway through a non-atomic
        # rewrite, a bit-rotted disk) must cost at most a recompute,
        # never wrong numbers.
        campaign = _mini(2)
        cache_dir = tmp_path / "cache"
        first = run_campaign(campaign, tmp_path / "a", jobs=jobs, cache_dir=cache_dir)
        (torn,) = cache_dir.glob("e5_quick_s1_*.json")
        payload = torn.read_bytes()
        torn.write_bytes(payload[: len(payload) // 3])

        second = run_campaign(campaign, tmp_path / "b", jobs=jobs, cache_dir=cache_dir)
        # Seed 0's entry was intact; seed 1's was torn, so the second
        # campaign quarantined it and recomputed.
        assert second["entries"][0]["cached"] is True
        assert second["entries"][1]["cached"] is False
        assert list(cache_dir.glob("*.corrupt"))
        assert [r["findings"] for r in first["entries"]] == [
            r["findings"] for r in second["entries"]
        ]
        # Third time around the healed entry serves a clean hit.
        third = run_campaign(campaign, tmp_path / "c", jobs=jobs, cache_dir=cache_dir)
        assert all(r["cached"] for r in third["entries"])


class TestRestart:
    def test_rerun_with_cache_loads_what_an_abandoned_run_finished(self, tmp_path):
        campaign = _mini(3)
        cache_dir = tmp_path / "cache"
        iterator = iter_campaign(campaign, tmp_path, cache_dir=cache_dir)
        first_index, first_record = next(iterator)
        iterator.close()  # interrupted: no manifest, one entry in the cache
        assert first_index == 0
        assert first_record["cached"] is False
        assert not (tmp_path / "restart" / "manifest.json").exists()

        manifest = run_campaign(campaign, tmp_path, cache_dir=cache_dir)
        records = manifest["entries"]
        assert [record["seed"] for record in records] == [0, 1, 2]
        # The finished entry loads from the cache; the rest compute.
        assert [record["cached"] for record in records] == [True, False, False]
        assert records[0]["seconds"] == 0.0
        assert records[0]["findings"] == first_record["findings"]
        for record in records:
            assert (tmp_path / "restart" / record["result_json"]).exists()


class TestSharding:
    def test_resolve_shard_forms(self):
        assert _resolve_shard(None) is None
        assert _resolve_shard("0/4") == (0, 4)
        assert _resolve_shard("3/4") == (3, 4)
        assert _resolve_shard((1, 2)) == (1, 2)

    def test_resolve_shard_rejects_malformed(self):
        for bad in ("x/y", "1", "1/2/3", "-1/2", "2/2", "0/0"):
            with pytest.raises(ExperimentError, match="shard"):
                _resolve_shard(bad)
        with pytest.raises(ExperimentError, match="shard"):
            _resolve_shard((True, 2))

    def test_owned_indices_partition_the_campaign(self):
        campaign = _mini(5)
        assert list(owned_indices(campaign)) == [0, 1, 2, 3, 4]
        shards = [list(owned_indices(campaign, f"{i}/3")) for i in range(3)]
        assert shards == [[0, 3], [1, 4], [2]]

    def test_shards_partition_and_merge(self, tmp_path):
        campaign = _mini(3)
        cache_dir = tmp_path / "cache"
        shard0 = run_campaign(campaign, tmp_path, shard="0/2", cache_dir=cache_dir)
        shard1 = run_campaign(campaign, tmp_path, shard="1/2", cache_dir=cache_dir)
        assert shard0["shard"] == "0/2"
        assert [r["seed"] for r in shard0["entries"]] == [0, 2]
        assert [r["seed"] for r in shard1["entries"]] == [1]
        assert not any(r["cached"] for r in shard0["entries"] + shard1["entries"])
        directory = tmp_path / "restart"
        assert (directory / "manifest.shard0of2.json").exists()
        assert (directory / "manifest.shard1of2.json").exists()
        assert not (directory / "manifest.json").exists()

        # The merge is a plain unsharded re-run over the same directory:
        # every entry is already in the shared cache, so it is pure
        # assembly.
        merged = run_campaign(campaign, tmp_path, cache_dir=cache_dir)
        assert [r["seed"] for r in merged["entries"]] == [0, 1, 2]
        assert all(r["cached"] for r in merged["entries"])
        by_seed = {r["seed"]: r["findings"] for r in shard0["entries"] + shard1["entries"]}
        assert [r["findings"] for r in merged["entries"]] == [by_seed[s] for s in (0, 1, 2)]
        assert (directory / "manifest.json").exists()
