"""Equivalence tests: a cache hit must be indistinguishable from a recomputation.

Every registered experiment is run once at micro scale with a cold
cache (computing and storing) and once with a warm cache (loading);
the two result payloads must be identical JSON.  On top of that, warm
fully-cached campaigns must produce byte-identical manifests at any
worker count.
"""

from __future__ import annotations

import json

import pytest

from repro.cache import ResultCache
from repro.experiments import (
    experiment_ids,
    get_experiment,
    resolved_parameters,
    run_experiment_cached,
)
from repro.experiments.campaign import Campaign, CampaignEntry, run_campaign
from repro.experiments.microscale import MICRO_OVERRIDES, micro_workload


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_cached_equals_recomputed(experiment_id, tmp_path):
    workload = micro_workload(experiment_id)
    cache = ResultCache(tmp_path / "cache")

    computed, was_cached = run_experiment_cached(
        experiment_id, workload=workload, seed=1, cache=cache
    )
    assert not was_cached
    loaded, was_cached = run_experiment_cached(
        experiment_id, workload=workload, seed=1, cache=cache
    )
    assert was_cached
    assert loaded.to_json_dict() == computed.to_json_dict()
    assert cache.stats.hits == 1

    # A different seed must not reuse the entry.
    _, was_cached = run_experiment_cached(
        experiment_id, workload=workload, seed=2, cache=cache
    )
    assert not was_cached


def test_micro_overrides_do_not_collide_with_defaults(tmp_path):
    # The micro-scale E4 entry and the default quick E4 entry describe
    # different workloads, so they must use different cache keys.
    cache = ResultCache(tmp_path / "cache")
    micro = micro_workload("E4")
    run_experiment_cached("E4", workload=micro, seed=1, cache=cache)
    assert cache.get("E4", "scenario", 1, resolved_parameters("E4", micro)) is not None
    quick = resolved_parameters("E4", get_experiment("E4").preset("quick"))
    assert cache.get("E4", "quick", 1, quick) is None


class TestCampaignManifestIdentity:
    def _campaign(self):
        micro = MICRO_OVERRIDES["E4"]
        return Campaign(
            name="equiv",
            entries=[
                CampaignEntry("E4", seed=0, overrides=micro),
                CampaignEntry("E5", seed=0),
                CampaignEntry("E4", seed=1, overrides=micro),
            ],
        )

    def test_jobs1_and_jobs4_manifests_bit_identical_with_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        campaign = self._campaign()

        # Warm the store, then run at both worker counts fully cached.
        run_campaign(campaign, tmp_path / "warm", cache_dir=cache_dir)
        run_campaign(campaign, tmp_path / "seq", jobs=1, cache_dir=cache_dir)
        run_campaign(campaign, tmp_path / "par", jobs=4, cache_dir=cache_dir)

        sequential = (tmp_path / "seq" / "equiv" / "manifest.json").read_bytes()
        parallel = (tmp_path / "par" / "equiv" / "manifest.json").read_bytes()
        assert sequential == parallel

        manifest = json.loads(sequential)
        assert [entry["cached"] for entry in manifest["entries"]] == [True] * 3
        assert [entry["seconds"] for entry in manifest["entries"]] == [0.0] * 3

        # Result payloads are byte-identical per entry, too.
        for record in manifest["entries"]:
            left = (tmp_path / "seq" / "equiv" / record["result_json"]).read_bytes()
            right = (tmp_path / "par" / "equiv" / record["result_json"]).read_bytes()
            assert left == right

    def test_cached_flag_recorded_per_entry(self, tmp_path):
        cache_dir = tmp_path / "cache"
        campaign = Campaign(
            name="flags",
            entries=[CampaignEntry("E4", seed=0, overrides=MICRO_OVERRIDES["E4"])],
        )
        cold = run_campaign(campaign, tmp_path / "cold", cache_dir=cache_dir)
        warm = run_campaign(campaign, tmp_path / "hot", cache_dir=cache_dir)
        assert cold["entries"][0]["cached"] is False
        assert warm["entries"][0]["cached"] is True
        assert cold["entries"][0]["findings"] == warm["entries"][0]["findings"]

    def test_no_cache_means_never_cached(self, tmp_path):
        campaign = Campaign(
            name="plain",
            entries=[CampaignEntry("E4", seed=0, overrides=MICRO_OVERRIDES["E4"])],
        )
        manifest = run_campaign(campaign, tmp_path)
        manifest = run_campaign(campaign, tmp_path)
        assert manifest["entries"][0]["cached"] is False
