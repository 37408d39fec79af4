"""Tests for scenario/override campaign entries and scenario caching."""

from __future__ import annotations

import json

import pytest

from repro.cache import ResultCache
from repro.errors import ExperimentError, ScenarioError
from repro.experiments import get_experiment, run_experiment_cached
from repro.experiments.campaign import Campaign, CampaignEntry, run_campaign


class TestEntryDescriptions:
    def test_scenario_entry_roundtrips(self):
        entry = CampaignEntry("E2", seed=3, scenario="e2-hypercube")
        assert CampaignEntry.from_dict(entry.to_dict()) == entry
        assert "mode" not in entry.to_dict()

    def test_overrides_entry_roundtrips(self):
        entry = CampaignEntry("E4", mode="quick", overrides={"trials": 150})
        rebuilt = CampaignEntry.from_dict(entry.to_dict())
        assert rebuilt == entry
        assert rebuilt.workload().trials == 150

    def test_scenario_implies_experiment_id(self):
        entry = CampaignEntry.from_dict({"scenario": "e2-hypercube"})
        assert entry.experiment_id == "E2"

    def test_scenario_and_mode_conflict(self):
        with pytest.raises(ExperimentError, match="not both"):
            CampaignEntry.from_dict({"scenario": "e2-hypercube", "mode": "full"})

    def test_scenario_id_mismatch_rejected(self):
        entry = CampaignEntry("E1", scenario="e2-hypercube")
        with pytest.raises(ScenarioError, match="belongs to E2"):
            entry.workload()

    def test_unknown_scenario_rejected_at_validation(self):
        campaign = Campaign(
            name="bad", entries=[CampaignEntry("E2", scenario="e2-not-real")]
        )
        with pytest.raises(ScenarioError, match="unknown scenario"):
            campaign.validate()

    def test_bad_overrides_rejected_at_validation(self):
        campaign = Campaign(
            name="bad", entries=[CampaignEntry("E4", overrides={"sizes": [64]})]
        )
        with pytest.raises(ScenarioError, match="no field"):
            campaign.validate()

    def test_plain_entries_keep_the_legacy_shape(self):
        entry = CampaignEntry("E5", mode="full", seed=2)
        assert entry.to_dict() == {"experiment_id": "E5", "mode": "full", "seed": 2}
        assert entry.workload() is None

    def test_campaign_json_roundtrip_with_scenarios(self):
        campaign = Campaign(
            name="mix",
            entries=[
                CampaignEntry("E5"),
                CampaignEntry("E2", scenario="e2-hypercube"),
                CampaignEntry("E4", overrides={"trials": 150, "exact_t_max": 3}),
            ],
        )
        parsed = Campaign.from_json(campaign.to_json())
        assert parsed.entries == campaign.entries


class TestScenarioCampaignRuns:
    def _campaign(self) -> Campaign:
        # Toy-scale: two E4 grid points plus a tiny family scenario.
        return Campaign(
            name="scenario-grid",
            entries=[
                CampaignEntry("E4", overrides={"trials": 60, "exact_t_max": 3}),
                CampaignEntry("E4", overrides={"trials": 90, "exact_t_max": 3}),
                CampaignEntry("E2", scenario="e2-hypercube",
                              overrides={"sizes": [16, 32], "samples": 3}),
            ],
        )

    def test_grid_entries_get_distinct_result_files(self, tmp_path):
        manifest = run_campaign(self._campaign(), tmp_path)
        files = [entry["result_json"] for entry in manifest["entries"]]
        assert len(set(files)) == 3
        # Scenario name plus an overrides digest: a second grid point on
        # the same scenario/seed must land in a different file.
        assert files[2].startswith("e2_e2-hypercube-") and files[2].endswith("_s0.json")
        for entry, record in zip(self._campaign().entries, manifest["entries"]):
            assert record["experiment_id"] == entry.experiment_id
            assert (tmp_path / "scenario-grid" / record["result_json"]).exists()
        overrides = [entry.get("overrides") for entry in manifest["entries"]]
        assert overrides[0] == {"trials": 60, "exact_t_max": 3}

    def test_same_scenario_different_overrides_do_not_clobber(self, tmp_path):
        campaign = Campaign(
            name="clobber",
            entries=[
                CampaignEntry("E2", scenario="e2-hypercube",
                              overrides={"sizes": [16, 32], "samples": 3}),
                CampaignEntry("E2", scenario="e2-hypercube",
                              overrides={"sizes": [16, 32], "samples": 4}),
            ],
        )
        manifest = run_campaign(campaign, tmp_path)
        files = [entry["result_json"] for entry in manifest["entries"]]
        assert len(set(files)) == 2
        for record in manifest["entries"]:
            saved = json.loads((tmp_path / "clobber" / record["result_json"]).read_text())
            assert saved["parameters"]["workload"]["samples"] == \
                record["overrides"]["samples"]

    def test_parallel_matches_sequential(self, tmp_path):
        sequential = run_campaign(self._campaign(), tmp_path / "seq", jobs=1)
        parallel = run_campaign(self._campaign(), tmp_path / "par", jobs=2)

        def strip(manifest):
            return [
                {key: value for key, value in entry.items() if key != "seconds"}
                for entry in manifest["entries"]
            ]

        assert strip(sequential) == strip(parallel)

    def test_scenario_entries_cache_and_reuse(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_campaign(self._campaign(), tmp_path / "cold", cache_dir=cache_dir)
        warm = run_campaign(self._campaign(), tmp_path / "warm", cache_dir=cache_dir)
        assert [entry["cached"] for entry in cold["entries"]] == [False] * 3
        assert [entry["cached"] for entry in warm["entries"]] == [True] * 3


class TestScenarioCaching:
    def test_bespoke_workloads_hit_their_own_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        workload = get_experiment("E4").preset("quick").with_overrides(
            {"trials": 70, "exact_t_max": 3}
        )
        first, hit_first = run_experiment_cached("E4", workload=workload, cache=cache)
        again, hit_again = run_experiment_cached("E4", workload=workload, cache=cache)
        assert (hit_first, hit_again) == (False, True)
        assert first.to_json_dict() == again.to_json_dict()
        assert first.mode == "scenario"
        # A different grid point is a different key.
        other = workload.with_overrides({"trials": 80})
        _, hit_other = run_experiment_cached("E4", workload=other, cache=cache)
        assert not hit_other

    def test_workload_equal_to_preset_shares_the_preset_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        module = get_experiment("E4")
        run_experiment_cached("E4", mode="quick", cache=cache)
        preset_copy = module.preset("quick").with_overrides(
            {"trials": module.preset("quick").trials}
        )
        result, hit = run_experiment_cached("E4", workload=preset_copy, cache=cache)
        assert hit  # same cache entry as the mode= run
        assert result.mode == "quick"

    def test_mode_and_workload_conflict(self, tmp_path):
        cache = ResultCache(tmp_path)
        workload = get_experiment("E4").preset("quick")
        with pytest.raises(ExperimentError, match="not both"):
            run_experiment_cached("E4", mode="quick", workload=workload, cache=cache)


class TestStreamingDisplay:
    def test_cli_stream_labels_scenario_entries(self, tmp_path, capsys):
        from repro.cli import main

        campaign_file = tmp_path / "c.json"
        campaign_file.write_text(
            json.dumps(
                {
                    "name": "streamed",
                    "entries": [
                        {"experiment_id": "E4",
                         "overrides": {"trials": 60, "exact_t_max": 3}},
                        {"scenario": "e2-hypercube",
                         "overrides": {"sizes": [16, 32], "samples": 3}},
                    ],
                }
            )
        )
        assert main(
            ["campaign", str(campaign_file), "--stream", "--out", str(tmp_path / "out")]
        ) == 0
        out = capsys.readouterr().out
        assert "(e2-hypercube, seed 0)" in out
        assert "E4 (quick, seed 0)" in out

    def test_run_campaign_progress_labels_scenarios(self, tmp_path):
        campaign = Campaign(
            name="progress",
            entries=[
                CampaignEntry("E2", scenario="e2-hypercube",
                              overrides={"sizes": [16, 32], "samples": 3}),
            ],
        )
        lines: list[str] = []
        run_campaign(campaign, tmp_path, progress=lines.append, jobs=2)
        assert any("e2-hypercube" in line for line in lines)


class TestScenarioFileEntries:
    def test_campaign_entry_from_scenario_file(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(
            json.dumps(
                {
                    "name": "tiny-e4",
                    "experiment_id": "E4",
                    "overrides": {"trials": 60, "exact_t_max": 3},
                }
            )
        )
        campaign = Campaign(
            name="from-file",
            entries=[CampaignEntry("E4", scenario=str(path))],
        )
        manifest = run_campaign(campaign, tmp_path / "out")
        assert manifest["entries"][0]["result_json"] == "e4_tiny_s0.json"
