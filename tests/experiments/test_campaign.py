"""Tests for the campaign runner."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.campaign import Campaign, CampaignEntry, run_campaign
from repro.scenarios.base import overrides_digest

#: A shrunken E4 workload.  Entry overrides travel with the entry, so
#: spawned pool workers see them too.
SMALL_E4 = {"trials": 50, "exact_t_max": 3}


def _small_e4(seed: int) -> CampaignEntry:
    return CampaignEntry("E4", seed=seed, overrides=SMALL_E4)


def _stem(seed: int) -> str:
    return f"e4_quick-{overrides_digest(SMALL_E4)}_s{seed}"


class TestCampaignDescription:
    def test_roundtrip(self):
        campaign = Campaign(
            name="demo",
            entries=[CampaignEntry("E4"), CampaignEntry("E5", mode="full", seed=3)],
        )
        parsed = Campaign.from_json(campaign.to_json())
        assert parsed.name == "demo"
        assert parsed.entries == campaign.entries

    def test_defaults_applied(self):
        campaign = Campaign.from_json(
            '{"name": "d", "entries": [{"experiment_id": "E5"}]}'
        )
        assert campaign.entries[0].mode == "quick"
        assert campaign.entries[0].seed == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            Campaign.from_json(
                '{"name": "d", "entries": [{"experiment_id": "E99"}]}'
            )

    def test_bad_mode_rejected(self):
        with pytest.raises(ExperimentError, match="mode"):
            Campaign.from_json(
                '{"name": "d", "entries": [{"experiment_id": "E5", "mode": "huge"}]}'
            )

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError, match="no entries"):
            Campaign(name="d").validate()
        with pytest.raises(ExperimentError, match="name"):
            Campaign(name="", entries=[CampaignEntry("E5")]).validate()

    def test_malformed_json_rejected(self):
        with pytest.raises(ExperimentError, match="malformed"):
            Campaign.from_json("{nope")

    def test_unknown_entry_keys_rejected(self):
        # A typoed key must fail loudly, not silently run the default.
        with pytest.raises(ExperimentError, match="unknown keys.*'Mode'"):
            Campaign.from_json(
                '{"name": "d", "entries": [{"experiment_id": "E5", "Mode": "full"}]}'
            )
        with pytest.raises(ExperimentError, match="unknown keys"):
            CampaignEntry.from_dict({"experiment_id": "E5", "sede": 3})

    def test_bad_mode_rejected_in_from_dict(self):
        with pytest.raises(ExperimentError, match="mode must be"):
            CampaignEntry.from_dict({"experiment_id": "E5", "mode": "huge"})

    def test_missing_mode_still_defaults_to_quick(self):
        assert CampaignEntry.from_dict({"experiment_id": "E5"}).mode == "quick"

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ExperimentError, match="seed must be an"):
            CampaignEntry.from_dict({"experiment_id": "E5", "seed": "3"})
        with pytest.raises(ExperimentError, match="seed must be an"):
            CampaignEntry.from_dict({"experiment_id": "E5", "seed": True})

    def test_non_dict_entry_rejected(self):
        with pytest.raises(ExperimentError, match="must be an object"):
            Campaign.from_json('{"name": "d", "entries": ["E5"]}')

    def test_non_list_entries_rejected_with_type_name(self):
        # A dict used to iterate its keys and a string its characters,
        # each failing with a baffling per-entry message; the container
        # type is now rejected up front, naming what was found.
        with pytest.raises(ExperimentError, match="must be a list.*dict"):
            Campaign.from_json(
                '{"name": "d", "entries": {"experiment_id": "E5"}}'
            )
        with pytest.raises(ExperimentError, match="must be a list.*str"):
            Campaign.from_json('{"name": "d", "entries": "E5"}')
        with pytest.raises(ExperimentError, match="must be a list.*int"):
            Campaign.from_json('{"name": "d", "entries": 3}')

    def test_missing_or_non_string_id_rejected(self):
        with pytest.raises(ExperimentError, match="experiment_id"):
            CampaignEntry.from_dict({"mode": "quick"})
        with pytest.raises(ExperimentError, match="experiment_id"):
            CampaignEntry.from_dict({"experiment_id": 5})


class TestRunCampaign:
    def test_executes_and_writes_manifest(self, tmp_path):
        # Keep it fast: shrink E4 and run it twice with different seeds.
        campaign = Campaign(name="mini", entries=[_small_e4(0), _small_e4(1)])
        messages: list[str] = []
        manifest = run_campaign(campaign, tmp_path, progress=messages.append)

        directory = tmp_path / "mini"
        assert (directory / "manifest.json").exists()
        assert (directory / f"{_stem(0)}.json").exists()
        assert (directory / f"{_stem(1)}.txt").exists()
        assert len(manifest["entries"]) == 2
        assert all(entry["seconds"] >= 0 for entry in manifest["entries"])
        assert all(entry["findings"] for entry in manifest["entries"])
        assert len(messages) == 2

        reloaded = json.loads((directory / "manifest.json").read_text())
        assert reloaded["campaign"] == "mini"

    def test_results_load_back(self, tmp_path):
        from repro.experiments.results import ExperimentResult

        campaign = Campaign(name="load", entries=[_small_e4(0)])
        run_campaign(campaign, tmp_path)
        result = ExperimentResult.load(tmp_path / "load" / f"{_stem(0)}.json")
        assert result.spec.experiment_id == "E4"

    def test_parallel_matches_sequential(self, tmp_path):
        # Same campaign at jobs=1 and jobs=2: identical manifests
        # (modulo wall-clock timings) and identical result payloads.
        campaign = Campaign(name="par", entries=[_small_e4(0), _small_e4(1)])
        sequential = run_campaign(campaign, tmp_path / "seq", jobs=1)
        messages: list[str] = []
        parallel = run_campaign(
            campaign, tmp_path / "par", jobs=2, progress=messages.append
        )

        def strip_timings(manifest):
            return [
                {key: value for key, value in entry.items() if key != "seconds"}
                for entry in manifest["entries"]
            ]

        assert strip_timings(sequential) == strip_timings(parallel)
        assert len(messages) == 2
        for stem in (_stem(0), _stem(1)):
            left = json.loads((tmp_path / "seq" / "par" / f"{stem}.json").read_text())
            right = json.loads((tmp_path / "par" / "par" / f"{stem}.json").read_text())
            assert left == right

    def test_jobs_parameter_validated(self, tmp_path):
        from repro.errors import ParallelError

        campaign = Campaign(name="bad", entries=[CampaignEntry("E5")])
        with pytest.raises(ParallelError, match="jobs"):
            run_campaign(campaign, tmp_path, jobs=-2)


class TestIterCampaign:
    def _mini(self) -> Campaign:
        return Campaign(name="stream", entries=[_small_e4(0), _small_e4(1)])

    def test_streams_records_and_writes_manifest(self, tmp_path):
        from repro.experiments.campaign import iter_campaign

        campaign = self._mini()
        yielded = list(iter_campaign(campaign, tmp_path))
        assert [index for index, _ in yielded] == [0, 1]
        assert all(record["findings"] for _, record in yielded)

        manifest = json.loads((tmp_path / "stream" / "manifest.json").read_text())
        assert manifest["entries"] == [record for _, record in yielded]

    def test_matches_run_campaign_manifest(self, tmp_path):
        from repro.experiments.campaign import iter_campaign

        campaign = self._mini()
        cache_dir = tmp_path / "cache"
        run_campaign(campaign, tmp_path / "warm", cache_dir=cache_dir)

        batch = run_campaign(campaign, tmp_path / "batch", cache_dir=cache_dir)
        list(iter_campaign(campaign, tmp_path / "streamed", jobs=2, cache_dir=cache_dir))
        streamed = json.loads(
            (tmp_path / "streamed" / "stream" / "manifest.json").read_text()
        )
        assert streamed == batch

    def test_validates_eagerly(self, tmp_path):
        from repro.experiments.campaign import iter_campaign

        with pytest.raises(ExperimentError, match="no entries"):
            iter_campaign(Campaign(name="empty"), tmp_path)

    def test_abandoning_iterator_writes_no_manifest(self, tmp_path):
        from repro.experiments.campaign import iter_campaign

        campaign = self._mini()
        iterator = iter_campaign(campaign, tmp_path)
        next(iterator)
        iterator.close()
        assert not (tmp_path / "stream" / "manifest.json").exists()
