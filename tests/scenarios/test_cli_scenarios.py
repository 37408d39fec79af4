"""Tests for the scenario CLI surface: scenario subcommand, --set, --only/--skip."""

from __future__ import annotations

import json

from repro.cli import build_parser, main


class TestParser:
    def test_scenario_subcommands_parse(self):
        assert build_parser().parse_args(["scenario", "list"]).scenario_command == "list"
        args = build_parser().parse_args(["scenario", "run", "e2-hypercube", "--seed", "3"])
        assert args.scenario_command == "run"
        assert args.name == "e2-hypercube"
        assert args.seed == 3
        files = build_parser().parse_args(["scenario", "validate", "a.json", "b.json"])
        assert [str(f) for f in files.files] == ["a.json", "b.json"]

    def test_set_collects_pairs(self):
        args = build_parser().parse_args(
            ["run", "E1", "--set", "sizes=256,512", "--set", "samples=8"]
        )
        assert args.overrides == ["sizes=256,512", "samples=8"]

    def test_only_skip_flags(self):
        args = build_parser().parse_args(["all", "--only", "E1,E4", "--skip", "E11"])
        assert args.only == "E1,E4"
        assert args.skip == "E11"


class TestScenarioCommands:
    def test_list_names_every_builtin(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "e1-quick" in out
        assert "e2-hypercube" in out

    def test_info_shows_workload_and_json(self, capsys):
        assert main(["scenario", "info", "e13-harsh-loss"]) == 0
        out = capsys.readouterr().out
        assert "E13" in out
        assert "loss_rates" in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenario", "run", "e2-not-a-scenario"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_writes_named_result(self, tmp_path, capsys):
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
        assert main(["scenario", "run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "e4_tiny-e4.json").exists()
        assert "[E4]" in capsys.readouterr().out

    def test_validate_reports_each_file(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(
            json.dumps({"name": "ok", "experiment_id": "E4",
                        "overrides": {"trials": 60}})
        )
        campaign = tmp_path / "campaign.json"
        campaign.write_text(
            json.dumps({"name": "c", "entries": [{"experiment_id": "E5"}]})
        )
        assert main(["scenario", "validate", str(good), str(campaign)]) == 0
        out = capsys.readouterr().out
        assert "(scenario)" in out
        assert "(campaign)" in out

    def test_validate_fails_on_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "experiment_id": "E99"}))
        assert main(["scenario", "validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "failed validation" in captured.err


class TestRunOverrides:
    def test_set_overrides_change_the_run(self, monkeypatch, capsys):
        assert main(["run", "E4", "--set", "trials=60", "--set", "exact_t_max=3"]) == 0
        out = capsys.readouterr().out
        assert "mode  : scenario" in out

    def test_different_override_grids_write_distinct_files(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        args = ["run", "E4", "--set", "exact_t_max=3", "--out", out_dir]
        assert main(args + ["--set", "trials=60"]) == 0
        assert main(args + ["--set", "trials=90"]) == 0
        capsys.readouterr()
        files = sorted(p.name for p in (tmp_path / "out").glob("e4_quick-*.json"))
        assert len(files) == 2

    def test_bad_set_value_fails_cleanly(self, capsys):
        assert main(["run", "E4", "--set", "trials"]) == 1
        assert "FIELD=VALUE" in capsys.readouterr().err
        assert main(["run", "E4", "--set", "sizzle=3"]) == 1
        assert "no field" in capsys.readouterr().err

    def test_set_equal_to_preset_is_still_the_preset(self, capsys):
        # E5's quick preset checks 200 sampled sets and runs in well under a second.
        assert main(["run", "E5", "--set", "sampled_sets=200"]) == 0
        assert "mode  : quick" in capsys.readouterr().out


class TestAllFilters:
    def test_only_runs_the_selection(self, capsys):
        assert main(["all", "--only", "e5"]) == 0
        out = capsys.readouterr().out
        assert "[E5]" in out
        assert "[E4]" not in out

    def test_unknown_ids_fail_with_known_list(self, capsys):
        assert main(["all", "--only", "E99"]) == 1
        err = capsys.readouterr().err
        assert "unknown experiment 'E99'" in err
        assert "E13" in err
        assert main(["all", "--skip", "EX"]) == 1
        assert "--skip" in capsys.readouterr().err

    def test_filters_that_leave_nothing_fail(self, capsys):
        assert main(["all", "--only", "E5", "--skip", "E5"]) == 1
        assert "left no experiments" in capsys.readouterr().err
