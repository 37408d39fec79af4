"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "E1", "--mode", "full", "--seed", "7", "--out", "results"]
        )
        assert args.experiment == "E1"
        assert args.mode == "full"
        assert args.seed == 7
        assert str(args.out) == "results"

    def test_mode_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--mode", "huge"])

    def test_jobs_defaults_to_one(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.jobs == 1

    def test_jobs_global_flag(self):
        args = build_parser().parse_args(["--jobs", "4", "run", "E1"])
        assert args.jobs == 4

    def test_jobs_subcommand_flag(self):
        args = build_parser().parse_args(["run", "E1", "--jobs", "3"])
        assert args.jobs == 3

    def test_jobs_subcommand_wins_over_global(self):
        args = build_parser().parse_args(["--jobs", "2", "campaign", "c.json", "--jobs", "5"])
        assert args.jobs == 5


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 11):
            assert f"E{i} " in out or f"E{i}  " in out

    def test_info_prints_spec(self, capsys):
        assert main(["info", "E4"]) == 0
        out = capsys.readouterr().out
        assert "[E4]" in out
        assert "Theorem 4" in out

    def test_info_unknown_experiment_fails(self, capsys):
        assert main(["info", "E77"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_graph_info_structured_family(self, capsys):
        assert main(["graph-info", "petersen"]) == 0
        out = capsys.readouterr().out
        assert "n=10" in out
        assert "lambda" in out
        assert "0.666667" in out

    @pytest.mark.parametrize(
        ("arguments", "line"),
        [
            (["petersen"], "  lambda    : 0.666667   spectral gap: 0.333333"),
            (
                ["random_regular", "300", "8"],
                "  lambda    : 0.649348   spectral gap: 0.350652",
            ),
        ],
    )
    def test_graph_info_solves_lambda_once(self, capsys, monkeypatch, arguments, line):
        # Petersen's λ has a closed form, so only the random graph is
        # solved; each graph is checked for connectivity once.
        from repro.graphs import properties, spectral

        solves = {"petersen": 0, "random_regular": 1}[arguments[0]]
        calls = {"lambda": 0, "connected": 0}
        solve, connected = spectral.lambda_second, properties.is_connected

        def counted_solve(graph, **kwargs):
            calls["lambda"] += 1
            return solve(graph, **kwargs)

        def counted_connected(graph):
            calls["connected"] += 1
            return connected(graph)

        monkeypatch.setattr(spectral, "lambda_second", counted_solve)
        monkeypatch.setattr(properties, "is_connected", counted_connected)
        assert main(["graph-info", *arguments]) == 0
        assert line in capsys.readouterr().out.splitlines()
        assert calls == {"lambda": solves, "connected": 1}

    @pytest.mark.parametrize(
        ("arguments", "line"),
        [
            # cos(π/4001): Lanczos took about 20 s on this ring.
            (["cycle", "4001"], "  lambda    : 1.000000   spectral gap: 0.000000"),
            # Bipartite, so -1 is an eigenvalue: about 56 s of Lanczos.
            (["path", "4096"], "  lambda    : 1.000000   spectral gap: 0.000000"),
            (["torus", "3,5"], "  lambda    : 0.654508   spectral gap: 0.345492"),
            (["complete", "300"], "  lambda    : 0.003344   spectral gap: 0.996656"),
            (["hypercube", "4"], "  lambda    : 1.000000   spectral gap: 0.000000"),
        ],
        ids=["cycle", "path", "torus", "complete", "hypercube"],
    )
    def test_graph_info_reads_closed_form_lambda(self, capsys, monkeypatch, arguments, line):
        from repro.graphs import spectral

        def no_eigensolve(graph, **kwargs):
            raise AssertionError(f"graph-info solved for the λ of {graph.name}")

        monkeypatch.setattr(spectral, "lambda_second", no_eigensolve)
        assert main(["graph-info", *arguments]) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_graph_info_tuple_parameter(self, capsys):
        assert main(["graph-info", "torus", "3,5"]) == 0
        assert "n=15" in capsys.readouterr().out

    def test_graph_info_seeded_family(self, capsys):
        assert main(["graph-info", "random_regular", "32", "4", "--seed", "1"]) == 0
        assert "r=4" in capsys.readouterr().out

    def test_graph_info_unknown_family(self, capsys):
        assert main(["graph-info", "made_up"]) == 1
        assert "unknown graph family" in capsys.readouterr().err

    def test_graph_info_bad_arguments(self, capsys):
        assert main(["graph-info", "complete"]) == 1
        assert "bad arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arguments",
        [
            ["barabasi_albert", "200", "2"],
            ["watts_strogatz", "64", "4", "0.3"],
            ["erdos_renyi", "40", "0.2"],
            ["random_regular", "32", "4"],
        ],
        ids=lambda arguments: arguments[0],
    )
    def test_graph_info_seed_reaches_every_seeded_generator(self, capsys, arguments):
        outputs = []
        for seed in ("5", "5", "6"):
            assert main(["graph-info", *arguments, "--seed", seed]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]

    @pytest.mark.parametrize(
        "family", ["is_connected", "lambda_second", "from_edges", "ImplicitTorus", "barbell"]
    )
    def test_graph_info_accepts_only_generators(self, capsys, family):
        assert main(["graph-info", family, "5"]) == 1
        assert "unknown graph family" in capsys.readouterr().err

    def test_graph_info_bad_parameter(self, capsys):
        assert main(["graph-info", "petersen", "abc"]) == 1
        assert "error: bad graph parameter 'abc'" in capsys.readouterr().err

    def test_cover_command(self, capsys):
        assert main(["cover", "-n", "64", "-r", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "covered in" in out
        assert "t=" in out
        assert "#" in out

    def test_duality_command(self, capsys):
        assert main(["duality", "--graph", "k7", "--t-max", "5"]) == 0
        out = capsys.readouterr().out
        assert "max |difference|" in out
        # The printed gap must be float noise.
        gap_line = [line for line in out.splitlines() if "max |difference|" in line][0]
        assert "e-1" in gap_line or "0.000e+00" in gap_line

    def test_run_executes_and_saves(self, capsys, tmp_path):
        # E5's quick preset is sub-second, so the CLI round trip is fast.
        assert main(["run", "E5", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[E5]" in out
        assert "finished in" in out
        saved = tmp_path / "e5_quick.json"
        assert saved.exists()
        payload = json.loads(saved.read_text())
        assert payload["spec"]["experiment_id"] == "E5"

    def test_campaign_command(self, capsys, tmp_path):
        description = tmp_path / "campaign.json"
        description.write_text(
            '{"name": "cli-mini", "entries": [{"experiment_id": "E5"}]}'
        )
        assert main(["campaign", str(description), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-mini" in out
        assert (tmp_path / "cli-mini" / "manifest.json").exists()

    def test_campaign_rejects_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["campaign", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_run_with_jobs(self, capsys, tmp_path):
        assert main(["run", "E5", "--jobs", "2", "--out", str(tmp_path)]) == 0
        assert "[E5]" in capsys.readouterr().out
        assert (tmp_path / "e5_quick.json").exists()

    def test_run_with_engine_flag(self, capsys, tmp_path):
        assert (
            main(
                [
                    "run",
                    "E1",
                    "--engine",
                    "event",
                    "--set",
                    "sizes=32,64",
                    "--set",
                    "degrees=3",
                    "--set",
                    "samples=2",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "[E1]" in capsys.readouterr().out
        saved = list(tmp_path.glob("e1_quick-*.json"))
        assert len(saved) == 1
        payload = json.loads(saved[0].read_text())
        assert payload["parameters"]["workload"]["engine"] == "event"

    def test_engine_flag_rejects_unknown_engine(self, capsys):
        for engine in ("quantum", "process"):
            with pytest.raises(SystemExit):
                main(["run", "E1", "--engine", engine])
            assert "--engine" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, capsys):
        assert main(["--jobs", "-1", "list"]) == 1
        assert "jobs" in capsys.readouterr().err

    def test_jobs_default_restored(self):
        from repro.parallel import default_jobs

        before = default_jobs()
        assert main(["--jobs", "3", "list"]) == 0
        assert default_jobs() == before


class TestCacheCommands:
    """Cache round trips on E5, whose quick preset is sub-second."""

    def test_run_with_cache_dir_hits_on_second_run(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "E5", "--cache-dir", cache_dir]) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert main(["run", "E5", "--cache-dir", cache_dir]) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_no_cache_disables_cache_dir(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "E5", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["run", "E5", "--cache-dir", cache_dir, "--no-cache"]) == 0
        assert "(cached)" not in capsys.readouterr().out

    def test_campaign_with_cache_reports_cached_runs(self, capsys, tmp_path):
        description = tmp_path / "campaign.json"
        description.write_text(
            '{"name": "cached-mini", "entries": [{"experiment_id": "E5"}]}'
        )
        cache_dir = str(tmp_path / "cache")
        arguments = [
            "campaign", str(description), "--out", str(tmp_path), "--cache-dir", cache_dir
        ]
        assert main(arguments) == 0
        capsys.readouterr()
        assert main(arguments) == 0
        out = capsys.readouterr().out
        assert "(1 cached)" in out
        manifest = json.loads(
            (tmp_path / "cached-mini" / "manifest.json").read_text()
        )
        assert manifest["entries"][0]["cached"] is True

    def test_campaign_stream_prints_per_entry_lines(self, capsys, tmp_path):
        description = tmp_path / "campaign.json"
        description.write_text(
            '{"name": "streamed", "entries": ['
            '{"experiment_id": "E5", "seed": 0}, {"experiment_id": "E5", "seed": 1}]}'
        )
        assert main(["campaign", str(description), "--out", str(tmp_path), "--stream"]) == 0
        out = capsys.readouterr().out
        assert "[1/2] E5" in out
        assert "[2/2] E5" in out
        assert (tmp_path / "streamed" / "manifest.json").exists()

    def test_cache_stats_clear_prune(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "E5", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out

        assert main(["cache", "prune", "--cache-dir", cache_dir]) == 0
        assert "pruned 0" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_action_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "nuke"])

    def test_cache_stats_does_not_create_directory(self, capsys, tmp_path):
        missing = tmp_path / "absent-cache"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        assert "entries: 0" in capsys.readouterr().out
        assert not missing.exists()
