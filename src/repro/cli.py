"""Command-line interface: list, inspect, and run the reproduction experiments.

Usage (installed as ``cobra-repro`` or via ``python -m repro``)::

    cobra-repro list                      # all experiments and claims
    cobra-repro info E4                   # one experiment's identity card
    cobra-repro run E1 --mode quick       # run and print one experiment
    cobra-repro run E1 --out results/     # ... also write JSON
    cobra-repro run E1 --set sizes=256,512 --set samples=8   # override workload
    cobra-repro all --mode quick          # run everything in order
    cobra-repro all --only E1,E4 --skip E11   # filter the sweep
    cobra-repro scenario list             # named workloads (paper + diversity)
    cobra-repro scenario run e2-hypercube # run a named scenario
    cobra-repro scenario validate s.json  # schema-check scenario files
    cobra-repro run E1 --jobs 4           # shard ensembles over 4 workers
    cobra-repro campaign c.json --jobs 0  # one campaign entry per CPU
    cobra-repro run E1 --cache-dir .repro-cache   # reuse cached results
    cobra-repro campaign c.json --stream  # tail entries as they finish
    cobra-repro campaign c.json --cache-dir c/    # re-run to restart after a crash
    cobra-repro campaign c.json --shard 0/4 --cache-dir shared/   # 1 of 4 hosts
    cobra-repro cache stats               # inspect the result cache
    cobra-repro lint src tests            # static invariant checks
    cobra-repro lint --format json        # ... machine-readable findings

A campaign run exits 3 when any entry failed, so schedulers can tell
"ran but incomplete" from usage errors (exit 1).  An interrupted
campaign restarts by running the same command again with the same
``--cache-dir``: finished entries load from the cache.  ``lint``
exits 2 when findings remain, again distinct from usage errors.

``--jobs`` never changes results: replica seeding is sharded
seed-stably (see :mod:`repro.parallel`), so any worker count produces
the same numbers.  ``--cache-dir`` never changes results either: the
cache key covers everything a run computes from (see
:mod:`repro.cache`), so a hit is byte-identical to a recomputation.
``--set`` overrides are workload fields (see :mod:`repro.scenarios`);
an override grid equal to the preset hits the preset's cache entries.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError
from repro.experiments import experiment_ids, get_spec
from repro.scenarios.workloads import ENGINE_CHOICES


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="cobra-repro",
        description=(
            "Reproduction of 'The Coalescing-Branching Random Walk on Expanders "
            "and the Dual Epidemic Process' (Cooper, Radzik, Rivera; PODC 2016)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for ensemble sampling and campaign entries "
            "(default 1; 0 = one per CPU); results are independent of N"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all experiments")

    info = subparsers.add_parser("info", help="show one experiment's identity card")
    info.add_argument("experiment", help="experiment id, e.g. E1")

    run = subparsers.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id, e.g. E1")
    _add_run_options(run)
    run.add_argument(
        "--engine",
        default=None,
        choices=ENGINE_CHOICES,
        help=(
            "measurement engine for engine-aware experiments: 'batch' "
            "(vectorised rounds, the default), 'sparse' "
            "(frontier-proportional rounds for million-vertex graphs), or "
            "'event' (continuous-time Gillespie); shorthand for "
            "--set engine=NAME"
        ),
    )
    run.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="FIELD=VALUE",
        help=(
            "override one workload field on top of the --mode preset "
            "(repeatable), e.g. --set sizes=256,512 --set samples=8; "
            "values equal to the preset reuse the preset's cache entries"
        ),
    )

    run_all = subparsers.add_parser("all", help="run every experiment in order")
    _add_run_options(run_all)
    run_all.add_argument(
        "--only",
        default=None,
        metavar="IDS",
        help="comma-separated experiment ids to run (e.g. E1,E4); others are skipped",
    )
    run_all.add_argument(
        "--skip",
        default=None,
        metavar="IDS",
        help="comma-separated experiment ids to skip (e.g. E11)",
    )

    scenario = subparsers.add_parser(
        "scenario", help="list, inspect, run, or validate named workload scenarios"
    )
    scenario_actions = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_actions.add_parser("list", help="all built-in scenarios")
    scenario_info = scenario_actions.add_parser(
        "info", help="one scenario's experiment, description, and workload"
    )
    scenario_info.add_argument("name", help="scenario name or scenario JSON file path")
    scenario_run = scenario_actions.add_parser(
        "run", help="run a scenario by name or from a JSON file"
    )
    scenario_run.add_argument("name", help="scenario name or scenario JSON file path")
    scenario_run.add_argument("--seed", type=int, default=0, help="master seed")
    scenario_run.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="directory to write JSON results into",
    )
    _add_jobs_option(scenario_run)
    _add_cache_options(scenario_run)
    scenario_validate = scenario_actions.add_parser(
        "validate",
        help="validate scenario (or campaign) JSON files against the schema",
    )
    scenario_validate.add_argument(
        "files", nargs="+", type=Path, help="scenario or campaign JSON files"
    )

    graph_info = subparsers.add_parser(
        "graph-info", help="build a graph family and print structure + spectrum"
    )
    graph_info.add_argument(
        "family",
        help=(
            "generator name from repro.graphs.generators "
            "(e.g. petersen, complete, cycle, random_regular, torus)"
        ),
    )
    graph_info.add_argument(
        "params",
        nargs="*",
        help="positional generator arguments, integers or comma-tuples (e.g. 5,7)",
    )
    graph_info.add_argument("--seed", type=int, default=0, help="seed for random families")

    cover = subparsers.add_parser(
        "cover", help="run one COBRA broadcast on an expander and show the trace"
    )
    cover.add_argument("-n", type=int, default=1024, help="number of vertices")
    cover.add_argument("-r", type=int, default=8, help="degree")
    cover.add_argument("-k", "--branching", type=float, default=2.0, help="branching factor")
    cover.add_argument("--seed", type=int, default=0, help="master seed")

    duality = subparsers.add_parser(
        "duality", help="exact Theorem 4 check on a small structured graph"
    )
    duality.add_argument(
        "--graph",
        choices=("petersen", "k7", "c9"),
        default="petersen",
        help="small graph to verify on",
    )
    duality.add_argument("-k", "--branching", type=float, default=2.0, help="branching factor")
    duality.add_argument("--t-max", type=int, default=10, help="horizon")

    campaign = subparsers.add_parser(
        "campaign", help="run a JSON-described batch of experiments with a manifest"
    )
    campaign.add_argument("file", type=Path, help="campaign description JSON")
    campaign.add_argument(
        "--out", type=Path, default=Path("results"), help="output directory root"
    )
    campaign.add_argument(
        "--stream",
        action="store_true",
        help="print one line per entry as it completes (completion order under --jobs)",
    )
    campaign.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help=(
            "run only the entries whose campaign index is I mod N (0-based) "
            "and write manifest.shardIofN.json; N processes or hosts sharing "
            "a --cache-dir chew one campaign, then an unsharded re-run with "
            "the same --cache-dir merges the full manifest"
        ),
    )
    _add_jobs_option(campaign)
    _add_cache_options(campaign)

    lint = subparsers.add_parser(
        "lint",
        help="static invariant checks: determinism, cache identity, spawn safety",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks", "examples"],
        help="files or directories to check (default: the whole repository)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="finding output format (json is the CI artifact form)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect or maintain the result cache"
    )
    cache.add_argument(
        "action",
        choices=("stats", "clear", "prune"),
        help=(
            "stats = entry count and size, clear = delete everything, "
            "prune = delete corrupt or stale-schema entries"
        ),
    )
    cache.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="cache directory (default .repro-cache)",
    )
    return parser


def _parse_override_value(value: str):
    """A ``--set`` value: JSON for structured values, else the raw string.

    Plain strings (including ``"256,512"`` grids and scalars) are
    coerced by the workload's field specs; JSON objects/arrays cover
    structured fields like graph families.
    """
    value = value.strip()
    if value.startswith(("{", "[")):
        import json

        try:
            return json.loads(value)
        except ValueError as error:
            raise ReproError(f"--set value is not valid JSON: {value!r} ({error})")
    return value


def _parse_overrides(pairs: Sequence[str]) -> dict:
    overrides = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        key = key.strip()
        if not separator or not key:
            raise ReproError(f"--set needs FIELD=VALUE, got {pair!r}")
        overrides[key] = _parse_override_value(value)
    return overrides


def _filter_experiment_ids(only: str | None, skip: str | None) -> list[str]:
    """The ``all`` sweep's id list after ``--only`` / ``--skip`` filters."""
    known = experiment_ids()

    def parse(option: str, value: str) -> list[str]:
        ids = []
        for token in value.split(","):
            token = token.strip().upper()
            if not token:
                continue
            if token not in known:
                raise ReproError(
                    f"{option}: unknown experiment {token!r}; "
                    f"known ids: {', '.join(known)}"
                )
            ids.append(token)
        if not ids:
            raise ReproError(f"{option} needs at least one experiment id")
        return ids

    selected = parse("--only", only) if only is not None else list(known)
    skipped = set(parse("--skip", skip)) if skip is not None else set()
    remaining = [experiment_id for experiment_id in selected if experiment_id not in skipped]
    if not remaining:
        raise ReproError("--only/--skip left no experiments to run")
    return remaining


def _scenario_command(args: "argparse.Namespace") -> None:
    from repro.scenarios import iter_scenarios, resolve_scenario

    if args.scenario_command == "list":
        for scenario in iter_scenarios():
            print(
                f"{scenario.name:>18}  {scenario.experiment_id:<4} "
                f"{scenario.description}"
            )
    elif args.scenario_command == "info":
        scenario = resolve_scenario(args.name)
        workload = scenario.workload()
        print(f"[{scenario.name}] {scenario.experiment_id} (base: {scenario.base})")
        if scenario.description:
            print(f"  {scenario.description}")
        print(f"  workload: {workload.describe()}")
        import json

        print(json.dumps(scenario.to_dict(), indent=2))
    elif args.scenario_command == "run":
        scenario = resolve_scenario(args.name)
        _run_one(
            scenario.experiment_id,
            None,
            args.seed,
            args.out,
            _effective_cache_dir(args),
            workload=scenario.workload(),
            file_tag=scenario.name,
        )
    elif args.scenario_command == "validate":
        _validate_scenario_files(args.files)


def _validate_scenario_files(files: Sequence[Path]) -> None:
    """Schema-check scenario (or campaign) JSON files; any failure exits 1."""
    import json

    from repro.experiments.campaign import Campaign
    from repro.scenarios import validate_scenario_dict

    failures = 0
    for path in files:
        try:
            text = path.read_text()
            data = json.loads(text)
            if isinstance(data, dict) and "entries" in data:
                Campaign.from_json(text)
                kind = "campaign"
            else:
                validate_scenario_dict(data)
                kind = "scenario"
        except (OSError, ValueError, ReproError) as error:
            failures += 1
            print(f"FAIL {path}: {error}")
            continue
        print(f"ok   {path} ({kind})")
    if failures:
        raise ReproError(f"{failures} of {len(files)} file(s) failed validation")


def _campaign(
    file: Path,
    out: Path,
    jobs: int,
    cache_dir: Path | None,
    stream: bool,
    *,
    shard: str | None = None,
) -> int:
    """Run a campaign file; returns the process exit code (0 or 3)."""
    import json

    from repro.experiments.campaign import (
        Campaign,
        CampaignEntry,
        iter_campaign,
        owned_indices,
        run_campaign,
    )

    text = file.read_text()
    try:
        raw = json.loads(text)
    except ValueError as error:
        raise ReproError(f"malformed campaign description: {error}") from None
    if isinstance(raw, dict) and "entries" not in raw and "experiment_id" in raw:
        # A scenario file: run it as a one-entry campaign.
        from repro.scenarios import validate_scenario_dict

        scenario = validate_scenario_dict(raw)
        description = Campaign(
            name=scenario.name,
            entries=[
                CampaignEntry(
                    experiment_id=scenario.experiment_id, scenario=str(file)
                )
            ],
        )
        description.validate()
    else:
        description = Campaign.from_json(text)
    options = dict(jobs=jobs, cache_dir=cache_dir, shard=shard)
    if stream:
        total = len(owned_indices(description, shard))
        entries = []
        for done, (index, record) in enumerate(
            iter_campaign(description, out, **options), start=1
        ):
            if "error" in record:
                status = f"ERROR {record['error']}"
            elif record.get("cached"):
                status = "cached"
            else:
                status = f"{record['seconds']}s"
            base = record.get("scenario", record.get("mode"))
            print(
                f"[{done}/{total}] {record['experiment_id']} "
                f"({base}, seed {record['seed']}) {status}"
            )
            entries.append(record)
        manifest = {"campaign": description.name, "entries": entries}
    else:
        manifest = run_campaign(description, out, progress=print, **options)
    total_seconds = sum(entry.get("seconds", 0.0) for entry in manifest["entries"])
    cached = sum(1 for entry in manifest["entries"] if entry.get("cached"))
    errors = sum(1 for entry in manifest["entries"] if "error" in entry)
    summary = f"campaign {description.name!r}: {len(manifest['entries'])} runs"
    if cached:
        summary += f" ({cached} cached)"
    if errors:
        summary += f" ({errors} failed)"
    print(f"{summary} in {total_seconds:.1f}s -> {out / description.name}")
    # Exit 3 — distinct from usage errors (1) — when the campaign ran
    # but an entry failed, so schedulers and CI can retry or alert.
    return 3 if errors else 0


def _lint(args: "argparse.Namespace") -> int:
    """Run the static invariant checker; returns the process exit code.

    Exit codes: 0 clean, 1 usage error (bad rule id), 2 findings
    remain — distinct so CI can tell "violations found" from "lint
    misconfigured".
    """
    import json

    from repro.analysis.lint import lint_paths, rules_by_id

    registry = rules_by_id()
    if args.list_rules:
        for rule_id, rule in registry.items():
            print(f"{rule_id:>16}  {rule.title}")
        return 0
    rules = None
    if args.rules is not None:
        selected = [token.strip() for token in args.rules.split(",") if token.strip()]
        unknown = sorted(set(selected) - set(registry))
        if unknown:
            raise ReproError(
                f"--rules: unknown rule id(s) {', '.join(unknown)}; "
                f"known: {', '.join(registry)}"
            )
        if not selected:
            raise ReproError("--rules needs at least one rule id")
        rules = [registry[rule_id] for rule_id in selected]

    report = lint_paths(args.paths, rules=rules)
    if args.output_format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = f"{len(report.findings)} finding(s) in {report.files_checked} file(s)"
        print(f"clean: {summary}" if report.clean else summary)
    return 0 if report.clean else 2


def _cache_command(action: str, cache_dir: Path | None) -> None:
    from repro.cache import DEFAULT_CACHE_DIR, ResultCache

    # Maintenance commands inspect an existing store; none of them
    # should create the directory as a side effect.
    cache = ResultCache(
        cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR, create=False
    )
    if action == "stats":
        summary = cache.stats_summary()
        print(f"cache {summary['directory']}: schema v{summary['schema']}")
        print(f"  entries: {summary['entries']}")
        print(f"  bytes  : {summary['bytes']}")
    elif action == "clear":
        removed = cache.clear()
        print(f"cache {cache.directory}: removed {removed} entries")
    elif action == "prune":
        removed = cache.prune()
        print(f"cache {cache.directory}: pruned {removed} corrupt or stale entries")


def _cover(n: int, r: int, branching: float, seed: int) -> None:
    from repro.analysis.trace_view import render_coverage_bars
    from repro.core.cobra import CobraProcess
    from repro.core.runner import run_process
    from repro.graphs.generators import random_regular

    graph = random_regular(n, r, seed=seed)
    process = CobraProcess(graph, 0, branching=branching, seed=seed + 1)
    result = run_process(process, record_trace=True, raise_on_timeout=True)
    print(f"{graph}: COBRA k={branching} covered in {result.completion_time} rounds")
    print(render_coverage_bars(result.trace, n, max_rows=40))


def _duality(graph_name: str, branching: float, t_max: int) -> None:
    from repro.analysis.tables import Table
    from repro.exact.duality import duality_series
    from repro.graphs.generators import complete, cycle, petersen

    graph = {"petersen": petersen, "k7": lambda: complete(7), "c9": lambda: cycle(9)}[
        graph_name
    ]()
    start, source = [0], graph.n_vertices - 1
    cobra_side, bips_side = duality_series(graph, start, source, t_max, branching=branching)
    table = Table(
        ["t", "COBRA P(Hit>t)", "BIPS P(disjoint)", "|diff|"], float_format="%.12f"
    )
    for t in range(t_max + 1):
        table.add_row([t, cobra_side[t], bips_side[t], abs(cobra_side[t] - bips_side[t])])
    print(f"{graph}: C = {start}, v = {source}, k = {branching}")
    print(table.render())
    print(f"max |difference| = {max(abs(cobra_side - bips_side)):.3e}")


def _parse_graph_param(token: str):
    from repro.errors import ReproError

    try:
        if "," in token:
            return tuple(int(part) for part in token.split(",") if part)
        try:
            return int(token)
        except ValueError:
            return float(token)
    except ValueError:
        raise ReproError(
            f"bad graph parameter {token!r}: expected a number or a comma-tuple of integers"
        ) from None


def _graph_info(family: str, params: list[str], seed: int) -> None:
    import inspect

    from repro.errors import ReproError
    from repro.graphs import generators
    from repro.graphs.properties import degree_histogram, diameter, is_bipartite, is_connected
    from repro.graphs.spectral import ANALYTIC_FAMILIES, analytic_lambda, lambda_second

    if family not in generators.__all__:
        raise ReproError(
            f"unknown graph family {family!r}; choose from {', '.join(generators.__all__)}"
        )
    generator = getattr(generators, family)
    arguments = [_parse_graph_param(token) for token in params]
    try:
        if "seed" in inspect.signature(generator).parameters:
            graph = generator(*arguments, seed=seed)
        else:
            graph = generator(*arguments)
    except TypeError as error:
        raise ReproError(f"bad arguments for {family}: {error}") from None

    connected = is_connected(graph)
    bipartite = is_bipartite(graph)
    print(graph)
    print(f"  connected : {connected}")
    print(f"  bipartite : {bipartite}")
    print(f"  degrees   : {degree_histogram(graph)}")
    if graph.n_vertices <= 4096 and connected:
        # Eigensolve only where no closed form applies: Lanczos takes
        # tens of seconds on ring-like graphs of a few thousand vertices.
        if bipartite:
            lam = 1.0  # -1 is an eigenvalue of P
        elif family in ANALYTIC_FAMILIES:
            named = inspect.signature(generator).bind(*arguments).arguments
            lam = analytic_lambda(family, **named)
        else:
            lam = lambda_second(graph)
        print(f"  lambda    : {lam:.6f}   spectral gap: {1.0 - lam:.6f}")
    if graph.n_vertices <= 512 and connected:
        print(f"  diameter  : {diameter(graph)}")


def _add_jobs_option(subparser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a subcommand-level `--jobs` from clobbering the
    # global flag's value when it is not given after the subcommand.
    subparser.add_argument(
        "--jobs",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="worker processes (default 1; 0 = one per CPU)",
    )


def _add_cache_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="result-cache directory: reuse cached runs, store fresh ones",
    )
    subparser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even when --cache-dir is given",
    )


def _add_run_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--mode",
        choices=("quick", "full"),
        default="quick",
        help="quick = CI-scale parameters, full = EXPERIMENTS.md-scale",
    )
    subparser.add_argument("--seed", type=int, default=0, help="master seed")
    subparser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory to write JSON results into",
    )
    _add_jobs_option(subparser)
    _add_cache_options(subparser)


def _effective_cache_dir(args: argparse.Namespace) -> Path | None:
    """The cache directory a subcommand should use, honouring --no-cache."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


def _run_one(
    experiment_id: str,
    mode: str | None,
    seed: int,
    out: Path | None,
    cache_dir: Path | None,
    workload=None,
    file_tag: str | None = None,
) -> None:
    from repro.experiments import run_experiment_cached

    started = time.perf_counter()
    result, cached = run_experiment_cached(
        experiment_id, mode=mode, seed=seed, workload=workload, cache_dir=cache_dir
    )
    elapsed = time.perf_counter() - started
    print(result.render())
    source = " (cached)" if cached else ""
    print(f"\n[{result.spec.experiment_id}] finished in {elapsed:.1f}s{source}")
    if out is not None:
        tag = file_tag if file_tag is not None else result.mode
        path = out / f"{result.spec.experiment_id.lower()}_{tag}.json"
        result.save(path)
        print(f"[{result.spec.experiment_id}] saved to {path}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.parallel import resolve_jobs, set_default_jobs

    parser = build_parser()
    args = parser.parse_args(argv)
    previous_jobs = None
    try:
        jobs = resolve_jobs(args.jobs)
        # Process-wide defaults so every ensemble an experiment measures
        # inherits the flags; restored for embedded callers (tests).
        previous_jobs = set_default_jobs(jobs)
        if args.command == "list":
            for experiment_id in experiment_ids():
                spec = get_spec(experiment_id)
                print(f"{spec.experiment_id:>4}  {spec.title}  [{spec.paper_reference}]")
        elif args.command == "info":
            print(get_spec(args.experiment).header())
        elif args.command == "run":
            workload = None
            file_tag = None
            overrides = _parse_overrides(args.overrides)
            if args.engine is not None:
                # --engine is sugar for --set engine=NAME; an explicit
                # --set engine=... wins so the two spellings never fight.
                overrides.setdefault("engine", args.engine)
            if overrides:
                from repro.experiments import get_experiment
                from repro.scenarios.base import overrides_digest

                workload = get_experiment(args.experiment).preset(args.mode).with_overrides(
                    overrides
                )
                # Distinct override sets must not clobber each other's
                # output files; mirror the campaign layer's digest tags.
                file_tag = f"{args.mode}-{overrides_digest(overrides)}"
            _run_one(
                args.experiment,
                None if workload is not None else args.mode,
                args.seed,
                args.out,
                _effective_cache_dir(args),
                workload=workload,
                file_tag=file_tag,
            )
        elif args.command == "all":
            for experiment_id in _filter_experiment_ids(args.only, args.skip):
                _run_one(experiment_id, args.mode, args.seed, args.out, _effective_cache_dir(args))
                print()
        elif args.command == "scenario":
            _scenario_command(args)
        elif args.command == "graph-info":
            _graph_info(args.family, args.params, args.seed)
        elif args.command == "cover":
            _cover(args.n, args.r, args.branching, args.seed)
        elif args.command == "duality":
            _duality(args.graph, args.branching, args.t_max)
        elif args.command == "campaign":
            return _campaign(
                args.file,
                args.out,
                jobs,
                _effective_cache_dir(args),
                args.stream,
                shard=args.shard,
            )
        elif args.command == "lint":
            return _lint(args)
        elif args.command == "cache":
            _cache_command(args.action, args.cache_dir)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if previous_jobs is not None:
            set_default_jobs(previous_jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
