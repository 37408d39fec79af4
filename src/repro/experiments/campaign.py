"""Campaigns: batches of experiment runs with a saved manifest.

A campaign is a declarative list of experiment runs — which ids, which
mode (or named scenario, or workload overrides), which seeds —
executed in order with every result saved to disk
next to a manifest recording what was run, when, and where each result
landed.  This is the reproducibility wrapper around the registry:
``EXPERIMENTS.md`` numbers come from a one-line campaign.

Example::

    from repro.experiments.campaign import Campaign, run_campaign

    campaign = Campaign(
        name="full-reproduction",
        entries=[CampaignEntry(experiment_id=eid, mode="full", seed=0)
                 for eid in experiment_ids()],
    )
    manifest = run_campaign(campaign, "results/")

With ``cache_dir=`` set, entries whose ``(experiment, mode, seed,
parameters)`` identity is already in the result cache are loaded
instead of recomputed and marked ``"cached": true`` in the manifest.
:func:`iter_campaign` is the streaming variant: it yields each
manifest record as its entry completes (completion order under
``jobs > 1``), so a dashboard or the CLI can tail a long campaign
instead of waiting for the final manifest.

The cache is also how a campaign restarts.  Re-run an interrupted
campaign with the same ``cache_dir`` and every entry that finished
loads from the store; only the rest compute.  ``shard="i/N"`` runs
sharing one cache merge the same way, through one unsharded re-run.
Entries run on :func:`repro.parallel.imap_shards` with a fresh worker
per entry, in completion order.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import traceback as traceback_module
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import ExperimentError, ScenarioError
from repro.experiments import get_spec, run_experiment_cached
from repro.parallel import imap_shards, resolve_jobs, set_default_jobs

#: The only keys a campaign-entry description may carry.
_ENTRY_KEYS = frozenset({"experiment_id", "mode", "seed", "scenario", "overrides"})

#: The modes an entry may request.
_ENTRY_MODES = ("quick", "full")


@dataclass(frozen=True)
class CampaignEntry:
    """One experiment run within a campaign.

    Besides the classic ``(experiment_id, mode, seed)`` triple an entry
    may name a ``scenario`` (a registry name or a scenario JSON file
    path — the experiment id may then be omitted) and/or sparse
    workload ``overrides`` layered on top of the base configuration.
    ``mode`` and ``scenario`` are mutually exclusive: a scenario fixes
    its own base preset.
    """

    experiment_id: str
    mode: str = "quick"
    seed: int = 0
    scenario: str | None = None
    overrides: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for the manifest (scenario keys only if set).

        Scenario entries omit ``mode`` — the scenario fixes its own
        base preset, and :meth:`from_dict` rejects the redundant pair —
        so ``to_dict``/``from_dict`` round-trip exactly.
        """
        data: dict[str, Any] = {"experiment_id": self.experiment_id}
        if self.scenario is None:
            data["mode"] = self.mode
        data["seed"] = self.seed
        if self.scenario is not None:
            data["scenario"] = self.scenario
        if self.overrides:
            data["overrides"] = dict(self.overrides)
        return data

    def workload(self):
        """The entry's workload, or ``None`` for a plain preset entry.

        Scenario names resolve against the built-in registry (or a JSON
        file); overrides apply on top of the scenario's workload or the
        ``mode`` preset.  Raises :class:`~repro.errors.ScenarioError`
        on unknown scenarios or misfitting overrides.
        """
        if self.scenario is None and not self.overrides:
            return None
        from repro.experiments import get_experiment
        from repro.scenarios.registry import resolve_scenario

        if self.scenario is not None:
            scenario = resolve_scenario(self.scenario)
            if scenario.experiment_id.upper() != self.experiment_id.upper():
                raise ScenarioError(
                    f"campaign entry {self.experiment_id}: scenario "
                    f"{self.scenario!r} belongs to {scenario.experiment_id}"
                )
            base = scenario.workload()
        else:
            base = get_experiment(self.experiment_id).preset(self.mode)
        return base.with_overrides(self.overrides or {})

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignEntry":
        """Inverse of :meth:`to_dict`, validating the description strictly.

        Unknown keys (a typoed ``"Mode"`` would otherwise silently run
        the default), non-string ids, bad modes, non-integer seeds,
        unknown scenarios, and misfitting overrides are all
        :class:`ExperimentError`\\ s with the offending value in the
        message, so a malformed campaign JSON fails before any work is
        done rather than quietly running something else.
        """
        if not isinstance(data, dict):
            raise ExperimentError(
                f"campaign entry must be an object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - _ENTRY_KEYS)
        if unknown:
            raise ExperimentError(
                f"campaign entry has unknown keys {unknown}; "
                f"allowed keys are {sorted(_ENTRY_KEYS)}"
            )
        scenario = data.get("scenario")
        if scenario is not None and (not isinstance(scenario, str) or not scenario):
            raise ExperimentError(
                f"campaign entry: scenario must be a non-empty string, got {scenario!r}"
            )
        if scenario is not None and "mode" in data:
            raise ExperimentError(
                f"campaign entry: pass either 'scenario' or 'mode', not both "
                f"(scenario {scenario!r} fixes its own base preset)"
            )
        experiment_id = data.get("experiment_id")
        if scenario is not None and experiment_id is None:
            from repro.scenarios.registry import resolve_scenario

            experiment_id = resolve_scenario(scenario).experiment_id
        if not isinstance(experiment_id, str):
            raise ExperimentError(
                f"campaign entry needs a string 'experiment_id', got {data!r}"
            )
        mode = data.get("mode", "quick")
        if mode not in _ENTRY_MODES:
            raise ExperimentError(
                f"campaign entry {experiment_id}: mode must be one of "
                f"{list(_ENTRY_MODES)}, got {mode!r}"
            )
        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ExperimentError(
                f"campaign entry {experiment_id}: seed must be an "
                f"integer, got {seed!r}"
            )
        overrides = data.get("overrides")
        if overrides is not None and not isinstance(overrides, dict):
            raise ExperimentError(
                f"campaign entry {experiment_id}: overrides must be an object, "
                f"got {type(overrides).__name__}"
            )
        return cls(
            experiment_id=experiment_id,
            mode=mode,
            seed=seed,
            scenario=scenario,
            overrides=overrides,
        )


@dataclass
class Campaign:
    """A named, ordered batch of experiment runs."""

    name: str
    entries: list[CampaignEntry] = field(default_factory=list)

    def validate(self) -> None:
        """Fail fast on unknown ids, modes, or scenarios before any work.

        Scenario references and overrides are fully resolved here (the
        workloads are rebuilt — not kept — so campaigns stay cheap to
        validate), which surfaces unknown scenario names, missing
        scenario files, and misfitting overrides with one clear error
        each before any entry runs.
        """
        if not self.name:
            raise ExperimentError("campaign name must be non-empty")
        if not self.entries:
            raise ExperimentError(f"campaign {self.name!r} has no entries")
        for entry in self.entries:
            get_spec(entry.experiment_id)  # raises on unknown id
            if entry.mode not in _ENTRY_MODES:
                raise ExperimentError(
                    f"campaign entry {entry.experiment_id}: mode must be "
                    f"'quick' or 'full', got {entry.mode!r}"
                )
            entry.workload()  # raises on bad scenarios/overrides

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        """Parse a campaign description (``{"name": ..., "entries": [...]}``).

        ``"entries"`` must be a JSON array.  A dict or string would
        otherwise *iterate* — over its keys or characters — and
        surface as a baffling per-entry error ("campaign entry must be
        an object, got str"), so the wrong container type is rejected
        up front with one clear message naming what was found.
        """
        try:
            data = json.loads(text)
            entries = data["entries"]
            if not isinstance(entries, list):
                raise ExperimentError(
                    f"campaign 'entries' must be a list of entry objects, "
                    f"got {type(entries).__name__}"
                )
            campaign = cls(
                name=data["name"],
                entries=[CampaignEntry.from_dict(entry) for entry in entries],
            )
        except (KeyError, TypeError, json.JSONDecodeError) as error:
            raise ExperimentError(f"malformed campaign description: {error}") from None
        campaign.validate()
        return campaign

    def to_json(self) -> str:
        """Serialise the campaign description."""
        return json.dumps(
            {"name": self.name, "entries": [entry.to_dict() for entry in self.entries]},
            indent=2,
        )


def _cache_dir_argument(cache: Any | None, cache_dir: str | Path | None) -> str | None:
    """Normalise campaign cache options to a directory string or ``None``.

    Campaign entries may run in worker processes, so the cache travels
    as a directory path (each worker opens its own handle on the shared
    on-disk store); a :class:`~repro.cache.ResultCache` instance
    contributes its directory.
    """
    if cache is not None:
        return str(cache.directory)
    if cache_dir is not None:
        return str(cache_dir)
    return None


def _entry_stem(entry: CampaignEntry) -> str:
    """Result-file stem: unique per distinct entry configuration.

    Plain entries keep the historical ``<eid>_<mode>_s<seed>`` names
    (warm manifests stay byte-identical).  Scenario entries use the
    scenario name (a file path contributes its stem); any entry with
    overrides appends a short digest of them, so two grid points of
    the same experiment/scenario/seed cannot clobber each other's
    files.
    """
    from repro.scenarios.base import overrides_digest

    if entry.scenario is not None:
        # Only a file path goes through Path.stem — registry names may
        # legitimately contain dots and must not be truncated.
        if entry.scenario.endswith(".json"):
            tag = Path(entry.scenario).stem
        else:
            tag = entry.scenario
        tag = tag.replace("/", "-")
    else:
        tag = entry.mode
    if entry.overrides:
        tag = f"{tag}-{overrides_digest(entry.overrides)}"
    return f"{entry.experiment_id.lower()}_{tag}_s{entry.seed}"


def _execute_entry(
    entry: CampaignEntry, directory: Path, cache_dir: str | None = None
) -> dict[str, Any]:
    """Run one entry, save its result files, return its manifest record.

    Cached entries record ``"seconds": 0.0`` — the lookup cost is noise,
    and a constant keeps manifests reproducible byte-for-byte across
    runs and worker counts once the cache is warm.
    """
    started = time.perf_counter()
    workload = entry.workload()
    result, cached = run_experiment_cached(
        entry.experiment_id,
        mode=None if workload is not None else entry.mode,
        workload=workload,
        seed=entry.seed,
        cache_dir=cache_dir,
    )
    elapsed = 0.0 if cached else time.perf_counter() - started
    stem = _entry_stem(entry)
    result.save(directory / f"{stem}.json")
    (directory / f"{stem}.txt").write_text(result.render() + "\n")
    return {
        **entry.to_dict(),
        "result_json": f"{stem}.json",
        "result_text": f"{stem}.txt",
        "seconds": round(elapsed, 2),
        "cached": cached,
        "findings": result.findings,
    }


def _isolated_entry(
    context: dict[str, Any], entry_data: dict[str, Any]
) -> dict[str, Any]:
    """Kernel: one campaign entry, as a manifest record that never raises.

    A failing entry returns an error record instead of raising, so one
    failure never aborts the campaign.  The record is built where the
    entry ran, so under a pool its traceback is the worker's own.

    In a daemonic pool worker the ensemble-jobs default is clamped to 1
    for the entry's lifetime — entry-level and replica-level
    parallelism never stack (nested pools are already disabled for
    daemons; the clamp keeps the fallback paths from even trying).
    Run inline (sequential campaigns) the clamp is skipped, so entries
    keep their replica-level parallelism.  The previous default is
    always restored.
    """
    entry = CampaignEntry.from_dict(entry_data)
    clamp = multiprocessing.current_process().daemon
    previous_jobs = set_default_jobs(1) if clamp else None
    try:
        return _execute_entry(
            entry, Path(context["directory"]), cache_dir=context["cache_dir"]
        )
    except Exception as error:
        return _error_record(entry, error)
    finally:
        if previous_jobs is not None:
            set_default_jobs(previous_jobs)


#: Error-record tracebacks keep only this many trailing characters —
#: the last frames carry the failure, and manifests stay readable.
_TRACEBACK_TAIL = 2000


def _error_record(entry: CampaignEntry, error: BaseException) -> dict[str, Any]:
    """Manifest record for a failed entry (no result files).

    ``error`` keeps the one-line ``Type: message`` form and
    ``error_type`` the bare class name; the truncated traceback tail
    makes post-mortems possible from the manifest alone.
    """
    text = "".join(
        traceback_module.format_exception(type(error), error, error.__traceback__)
    ).rstrip()
    if len(text) > _TRACEBACK_TAIL:
        text = "... (truncated) ...\n" + text[-_TRACEBACK_TAIL:]
    return {
        **entry.to_dict(),
        "error": f"{type(error).__name__}: {error}",
        "error_type": type(error).__name__,
        "traceback": text,
    }


def _entry_label(record: dict[str, Any]) -> str:
    base = record.get("scenario", record.get("mode"))
    return f"{record['experiment_id']} ({base}, seed {record['seed']})"


def _resolve_shard(shard: Any) -> tuple[int, int] | None:
    """Normalise a ``shard=`` argument to ``(index, count)`` or ``None``.

    Accepts ``"i/N"`` strings (the CLI form) or ``(i, N)`` pairs, with
    0-based ``i``.  Shard ``i`` owns the campaign entries whose index
    is ``i`` modulo ``N`` — a pure function of the campaign description,
    so N processes (or hosts) handed the same campaign partition it
    exactly, with no coordination beyond the shared result cache.
    """
    if shard is None:
        return None
    if isinstance(shard, str):
        parts = shard.split("/")
        try:
            index, count = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            raise ExperimentError(
                f"shard must look like 'i/N' (e.g. '0/4'), got {shard!r}"
            ) from None
        if len(parts) != 2:
            raise ExperimentError(
                f"shard must look like 'i/N' (e.g. '0/4'), got {shard!r}"
            )
    else:
        try:
            index, count = shard
        except (TypeError, ValueError):
            raise ExperimentError(
                f"shard must be an 'i/N' string or an (index, count) pair, "
                f"got {shard!r}"
            ) from None
        if (
            isinstance(index, bool)
            or isinstance(count, bool)
            or not isinstance(index, int)
            or not isinstance(count, int)
        ):
            raise ExperimentError(
                f"shard index and count must be integers, got {shard!r}"
            )
    if count < 1:
        raise ExperimentError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ExperimentError(f"shard index must be in [0, {count}), got {index}")
    return (index, count)


def owned_indices(campaign: Campaign, shard: Any = None) -> range:
    """Campaign indices a ``shard="i/N"`` run owns (all of them for ``None``)."""
    index, count = _resolve_shard(shard) or (0, 1)
    return range(index, len(campaign.entries), count)


def _write_manifest(
    directory: Path,
    campaign: Campaign,
    records: dict[int, dict[str, Any]],
    shard_spec: tuple[int, int] | None = None,
) -> dict[str, Any]:
    """Write the (possibly per-shard) manifest in campaign order."""
    manifest: dict[str, Any] = {"campaign": campaign.name}
    if shard_spec is not None:
        manifest["shard"] = f"{shard_spec[0]}/{shard_spec[1]}"
        name = f"manifest.shard{shard_spec[0]}of{shard_spec[1]}.json"
    else:
        name = "manifest.json"
    manifest["entries"] = [records[index] for index in sorted(records)]
    (directory / name).write_text(json.dumps(manifest, indent=2))
    return manifest


def _prepare(
    campaign: Campaign,
    output_dir: str | Path,
    jobs: int | None,
    cache: Any | None,
    cache_dir: str | Path | None,
    shard: Any,
) -> tuple[Path, str | None, tuple[int, int] | None]:
    """Validate a run eagerly, before any work; make its directory.

    Returns the campaign directory, the cache directory (or ``None``)
    and the resolved shard.
    """
    campaign.validate()
    directory = Path(output_dir) / campaign.name
    directory.mkdir(parents=True, exist_ok=True)
    resolve_jobs(jobs)
    return directory, _cache_dir_argument(cache, cache_dir), _resolve_shard(shard)


def _iter_records(
    campaign: Campaign,
    directory: Path,
    store_dir: str | None,
    jobs: int | None,
    shard_spec: tuple[int, int] | None,
    progress: Callable[[str], None] | None = None,
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(index, record)`` once per owned entry, in completion order."""
    owned = owned_indices(campaign, shard_spec)
    tasks = [(campaign.entries[index].to_dict(),) for index in owned]
    context = {"directory": str(directory), "cache_dir": store_dir}
    with closing(
        imap_shards(_isolated_entry, context, tasks, jobs=jobs, isolate=True, ordered=False)
    ) as results:
        for position, record in results:
            if progress is not None:
                if "error" in record:
                    progress(f"failed {_entry_label(record)}: {record['error']}")
                else:
                    progress(f"finished {_entry_label(record)} in {record['seconds']}s")
            yield owned[position], record


def run_campaign(
    campaign: Campaign,
    output_dir: str | Path,
    *,
    progress: Callable[[str], None] | None = None,
    jobs: int | None = None,
    cache: Any | None = None,
    cache_dir: str | Path | None = None,
    shard: Any = None,
) -> dict[str, Any]:
    """Execute a campaign, saving each result and a manifest.

    Results land in ``output_dir/<campaign-name>/`` as
    ``<eid>_<mode>_s<seed>.json`` (plus ``.txt`` renders); the manifest
    ``manifest.json`` records entries, file names, wall-clock
    durations, and headline findings.  Returns the manifest dict.

    A failing entry does not abort the campaign: its record carries an
    ``"error"`` line, an ``"error_type"``, and a truncated
    ``"traceback"`` — and no result files.

    ``jobs > 1`` executes independent entries concurrently, each in a
    fresh worker process (per-entry isolation), with the manifest kept
    in campaign order and byte-identical in structure to a sequential
    run (entry seeding is per-entry, so results match ``jobs=1``
    exactly; only the ``seconds`` timings differ).

    ``cache=`` (a :class:`~repro.cache.ResultCache`) or ``cache_dir=``
    (a path) enables result caching: entries already in the store are
    loaded instead of recomputed and marked ``"cached": true`` (with
    ``"seconds": 0.0``) in the manifest, so a warm fully-cached
    campaign produces a byte-identical manifest at any worker count.
    A campaign that was interrupted restarts by being re-run with the
    same cache: finished entries load, the rest compute.

    ``shard="i/N"`` (0-based) runs only the entries whose campaign
    index is ``i`` modulo ``N`` and writes ``manifest.shardIofN.json``,
    so N processes or hosts can chew one campaign concurrently,
    coordinating only through the shared cache; a final unsharded run
    with the same cache merges everything into ``manifest.json`` at
    cache speed.
    """
    directory, store_dir, shard_spec = _prepare(
        campaign, output_dir, jobs, cache, cache_dir, shard
    )
    records = dict(
        _iter_records(campaign, directory, store_dir, jobs, shard_spec, progress)
    )
    return _write_manifest(directory, campaign, records, shard_spec)


def iter_campaign(
    campaign: Campaign,
    output_dir: str | Path,
    *,
    jobs: int | None = None,
    cache: Any | None = None,
    cache_dir: str | Path | None = None,
    shard: Any = None,
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Stream a campaign: yield ``(index, record)`` as entries complete.

    The streaming sibling of :func:`run_campaign` — same result files,
    same manifest on disk once the iterator is exhausted — but each
    manifest record is yielded the moment its entry finishes
    (*completion* order under ``jobs > 1``), so a dashboard or progress
    line can tail a long campaign live.  ``index`` is the entry's
    position in the campaign, and the on-disk manifest keeps
    deterministic campaign order regardless of completion order.

    A failing entry does not abort the campaign: its record carries an
    ``"error"`` message (and no result files), and every owned entry is
    yielded exactly once.  Abandoning the iterator early stops the
    campaign without writing a manifest; a later run with the same
    cache loads every entry that finished.

    Validation (unknown ids, bad modes, bad ``jobs``, bad ``shard``)
    happens eagerly, before the iterator is returned.
    """
    directory, store_dir, shard_spec = _prepare(
        campaign, output_dir, jobs, cache, cache_dir, shard
    )
    return _stream(campaign, directory, store_dir, jobs, shard_spec)


def _stream(
    campaign: Campaign,
    directory: Path,
    store_dir: str | None,
    jobs: int | None,
    shard_spec: tuple[int, int] | None,
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Generator body of :func:`iter_campaign` (validation already done)."""
    records: dict[int, dict[str, Any]] = {}
    for index, record in _iter_records(campaign, directory, store_dir, jobs, shard_spec):
        records[index] = record
        yield index, record
    _write_manifest(directory, campaign, records, shard_spec)
