"""Content-addressed on-disk cache for experiment results.

Campaigns recompute identical ``(experiment, mode, seed, parameters)``
runs from scratch today; this module makes the second computation a
JSON load.  Results are keyed by a SHA-256 digest of the canonical-JSON
form of the run's identity — experiment id, mode label, seed, and the
*resolved parameters* of the run (the experiment spec and the run's
canonical workload, see :func:`repro.experiments.resolved_parameters`)
— so any change to what would be computed changes the key, and two
runs that would compute the same thing share one entry.

Design rules:

* **Canonical keys.**  :func:`canonical_json` serialises parameters
  with sorted keys, compact separators, and ``repr``-stable floats, so
  the digest is invariant to dict ordering and float formatting but
  distinct for any differing field.  Unserialisable parameters raise
  :class:`~repro.errors.CacheError` — a cache must never guess.
* **Atomic writes.**  Entries are written to a temporary file in the
  cache directory and published with ``os.replace``, so a concurrent
  reader sees either the old entry or the new one, never a torn write,
  and two processes racing on one key both leave a valid entry behind.
* **Corruption is a miss — quarantined.**  A truncated or malformed
  entry is treated as a cache miss (recounted in ``stats``) and
  renamed aside to ``<name>.corrupt``: the evidence survives for
  post-mortems, re-parsing stops, and the next ``put`` publishes a
  clean entry.  Foreign-schema entries are plain misses (stale, not
  corrupt).  ``prune()`` deletes stale entries and collects the
  quarantined files.
* **Versioned schema.**  Every entry records
  :data:`CACHE_SCHEMA_VERSION`; bumping it invalidates the whole store
  without needing a migration.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import CacheError
from repro.experiments.results import ExperimentResult

#: Version of the on-disk entry layout.  Entries recording any other
#: version are ignored (miss) and removed by ``prune()``.
#: 2: the batch-engine v2 rewrite (and the degree-regular sampling fast
#: path) changed every same-seed simulation stream, so v1-era results
#: must never be served next to v2 outputs.
#: 3: every run is keyed by (spec, workload, seed) and reports its
#: workload as ``parameters``; ``prune()`` collects the older entries.
CACHE_SCHEMA_VERSION = 3

#: Default store location used by the CLI ``cache`` subcommand when no
#: ``--cache-dir`` is given.
DEFAULT_CACHE_DIR = Path(".repro-cache")

#: Age (seconds) past which ``prune()`` treats a ``.tmp-*`` file as a
#: crash leftover rather than a concurrent writer's in-flight publish.
STALE_TMP_SECONDS = 3600.0


def _canonical(value: Any) -> Any:
    """Normalise a parameters value for canonical serialisation.

    Tuples become lists, NumPy scalars their Python equivalents; dict
    keys must be strings (JSON would silently stringify ``1`` into
    ``"1"``, colliding with a genuine string key).  Anything else is a
    :class:`CacheError`: an unserialisable parameter must fail loudly,
    not hash by object identity.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise CacheError(f"cache parameters must be finite, got {value!r}")
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise CacheError(
                    f"cache parameter keys must be strings, got {key!r}"
                )
        return {key: _canonical(item) for key, item in value.items()}
    if hasattr(value, "item"):  # NumPy scalar
        return _canonical(value.item())
    raise CacheError(
        f"cache parameters must be JSON-serialisable, got {type(value).__name__}"
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, compact, repr-stable floats.

    Equal Python values always serialise to identical text regardless
    of dict insertion order or how a float literal was written, so the
    text (and its digest) is a stable identity for the value.
    """
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))


def result_key(experiment_id: str, mode: str, seed: int, parameters: dict[str, Any]) -> str:
    """SHA-256 digest identifying one ``(experiment, mode, seed, parameters)`` run."""
    payload = canonical_json(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "experiment_id": str(experiment_id).upper(),
            "mode": str(mode),
            "seed": int(seed),
            "parameters": parameters,
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Per-process hit/miss/write counters of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def to_dict(self) -> dict[str, int]:
        """Plain-dict form for reports."""
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}


class ResultCache:
    """Content-addressed store of :class:`ExperimentResult` payloads.

    One entry per key, stored flat as
    ``<eid>_<mode>_s<seed>_<digest16>.json`` (human-scannable prefix,
    content-addressed suffix).  Safe for concurrent use by multiple
    processes: writes are atomic renames and corrupt reads degrade to
    misses.
    """

    def __init__(self, cache_dir: str | Path, *, create: bool = True):
        self.directory = Path(cache_dir)
        if self.directory.exists() and not self.directory.is_dir():
            raise CacheError(f"cache path {self.directory} exists and is not a directory")
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def __repr__(self) -> str:
        return f"ResultCache({str(self.directory)!r})"

    def entry_path(
        self, experiment_id: str, mode: str, seed: int, parameters: dict[str, Any]
    ) -> Path:
        """Where the entry for this run identity lives (existing or not)."""
        digest = result_key(experiment_id, mode, seed, parameters)
        stem = f"{experiment_id.lower()}_{mode}_s{int(seed)}_{digest[:16]}"
        return self.directory / f"{stem}.json"

    def get(
        self, experiment_id: str, mode: str, seed: int, parameters: dict[str, Any]
    ) -> ExperimentResult | None:
        """The cached result for this run identity, or ``None`` on a miss.

        Corrupt, truncated, or foreign-schema entries are misses.
        """
        digest = result_key(experiment_id, mode, seed, parameters)
        path = self.entry_path(experiment_id, mode, seed, parameters)
        entry = self._read_entry(path)
        if entry is None or entry.get("key") != digest:
            self.stats.misses += 1
            return None
        try:
            result = ExperimentResult.from_json_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            # Schema drift in a cached payload is a miss, not an error:
            # the entry is simply recomputed and overwritten.
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(
        self,
        experiment_id: str,
        mode: str,
        seed: int,
        parameters: dict[str, Any],
        result: ExperimentResult,
    ) -> Path:
        """Store a result atomically; returns the entry path.

        The payload lands in a temporary file in the cache directory
        and is published with ``os.replace``, so concurrent writers of
        the same key race safely (last rename wins, both contents are
        complete) and readers never observe a partial entry.
        """
        digest = result_key(experiment_id, mode, seed, parameters)
        path = self.entry_path(experiment_id, mode, seed, parameters)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": digest,
            "experiment_id": experiment_id.upper(),
            "mode": mode,
            "seed": int(seed),
            "result": result.to_json_dict(),
        }
        payload = json.dumps(entry, indent=2, default=_coerce)
        self.directory.mkdir(parents=True, exist_ok=True)
        # The ".tmp" suffix (not ".json") keeps in-flight writes out of
        # the entry globs used by size()/prune().
        descriptor, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    def size(self) -> tuple[int, int]:
        """``(entry_count, total_bytes)`` of the store right now."""
        count, total = 0, 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            count += 1
        return count, total

    def clear(self) -> int:
        """Delete every entry (plus quarantined and stray temp files)."""
        removed = 0
        for path in (
            list(self.directory.glob("*.json"))
            + list(self.directory.glob("*.corrupt"))
            + list(self.directory.glob(".tmp-*"))
        ):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def prune(self) -> int:
        """Delete corrupt or foreign-schema entries; returns the count removed.

        Valid current-schema entries are kept, so ``prune`` after a
        schema bump (or after a crash left torn files behind) shrinks
        the store to exactly the reusable entries.  Quarantined
        ``*.corrupt`` files (including ones quarantined by the scan
        itself) are collected and counted.  Temp files are only removed
        once stale (see :data:`STALE_TMP_SECONDS`): a fresh one belongs
        to a concurrent writer mid-publish, and deleting it would break
        that writer's atomic rename.
        """
        removed = 0
        for path in self._entry_paths():
            if self._read_entry(path) is None and path.exists():
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
        for quarantined in sorted(self.directory.glob("*.corrupt")):
            try:
                quarantined.unlink()
            except OSError:
                continue
            removed += 1
        # The GC horizon is compared against file mtimes (same clock
        # domain); the value never reaches a result or cache key.
        # repro: ignore[determinism] -- wall clock vs file mtimes only
        horizon = time.time() - STALE_TMP_SECONDS
        for stray in sorted(self.directory.glob(".tmp-*")):
            try:
                if stray.stat().st_mtime >= horizon:
                    continue
                stray.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def stats_summary(self) -> dict[str, Any]:
        """Counters plus on-disk totals, for reports and the CLI."""
        entries, total_bytes = self.size()
        return {
            "directory": str(self.directory),
            "schema": CACHE_SCHEMA_VERSION,
            "entries": entries,
            "bytes": total_bytes,
            **self.stats.to_dict(),
        }

    def _entry_paths(self) -> list[Path]:
        # Temp files are dot-prefixed with a non-.json suffix, but keep
        # the dotfile filter anyway: entry names never start with ".".
        return sorted(
            path for path in self.directory.glob("*.json")
            if not path.name.startswith(".")
        )

    def _read_entry(self, path: Path) -> dict[str, Any] | None:
        """Parse and validate one entry file; ``None`` if unusable.

        Unparseable bytes (a torn or bit-rotted write) are quarantined
        on sight; entries that parse but record a foreign schema or a
        malformed shape are merely stale and left for ``prune()``.
        """
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            entry = json.loads(text)
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if not isinstance(entry.get("key"), str) or "result" not in entry:
            return None
        return entry

    def _quarantine(self, path: Path) -> None:
        """Move unparseable bytes aside as ``<name>.corrupt``.

        A corrupt entry would otherwise be re-read and re-parsed on
        every subsequent miss until something rewrites it; renaming
        preserves the evidence for post-mortems, stops the re-parsing,
        and lets ``prune()`` collect it.  Best-effort and racy by
        design: losing the race against a concurrent writer's fresh
        ``os.replace`` just costs that writer's entry a recompute.
        """
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass


def _coerce(value: Any):
    """JSON fallback for NumPy scalars inside result payloads."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value)}")
