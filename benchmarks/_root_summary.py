"""Repo-root ``BENCH_<name>.json`` summaries: the visible perf trajectory.

The full benchmark matrices live under ``benchmarks/out/`` (and are
uploaded as CI artifacts), but nothing there is committed, so the
repository's performance story was invisible to anyone reading the
tree.  Each bench now also writes a *small* summary — the cell
configuration and the headline speedups, nothing machine-specific
beyond the numbers themselves and deliberately **timestamp-free** so
reruns with unchanged performance produce byte-identical files — to
``BENCH_<name>.json`` at the repo root, where refreshed rows are
committed alongside the code that changed them.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The repository root (this file lives in ``<root>/benchmarks/``).
ROOT = Path(__file__).resolve().parent.parent


def write_root_summary(name: str, summary: dict) -> Path | None:
    """Write ``BENCH_<name>.json`` at the repo root; returns the path.

    ``summary`` must already be timestamp-free: committed rows are
    diffed, so two runs of an unchanged benchmark should produce an
    unchanged file (modulo the measured timings themselves).  A quick
    run (``summary["quick"]`` true, under ``REPRO_BENCH_QUICK=1``)
    measures micro-scale cells, not the committed ones, so it writes
    nothing and returns ``None``.
    """
    if summary["quick"]:
        return None
    path = ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return path
