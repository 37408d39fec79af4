"""Benchmarks of the result cache: cold campaign vs warm (fully cached) rerun.

The acceptance bar for the cache subsystem: running the same campaign
twice with a cache directory set makes the second run at least 5x
faster, with a byte-identical result payload per entry and
``"cached": true`` recorded in the manifest.  The identity checks are
always asserted; the 5x speedup is asserted at real scale and only
*reported* under ``REPRO_BENCH_QUICK=1`` (micro workloads are so small
that constant JSON/process overheads dominate both runs).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.experiments import get_experiment
from repro.experiments.campaign import Campaign, CampaignEntry, run_campaign
from repro.experiments.microscale import MICRO_OVERRIDES, micro_workload

BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: The reference campaign: E4's exact duality check plus three seeds of
#: E5's growth-bound verification — representative quick-mode entries
#: that recompute in seconds but load from cache in milliseconds.  Under
#: REPRO_BENCH_QUICK=1 E4 runs its micro workload (E5's is its preset).
CAMPAIGN = Campaign(
    name="bench-cache",
    entries=[
        CampaignEntry("E4", seed=0, overrides=MICRO_OVERRIDES["E4"] if BENCH_QUICK else None),
        CampaignEntry("E5", seed=0),
        CampaignEntry("E5", seed=1),
        CampaignEntry("E5", seed=2),
    ],
)


def _run_twice(tmp_path: Path) -> tuple[float, float, dict, dict]:
    """One cold and one warm run of the reference campaign; both manifests."""
    cache_dir = tmp_path / "cache"
    started = time.perf_counter()
    cold = run_campaign(CAMPAIGN, tmp_path / "cold", cache_dir=cache_dir)
    cold_seconds = time.perf_counter() - started
    started = time.perf_counter()
    warm = run_campaign(CAMPAIGN, tmp_path / "warm", cache_dir=cache_dir)
    warm_seconds = time.perf_counter() - started
    return cold_seconds, warm_seconds, cold, warm


def bench_cache_cold_vs_warm(benchmark, tmp_path):
    """Cold-vs-warm campaign timing plus the cache-correctness contract."""
    cold_seconds, warm_seconds, cold, warm = benchmark.pedantic(
        lambda: _run_twice(tmp_path), rounds=1, iterations=1
    )

    # Correctness contract, asserted at every scale.
    assert [entry["cached"] for entry in cold["entries"]] == [False] * 4
    assert [entry["cached"] for entry in warm["entries"]] == [True] * 4
    for record in warm["entries"]:
        cold_payload = (tmp_path / "cold" / CAMPAIGN.name / record["result_json"]).read_bytes()
        warm_payload = (tmp_path / "warm" / CAMPAIGN.name / record["result_json"]).read_bytes()
        assert cold_payload == warm_payload

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["quick_env"] = BENCH_QUICK
    print(
        f"\ncache speedup: cold {cold_seconds:.3f}s -> warm {warm_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    if not BENCH_QUICK:
        assert speedup >= 5.0, (
            f"warm cache run must be >= 5x faster, got {speedup:.1f}x "
            f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s)"
        )


def bench_cache_lookup_overhead(benchmark, tmp_path):
    """Per-hit latency of a warm cache lookup through run_experiment_cached."""
    from repro.experiments import run_experiment_cached

    workload = micro_workload("E5") if BENCH_QUICK else get_experiment("E5").preset("quick")
    cache_dir = tmp_path / "cache"
    run_experiment_cached("E5", workload=workload, seed=0, cache_dir=cache_dir)

    def lookup():
        result, cached = run_experiment_cached(
            "E5", workload=workload, seed=0, cache_dir=cache_dir
        )
        assert cached
        return result

    benchmark.pedantic(lookup, rounds=5, iterations=1)
