"""Medians and spreads of the end-to-end metrics over seeds, plus one traced run.

Run from the root of a checkout::

    python3 e2ebench/baseline.py --seeds 1-10 --out e2ebench/BASELINE.json

For every workload it runs ``run.py`` once per seed (untraced), then
once traced at the first seed.  It records, per end-to-end metric, the
median, the quartiles and the spread (quartile distance over median,
as ``statistics.quantiles(values, n=4)`` gives them), the failed and
attempted operations, each run's output digest, and the traced run's
per-layer table.  The traced digest must equal the untraced one of the
same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(child.stdout.strip().splitlines()[-1])
    summary = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(summary.read_text())["digest"]


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def measure(workload: str, seeds: list[int], seconds: float) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    digests, attempted, failed = {}, 0, 0
    for seed in seeds:
        result, digests[seed] = _run(workload, seed, seconds, 0)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        failed_now = f"{result['failed']}/{result['attempted']}"
        print(f"{workload} seed {seed}: failed {failed_now}", flush=True)
    traced, traced_digest = _run(workload, seeds[0], seconds, 1)
    end_to_end = {
        name: {"unit": units[name], **_spread(samples), "values": samples}
        for name, samples in values.items()
    }
    return {
        "seeds": seeds,
        "attempted": attempted + traced["attempted"],
        "failed": failed + traced["failed"],
        "digests": {str(seed): digest for seed, digest in digests.items()},
        "traced_digest_matches": traced_digest == digests[seeds[0]],
        "end_to_end": end_to_end,
        "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "baseline.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    machine = {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "run_seconds": args.seconds,
    }
    report = {workload: measure(workload, args.seeds, args.seconds) for workload in WORKLOADS}
    for workload, entry in report.items():
        print(f"{workload}: failed {entry['failed']}/{entry['attempted']}, "
              f"traced digest matches: {entry['traced_digest_matches']}")
        for name, metric in entry["end_to_end"].items():
            print(f"  {name:<22} median {metric['median']:>14.6g} {metric['unit']:<16} "
                  f"spread {metric['spread']:.4f}")
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps({"machine": machine, "workloads": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
