"""End-to-end benchmark of the COBRA/BIPS reproduction.

Run from the root of a checkout; it imports the program from ``src/``::

    python3 e2ebench/run.py                                  # all three workloads
    python3 e2ebench/run.py --workload sparse-frontier --seed 3
    python3 e2ebench/run.py --workload dense-frontier --trace 1   # per-layer table
    python3 e2ebench/baseline.py --seeds 1-10                # medians and spreads

``BASELINE.json`` beside this file holds those medians and spreads at
the commit that added the benchmark, with one traced per-layer table.

Options: ``--workload {paper-quick,dense-frontier,sparse-frontier,all}``,
``--seed N`` (the inputs are a function of it), ``--seconds S`` (the
measuring budget of one run, default 20) and ``--trace 0|1``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print the
same metrics by name with their units.  Per-operation digests and the
spans of traced passes are written to ``.bench_out/`` when a run ends.

Workloads
---------
paper-quick
    ``run_experiment(Eid, workload=..., seed=seed)`` for E1..E13 in
    registry order at ``jobs=2``, the way ``repro all --mode quick
    --jobs 2`` runs them: it is the product users run.  The quick
    presets are shrunk (``workloads.PAPER_OVERRIDES``) to fit a run.
    Its time still goes to graph construction (``complete(n)`` in E1
    and E7, hundreds of networkx ``random_regular`` builds in E12),
    per-replica Python stepping (E7, E11, E12, E13, E4's Monte Carlo)
    and ``repro.exact`` (E4, E11, E13); the ensemble kernels are a few
    per cent, and ``jobs=2`` gives ``parallel`` real traffic.
dense-frontier
    ``measure_cobra_cover`` / ``measure_bips_infection`` at k=2 with
    the default engine on prebuilt random 8-regular expanders (n = 2048,
    4096, 8192; 256 replicas; ``jobs=2``), plus ``engine="sparse"`` on
    the implicit 3-D tori of the ``e2-torus-implicit-1m`` scenario
    (n = 21^3, 31^3).  The active set reaches Θ(n) within a few rounds,
    so the time is ensemble kernels plus pool sharding.  Graphs are
    built in set-up: a graph-layer change moves ``setup_s`` here, not
    ``wall_s``.  The tori are where the sparse engine is weakest.
sparse-frontier
    Single-token COBRA (``branching=1.0``, the paper's k=1 baseline)
    through ``engine="sparse"`` at ``jobs=1`` on a prebuilt random
    8-regular expander (n = 2048; 8 calls of 16 replicas).  The frontier
    is one vertex per replica for ~20-30k rounds, so per-round fixed
    cost is the whole bill: the same kernel layer used the opposite way
    from dense-frontier, with ``parallel`` idle.

Some layers have no workload on purpose: a warm campaign (``cache``,
campaigns, ``resilience``) takes milliseconds, and ``core.event``'s
only traffic is three sub-second diversity scenarios.

Measurement
-----------
A run is a series of passes, each in a fresh interpreter started from
this file: the pass imports ``repro``, builds the workload's inputs
from the seed (set-up) and runs every operation once (the timed
region), checking and digesting each output off the clock.  Passes
repeat while another one fits in ``--seconds`` (at least one).  Every
pass starts cold, as a user's process does, so lazy imports inside
the program count in ``wall_s``.  Every pass must reproduce the first
pass's digests.  A traced run (``--trace 1``) alternates traced and
untraced passes, at least one of each.

Times are reported at reference machine speed.  On a shared machine the
CPU's speed drifts by 1.5x and more over seconds to minutes (a fixed
pure-Python loop does), which moved raw pass times by a quarter to a
third across ten runs.  So every pass also times a fixed reference task
(a Python loop plus small NumPy calls) before each operation and after
the last one, off the clock, and scales its measured times by
``REFERENCE_S`` over the median of those samples.  The measured times
and the factor are printed above the result and kept in ``.bench_out/``.

End-to-end metrics (untraced runs):

- ``wall_s`` (s at reference speed): the timed region of a pass, median
  over the passes.
- ``setup_s`` (s at reference speed): interpreter start of a pass to its
  timed region (importing ``repro``, building inputs); median over at
  least five samples, the passes' own topped up by set-up-only
  interpreters.
- ``replica_rounds_per_s`` (replica-rounds/s at reference speed): the
  sum of every completion time the engines returned over ``wall_s``,
  median over the passes.  paper-quick counts them by wrapping the
  engine entry points without clocks or spans.
- ``peak_rss_mb`` (MB): peak RSS of a pass's process or its largest
  pool worker, the largest over the passes.
- ``error_rate`` is ``failed`` / ``attempted`` in the result (printed
  above it; it is 0 on a correct build, so it is not a metric).  An
  operation is one experiment run or ``measure_*`` call in one pass,
  plus dense-frontier's jobs=1 vs jobs=2 probe; it fails if it raises
  (a round-cap timeout included), fails its output check, or its digest
  differs from the first pass's.

Per-layer metrics (traced runs; ``spans.py`` wraps each layer's public
entry points from outside, nothing under ``src/`` changes).  ``.s`` is
busy time (outermost spans of the layer), ``.self_s`` subtracts child
spans, both at reference speed; medians over the traced passes.  Work
in pool workers is charged to the parent-side ``map_shards`` call that
waited for it.

=====================  ========================================  =================  =============
layer (module)         per-layer metrics                         should move        on
=====================  ========================================  =================  =============
experiments            experiments.E1.s .. E13.s, .self_s        wall_s             paper-quick
graphs (generators,    graphs.build.s, .calls, .edges            wall_s, peak_rss;  paper-quick
build)                                                           setup_s elsewhere
graphs.spectral        graphs.spectral.s, .calls                 wall_s             paper-quick
core process engines   core.process.s, .replicas, .rounds        wall_s             paper-quick
core.batch (backends)  core.batch.s, .calls, .replica_rounds     wall_s, rr/s       dense
core.sparse            core.sparse.s, .calls, .replica_rounds    wall_s, rr/s       sparse; tori
exact                  exact.s, exact.calls                      wall_s             paper-quick
parallel               parallel.map_shards.s, .pools, .shards    wall_s             paper, dense
analysis               analysis.s                                nothing (control)  all
all engines            core.timeouts                             error_rate         all
benchmark              trace.overhead (traced/untraced wall_s)   --                 all
=====================  ========================================  =================  =============

The pytest-benchmark cells under ``benchmarks/`` and the root
``BENCH_*.json`` files are kernel microbenchmarks outside this
benchmark.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("paper-quick", "dense-frontier", "sparse-frontier")
#: Set-up samples per run: one per pass, topped up by set-up-only interpreters.
SETUP_SAMPLES = 5
#: A run and every interpreter it starts end within this many seconds.
RUN_DEADLINE_S = 170.0
#: Duration of :func:`_reference_task` at reference speed: about its median
#: on the machine the baseline was measured on (2 vCPUs, Linux, CPython
#: 3.11, NumPy 2.4), so times read close to that machine's seconds.
REFERENCE_S = 0.0107
#: Reference-task samples taken by a set-up-only interpreter.
SETUP_REFERENCES = 5


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a checkout of the repository")


def _import_program() -> None:
    """Put ``src/`` first on the path and import the program from there."""
    _require_program()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != (SRC / "repro" / "__init__.py").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, expected {SRC / 'repro'}")


# -- one pass (a fresh interpreter) ---------------------------------------------


def _reference_task() -> float:
    """Seconds a fixed CPU task takes now: a Python loop plus small NumPy
    calls, the mix the program spends its time in."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    rng = np.random.default_rng(0)
    for _ in range(20):
        np.flatnonzero(np.bincount(rng.integers(0, 1 << 16, size=4096), minlength=1 << 16))
    return time.perf_counter() - started


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _run_operation(operation, tracer, index: int) -> dict:
    """Time one operation, then check and digest its output off the clock."""
    before = tracer.replica_rounds if tracer is not None else 0
    span = None
    if tracer is not None:
        tracer.op = index
        if tracer.timed:
            span = tracer.open(operation.name, operation.layer)
    started = time.perf_counter()
    try:
        output = operation.run()
        error = None
    except Exception as exc:  # the run continues; the operation counts as failed
        output, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if span is not None:
        tracer.close(span)
    record = {"name": operation.name, "seconds": seconds, "digest": None, "lambdas": []}
    if error is not None:
        record.update(failures=[error], replica_rounds=0)
        return record
    record["failures"] = operation.check(output)
    record["digest"], record["lambdas"] = operation.digest(output)
    if operation.replica_rounds is not None:
        record["replica_rounds"] = operation.replica_rounds(output)
    else:
        record["replica_rounds"] = tracer.replica_rounds - before
    return record


def _run_operations(prepared, args, record: dict) -> list[float]:
    """Run every operation once into ``record``; return the reference-task
    samples taken before each operation and after the last."""
    from spans import Tracer

    traced = args.pass_kind == "traced"
    tracer = None
    if traced or args.workload == "paper-quick":
        tracer = Tracer(timed=traced)
        tracer.install()
    references, operations = [], []
    try:
        for index, operation in enumerate(prepared.operations):
            references.append(_reference_task())
            operations.append(_run_operation(operation, tracer, index))
        references.append(_reference_task())
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["peak_rss_mb"] = _peak_rss_mb()
    record["measured_wall_s"] = sum(operation["seconds"] for operation in operations)
    record["replica_rounds"] = sum(operation["replica_rounds"] for operation in operations)
    record["operations"] = operations
    if args.probe and prepared.probe is not None:
        record["probe_failures"] = prepared.probe()
    if traced:
        record["layers"] = tracer.layer_metrics()
        with open(args.pass_out.with_suffix(".spans.jsonl"), "w") as handle:
            for span in tracer.span_records():
                handle.write(json.dumps(span) + "\n")
    return references


def run_pass(args) -> int:
    """Set up, run every operation once, and write the pass record."""
    _import_program()
    import workloads

    prepared = workloads.PREPARE[args.workload](args.seed)
    record: dict = {"measured_setup_s": time.perf_counter() - STARTED}
    if args.pass_kind == "setup":
        references = [_reference_task() for _ in range(SETUP_REFERENCES)]
    else:
        references = _run_operations(prepared, args, record)
    speed = REFERENCE_S / statistics.median(references)
    record["speed"] = speed
    record["setup_s"] = record["measured_setup_s"] * speed
    if "measured_wall_s" in record:
        record["wall_s"] = record["measured_wall_s"] * speed
    if "layers" in record:
        record["layers"] = {
            name: value * speed if name.endswith((".s", ".self_s")) else value
            for name, value in record["layers"].items()
        }
    args.pass_out.write_text(json.dumps(record))
    return 0


# -- one run (a series of passes) -----------------------------------------------


def _start_pass(args, kind: str, out: Path, probe: bool) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--pass-kind",
        kind,
        "--pass-out",
        str(out),
    ]
    if probe:
        command.append("--probe")
    remaining = RUN_DEADLINE_S - (time.perf_counter() - STARTED)
    # A process group of its own, so that a pass and its pool workers end together.
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True
    ) as child:
        try:
            code = child.wait(timeout=max(remaining, 1.0))
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
    if code != 0:
        sys.exit(f"error: {kind} pass of {args.workload} exited with {code}")
    record = json.loads(out.read_text())
    out.unlink()
    record["kind"] = kind
    return record


def _pass_kinds(traced: bool):
    while True:
        if traced:
            yield "traced"
        yield "untraced"


def _run_passes(args, stem: str) -> list[dict]:
    """Passes until the next one would overrun ``--seconds`` (at least
    one; a traced run makes at least one traced and one untraced pass)."""
    passes: list[dict] = []
    region_started = time.perf_counter()
    for number, kind in enumerate(_pass_kinds(args.trace == 1)):
        started = time.perf_counter()
        out = OUT_DIR / f"{stem}-pass{number}.json"
        passes.append(_start_pass(args, kind, out, probe=number == 0))
        last = time.perf_counter() - started
        elapsed = time.perf_counter() - region_started
        kinds = {entry["kind"] for entry in passes}
        if elapsed + last > args.seconds and (args.trace == 0 or len(kinds) == 2):
            return passes
    raise AssertionError("unreachable")


def _compare_passes(passes: list[dict]) -> None:
    """Every pass must reproduce the first pass's digests (λ at 1e-9)."""
    from outputs import lambdas_match

    reference = passes[0]["operations"]
    for number, entry in enumerate(passes[1:], 2):
        for first, record in zip(reference, entry["operations"]):
            if record["digest"] is None or first["digest"] is None:
                continue
            if record["digest"] != first["digest"] or not lambdas_match(
                first["lambdas"], record["lambdas"]
            ):
                record["failures"].append(f"pass {number} output differs from pass 1")


def _run_digest(operations: list[dict]) -> str:
    text = ",".join(f"{operation['name']}={operation['digest']}" for operation in operations)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_report(passes: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    traced = [entry for entry in passes if entry["kind"] == "traced"]
    untraced = [entry for entry in passes if entry["kind"] == "untraced"]
    metrics = {}
    print("  per-layer (traced)")
    for name in traced[0]["layers"]:
        value = statistics.median(entry["layers"][name] for entry in traced)
        unit = "s" if name.endswith((".s", ".self_s")) else "count"
        metrics[name] = _metric(value, unit)
        print(f"    {name:<32} {value:>16.6f} {unit}")
    overhead = statistics.median(entry["wall_s"] for entry in traced) / statistics.median(
        entry["wall_s"] for entry in untraced
    )
    metrics["trace.overhead"] = _metric(overhead, "ratio")
    print(f"    {'trace.overhead':<32} {overhead:>16.6f} ratio")
    return metrics


def run_workload(args) -> int:
    _require_program()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes = _run_passes(args, stem)
    setups = list(passes)
    for number in range(SETUP_SAMPLES - len(setups)):
        out = OUT_DIR / f"{stem}-setup{number}.json"
        setups.append(_start_pass(args, "setup", out, probe=False))
    _compare_passes(passes)

    records = [record for entry in passes for record in entry["operations"]]
    probe_failures = passes[0].get("probe_failures")
    attempted = len(records) + (probe_failures is not None)
    failed = sum(bool(record["failures"]) for record in records) + bool(probe_failures)
    failures = [
        f"pass {number} {record['name']}: {message}"
        for number, entry in enumerate(passes, 1)
        for record in entry["operations"]
        for message in record["failures"]
    ]
    failures += [f"jobs probe: {message}" for message in probe_failures or []]

    untraced = [entry for entry in passes if entry["kind"] == "untraced"]
    end_to_end = {
        "wall_s": _metric(statistics.median(entry["wall_s"] for entry in untraced), "s"),
        "setup_s": _metric(statistics.median(entry["setup_s"] for entry in setups), "s"),
        "replica_rounds_per_s": _metric(
            statistics.median(entry["replica_rounds"] / entry["wall_s"] for entry in untraced),
            "replica-rounds/s",
        ),
        "peak_rss_mb": _metric(max(entry["peak_rss_mb"] for entry in untraced), "MB"),
    }
    digest = _run_digest(passes[0]["operations"])
    print(
        f"workload {args.workload}  seed {args.seed}  passes (measured s, machine speed) "
        + ", ".join(
            f"{entry['kind']} {entry['measured_wall_s']:.3f} x{entry['speed']:.3f}"
            for entry in passes
        )
    )
    for name, entries in (("measured_wall_s", untraced), ("measured_setup_s", setups)):
        value = statistics.median(entry[name] for entry in entries)
        print(f"  {name:<22} {value:>16.6f} s")
    for name, metric in end_to_end.items():
        speed = "" if metric["unit"] == "MB" else " at reference speed"
        print(f"  {name:<22} {metric['value']:>16.6f} {metric['unit']}{speed}")
    rate = failed / attempted
    print(f"  {'error_rate':<22} {rate:>16.6f} failed/attempted ({failed}/{attempted})")
    for message in failures:
        print(f"  FAILED {message}")
    print(f"  digest {digest}")
    metrics = _layer_report(passes) if args.trace == 1 else end_to_end
    summary = {"workload": args.workload, "seed": args.seed, "digest": digest, "passes": passes}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in turn; print one summary table."""
    _require_program()
    results = {}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            print(f"error: {workload} exited with {child.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(child.stdout.strip().splitlines()[-1])
    print()
    for workload, result in results.items():
        print(
            f"{workload:<16} correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:<32} {metric['value']:>16.6f} {metric['unit']}")
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pass-kind", choices=("untraced", "traced", "setup"), help=argparse.SUPPRESS
    )
    parser.add_argument("--pass-out", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.pass_kind is not None:
        return run_pass(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
