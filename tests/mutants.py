"""A standing mutation catalogue: named faults the test suite must catch.

Each entry breaks one spot of ``src/`` the way a plausible bug would
and names the tests that must then fail.  The runner copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, applies one
entry's replacement there and runs ``pytest -x -q`` on the entry's
nodes under a per-mutant time limit.  An entry is

* **killed** when those tests fail, or are still running at the time
  limit (a mutant that sends a kernel to its round caps);
* **survived** when they pass: the tests no longer catch the fault;
* **stale** when its anchor does not occur exactly once in its file,
  so the code it names has moved and the entry must be re-anchored.

Before the first mutant the runner checks, on an unmutated copy, that
the copy's ``repro`` is the one imported and that every node passes.

Run from the root of a checkout::

    python tests/mutants.py                  # every entry
    python tests/mutants.py bips-exponent    # chosen entries

It prints one line per entry with its status and seconds, and exits
non-zero when an entry survived or is stale.  pytest does not collect
this file (it is not named ``test_*.py``); CI runs it as its own job.

A kernel change adds its mutations here, each with the tests that kill
it and the change it came with (``origin``, as ``CHANGES.md`` names
that change), so a later change cannot weaken the net without a
survivor showing.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Seconds one mutant's pytest run may take before it counts as killed.
TIMEOUT_S = 300.0


@dataclass(frozen=True)
class Mutant:
    """One named fault: where it goes, what it is, and what must catch it."""

    id: str
    file: str
    anchor: str
    replacement: str
    nodes: tuple[str, ...]
    origin: str


_BIPS_LAW = "tests/core/test_bips_conformance.py::test_infection_times_follow_the_exact_law"
_WALK_CAPS = "tests/core/test_sparse.py::TestWalkKernel::test_caps_at_each_replicas_cover_time"
_PROCESS_GOLDENS = "tests/core/test_process_goldens.py::test_process_matches_goldens"
_LAWS = "tests/core/test_batch_laws.py"
_SWITCH_ROUNDS = "tests/core/test_round_switch.py::test_switch_at_every_round"
_POOL = "tests/core/test_pool_lifecycle.py"

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        id="bips-exponent",
        file="src/repro/core/batch.py",
        anchor="all_miss = miss**mandatory",
        replacement="all_miss = miss ** (mandatory - 1)",
        nodes=(_BIPS_LAW,),
        origin="BIPS counts kernel",
    ),
    Mutant(
        id="bips-coin-without-rho",
        file="src/repro/core/batch.py",
        anchor="self.low = rho * (1.0 - all_miss * miss)",
        replacement="self.low = 1.0 - all_miss * miss",
        nodes=(f"{_BIPS_LAW}[C9-1.5]",),
        origin="BIPS counts kernel",
    ),
    Mutant(
        id="bips-q-over-d-plus-1",
        file="src/repro/core/batch.py",
        anchor="counts / np.repeat(distinct, distinct + 1)",
        replacement="counts / (np.repeat(distinct, distinct + 1) + 1)",
        nodes=(_BIPS_LAW,),
        origin="BIPS counts kernel",
    ),
    Mutant(
        id="bips-completion-off-by-one",
        file="src/repro/core/batch.py",
        anchor="infection_times[replica_ids[:live][done]] = round_index",
        replacement="infection_times[replica_ids[:live][done]] = round_index + 1",
        nodes=("tests/core/test_batch_goldens.py::TestGoldenParity::test_bips_infection_times",),
        origin="BIPS counts kernel",
    ),
    Mutant(
        id="walk-no-rewind",
        file="src/repro/core/sparse.py",
        anchor="            rng.bit_generator.state = snapshot\n",
        replacement="",
        nodes=(_WALK_CAPS,),
        origin="walk blocks",
    ),
    Mutant(
        id="walk-last-visit",
        file="src/repro/core/sparse.py",
        anchor='order = np.argsort(keys, kind="stable")',
        replacement='order = np.argsort(keys, kind="stable")[::-1]',
        nodes=(_WALK_CAPS,),
        origin="walk blocks",
    ),
    Mutant(
        id="walk-past-cap",
        file="src/repro/core/sparse.py",
        anchor="rounds = min(block, max_rounds - settled)",
        replacement="rounds = block",
        nodes=(
            "tests/core/test_sparse.py::TestWalkKernel"
            "::test_block_bounds_keep_the_per_round_bits",
        ),
        origin="walk blocks",
    ),
    Mutant(
        id="sparse-lambda-without-lambda-n",
        file="src/repro/graphs/spectral.py",
        anchor="return max(abs(second), abs(smallest))",
        replacement="return abs(second)",
        nodes=(
            "tests/graphs/test_spectral.py::TestLambdaSecond"
            "::test_sparse_matches_dense_across_families",
        ),
        origin="seeded Lanczos λ",
    ),
    Mutant(
        id="dynamic-step-keeps-old-graph",
        file="src/repro/core/dynamic.py",
        anchor=(
            '"""One COBRA round on the current snapshot."""\n'
            "        self._graph = _snapshot(self._provider, self)"
        ),
        replacement=(
            '"""One COBRA round on the current snapshot."""\n'
            "        _snapshot(self._provider, self)"
        ),
        nodes=(_PROCESS_GOLDENS,),
        origin="process state model",
    ),
    Mutant(
        id="close-round-without-first-hits",
        file="src/repro/core/process.py",
        anchor="            self._first_hit[newly] = self._round_index\n",
        replacement="",
        nodes=(_PROCESS_GOLDENS,),
        origin="process state model",
    ),
    Mutant(
        id="pull-learns-from-uninformed",
        file="src/repro/core/pull.py",
        anchor="informed[asking[self._active[contacts]]] = True",
        replacement="informed[asking] = True",
        nodes=(_PROCESS_GOLDENS,),
        origin="process state model",
    ),
    Mutant(
        id="bips-table-without-loss",
        file="src/repro/core/batch.py",
        anchor="miss = 1.0 - (1.0 - loss) * fraction",
        replacement="miss = 1.0 - fraction",
        nodes=(
            "tests/core/test_bips_conformance.py"
            "::test_lossy_infection_times_follow_the_exact_law",
        ),
        origin="batch law values",
    ),
    Mutant(
        id="cobra-thinning-coin-inverted",
        file="src/repro/core/batch.py",
        anchor="extra.size)) >= loss",
        replacement="extra.size)) < loss",
        nodes=(f"{_LAWS}::test_lossy_cobra_extinction_rounds_follow_the_exact_law",),
        origin="batch law values",
    ),
    Mutant(
        id="sis-start-kept-persistent",
        file="src/repro/core/batch.py",
        anchor="persistent = law.persistent_source",
        replacement="persistent = True",
        nodes=(f"{_LAWS}::test_sis_ends_as_the_process_does",),
        origin="batch law values",
    ),
    Mutant(
        id="reach-all-from-current-set",
        file="src/repro/core/batch.py",
        anchor="done = np.count_nonzero(ever_infected[:live], axis=-1) == n",
        replacement="done = np.count_nonzero(next_state, axis=-1) == n",
        nodes=(f"{_LAWS}::test_lossy_reach_all_times_follow_the_process",),
        origin="batch law values",
    ),
    Mutant(
        id="death-reported-as-timeout",
        file="src/repro/core/batch.py",
        anchor="cover_times[replica_ids[:live][died]] = _DIED - round_index",
        replacement="cover_times[replica_ids[:live][died]] = -1",
        nodes=(f"{_LAWS}::TestOutcomes::test_a_death_is_not_a_timeout",),
        origin="batch law values",
    ),
    Mutant(
        id="switch-rows-for-finished-replicas",
        file="src/repro/core/batch.py",
        anchor="replica_ids = np.flatnonzero(cover_times == -1)",
        replacement="replica_ids = np.arange(n_replicas)",
        nodes=(f"{_SWITCH_ROUNDS}[grid7x9-cobra-k2.0]",),
        origin="one round engine",
    ),
    Mutant(
        id="switch-bitset-big-endian",
        file="src/repro/core/batch.py",
        anchor='bitorder="little"',
        replacement='bitorder="big"',
        nodes=(f"{_SWITCH_ROUNDS}[petersen-cobra-k2.0-with-start]",),
        origin="one round engine",
    ),
    Mutant(
        id="switch-round-skipped",
        file="src/repro/core/batch.py",
        anchor=(
            "for round_index in range(first_round, max_rounds + 1):\n"
            "        if live == 0:\n"
            "            break\n"
            "        flat_active"
        ),
        replacement=(
            "for round_index in range(first_round + 1, max_rounds + 1):\n"
            "        if live == 0:\n"
            "            break\n"
            "        flat_active"
        ),
        nodes=(f"{_SWITCH_ROUNDS}[c9-cobra-k2.0]",),
        origin="one round engine",
    ),
    Mutant(
        id="switch-round-drawn-twice",
        file="src/repro/core/batch.py",
        anchor=(
            "for round_index in range(first_round, max_rounds + 1):\n"
            "        if live == 0:\n"
            "            break\n"
            "        counts.fill(0)"
        ),
        replacement=(
            "for round_index in range(first_round - 1, max_rounds + 1):\n"
            "        if live == 0:\n"
            "            break\n"
            "        counts.fill(0)"
        ),
        nodes=(f"{_SWITCH_ROUNDS}[c9-bips-k2.0]",),
        origin="one round engine",
    ),
    Mutant(
        id="switch-bips-state-without-source",
        file="src/repro/core/batch.py",
        anchor="block(state_buffer, n, live)[vtx, row_of[rep]] = 1",
        replacement=(
            "block(state_buffer, n, live)[vtx, row_of[rep]] = 1\n"
            "    block(state_buffer, n, live)[source] = 0"
        ),
        nodes=(f"{_SWITCH_ROUNDS}[rr64-4-bips-k2.0]",),
        origin="one round engine",
    ),
    Mutant(
        id="pool-call-cache-ignores-token",
        file="src/repro/parallel.py",
        anchor="if _worker_call is None or _worker_call[0] != token:",
        replacement="if _worker_call is None:",
        nodes=(f"{_POOL}::test_calls_reuse_the_workers_and_see_only_their_own_context",),
        origin="one worker pool per process",
    ),
    Mutant(
        id="pool-kept-in-forked-child",
        file="src/repro/parallel.py",
        anchor="        _inherited_pools.append(_pool[1])\n        _pool = None\n",
        replacement="        _inherited_pools.append(_pool[1])\n",
        nodes=(f"{_POOL}::test_a_forked_child_does_not_use_its_parents_pool",),
        origin="one worker pool per process",
    ),
    Mutant(
        id="blas-setter-skips-later-copy",
        file="src/repro/parallel.py",
        anchor="if path not in _one_thread_blas:",
        replacement="if not _one_thread_blas:",
        nodes=(f"{_POOL}::test_a_fresh_process_runs_one_blas_thread_from_import_on",),
        origin="one worker pool per process",
    ),
    Mutant(
        id="memmap-pickles-arrays",
        file="src/repro/graphs/io.py",
        anchor="    def __reduce__(self):\n        return (load_graph_memmap, (str(self._directory),))\n",
        replacement="",
        nodes=("tests/graphs/test_memmap_io.py::TestPathPickling::test_pickles_as_path",),
        origin="one graph shipping path",
    ),
    Mutant(
        id="implicit-pickles-state",
        file="src/repro/graphs/implicit.py",
        anchor="    def __reduce__(self):\n        return (type(self), self._constructor_args())\n",
        replacement="",
        nodes=("tests/graphs/test_implicit.py::TestImplicitBehaviour::test_pickles_compactly",),
        origin="one graph shipping path",
    ),
    Mutant(
        id="degree-reads-any-id",
        file="src/repro/graphs/base.py",
        anchor="        self._check_vertex(u)\n        return int(self._degrees[u])\n",
        replacement="        return int(self._degrees[u])\n",
        nodes=(
            "tests/graphs/test_base.py::TestAccessors::"
            "test_single_vertex_reads_reject_out_of_range_ids[-1-csr]",
        ),
        origin="options become constants",
    ),
    Mutant(
        id="hash-raw-index-bytes",
        file="src/repro/graphs/base.py",
        anchor=(
            "        indices = self._indices.astype(np.int64, copy=False)\n"
            "        return hash((self._indptr.tobytes(), indices.tobytes()))\n"
        ),
        replacement="        return hash((self._indptr.tobytes(), self._indices.tobytes()))\n",
        nodes=(
            "tests/graphs/test_memmap_io.py::TestRoundtrip::test_hashes_as_the_graph_it_equals",
        ),
        origin="options become constants",
    ),
    Mutant(
        id="cobra-estimate-without-temporaries",
        file="src/repro/core/memory.py",
        anchor="temporaries = 8 * (4 + 2 * mandatory) * n_vertices",
        replacement="temporaries = 0",
        nodes=(
            "tests/core/test_memory_guard.py::TestEstimate::"
            "test_tracks_the_traced_peak_of_a_dense_shard[cobra]",
        ),
        origin="options become constants",
    ),
)


def _copy_tree(destination: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, destination / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", destination / "pyproject.toml")


def _environment(copy: Path) -> dict[str, str]:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(copy / "src")
    environment["PYTHONDONTWRITEBYTECODE"] = "1"
    return environment


def _pytest(copy: Path, nodes: tuple[str, ...], timeout: float) -> int | None:
    """``pytest -x -q`` on ``nodes`` in ``copy``; ``None`` when it ran out of time."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes]
    process = subprocess.Popen(
        command,
        cwd=copy,
        env=_environment(copy),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The run's pool workers share its session: end them all.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return None


def check_clean(mutants: tuple[Mutant, ...]) -> None:
    """Fail unless an unmutated copy imports its own ``repro`` and passes every node."""
    with tempfile.TemporaryDirectory(prefix="mutants-clean-") as directory:
        copy = Path(directory)
        _copy_tree(copy)
        imported = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__file__)"],
            cwd=copy,
            env=_environment(copy),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if not Path(imported).resolve().is_relative_to(copy.resolve()):
            raise SystemExit(f"the copy imports repro from {imported}, not from the copy")
        nodes = tuple(dict.fromkeys(node for mutant in mutants for node in mutant.nodes))
        started = time.perf_counter()
        status = _pytest(copy, nodes, TIMEOUT_S * len(mutants))
        if status != 0:
            raise SystemExit(f"the killing tests do not pass unmutated (pytest status {status})")
        print(f"clean    {time.perf_counter() - started:7.1f} s  {len(nodes)} nodes pass unmutated")


def run_mutant(mutant: Mutant) -> tuple[str, float]:
    """Apply ``mutant`` to a fresh copy and run its nodes: (status, seconds)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.id}-") as directory:
        copy = Path(directory)
        _copy_tree(copy)
        target = copy / mutant.file
        text = target.read_text()
        if text.count(mutant.anchor) != 1:
            return "stale", 0.0
        target.write_text(text.replace(mutant.anchor, mutant.replacement))
        started = time.perf_counter()
        status = _pytest(copy, mutant.nodes, TIMEOUT_S)
        seconds = time.perf_counter() - started
    if status is None:
        return "killed (time limit)", seconds
    if status == 0:
        return "survived", seconds
    if status in (4, 5):  # usage error or nothing collected: the nodes are gone
        return "stale", seconds
    return "killed", seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="entries to run (default: all)")
    args = parser.parse_args(argv)
    known = {mutant.id: mutant for mutant in MUTANTS}
    unknown = sorted(set(args.ids) - set(known))
    if unknown:
        parser.error(f"unknown entries: {', '.join(unknown)}")
    chosen = tuple(known[name] for name in args.ids) if args.ids else MUTANTS
    check_clean(chosen)
    failures = 0
    for mutant in chosen:
        status, seconds = run_mutant(mutant)
        failures += not status.startswith("killed")
        print(f"{status:20} {seconds:7.1f} s  {mutant.id} ({mutant.origin})", flush=True)
    print(f"{len(chosen) - failures}/{len(chosen)} killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
