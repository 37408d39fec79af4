"""Parallel execution layer: seed-stable sharding over process pools.

The Monte-Carlo workloads in this repository — the batch ensemble
engines, sequential replica sampling, experiment campaigns — are
embarrassingly parallel, but naive parallelisation breaks the
reproducibility contract the rest of the library keeps: results must
not depend on how many workers happened to run.  This module fixes the
rules every parallel entry point follows.

* **Seed-stable sharding.**  Work is decomposed into *shards* whose
  boundaries and seeds depend only on the workload (replica count,
  shard size, master seed) — never on the worker count.  Shard seeds
  are ``SeedSequence.spawn`` children indexed by shard position (and,
  for sequential replica sampling, by replica id), so ``jobs=1`` and
  ``jobs=8`` produce bit-identical results.
* **One ``jobs`` convention.**  ``None`` means the process-wide
  default (1 unless the CLI's ``--jobs`` raised it), ``0`` means one
  worker per CPU, ``n >= 1`` means exactly ``n`` workers.
* **Cheap context shipping.**  A pooled call pickles its kernel and
  shared read-only context (the graph, process parameters) once, into
  a temporary file that lives as long as the call.  Every task carries
  the file's path under a per-call token; a worker unpickles the file at
  the first task of the call it runs and keeps the result until a
  task of another call arrives.  So a large context crosses to each
  worker once per call, not once per task.

**One pool per process.**  The first pooled call starts a worker pool,
and later calls reuse its live workers, so a run pays one pool start
instead of one per call.  The pool is keyed by start method and worker
count (``resolve_jobs(jobs)``; a call with fewer tasks leaves workers
idle), and a call that asks for another key replaces it.  It is
terminated at interpreter exit, so no worker outlives its parent, and
a process forked from its owner never uses it: the child starts a pool
of its own if it pools at all.  Two kinds of call get a pool of their
own, started for the call and terminated when it ends:
``isolate=True`` (a fresh worker per task) and a kernel or context
that does not pickle, which forked workers inherit instead.  Inside a
pool worker (a daemonic process) the machinery degrades to inline
execution automatically — nested pools are never created.

Pools prefer the ``fork`` start method where available (unless the
application pinned another method with
``multiprocessing.set_start_method``, which is respected).  Without
``fork``, a call whose kernel or context does not pickle runs inline.

A graph reaches the workers the same way under every start method:
inside the call's one pickle.  A CSR graph's arrays cost one copy per
worker per call.  Implicit graphs pickle as their constructor
arguments, and memory-mapped graphs
(:func:`~repro.graphs.io.load_graph_memmap`) as their directory path,
so the workers of a large graph saved with
:func:`~repro.graphs.io.save_graph_memmap` share one physical copy
through the page cache.

Importing this module sets every loaded OpenBLAS copy (numpy's and
scipy's wheels each bundle one) to one thread for the life of the
process, and :func:`one_blas_thread` sets a copy loaded later (scipy's,
at the first Lanczos solve).  So ``jobs`` workers never run ``jobs``
times as many BLAS threads as there are cores, small dense solves do
not stall on thread hand-offs, and a BLAS float does not depend on the
machine's core count.  Forked workers inherit the setting;
spawn-started workers import this module and set it themselves.  A
copy is set once per process: a setter call in a forked worker would
restart the OpenBLAS helper threads the fork stopped.  Where no
OpenBLAS is found (another BLAS, or no ``/proc/self/maps``) nothing
changes.

Two entry points share one executor: :func:`map_shards` returns every
result in task order, and :func:`imap_shards` streams them, optionally
in completion order and with a fresh worker per task — the form
campaigns run their entries on.
"""

from __future__ import annotations

import atexit
import ctypes
import itertools
import multiprocessing
import os
import pickle
import tempfile
from contextlib import AbstractContextManager, nullcontext, suppress
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import ParallelError

if TYPE_CHECKING:  # pools import it at their first start
    import multiprocessing.pool

#: Default number of shards a workload is split into.  The
#: decomposition of an ensemble into shards depends on this value and
#: the replica count only — never on ``jobs`` — which is what keeps
#: results identical across worker counts.  Sixteen shards keep the
#: per-shard matrices large (vectorisation stays effective at
#: ``jobs=1``) while leaving enough shards for typical worker counts
#: to balance load.  Changing it changes the per-shard RNG streams
#: (and therefore sampled values, not their distribution).
DEFAULT_SHARD_COUNT = 16

#: Floor on the default shard size: below this many rows per shard the
#: batch engines pay per-call overhead instead of vectorising, so
#: small ensembles get fewer, fatter shards (a 10-replica ensemble is
#: one shard — parallelism has nothing to win there anyway).
MIN_SHARD_SIZE = 32

_default_jobs = 1

#: This process's long-lived pool as ``((start method, workers), pool)``;
#: ``None`` before the first pooled call and in a forked child.
_pool: tuple[tuple[str, int], multiprocessing.pool.Pool] | None = None

#: Pools a forked child inherited from its parent.  The child keeps them
#: referenced and never closes them: collecting one there would run its
#: finalizer, which stops the parent's pool.
_inherited_pools: list[multiprocessing.pool.Pool] = []

#: Tokens that tell one pooled call's tasks from another's.
_call_tokens = itertools.count()

#: Worker side: ``(token, kernel, context)`` of the call this worker
#: ran a task of last.
_worker_call: tuple[int, Callable[..., Any], Any] | None = None


def default_jobs() -> int:
    """The process-wide default worker count used when ``jobs=None``."""
    return _default_jobs


def set_default_jobs(jobs: int) -> int:
    """Set the process-wide default worker count; returns the old value.

    The CLI's global ``--jobs`` flag calls this once at startup so that
    every ensemble measured by an experiment inherits the setting
    without threading a parameter through thirteen ``run`` signatures.
    """
    global _default_jobs
    if jobs is None:
        raise ParallelError("set_default_jobs needs a concrete jobs count, got None")
    previous = _default_jobs
    _default_jobs = resolve_jobs(jobs)
    return previous


def _is_integer(value: Any) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a boolean is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalise a ``jobs`` argument to a concrete worker count.

    ``None`` resolves to :func:`default_jobs`, ``0`` to ``os.cpu_count()``,
    and any positive integer (Python or NumPy) to itself.  Negative
    counts are rejected, and so is anything that is not an integer:
    ``jobs=2.7`` would otherwise truncate to two workers and
    ``jobs=True`` coerce to one, silently serialising a run the caller
    meant to parallelise (mirroring the strict seed validation in
    :meth:`~repro.experiments.campaign.CampaignEntry.from_dict`).
    """
    if jobs is None:
        return _default_jobs
    if isinstance(jobs, bool):
        raise ParallelError(
            f"jobs must be an integer worker count, got the boolean {jobs!r} "
            "(did you mean jobs=0 for one worker per CPU?)"
        )
    if not _is_integer(jobs):
        raise ParallelError(f"jobs must be an integer worker count, got {jobs!r}")
    jobs = int(jobs)
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def default_shard_size(n_items: int) -> int:
    """The shard size yielding about :data:`DEFAULT_SHARD_COUNT` shards.

    Floored at :data:`MIN_SHARD_SIZE` rows so tiny ensembles stay
    vectorised.  Depends only on the workload size, never on the
    worker count.
    """
    if n_items < 0:
        raise ParallelError(f"n_items must be >= 0, got {n_items}")
    return max(MIN_SHARD_SIZE, -(-n_items // DEFAULT_SHARD_COUNT))


def shard_bounds(n_items: int, shard_size: int | None = None) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` shard bounds covering ``n_items``.

    The decomposition depends only on ``n_items`` and ``shard_size``
    (default :func:`default_shard_size`); callers must never let the
    worker count influence either, or jobs-invariance is lost.  The
    shard layout decides the draw streams, so a ``shard_size`` that is
    not an integer (``1.5``, ``True``) is rejected, not truncated.
    """
    if n_items < 0:
        raise ParallelError(f"n_items must be >= 0, got {n_items}")
    if shard_size is None:
        shard_size = default_shard_size(n_items)
    elif not _is_integer(shard_size):
        raise ParallelError(f"shard_size must be an integer row count, got {shard_size!r}")
    shard_size = int(shard_size)
    if shard_size < 1:
        raise ParallelError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (start, min(start + shard_size, n_items))
        for start in range(0, n_items, shard_size)
    ]


#: ``(setter, getter)`` names of OpenBLAS's thread count, tried in this
#: order in each loaded copy: numpy's 64-bit-integer build, scipy's
#: build, then an unprefixed system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_controls() -> dict[str, tuple[Any, Any]]:
    """``path -> (set_num_threads, get_num_threads)`` of every OpenBLAS copy loaded here.

    The copies are the ``*openblas*`` shared objects mapped into this
    process (``/proc/self/maps``); their functions resolve through
    ctypes.  Empty where that file does not exist or no OpenBLAS is
    loaded.
    """
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return {}
    paths = {line.split(None, 5)[-1] for line in lines if "openblas" in line}
    controls = {}
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                set_threads, get_threads = getattr(library, set_name), getattr(library, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls[path] = (set_threads, get_threads)
                break
    return controls


#: Paths of the OpenBLAS copies this process has set to one thread.
#: Forked children inherit it, and with it the setting.
_one_thread_blas: set[str] = set()


def one_blas_thread() -> None:
    """Set every OpenBLAS copy loaded here, and not set before, to one thread.

    Runs at import, before a pool starts (a copy loaded outside this
    module's seams still reaches forked workers set), and after an
    import that loads a copy (:mod:`repro.graphs.spectral`'s Lanczos
    solver).  A copy is set once per process.
    """
    for path, (set_threads, _) in _openblas_thread_controls().items():
        if path not in _one_thread_blas:
            set_threads(1)
            _one_thread_blas.add(path)


one_blas_thread()


def _install_call(token: int, kernel: Callable[..., Any], context: Any) -> None:
    """Initializer of a per-call pool: install its call in the worker.

    Forked workers inherit ``kernel`` and ``context`` instead of
    unpickling them, so closures work there.
    """
    # repro: ignore[spawn-safety] -- this IS the initializer seam: each worker installs its own copy; the parent never reads it
    global _worker_call
    _worker_call = (token, kernel, context)


def _run_task(item: tuple[int, str | None, int, Sequence[Any]]) -> tuple[int, Any]:
    """Run one task in a pool worker; return ``(index, result)``.

    ``item`` is ``(token, payload, index, task)``.  At the first task of
    a call it runs, a worker of the long-lived pool unpickles the call's
    ``(kernel, context)`` from the ``payload`` file and keeps it under
    the call's token.  A per-call pool's initializer installs the call
    instead, and its tasks carry no payload.
    """
    # repro: ignore[spawn-safety] -- the worker's own cache of its current call; the parent never reads it
    global _worker_call
    token, payload, index, task = item
    if _worker_call is None or _worker_call[0] != token:
        assert payload is not None, "a per-call pool runs only its installed call"
        with open(payload, "rb") as source:
            _worker_call = (token, *pickle.load(source))
    _, kernel, context = _worker_call
    return index, kernel(context, *task)


def will_pool(jobs: int | None, n_tasks: int) -> bool:
    """Whether :func:`map_shards` would start a real worker pool.

    The one shared predicate behind the pool-vs-inline decision, so
    callers that plan for concurrent shards (the dense engines' memory
    guard in :mod:`repro.core.memory`) agree with the execution layer.
    (Inline degradation for unpicklable kernels on spawn platforms is
    decided later, inside :func:`imap_shards`.)
    """
    return (
        n_tasks > 1
        and min(resolve_jobs(jobs), n_tasks) > 1
        and not multiprocessing.current_process().daemon
    )


def _pool_context() -> multiprocessing.context.BaseContext:
    """The context pools are built from.

    An explicitly pinned start method
    (``multiprocessing.set_start_method``) wins — that is how the test
    suite forces the ``spawn`` path on fork-capable platforms.  A
    default that was merely *resolved* by earlier default-context use
    counts as pinned too (CPython exposes no way to tell the two
    apart); that is deliberate — once the application runs under a
    fixed method, pools follow it rather than fight it.  Otherwise
    prefer ``fork`` (inherits graphs/closures); fall back to the
    platform default.
    """
    pinned = multiprocessing.get_start_method(allow_none=True)
    if pinned is not None:
        return multiprocessing.get_context(pinned)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def pool_start_method() -> str:
    """The start method worker pools will actually use."""
    return _pool_context().get_start_method()


def _long_lived_pool(
    pool_context: multiprocessing.context.BaseContext, workers: int
) -> multiprocessing.pool.Pool:
    """This process's pool of ``workers`` workers, started at first use.

    A live pool of another start method or worker count is terminated
    and replaced.
    """
    global _pool
    key = (pool_context.get_start_method(), workers)
    if _pool is not None and _pool[0] != key:
        close_pool()
    if _pool is None:
        one_blas_thread()
        _pool = (key, pool_context.Pool(processes=workers))
    return _pool[1]


def close_pool() -> None:
    """Terminate this process's long-lived pool, if it has one.

    Runs at interpreter exit; the next pooled call starts a new pool.
    """
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.terminate()


def _forget_inherited_pool() -> None:
    """In a forked child: leave the parent's pool to the parent."""
    global _pool
    if _pool is not None:
        _inherited_pools.append(_pool[1])
        _pool = None


atexit.register(close_pool)
if hasattr(os, "register_at_fork"):  # without fork no child inherits a pool
    os.register_at_fork(after_in_child=_forget_inherited_pool)


def map_shards(
    kernel: Callable[..., Any],
    context: Any,
    tasks: Sequence[Sequence[Any]],
    *,
    jobs: int | None = None,
) -> list[Any]:
    """Apply ``kernel(context, *task)`` to every task, in task order.

    Parameters
    ----------
    kernel:
        A module-level function (it must be importable by workers).
        Its first argument is the shared ``context``; the remaining
        arguments are the task tuple.
    context:
        Read-only state (e.g. the graph and process parameters).  A
        pooled call pickles it once with the kernel, and each worker
        unpickles it once per call.
    tasks:
        Argument tuples, one per shard.  Results are returned in the
        same order regardless of completion order.
    jobs:
        Worker count per the module convention (``None`` = default,
        ``0`` = CPU count).  With one worker, a single task, or when
        already inside a pool worker, tasks run inline in this process
        — same code path, same results.
    """
    return [result for _, result in imap_shards(kernel, context, tasks, jobs=jobs)]


def imap_shards(
    kernel: Callable[..., Any],
    context: Any,
    tasks: Sequence[Sequence[Any]],
    *,
    jobs: int | None = None,
    isolate: bool = False,
    ordered: bool = True,
) -> Iterator[tuple[int, Any]]:
    """Yield ``(index, result)`` pairs as ``kernel(context, *task)`` runs.

    The streaming form of :func:`map_shards`, for consumers that want
    results as they land (campaign entries, progress tails) instead of
    one list at the end.  ``kernel``, ``context``, ``tasks`` and
    ``jobs`` behave exactly as in :func:`map_shards`.

    ``ordered=True`` yields in task order; ``ordered=False`` yields in
    *completion* order under a pool (``imap_unordered``), which is what
    keeps a long tail of slow tasks from hiding every finished fast
    one.  Inline execution (one worker, a single task, nested inside a
    pool worker, or an unpicklable kernel on spawn-only platforms)
    always yields in task order — completion order *is* task order
    there.  ``isolate=True`` gives every task a fresh worker process
    (``maxtasksperchild=1``); campaigns use it for per-entry process
    isolation.

    A task that raises aborts the iteration with its exception, so a
    kernel that must not stop its siblings (the campaign entry kernel)
    catches its own failures and returns them as values.  Under a pool
    the exception is raised once the other tasks have finished, so the
    pool is idle again: a per-call pool shuts down idle, and the
    long-lived one serves the next call.  A worker the OS kills
    outright never reports back: ``multiprocessing.Pool`` then waits
    forever, and the remedy is to interrupt the run.

    Abandoning the iterator, or an interrupt, while tasks are still
    running terminates the pool that runs them (the long-lived pool
    included; the next pooled call starts a new one), so no worker
    keeps computing for an abandoned call and no result of it reaches
    a later call.
    """
    tasks = list(tasks)
    if not tasks:
        return
    pool_context = _pool_context()
    forked = pool_context.get_start_method() == "fork"
    pooled = will_pool(jobs, len(tasks))
    payload = None
    if pooled and not (isolate and forked):
        try:
            payload = pickle.dumps((kernel, context), pickle.HIGHEST_PROTOCOL)
        except Exception:  # repro: ignore[error-taxonomy] -- picklability probe: any failure means the call cannot ship by pickle
            pass
    if not pooled or (payload is None and not forked):
        # Without fork an unpicklable kernel or context (e.g. a process
        # factory closure) cannot reach a worker: run inline rather than
        # crash — same results, no parallelism.
        for index, task in enumerate(tasks):
            yield index, kernel(context, *task)
        return
    token = next(_call_tokens)
    payload_path = None
    pool_scope: AbstractContextManager[multiprocessing.pool.Pool]
    failure: Exception | None = None
    pending = len(tasks)
    try:
        if payload is not None and not isolate:
            pool_scope = nullcontext(_long_lived_pool(pool_context, resolve_jobs(jobs)))
            descriptor, payload_path = tempfile.mkstemp(prefix="repro-call-", suffix=".pickle")
            with os.fdopen(descriptor, "wb") as sink:
                sink.write(payload)
        else:
            one_blas_thread()
            pool_scope = pool_context.Pool(
                processes=min(resolve_jobs(jobs), len(tasks)),
                initializer=_install_call,
                initargs=(token, kernel, context),
                maxtasksperchild=1 if isolate else None,
            )
        items = [(token, payload_path, index, task) for index, task in enumerate(tasks)]
        with pool_scope as pool:
            dispatch = pool.imap if ordered else pool.imap_unordered
            results = dispatch(_run_task, items, chunksize=1)
            # A failed task stops the yielding at once but raises only
            # after every other task has reported, so the pool is idle
            # again: a pool terminated while workers are still sending
            # results can kill one holding the result queue's lock, and
            # its shutdown then waits on that lock forever.
            while pending:
                try:
                    result = next(results)
                except Exception as error:  # repro: ignore[error-taxonomy] -- held, then re-raised once the pool is idle
                    if failure is None:
                        failure = error
                pending -= 1
                if failure is None:
                    yield result
    except BaseException:
        if payload_path is not None and pending:
            # The long-lived pool may still run tasks of this call.
            close_pool()
        raise
    finally:
        if payload_path is not None:
            with suppress(FileNotFoundError):
                os.unlink(payload_path)
    if failure is not None:
        raise failure
