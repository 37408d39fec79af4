"""The long-lived worker pool: reuse, isolation between calls, replacement, exit.

Pooled calls in one process share one pool.  These tests pin what that
sharing must not change: each call sees only its own context, a failed
or abandoned call leaves the next one correct, a new worker count or
start method replaces the pool, a forked child keeps off its parent's
pool, and no worker outlives the process that started it.  The
subprocess tests also pin the one-thread BLAS rule in a fresh
interpreter, where nothing but ``repro`` has set a thread count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import parallel
from repro.parallel import close_pool, imap_shards, map_shards, pool_start_method

SRC = Path(__file__).resolve().parents[2] / "src"


def _pid_kernel(context, index):
    return context, os.getpid()


def _slow_pid_kernel(context, index):
    time.sleep(0.02)
    return context, os.getpid()


def _fail_second_kernel(context, index):
    if index == 1:
        raise ValueError("task 1 failed")
    return context, os.getpid()


def _pids(results) -> set[int]:
    return {pid for _, pid in results}


def _contexts(results) -> set:
    return {context for context, _ in results}


def _gone(pid: int, timeout: float = 10.0) -> bool:
    """Whether process ``pid`` has ended within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


TASKS = [(i,) for i in range(8)]


def test_calls_reuse_the_workers_and_see_only_their_own_context():
    calls = [map_shards(_slow_pid_kernel, name, TASKS, jobs=2) for name in ("a", "b", "c")]
    for name, results in zip(("a", "b", "c"), calls):
        assert _contexts(results) == {name}
    workers = set().union(*map(_pids, calls))
    # Three per-call pools would have used at least three workers.
    assert len(workers) <= 2 and os.getpid() not in workers


def test_a_failed_call_leaves_the_next_call_correct():
    before = map_shards(_pid_kernel, "before", TASKS, jobs=2)
    with pytest.raises(ValueError, match="task 1 failed"):
        map_shards(_fail_second_kernel, "failing", TASKS, jobs=2)
    after = map_shards(_pid_kernel, "after", TASKS, jobs=2)
    assert _contexts(after) == {"after"} and len(after) == len(TASKS)
    assert len(_pids(before) | _pids(after)) <= 2


@pytest.mark.parametrize("ordered", [True, False])
def test_an_abandoned_iterator_leaks_no_results_into_a_later_call(ordered):
    iterator = imap_shards(_slow_pid_kernel, "abandoned", TASKS, jobs=2, ordered=ordered)
    _, (context, _) = next(iterator)
    assert context == "abandoned"
    iterator.close()
    later = list(imap_shards(_pid_kernel, "later", TASKS, jobs=2, ordered=ordered))
    assert sorted(index for index, _ in later) == list(range(len(TASKS)))
    assert _contexts(result for _, result in later) == {"later"}


def test_changing_jobs_replaces_the_pool():
    two = _pids(map_shards(_slow_pid_kernel, None, TASKS, jobs=2))
    three = _pids(map_shards(_slow_pid_kernel, None, TASKS, jobs=3))
    assert not two & three
    assert parallel._pool[0] == (pool_start_method(), 3)
    assert all(_gone(pid) for pid in two)


def test_changing_the_start_method_replaces_the_pool(monkeypatch):
    other = "spawn" if pool_start_method() == "fork" else "fork"
    if other not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {other} start method here")
    first = _pids(map_shards(_pid_kernel, None, TASKS, jobs=2))
    monkeypatch.setattr(parallel, "_pool_context", lambda: multiprocessing.get_context(other))
    second = _pids(map_shards(_pid_kernel, None, TASKS, jobs=2))
    assert parallel._pool[0] == (other, 2)
    assert not first & second
    assert all(_gone(pid) for pid in first)
    close_pool()


def _report_pool_workers(connection) -> None:
    connection.send(_pids(map_shards(_pid_kernel, None, TASKS, jobs=2)))
    connection.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_a_forked_child_does_not_use_its_parents_pool():
    parent_workers = _pids(map_shards(_pid_kernel, None, TASKS, jobs=2))
    fork = multiprocessing.get_context("fork")
    receiver, sender = fork.Pipe(duplex=False)
    child = fork.Process(target=_report_pool_workers, args=(sender,))
    child.start()
    sender.close()
    try:
        # A child that took over its parent's pool object would wait for
        # result threads that do not exist in it.
        assert receiver.poll(15), "the forked child's pooled call did not finish"
        child_workers = receiver.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert child_workers and not child_workers & parent_workers
    again = _pids(map_shards(_pid_kernel, None, TASKS, jobs=2))
    assert len(parent_workers | again) <= 2


def _python(*arguments: str, blas_threads: str | None = None) -> str:
    """Run a fresh interpreter that imports ``repro`` from ``src/``; its stdout."""
    environment = {**os.environ, "PYTHONPATH": str(SRC)}
    environment.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        environment["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run(
        [sys.executable, *arguments],
        env=environment,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def test_a_process_that_pooled_leaves_no_worker_behind(tmp_path):
    # A script file rather than ``-c``, so spawn-started workers can
    # import the kernel from it.
    script = tmp_path / "pool_once.py"
    script.write_text(
        textwrap.dedent(
            """
            import multiprocessing
            import os
            import sys

            from repro.parallel import map_shards

            def pid(context, index):
                return os.getpid()

            if __name__ == "__main__":
                multiprocessing.set_start_method(sys.argv[1], force=True)
                print(sorted(set(map_shards(pid, None, [(i,) for i in range(4)], jobs=2))))
            """
        )
    )
    workers = json.loads(_python(str(script), pool_start_method()))
    assert workers
    assert all(_gone(pid) for pid in workers)


def test_dense_lambda_does_not_depend_on_the_blas_thread_count():
    script = (
        "from repro.graphs.generators import random_regular\n"
        "from repro.graphs.spectral import lambda_second\n"
        "print(repr(lambda_second(random_regular(256, 8, seed=0), method='dense')))\n"
    )
    values = {_python("-c", script, blas_threads=threads) for threads in (None, "1", "4")}
    assert len(values) == 1, values


def test_a_fresh_process_runs_one_blas_thread_from_import_on():
    # OPENBLAS_NUM_THREADS=4 gives every copy more than one thread by
    # default wherever there are two cores or more.
    script = textwrap.dedent(
        """
        import json
        import sys

        from repro.parallel import _openblas_thread_controls

        def counts():
            return {path: get() for path, (_, get) in _openblas_thread_controls().items()}

        at_import = counts()
        assert "scipy.sparse.linalg" not in sys.modules
        from repro.graphs.generators import random_regular
        from repro.graphs.spectral import lambda_second

        lambda_second(random_regular(300, 8, seed=1), method="sparse")
        print(json.dumps([at_import, counts()]))
        """
    )
    at_import, after_lanczos = json.loads(_python("-c", script, blas_threads="4"))
    if not at_import:
        pytest.skip("no OpenBLAS copy is loaded")
    assert set(at_import.values()) == {1}
    assert set(after_lanczos.values()) == {1}, after_lanczos
