"""Timing helpers shared by the benchmark matrices."""

from __future__ import annotations

import time
from typing import Any, Callable
from unittest import mock

from repro.core import batch


def interleaved_medians(callables: list[Callable[[], Any]], repetitions: int) -> list[float]:
    """Median seconds of each callable, timed in turn ``repetitions`` times.

    The sides of an asserted ratio run alternately (a, b, a, b, ...), so
    a drift in machine speed between them moves both medians alike
    instead of the ratio.
    """
    samples: list[list[float]] = [[] for _ in callables]
    for _ in range(repetitions):
        for callable_, side in zip(callables, samples):
            started = time.perf_counter()
            callable_()
            side.append(time.perf_counter() - started)
    return [sorted(side)[len(side) // 2] for side in samples]


def switched(switch: Any, run: Callable[[], Any]) -> Callable[[], Any]:
    """``run`` with every round-engine shard forced to ``switch``.

    ``batch._DENSE`` holds the shards in the per-round dense loop from
    round 1, ``batch._SPARSE`` in their sparse rounds to the end.
    """

    def call() -> Any:
        with mock.patch.object(batch, "_SWITCH", switch):
            return run()

    return call
