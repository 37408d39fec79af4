"""Layer spans and counters, recorded from outside the program.

The tracer wraps each layer's public entry points wherever ``repro.*``
modules bind them (module attributes), plus public methods of the
exact engines and ``step`` on the process classes, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

Spans live in memory as ``[name, layer, op, parent, start, end]`` lists
(``parent`` indexes the enclosing span, ``-1`` at top level) and are
written out by the caller when the pass ends.  Pools start workers with
``fork``, so workers inherit the wrappers; a wrapper called outside the
tracing process passes straight through, and work done in a worker is
charged to the parent-side ``map_shards`` call that waited for it.

With ``timed=False`` only the engine entry points are wrapped, without
clock reads or spans, to sum the completion times they return: that is
how untraced runs of the paper workload count replica-rounds.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: Layer name -> (module, function names); ``None`` means every public
#: function the module defines itself.
FUNCTION_LAYERS: dict[str, list[tuple[str, list[str] | None]]] = {
    "graphs.build": [("repro.graphs.generators", None), ("repro.graphs.build", None)],
    "graphs.spectral": [("repro.graphs.spectral", None)],
    "core.process": [("repro.core.runner", ["run_process", "sample_completion_times"])],
    "core.batch": [
        (
            "repro.core.batch",
            [
                "batch_cobra_cover_times",
                "batch_bips_infection_times",
                "batch_cobra_traces",
                "batch_bips_traces",
            ],
        )
    ],
    "core.sparse": [
        ("repro.core.sparse", ["sparse_cobra_cover_times", "sparse_bips_infection_times"])
    ],
    "exact": [("repro.exact.duality", None)],
    "parallel.map_shards": [("repro.parallel", ["map_shards"])],
    "analysis": [
        ("repro.analysis.stats", None),
        ("repro.analysis.fitting", None),
        ("repro.analysis.tails", None),
        ("repro.analysis.comparison", None),
        ("repro.analysis.phases", None),
    ],
}

#: Exact-engine classes whose public methods (and constructor) are spans.
EXACT_CLASSES = [
    ("repro.exact.cobra_exact", "ExactCobra"),
    ("repro.exact.bips_exact", "ExactBips"),
    ("repro.exact.cover_exact", "ExactCobraCover"),
]

#: Layers reported with busy and self time, in report order.
TIMED_LAYERS = [
    "graphs.build",
    "graphs.spectral",
    "core.process",
    "core.batch",
    "core.sparse",
    "exact",
    "parallel.map_shards",
    "analysis",
]

#: Counters reported as-is (all start at zero in every pass).
COUNTERS = [
    "graphs.build.calls",
    "graphs.build.edges",
    "graphs.spectral.calls",
    "core.process.replicas",
    "core.process.rounds",
    "core.batch.calls",
    "core.batch.replica_rounds",
    "core.sparse.calls",
    "core.sparse.replica_rounds",
    "exact.calls",
    "parallel.pools",
    "parallel.shards",
    "core.timeouts",
]

_ENGINE_LAYERS = ("core.process", "core.batch", "core.sparse")


def _public_functions(module, names: list[str] | None) -> list[str]:
    if names is not None:
        return names
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
        and not isinstance(value, type)
    )


def _completion_times(result: Any) -> np.ndarray:
    """The completion-time array an engine entry point returned."""
    times = getattr(result, "completion_times", result)
    return np.asarray(times)


class Tracer:
    """Wraps layer entry points; records spans (when timed) and counters."""

    def __init__(self, *, timed: bool = True) -> None:
        self.timed = timed
        self.pid = os.getpid()
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.op = -1
        self.replica_rounds = 0
        self.active = False
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str, layer: str) -> list[Any]:
        parent = self.stack[-1] if self.stack else -1
        span = [name, layer, self.op, parent, perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list[Any]) -> None:
        span[5] = perf_counter()
        self.stack.pop()

    # -- wrapping ------------------------------------------------------

    def _wrap(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        on_result: Callable[..., None] | None,
    ) -> Callable[..., Any]:
        tracer = self
        engine = layer in _ENGINE_LAYERS
        from repro.errors import ProcessTimeoutError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            outermost = tracer.depth[layer] == 0
            outermost_engine = engine and tracer.depth["engine"] == 0
            tracer.depth[layer] += 1
            if engine:
                tracer.depth["engine"] += 1
            span = tracer.open(name, layer) if tracer.timed else None
            try:
                result = fn(*args, **kwargs)
            except ProcessTimeoutError as error:
                if not getattr(error, "_bench_counted", False):
                    error._bench_counted = True
                    tracer.counters["core.timeouts"] += 1
                raise
            finally:
                if span is not None:
                    tracer.close(span)
                tracer.depth[layer] -= 1
                if engine:
                    tracer.depth["engine"] -= 1
            if outermost_engine and name != "run_process":
                times = _completion_times(result)
                tracer.replica_rounds += int(times[times > 0].sum())
            elif outermost_engine:
                tracer.replica_rounds += int(result.completion_time or 0)
            if on_result is not None and tracer.timed:
                on_result(outermost, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _rebind(self, original: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        """Point every ``repro.*`` module attribute bound to ``original`` at ``wrapper``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, wrapper)

    def install(self) -> None:
        """Wrap every layer (timed) or only the engine entry points (untimed)."""
        import importlib

        from repro.core.process import SpreadingProcess
        from repro.parallel import will_pool

        handlers = self._handlers(will_pool)
        self.active = True
        for layer, entries in FUNCTION_LAYERS.items():
            if not self.timed and layer not in _ENGINE_LAYERS:
                continue
            for module_name, names in entries:
                module = importlib.import_module(module_name)
                for name in _public_functions(module, names):
                    original = getattr(module, name)
                    if layer == "parallel.map_shards":
                        wrapper = self._wrap_map_shards(original, will_pool)
                    else:
                        wrapper = self._wrap(layer, name, original, handlers.get(layer))
                    self._rebind(original, wrapper)
        if not self.timed:
            return
        for module_name, class_name in EXACT_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for name, value in list(vars(cls).items()):
                if inspect.isfunction(value) and (name == "__init__" or not name.startswith("_")):
                    wrapper = self._wrap("exact", f"{class_name}.{name}", value, handlers["exact"])
                    self._patch(cls, name, wrapper)
        pending = [SpreadingProcess]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "step" in vars(cls):
                self._patch(cls, "step", self._wrap_step(vars(cls)["step"]))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first.

        A module imported while the wrappers were live may still hold
        one; it passes straight through once the tracer is inactive.
        """
        self.active = False
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _wrap_step(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def step(process, *args, **kwargs):
            if not tracer.active or os.getpid() != tracer.pid or tracer.depth["step"]:
                return fn(process, *args, **kwargs)
            tracer.depth["step"] += 1
            try:
                return fn(process, *args, **kwargs)
            finally:
                tracer.depth["step"] -= 1
                tracer.counters["core.process.rounds"] += 1

        return step

    def _wrap_map_shards(self, fn: Callable[..., Any], will_pool) -> Callable[..., Any]:
        """Pooled calls are ``parallel`` spans; inline ones stay transparent."""
        tracer = self

        @functools.wraps(fn)
        def map_shards(kernel, context, tasks, **kwargs):
            tasks = list(tasks)
            if (
                not tracer.active
                or os.getpid() != tracer.pid
                or not will_pool(kwargs.get("jobs"), len(tasks))
            ):
                return fn(kernel, context, tasks, **kwargs)
            tracer.counters["parallel.pools"] += 1
            tracer.counters["parallel.shards"] += len(tasks)
            span = tracer.open("map_shards", "parallel.map_shards")
            try:
                return fn(kernel, context, tasks, **kwargs)
            finally:
                tracer.close(span)

        return map_shards

    def _handlers(self, will_pool) -> dict[str, Callable[..., None]]:
        counters = self.counters

        def graphs_build(outermost, args, kwargs, graph):
            if outermost:
                counters["graphs.build.calls"] += 1
                counters["graphs.build.edges"] += int(getattr(graph, "n_edges", 0))

        def spectral(outermost, args, kwargs, result):
            if outermost:
                counters["graphs.spectral.calls"] += 1

        def process(outermost, args, kwargs, result):
            if hasattr(result, "rounds_run"):  # run_process: one replica
                counters["core.process.replicas"] += 1
                if not result.completed and not result.extinct:
                    counters["core.timeouts"] += 1
                return
            # sample_completion_times: replicas that ran in pool workers
            # were never stepped here, so count them from the result.
            n_samples = args[1] if len(args) > 1 else kwargs["n_samples"]
            jobs = kwargs.get("jobs")
            if outermost and will_pool(jobs, 2) and n_samples > 1:
                times = np.asarray(result)
                counters["core.process.replicas"] += times.size
                counters["core.process.rounds"] += int(times[times > 0].sum())
                counters["core.timeouts"] += int((times < 0).sum())

        def engine(prefix):
            def handler(outermost, args, kwargs, result):
                if outermost:
                    times = _completion_times(result)
                    counters[f"{prefix}.calls"] += 1
                    counters[f"{prefix}.replica_rounds"] += int(times[times > 0].sum())
                    counters["core.timeouts"] += int((times < 0).sum())

            return handler

        def exact(outermost, args, kwargs, result):
            if outermost:
                counters["exact.calls"] += 1

        return {
            "graphs.build": graphs_build,
            "graphs.spectral": spectral,
            "core.process": process,
            "core.batch": engine("core.batch"),
            "core.sparse": engine("core.sparse"),
            "exact": exact,
        }

    # -- report --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Busy and self seconds per layer, per experiment, plus counters.

        Busy time sums a layer's outermost spans (a span nested in one
        of its own layer is not counted twice); self time subtracts the
        time covered by each span's direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[5] - span[4]
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for index, (name, layer, _op, parent, start, end) in enumerate(spans):
            duration = end - start
            own[layer] += duration - child_time[index]
            while parent >= 0 and spans[parent][1] != layer:
                parent = spans[parent][3]
            if parent < 0:
                busy[f"experiments.{name}" if layer == "experiments" else layer] += duration
        metrics: dict[str, float] = {}
        for index in range(1, 14):
            metrics[f"experiments.E{index}.s"] = busy.get(f"experiments.E{index}", 0.0)
        metrics["experiments.self_s"] = own.get("experiments", 0.0)
        for layer in TIMED_LAYERS:
            metrics[f"{layer}.s"] = busy.get(layer, 0.0)
            metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
        for counter in COUNTERS:
            metrics[counter] = float(self.counters.get(counter, 0.0))
        return metrics

    def span_records(self) -> list[dict[str, Any]]:
        """Spans as JSON-ready dicts (times relative to the first span)."""
        if not self.spans:
            return []
        origin = self.spans[0][4]
        return [
            {
                "name": name,
                "layer": layer,
                "op": op,
                "parent": parent,
                "start": round(start - origin, 9),
                "end": round(end - origin, 9),
            }
            for name, layer, op, parent, start, end in self.spans
        ]
