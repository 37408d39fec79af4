"""Reproduction of *The Coalescing-Branching Random Walk on Expanders
and the Dual Epidemic Process* (Cooper, Radzik, Rivera; PODC 2016).

Public API highlights:

* :class:`~repro.graphs.Graph` and the generators in :mod:`repro.graphs`
  — the graph substrate (immutable CSR, spectral tools);
* :class:`~repro.core.CobraProcess` / :class:`~repro.core.BipsProcess`
  — the paper's two processes, plus push / push–pull / random-walk /
  SIS baselines, all behind one ``SpreadingProcess`` interface;
* :mod:`repro.exact` — exact subset-distribution engines and the
  machine-precision duality check (Theorem 4);
* :mod:`repro.theory` — every closed-form bound in the paper;
* :mod:`repro.experiments` — the E1–E13 validation experiments, also
  runnable via ``python -m repro``;
* :mod:`repro.scenarios` — typed workloads, named scenarios, and graph
  families: run any experiment on new size grids, degree sets, or
  graph families without touching experiment code.

Quickstart::

    from repro import graphs, CobraProcess, run_process

    g = graphs.random_regular(1024, 8, seed=1)
    process = CobraProcess(g, start=0, branching=2, seed=2)
    result = run_process(process)
    print(result.completion_time)   # O(log n) rounds on an expander
"""

from repro import (
    analysis,
    cache,
    core,
    exact,
    experiments,
    graphs,
    parallel,
    scenarios,
    theory,
)
from repro.cache import ResultCache
from repro.core import (
    BipsProcess,
    CobraProcess,
    PullProcess,
    PushProcess,
    PushPullProcess,
    RandomWalkProcess,
    RoundRecord,
    RunResult,
    SisProcess,
    SpreadingProcess,
    Trace,
    run_process,
    sample_completion_times,
)
from repro.errors import (
    CacheError,
    CoverTimeoutError,
    ExactEngineError,
    ExperimentError,
    GraphConstructionError,
    GraphPropertyError,
    InfectionTimeoutError,
    ParallelError,
    ProcessError,
    ProcessTimeoutError,
    ReproError,
    ScenarioError,
)
from repro.graphs import Graph

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "graphs",
    "core",
    "exact",
    "theory",
    "analysis",
    "experiments",
    "parallel",
    "cache",
    "scenarios",
    # caching
    "ResultCache",
    # core types
    "Graph",
    "SpreadingProcess",
    "RoundRecord",
    "Trace",
    "CobraProcess",
    "BipsProcess",
    "SisProcess",
    "PushProcess",
    "PullProcess",
    "PushPullProcess",
    "RandomWalkProcess",
    "RunResult",
    "run_process",
    "sample_completion_times",
    # errors
    "ReproError",
    "GraphConstructionError",
    "GraphPropertyError",
    "ProcessError",
    "ProcessTimeoutError",
    "CoverTimeoutError",
    "InfectionTimeoutError",
    "ExactEngineError",
    "ExperimentError",
    "ParallelError",
    "CacheError",
    "ScenarioError",
]
