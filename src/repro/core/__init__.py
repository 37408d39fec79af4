"""Process engines: COBRA, BIPS, and the comparison baselines.

The process classes share :class:`~repro.core.process.SpreadingProcess`:
construct one with a graph, a starting configuration, a branching
factor and a seed; call :meth:`step` (or use the runners in
:mod:`repro.core.runner`) and read round records off the returned
:class:`~repro.core.process.RoundRecord` objects.  The base keeps the
state every process reports (active and cumulative sets, their sizes,
first hits and the completion round); each class supplies only its
round rule.  The dynamic classes are the static COBRA and BIPS classes
with a per-round graph snapshot.  The ``batch``, ``sparse`` and
``event`` functions evolve whole ensembles instead.
"""

from repro.core.batch import (
    BatchOutcome,
    BatchTraces,
    BipsLaw,
    CobraLaw,
    batch_bips_infection_times,
    batch_bips_traces,
    batch_cobra_cover_times,
    batch_cobra_traces,
)
from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.core.dynamic import (
    DynamicBipsProcess,
    DynamicCobraProcess,
    EvolvingRegularGraph,
    static_provider,
)
from repro.core.event import (
    event_bips_infection_times,
    event_cobra_cover_times,
    resolve_edge_rates,
)
from repro.core.process import RoundRecord, SpreadingProcess, Trace
from repro.core.pull import PullProcess
from repro.core.push import PushProcess
from repro.core.pushpull import PushPullProcess
from repro.core.randomwalk import RandomWalkProcess
from repro.core.runner import (
    RunResult,
    default_max_rounds,
    run_process,
    sample_completion_times,
)
from repro.core.sis import SisProcess
from repro.core.sparse import sparse_bips_infection_times, sparse_cobra_cover_times

__all__ = [
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
    "default_max_rounds",
    "batch_cobra_cover_times",
    "batch_bips_infection_times",
    "batch_cobra_traces",
    "batch_bips_traces",
    "BatchTraces",
    "BatchOutcome",
    "CobraLaw",
    "BipsLaw",
    "sparse_cobra_cover_times",
    "sparse_bips_infection_times",
    "event_cobra_cover_times",
    "event_bips_infection_times",
    "resolve_edge_rates",
    "DynamicCobraProcess",
    "DynamicBipsProcess",
    "EvolvingRegularGraph",
    "static_provider",
]
