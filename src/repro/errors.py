"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library-level failures with a
single ``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphConstructionError(ReproError):
    """Raised when graph input data is malformed.

    Examples: self-loops, duplicate edges, asymmetric adjacency,
    vertex indices out of range, or an empty vertex set.
    """


class GraphPropertyError(ReproError):
    """Raised when a graph lacks a property an operation requires.

    Examples: asking for the regular degree of an irregular graph, or
    running a spectral routine that requires connectivity on a
    disconnected graph.
    """


class ProcessError(ReproError):
    """Raised on invalid process configuration or misuse.

    Examples: a branching factor below 1, a start vertex outside the
    graph, or stepping a process that has been invalidated.
    """


class ProcessTimeoutError(ReproError):
    """Raised when a process fails to reach its goal within ``max_rounds``.

    The shared base of the goal-flavoured timeouts: coverage processes
    (COBRA, push, random walks) raise :class:`CoverTimeoutError`,
    infection processes (BIPS, SIS) raise
    :class:`InfectionTimeoutError`.  Catch this class to handle any
    timeout regardless of the process's goal.  Runners raise only when
    explicitly asked to treat timeout as an error; by default they
    return a result object with ``success=False`` (or record ``-1``).
    """


class CoverTimeoutError(ProcessTimeoutError):
    """Raised when a coverage process fails to cover within ``max_rounds``."""


class InfectionTimeoutError(ProcessTimeoutError):
    """Raised when an infection process (BIPS, SIS) fails to infect
    every vertex within ``max_rounds``."""


class ExactEngineError(ReproError):
    """Raised when an exact-distribution computation is infeasible.

    The exact engines enumerate all ``2**n`` vertex subsets and refuse
    graphs above a size limit rather than exhausting memory.
    """


class ExperimentError(ReproError):
    """Raised for unknown experiment ids or malformed experiment results."""


class ScenarioError(ExperimentError):
    """Raised on invalid scenario or workload configuration.

    Examples: an override naming a field the workload does not have, a
    value that cannot be coerced to the field's type, an unknown
    scenario name, a malformed scenario JSON file, or a graph-family
    description the generators cannot build.
    """


class ParallelError(ReproError):
    """Raised on invalid parallel-execution configuration.

    Examples: a negative ``jobs`` count, or a shard size below 1.
    """


class CacheError(ReproError):
    """Raised on invalid result-cache configuration or unusable keys.

    Examples: cache parameters that cannot be canonically serialised
    (non-string dict keys, NaN floats, arbitrary objects), or a cache
    directory path that exists but is not a directory.  Corrupt or
    stale cache *entries* never raise — they are treated as misses.
    """
