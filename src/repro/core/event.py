"""Event-driven continuous-time engines: Gillespie COBRA and BIPS.

The round engines (batch and sparse) simulate the paper's synchronous
rounds, in which every active particle (COBRA) or vertex (BIPS) acts
once per round.  The engines here run the same processes in
*continuous time*: every active particle or armed vertex carries an
independent ``Exponential(rate)`` clock, and a binary-heap kernel pops
one firing at a time, touching only the active frontier.  Cost scales
with *events*, not rounds — the regime the epidemic-modelling
literature simulates with Gillespie kernels, and the natural home of
the paper's dual-process view (a COBRA token firing is one contact of
the dual epidemic).

Lazy heap invalidation (an epoch counter per clock) keeps disarmed
vertices from firing: by memorylessness, cancelling a clock and
redrawing it later is law-exact, so the kernels only ever schedule the
armed frontier.  Clocks have unit mean at unit rate, so completion
times land on the same scale as round counts, but the laws differ.

Rates:

* ``transmission_rate`` scales every firing clock (and divides the
  default time horizon, so doubling the rate halves completion times).
* ``recovery_rate`` (BIPS) adds independent spontaneous-recovery
  clocks to infected vertices; the persistent source never recovers.
* ``edge_rate_overrides`` reweights neighbour-contact selection per
  edge: a firing vertex picks each neighbour with probability
  proportional to the edge weight (default 1.0), and the BIPS hit
  probability becomes the infected fraction *by weight*.  A weight of
  ``0.0`` blocks an edge entirely.

BIPS *arming*: a susceptible vertex with no infected-weight among its
neighbours resamples to susceptible with certainty, so skipping its
clock is law-exact; the armed set is ``infected ∪ {susceptible with
infected neighbour weight > 0}`` minus the source, and the kernel
maintains it incrementally on every flip.

Sharding and determinism mirror :mod:`repro.core.batch` exactly: the
replicas split into fixed shards via :func:`~repro.core.batch._run_sharded`
(``SeedSequence.spawn`` children per shard, then per replica), so for a
fixed ``seed`` and ``shard_size`` every returned array is bit-identical
at any ``jobs`` count.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro._rng import SeedLike, ensure_generator, spawn_seed_sequences
from repro.core.batch import _run_sharded
from repro.core.process import resolve_vertex, validate_branching
from repro.core.runner import default_max_rounds
from repro.errors import CoverTimeoutError, InfectionTimeoutError, ProcessError
from repro.graphs.base import Graph


# ---------------------------------------------------------------------------
# Per-edge contact rates.
# ---------------------------------------------------------------------------


def resolve_edge_rates(graph: Graph, overrides) -> np.ndarray | None:
    """Per-CSR-position contact weights for ``edge_rate_overrides``.

    ``overrides`` is an iterable of ``(u, v, rate)`` triples; each is
    applied to *both* directions of an existing edge (the weighting is
    symmetric, which is what keeps the incremental infected-mass
    bookkeeping exact).  Unlisted edges keep weight ``1.0``.  Returns
    ``None`` when there is nothing to override (the uniform fast path),
    else a float array aligned with ``graph.indices``.

    Rejects: malformed triples, unknown vertices, self-loops, missing
    edges, negative/non-finite rates, duplicate pairs, and any vertex
    left with zero total contact weight (it could never fire).
    """
    if overrides is None:
        return None
    triples = list(overrides)
    if not triples:
        return None
    indptr, indices = graph.indptr, graph.indices
    n = graph.n_vertices
    weights = np.ones(indices.size, dtype=np.float64)
    seen: set[tuple[int, int]] = set()

    def positions(u: int, v: int) -> slice:
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        row = indices[lo:hi]
        left = lo + int(np.searchsorted(row, v, side="left"))
        right = lo + int(np.searchsorted(row, v, side="right"))
        if left == right:
            raise ProcessError(
                f"edge_rate_overrides: graph {graph.name!r} has no edge ({u}, {v})"
            )
        return slice(left, right)

    for item in triples:
        try:
            u, v, rate = item
        except (TypeError, ValueError):
            raise ProcessError(
                f"edge_rate_overrides entries must be (u, v, rate) triples, "
                f"got {item!r}"
            ) from None
        u, v, rate = int(u), int(v), float(rate)
        if not 0 <= u < n or not 0 <= v < n:
            raise ProcessError(
                f"edge_rate_overrides: vertex pair ({u}, {v}) out of range "
                f"[0, {n})"
            )
        if u == v:
            raise ProcessError(f"edge_rate_overrides: self-loop ({u}, {v}) rejected")
        if not np.isfinite(rate) or rate < 0.0:
            raise ProcessError(
                f"edge_rate_overrides: rate for edge ({u}, {v}) must be a "
                f"finite number >= 0, got {rate}"
            )
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ProcessError(
                f"edge_rate_overrides: duplicate override for edge {key}"
            )
        seen.add(key)
        weights[positions(u, v)] = rate
        weights[positions(v, u)] = rate

    _, row_totals = _weight_prefix(indptr, weights)
    row_totals[graph.degrees == 0] = 1.0  # isolated vertices never fire
    dead = np.flatnonzero(row_totals <= 0.0)
    if dead.size:
        raise ProcessError(
            f"edge_rate_overrides leave vertex {int(dead[0])} with zero total "
            f"contact rate; every vertex needs at least one positive edge"
        )
    return weights


def _weight_prefix(indptr: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR weight prefix sum ``cum0`` (leading 0.0) and each row's total."""
    cum0 = np.concatenate([[0.0], np.cumsum(weights)])
    return cum0, cum0[indptr[1:]] - cum0[indptr[:-1]]


class _Contacts:
    """Per-shard neighbour-contact sampler, uniform or edge-weighted.

    A uniform contact of ``v`` is entry ``rng.integers(0, degree(v))``
    of its sorted row, read through :meth:`~repro.graphs.base.Graph.neighbor_at`,
    and a flip walks ``graph.neighbors(v)``: both work on implicit
    graphs, and on a CSR graph they read the values the CSR arrays
    hold.  Weighted draws need the CSR arrays: one global prefix-sum
    over the CSR weight array, where position ``j`` is selected iff
    ``cum0[j] <= base(v) + r < cum0[j+1]`` for ``r`` uniform on ``[0,
    row_total(v))`` — zero-weight positions span an empty interval and
    are never selected.
    """

    __slots__ = ("graph", "degrees", "indptr", "indices", "weights", "cum0", "row_tot")

    def __init__(self, graph: Graph, weights: np.ndarray | None) -> None:
        self.graph = graph
        self.degrees = graph.degrees
        self.weights = weights
        if weights is None:
            self.indptr = self.indices = self.cum0 = self.row_tot = None
        else:
            self.indptr = graph.indptr
            self.indices = graph.indices
            self.cum0, self.row_tot = _weight_prefix(self.indptr, weights)

    def draw_one(self, v: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """``k`` contact draws (with replacement) for one firing vertex."""
        if self.weights is None:
            return self.graph.neighbor_at(v, rng.integers(0, self.degrees[v], size=k))
        x = self.cum0[self.indptr[v]] + rng.random(k) * self.row_tot[v]
        return self.indices[np.searchsorted(self.cum0, x, side="right") - 1]

    def infected_fraction(self, v: int, n_inf: np.ndarray, w_inf) -> float:
        """The probability one contact of ``v`` lands on an infected vertex."""
        if self.weights is None:
            return n_inf[v] / self.degrees[v]
        q = w_inf[v] / self.row_tot[v]
        return min(1.0, max(0.0, q))

    def apply_flip(self, v: int, sign: int, n_inf: np.ndarray, w_inf) -> np.ndarray:
        """Propagate one state flip of ``v`` into its neighbours' mass.

        Returns the neighbour array (for the caller's arm/disarm pass).
        Symmetric weights make ``weight(v -> x) == weight(x -> v)``, so
        one pass over ``v``'s row updates every neighbour exactly.
        """
        neighbours = self.graph.neighbors(v)
        if w_inf is not None:
            weights = self.weights[self.indptr[v] : self.indptr[v + 1]]
        if sign > 0:
            n_inf[neighbours] += 1
            if w_inf is not None:
                w_inf[neighbours] += weights
        else:
            n_inf[neighbours] -= 1
            if w_inf is not None:
                w_inf[neighbours] -= weights
                # Clear float drift exactly where the armed set changes.
                w_inf[neighbours[n_inf[neighbours] == 0]] = 0.0
        return neighbours


# ---------------------------------------------------------------------------
# COBRA kernels.
# ---------------------------------------------------------------------------


def _cobra_replica(
    contacts: _Contacts,
    n: int,
    start: int,
    mandatory: int,
    rho: float,
    rate: float,
    max_time: float,
    rng: np.random.Generator,
) -> float:
    """One asynchronous COBRA replica; ``-1.0`` marks a timeout.

    Each occupied site fires at ``rate``; a firing site draws its
    branching contacts, its tokens move (coalescing on arrival), and
    cover is the union of all contacts ever drawn — the continuous-time
    analogue of the paper's round process.
    """
    active = np.zeros(n, dtype=bool)
    covered = np.zeros(n, dtype=bool)
    active[start] = True
    covered_count = 0
    epoch = np.zeros(n, dtype=np.int64)
    heap = [(rng.exponential() / rate, start, 0)]
    while heap:
        t, v, entry_epoch = heapq.heappop(heap)
        if entry_epoch != epoch[v]:
            continue  # stale: v was consumed/disarmed since this push
        if t > max_time:
            return -1.0
        k = mandatory + (1 if rho > 0.0 and rng.random() < rho else 0)
        picks = contacts.draw_one(v, k, rng)
        active[v] = False
        epoch[v] += 1
        for pick in picks:
            p = int(pick)
            if not covered[p]:
                covered[p] = True
                covered_count += 1
            if not active[p]:
                active[p] = True
                epoch[p] += 1
                heapq.heappush(heap, (t + rng.exponential() / rate, p, int(epoch[p])))
        if covered_count == n:
            return t
    return -1.0  # pragma: no cover - COBRA always keeps >= 1 active site


# ---------------------------------------------------------------------------
# BIPS kernel.
# ---------------------------------------------------------------------------


def _bips_replica(
    contacts: _Contacts,
    n: int,
    source: int,
    mandatory: int,
    rho: float,
    rate: float,
    recovery_rate: float,
    max_time: float,
    rng: np.random.Generator,
) -> float:
    """One asynchronous BIPS replica; ``-1.0`` marks a timeout.

    Armed vertices resample at ``rate``: the new state is infected with
    probability ``1 - (1 - q)^k`` for infected-neighbour fraction ``q``
    (by weight), exactly the refresh law of the round engines.  The
    persistent source never resamples; ``recovery_rate`` adds
    spontaneous recovery clocks to infected non-source vertices.
    """
    infected = np.zeros(n, dtype=bool)
    infected_count = 0
    n_inf = np.zeros(n, dtype=np.int64)
    w_inf = np.zeros(n, dtype=np.float64) if contacts.weights is not None else None
    epoch = np.zeros(n, dtype=np.int64)
    repoch = np.zeros(n, dtype=np.int64)
    heap: list[tuple[float, int, int, int]] = []

    def flip(v: int, now: float) -> None:
        nonlocal infected_count
        sign = -1 if infected[v] else 1
        infected[v] = not infected[v]
        infected_count += sign
        neighbours = contacts.apply_flip(v, sign, n_inf, w_inf)
        # The source is always infected, so it is never a candidate.
        candidates = neighbours[~infected[neighbours]]
        if sign > 0:
            for x in candidates[n_inf[candidates] == 1]:
                x = int(x)
                epoch[x] += 1  # newly armed: fresh clock
                heapq.heappush(
                    heap, (now + rng.exponential() / rate, x, 0, int(epoch[x]))
                )
        else:
            disarmed = candidates[n_inf[candidates] == 0]
            epoch[disarmed] += 1  # lazily cancels their pending clocks
        if recovery_rate > 0.0 and v != source:
            repoch[v] += 1
            if infected[v]:
                heapq.heappush(
                    heap,
                    (now + rng.exponential() / recovery_rate, v, 1, int(repoch[v])),
                )

    # Infecting the source arms its neighbours, in ascending vertex
    # order (CSR rows are sorted), each with a clock started at time 0.
    flip(source, 0.0)
    if infected_count == n:
        return 0.0
    while heap:
        t, v, kind, entry_epoch = heapq.heappop(heap)
        if entry_epoch != (epoch[v] if kind == 0 else repoch[v]):
            continue
        if t > max_time:
            return -1.0
        if kind == 0:
            q = contacts.infected_fraction(v, n_inf, w_inf)
            k = mandatory + (1 if rho > 0.0 and rng.random() < rho else 0)
            if q >= 1.0:
                new = True
            elif q <= 0.0:
                new = False
            else:
                new = rng.random() < -np.expm1(k * np.log1p(-q))
            if new != infected[v]:
                flip(v, t)
            epoch[v] += 1  # this clock is consumed either way
            if infected[v] or n_inf[v] > 0:
                heapq.heappush(heap, (t + rng.exponential() / rate, v, 0, int(epoch[v])))
        else:
            flip(v, t)  # recovery: infected -> susceptible
            if not (infected[v] or n_inf[v] > 0):
                epoch[v] += 1  # cancel the now-pointless resample clock
        if infected_count == n:
            return t
    return -1.0  # an isolated source arms nothing


# ---------------------------------------------------------------------------
# Shard kernels (the `_run_sharded` plug-ins).
# ---------------------------------------------------------------------------


def _cobra_event_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray:
    graph, weights, start, mandatory, rho, rate, max_time = context
    contacts = _Contacts(graph, weights)
    n = graph.n_vertices
    times = np.empty(stop_index - start_index, dtype=np.float64)
    for i, child in enumerate(spawn_seed_sequences(seed, times.size)):
        times[i] = _cobra_replica(
            contacts, n, start, mandatory, rho, rate, max_time, ensure_generator(child)
        )
    return times


def _bips_event_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray:
    graph, weights, source, mandatory, rho, rate, recovery_rate, max_time = context
    contacts = _Contacts(graph, weights)
    n = graph.n_vertices
    times = np.empty(stop_index - start_index, dtype=np.float64)
    for i, child in enumerate(spawn_seed_sequences(seed, times.size)):
        times[i] = _bips_replica(
            contacts, n, source, mandatory, rho, rate, recovery_rate, max_time,
            ensure_generator(child),
        )
    return times


# ---------------------------------------------------------------------------
# Parameter validation shared by the entry points.
# ---------------------------------------------------------------------------


def _validate_rate(name: str, value: float, *, minimum_exclusive: bool) -> float:
    value = float(value)
    bound = "> 0" if minimum_exclusive else ">= 0"
    if not np.isfinite(value) or (value <= 0.0 if minimum_exclusive else value < 0.0):
        raise ProcessError(f"{name} must be a finite number {bound}, got {value}")
    return value


def _resolve_horizon(graph: Graph, max_time: float | None, rate: float) -> float:
    """The time horizon for one entry point.

    The default matches the round engines' generous
    :func:`~repro.core.runner.default_max_rounds` cap, converted to time
    units: each armed vertex fires ``rate`` times per unit time, so
    ``cap / rate`` spans the same number of generations.
    """
    if max_time is None:
        return default_max_rounds(graph) / rate
    max_time = float(max_time)
    if not np.isfinite(max_time) or max_time <= 0.0:
        raise ProcessError(f"max_time must be a finite number > 0, got {max_time}")
    return max_time


def _check_time_timeouts(
    times: np.ndarray,
    raise_on_timeout: bool,
    process_name: str,
    goal: str,
    graph: Graph,
    max_time: float,
    error_cls: type,
) -> None:
    timed_out = int((times < 0).sum())
    if timed_out and raise_on_timeout:
        raise error_cls(
            f"{timed_out}/{times.size} {process_name} event-engine replicas on "
            f"{graph.name} did not {goal} within time horizon {max_time:g}"
        )


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def event_cobra_cover_times(
    graph: Graph,
    start: int,
    *,
    branching: float = 2.0,
    transmission_rate: float = 1.0,
    edge_rate_overrides=None,
    n_replicas: int = 100,
    seed: SeedLike = None,
    max_time: float | None = None,
    raise_on_timeout: bool = True,
    jobs: int | None = None,
    shard_size: int | None = None,
) -> np.ndarray:
    """Continuous cover times of ``n_replicas`` event-driven COBRA runs.

    The Gillespie sibling of
    :func:`~repro.core.batch.batch_cobra_cover_times`: same sharding
    and seed-stability contract (bit-identical at any ``jobs``), but
    returns *float* times in continuous units.  Timeouts raise
    :class:`~repro.errors.CoverTimeoutError` (default) or are reported
    as ``-1.0``.
    """
    mandatory, rho = validate_branching(branching)
    start = resolve_vertex(graph, start, role="start")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    rate = _validate_rate("transmission_rate", transmission_rate, minimum_exclusive=True)
    weights = resolve_edge_rates(graph, edge_rate_overrides)
    max_time = _resolve_horizon(graph, max_time, rate)
    parameters = (weights, start, mandatory, rho, rate, max_time)
    times = np.concatenate(
        _run_sharded(_cobra_event_shard, graph, parameters, n_replicas, seed,
                     shard_size, jobs)
    )
    _check_time_timeouts(
        times, raise_on_timeout, "COBRA", "cover", graph, max_time, CoverTimeoutError
    )
    return times


def event_bips_infection_times(
    graph: Graph,
    source: int,
    *,
    branching: float = 2.0,
    transmission_rate: float = 1.0,
    recovery_rate: float = 0.0,
    edge_rate_overrides=None,
    n_replicas: int = 100,
    seed: SeedLike = None,
    max_time: float | None = None,
    raise_on_timeout: bool = True,
    jobs: int | None = None,
    shard_size: int | None = None,
) -> np.ndarray:
    """Continuous infection times of ``n_replicas`` event-driven BIPS runs.

    Armed vertices resample their state asynchronously; the persistent
    source stays infected throughout, and completion is *simultaneous*
    full infection — the same goal as the round engines.
    ``recovery_rate`` adds spontaneous recoveries of non-source
    vertices.  Timeouts raise :class:`~repro.errors.InfectionTimeoutError`
    or are ``-1.0``.
    """
    mandatory, rho = validate_branching(branching)
    source = resolve_vertex(graph, source, role="source")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    rate = _validate_rate("transmission_rate", transmission_rate, minimum_exclusive=True)
    recovery = _validate_rate("recovery_rate", recovery_rate, minimum_exclusive=False)
    weights = resolve_edge_rates(graph, edge_rate_overrides)
    max_time = _resolve_horizon(graph, max_time, rate)
    parameters = (weights, source, mandatory, rho, rate, recovery, max_time)
    times = np.concatenate(
        _run_sharded(_bips_event_shard, graph, parameters, n_replicas, seed,
                     shard_size, jobs)
    )
    _check_time_timeouts(
        times, raise_on_timeout, "BIPS", "infect", graph, max_time,
        InfectionTimeoutError,
    )
    return times
