"""Event-driven continuous-time engines: Gillespie COBRA, BIPS, and SIS.

The round-based engines (sequential and batch) pay ``rounds × n`` even
when almost nothing is happening.  The engines here simulate the same
processes in *continuous time*: every active particle (COBRA) or armed
vertex (BIPS/SIS) carries an independent exponential clock, and a
binary-heap kernel pops one firing at a time, touching only the active
frontier.  Cost scales with *events*, not rounds — the regime the
epidemic-modelling literature simulates with Gillespie kernels, and the
natural home of the paper's dual-process view (a COBRA token firing is
one contact of the dual epidemic).

Two clock laws share each kernel, selected by ``time_step``:

* ``time_step=None`` (default) — true asynchronous Gillespie dynamics:
  each armed vertex fires after ``Exponential(rate)`` waiting times,
  events are processed one at a time, and lazy heap invalidation (an
  epoch counter per clock) keeps disarmed vertices from firing.  By
  memorylessness, cancelling a clock and redrawing it later is
  law-exact, so the kernel only ever schedules the armed frontier.
* ``time_step=Δ`` — the *discrete-round limit*: every armed vertex
  fires deterministically at every multiple of ``Δ``, and each
  generation is processed against a snapshot of the pre-generation
  state.  This reproduces the synchronous round law exactly (completion
  time = rounds × Δ in distribution), which is what the agreement tests
  pin against the batch engines, while still only touching the armed
  frontier each tick — the sparse-frontier fast path the event
  benchmark measures.

Rates:

* ``transmission_rate`` scales every firing clock (and divides the
  default time horizon, so doubling the rate halves completion times).
* ``recovery_rate`` (BIPS/SIS, asynchronous mode only) adds independent
  spontaneous-recovery clocks to infected vertices; the persistent BIPS
  source never recovers.
* ``edge_rate_overrides`` reweights neighbour-contact selection per
  edge: a firing vertex picks each neighbour with probability
  proportional to the edge weight (default 1.0), and the BIPS/SIS hit
  probability becomes the infected fraction *by weight*.  A weight of
  ``0.0`` blocks an edge entirely.

BIPS/SIS *arming*: a susceptible vertex with no infected-weight among
its neighbours resamples to susceptible with certainty, so skipping its
clock is law-exact; the armed set is ``infected ∪ {susceptible with
infected neighbour weight > 0}`` and the kernels maintain it
incrementally on every flip.

Sharding and determinism mirror :mod:`repro.core.batch` exactly: the
replicas split into fixed shards via :func:`~repro.core.batch._run_sharded`
(``SeedSequence.spawn`` children per shard, then per replica), so for a
fixed ``seed`` and ``shard_size`` every returned array is bit-identical
at any ``jobs`` count, and spawn-started pools reattach the graph
zero-copy through the SharedGraph path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro._rng import SeedLike, ensure_generator, spawn_seed_sequences
from repro.core.batch import _run_sharded
from repro.core.process import resolve_vertex, resolve_vertex_set, validate_branching
from repro.core.runner import default_max_rounds
from repro.core.sparse import sorted_unique
from repro.errors import CoverTimeoutError, InfectionTimeoutError, ProcessError
from repro.graphs.base import Graph
from repro.parallel import resolve_shared_graph


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

    row_totals = np.add.reduceat(weights, indptr[:-1])
    row_totals[graph.degrees == 0] = 1.0  # isolated vertices never fire
    dead = np.flatnonzero(row_totals <= 0.0)
    if dead.size:
        raise ProcessError(
            f"edge_rate_overrides leave vertex {int(dead[0])} with zero total "
            f"contact rate; every vertex needs at least one positive edge"
        )
    return weights


class _Contacts:
    """Per-shard neighbour-contact sampler, uniform or edge-weighted.

    Weighted draws use one global prefix-sum over the CSR weight array:
    position ``j`` is selected iff ``cum0[j] <= base(v) + r < cum0[j+1]``
    for ``r`` uniform on ``[0, row_total(v))`` — zero-weight positions
    span an empty interval and are never selected.
    """

    __slots__ = ("indptr", "indices", "degrees", "weights", "cum0", "row_tot")

    def __init__(self, graph: Graph, weights: np.ndarray | None) -> None:
        self.indptr = graph.indptr
        self.indices = graph.indices
        self.degrees = graph.degrees
        self.weights = weights
        if weights is None:
            self.cum0 = None
            self.row_tot = None
        else:
            self.cum0 = np.concatenate([[0.0], np.cumsum(weights)])
            self.row_tot = self.cum0[self.indptr[1:]] - self.cum0[self.indptr[:-1]]

    def draw_one(self, v: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """``k`` contact draws (with replacement) for one firing vertex."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        if self.weights is None:
            return self.indices[lo + rng.integers(0, hi - lo, size=k)]
        x = self.cum0[lo] + rng.random(k) * self.row_tot[v]
        return self.indices[np.searchsorted(self.cum0, x, side="right") - 1]

    def draw_many(self, verts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        """``(m, k)`` contact draws for a whole generation of vertices."""
        lo = self.indptr[verts]
        if self.weights is None:
            offsets = rng.integers(0, self.degrees[verts][:, None], size=(verts.size, k))
            return self.indices[lo[:, None] + offsets]
        x = self.cum0[lo][:, None] + rng.random((verts.size, k)) * self.row_tot[verts][:, None]
        return self.indices[np.searchsorted(self.cum0, x, side="right") - 1]

    def infected_fraction(self, v: int, n_inf: np.ndarray, w_inf) -> float:
        """The probability one contact of ``v`` lands on an infected vertex."""
        if self.weights is None:
            return n_inf[v] / self.degrees[v]
        q = w_inf[v] / self.row_tot[v]
        return min(1.0, max(0.0, q))

    def seed_mass(self, infected_vertices, n_inf: np.ndarray, w_inf) -> None:
        """Initialise neighbour infected-mass counters from an infected set."""
        for u in infected_vertices:
            row = slice(self.indptr[u], self.indptr[u + 1])
            neighbours = self.indices[row]
            n_inf[neighbours] += 1
            if w_inf is not None:
                w_inf[neighbours] += self.weights[row]

    def apply_flip(self, v: int, sign: int, n_inf: np.ndarray, w_inf) -> np.ndarray:
        """Propagate one state flip of ``v`` into its neighbours' mass.

        Returns the neighbour array (for the caller's arm/disarm pass).
        Symmetric weights make ``weight(v -> x) == weight(x -> v)``, so
        one pass over ``v``'s row updates every neighbour exactly.
        """
        row = slice(self.indptr[v], self.indptr[v + 1])
        neighbours = self.indices[row]
        if sign > 0:
            n_inf[neighbours] += 1
            if w_inf is not None:
                w_inf[neighbours] += self.weights[row]
        else:
            n_inf[neighbours] -= 1
            if w_inf is not None:
                w_inf[neighbours] -= self.weights[row]
                # Clear float drift exactly where the armed set changes.
                w_inf[neighbours[n_inf[neighbours] == 0]] = 0.0
        return neighbours


# ---------------------------------------------------------------------------
# COBRA kernels.
# ---------------------------------------------------------------------------


def _cobra_replica_exp(
    contacts: _Contacts,
    n: int,
    start: int,
    mandatory: int,
    rho: float,
    rate: float,
    max_time: float,
    include_start: bool,
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
    if include_start:
        covered[start] = True
        covered_count = 1
        if covered_count == n:
            return 0.0
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


def _cobra_replica_sync(
    contacts: _Contacts,
    n: int,
    start: int,
    mandatory: int,
    rho: float,
    time_step: float,
    max_ticks: int,
    include_start: bool,
    rng: np.random.Generator,
) -> float:
    """One discrete-round-limit COBRA replica (all sites fire each tick).

    Identical in law to the synchronous round engines with completion
    time scaled by ``time_step``, but each tick costs only the active
    frontier — the sparse-frontier regime where events beat rounds.
    """
    covered = np.zeros(n, dtype=bool)
    covered_count = 0
    if include_start:
        covered[start] = True
        covered_count = 1
        if covered_count == n:
            return 0.0
    # The active set travels as a sorted vertex array, never as a
    # length-n mask scan, so tick cost tracks the frontier.
    verts = np.array([start], dtype=np.int64)
    for tick in range(1, max_ticks + 1):
        flat = contacts.draw_many(verts, mandatory, rng).ravel()
        if rho > 0.0:
            branch = rng.random(verts.size) < rho
            if branch.any():
                flat = np.concatenate(
                    [flat, contacts.draw_many(verts[branch], 1, rng).ravel()]
                )
        verts = sorted_unique(flat)  # tokens coalesce; sorted for determinism
        fresh = verts[~covered[verts]]
        if fresh.size:
            covered[fresh] = True
            covered_count += fresh.size
        if covered_count == n:
            return tick * time_step
    return -1.0


# ---------------------------------------------------------------------------
# BIPS / SIS kernels (one epidemic kernel; BIPS = persistent source).
# ---------------------------------------------------------------------------


def _epidemic_replica_exp(
    contacts: _Contacts,
    n: int,
    source: int | None,
    initial_mask: np.ndarray,
    mandatory: int,
    rho: float,
    rate: float,
    recovery_rate: float,
    max_time: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One asynchronous BIPS/SIS replica: ``(completion, extinction)`` times.

    Armed vertices resample at ``rate``: the new state is infected with
    probability ``1 - (1 - q)^k`` for infected-neighbour fraction ``q``
    (by weight), exactly the refresh law of the round engines.  The
    persistent source (BIPS) never resamples; ``recovery_rate`` adds
    spontaneous recovery clocks to infected non-source vertices.
    Either return value is ``-1.0`` when that outcome never happened.
    """
    weighted = contacts.weights is not None
    infected = initial_mask.copy()
    infected_count = int(infected.sum())
    if infected_count == n:
        return 0.0, -1.0
    n_inf = np.zeros(n, dtype=np.int64)
    w_inf = np.zeros(n, dtype=np.float64) if weighted else None
    contacts.seed_mass(np.flatnonzero(infected), n_inf, w_inf)
    epoch = np.zeros(n, dtype=np.int64)
    repoch = np.zeros(n, dtype=np.int64)
    heap: list[tuple[float, int, int, int]] = []
    for v in range(n):
        if v == source:
            continue
        if infected[v] or n_inf[v] > 0:
            epoch[v] += 1
            heapq.heappush(heap, (rng.exponential() / rate, v, 0, int(epoch[v])))
        if recovery_rate > 0.0 and infected[v]:
            repoch[v] += 1
            heapq.heappush(
                heap, (rng.exponential() / recovery_rate, v, 1, int(repoch[v]))
            )

    def flip(v: int, now: float) -> None:
        nonlocal infected_count
        sign = -1 if infected[v] else 1
        infected[v] = not infected[v]
        infected_count += sign
        neighbours = contacts.apply_flip(v, sign, n_inf, w_inf)
        candidates = neighbours[~infected[neighbours]]
        if source is not None:
            candidates = candidates[candidates != source]
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

    while heap:
        t, v, kind, entry_epoch = heapq.heappop(heap)
        if entry_epoch != (epoch[v] if kind == 0 else repoch[v]):
            continue
        if t > max_time:
            return -1.0, -1.0
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
            return t, -1.0
        if infected_count == 0:
            return -1.0, t
    return -1.0, -1.0  # pragma: no cover - armed set empties only at extinction


def _epidemic_replica_sync(
    contacts: _Contacts,
    n: int,
    source: int | None,
    initial_mask: np.ndarray,
    mandatory: int,
    rho: float,
    time_step: float,
    max_ticks: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One discrete-round-limit BIPS/SIS replica (all armed fire each tick).

    Every armed vertex resamples against a snapshot of the pre-tick
    state — exactly the synchronous refresh law, with completion times
    scaled by ``time_step``.  Unarmed susceptible vertices resample to
    susceptible with certainty, so skipping them is law-exact and the
    per-tick cost is the armed frontier, not ``n``.
    """
    weighted = contacts.weights is not None
    infected = initial_mask.copy()
    infected_count = int(infected.sum())
    if infected_count == n:
        return 0.0, -1.0
    n_inf = np.zeros(n, dtype=np.int64)
    w_inf = np.zeros(n, dtype=np.float64) if weighted else None
    contacts.seed_mass(np.flatnonzero(infected), n_inf, w_inf)
    # The armed set travels as a sorted vertex array and is patched
    # incrementally at the vertices each tick touches, so tick cost
    # tracks the frontier, not n (one O(n) scan at initialisation).
    armed = infected | (n_inf > 0)
    if source is not None:
        armed[source] = False
    verts = np.flatnonzero(armed)
    for tick in range(1, max_ticks + 1):
        if verts.size == 0:  # pragma: no cover - extinction returns first
            break
        if weighted:
            q = np.clip(w_inf[verts] / contacts.row_tot[verts], 0.0, 1.0)
        else:
            q = n_inf[verts] / contacts.degrees[verts]
        if rho > 0.0:
            k = mandatory + (rng.random(verts.size) < rho)
        else:
            k = mandatory
        certain = q >= 1.0
        p = -np.expm1(k * np.log1p(-np.where(certain, 0.0, q)))
        p = np.where(certain, 1.0, p)
        new = rng.random(verts.size) < p
        changed = verts[new != infected[verts]]
        if changed.size:
            touched = [changed]
            for v in changed:
                v = int(v)
                sign = -1 if infected[v] else 1
                infected[v] = not infected[v]
                infected_count += sign
                touched.append(contacts.apply_flip(v, sign, n_inf, w_inf))
            touched_verts = np.unique(np.concatenate(touched))
            now_armed = infected[touched_verts] | (n_inf[touched_verts] > 0)
            if source is not None:
                now_armed[touched_verts == source] = False
            verts = np.union1d(
                np.setdiff1d(verts, touched_verts, assume_unique=True),
                touched_verts[now_armed],
            )
        if infected_count == n:
            return tick * time_step, -1.0
        if infected_count == 0:
            return -1.0, tick * time_step
    return -1.0, -1.0


# ---------------------------------------------------------------------------
# Shard kernels (the `_run_sharded` plug-ins).
# ---------------------------------------------------------------------------


def _cobra_event_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray:
    (graph, weights, start, mandatory, rho, rate, time_step, max_time, max_ticks,
     include_start) = context
    graph = resolve_shared_graph(graph)
    contacts = _Contacts(graph, weights)
    n = graph.n_vertices
    times = np.empty(stop_index - start_index, dtype=np.float64)
    for i, child in enumerate(spawn_seed_sequences(seed, times.size)):
        rng = ensure_generator(child)
        if time_step is None:
            times[i] = _cobra_replica_exp(
                contacts, n, start, mandatory, rho, rate, max_time, include_start, rng
            )
        else:
            times[i] = _cobra_replica_sync(
                contacts, n, start, mandatory, rho, time_step, max_ticks,
                include_start, rng,
            )
    return times


def _epidemic_event_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray:
    (graph, weights, source, initial, mandatory, rho, rate, recovery_rate,
     time_step, max_time, max_ticks) = context
    graph = resolve_shared_graph(graph)
    contacts = _Contacts(graph, weights)
    n = graph.n_vertices
    initial_mask = np.zeros(n, dtype=bool)
    initial_mask[initial] = True
    outcomes = np.empty((stop_index - start_index, 2), dtype=np.float64)
    for i, child in enumerate(spawn_seed_sequences(seed, outcomes.shape[0])):
        rng = ensure_generator(child)
        if time_step is None:
            outcomes[i] = _epidemic_replica_exp(
                contacts, n, source, initial_mask, mandatory, rho, rate,
                recovery_rate, max_time, rng,
            )
        else:
            outcomes[i] = _epidemic_replica_sync(
                contacts, n, source, initial_mask, mandatory, rho, time_step,
                max_ticks, rng,
            )
    return outcomes


# ---------------------------------------------------------------------------
# Parameter validation shared by the entry points.
# ---------------------------------------------------------------------------


def _validate_rate(name: str, value: float, *, minimum_exclusive: bool) -> float:
    value = float(value)
    bound = "> 0" if minimum_exclusive else ">= 0"
    if not np.isfinite(value) or (value <= 0.0 if minimum_exclusive else value < 0.0):
        raise ProcessError(f"{name} must be a finite number {bound}, got {value}")
    return value


def _resolve_horizon(
    graph: Graph, max_time: float | None, time_step: float | None, rate: float
) -> tuple[float, int]:
    """The time horizon and (sync mode) tick cap for one entry point.

    The default horizon matches the round engines' generous
    :func:`~repro.core.runner.default_max_rounds` cap, converted to
    time units: ``cap × Δ`` in sync mode, ``cap / rate`` in
    asynchronous mode (each armed vertex fires ``rate`` times per unit
    time, so ``cap / rate`` spans the same number of generations).
    """
    if time_step is not None:
        time_step = float(time_step)
        if not np.isfinite(time_step) or time_step <= 0.0:
            raise ProcessError(
                f"time_step must be a finite number > 0 (or None for "
                f"asynchronous clocks), got {time_step}"
            )
    if max_time is None:
        cap = default_max_rounds(graph)
        if time_step is not None:
            return cap * time_step, cap
        return cap / rate, 0
    max_time = float(max_time)
    if not np.isfinite(max_time) or max_time <= 0.0:
        raise ProcessError(f"max_time must be a finite number > 0, got {max_time}")
    if time_step is not None:
        return max_time, int(np.floor(max_time / time_step + 1e-9))
    return max_time, 0


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
    time_step: float | None = None,
    edge_rate_overrides=None,
    n_replicas: int = 100,
    seed: SeedLike = None,
    max_time: float | None = None,
    include_start_in_cover: bool = False,
    raise_on_timeout: bool = True,
    jobs: int | None = None,
    shard_size: int | None = None,
) -> np.ndarray:
    """Continuous cover times of ``n_replicas`` event-driven COBRA runs.

    The Gillespie sibling of
    :func:`~repro.core.batch.batch_cobra_cover_times`: same sharding
    and seed-stability contract (bit-identical at any ``jobs``), but
    returns *float* times in continuous units.  ``time_step=Δ``
    switches to the discrete-round limit, whose times are exactly
    ``rounds × Δ`` in distribution.  Timeouts raise
    :class:`~repro.errors.CoverTimeoutError` (default) or are reported
    as ``-1.0``.
    """
    mandatory, rho = validate_branching(branching)
    start = resolve_vertex(graph, start, role="start")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    rate = _validate_rate("transmission_rate", transmission_rate, minimum_exclusive=True)
    weights = resolve_edge_rates(graph, edge_rate_overrides)
    max_time, max_ticks = _resolve_horizon(graph, max_time, time_step, rate)
    parameters = (
        weights, start, mandatory, rho, rate, time_step, max_time, max_ticks,
        include_start_in_cover,
    )
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
    time_step: float | None = None,
    edge_rate_overrides=None,
    n_replicas: int = 100,
    seed: SeedLike = None,
    max_time: float | None = None,
    raise_on_timeout: bool = True,
    jobs: int | None = None,
    shard_size: int | None = None,
) -> np.ndarray:
    """Continuous infection times of ``n_replicas`` event-driven BIPS runs.

    Armed vertices resample their state asynchronously (or per tick
    with ``time_step``); the persistent source stays infected
    throughout, and completion is *simultaneous* full infection —
    the same goal as the round engines.  ``recovery_rate`` adds
    spontaneous recoveries (asynchronous mode only: a deterministic
    tick grid cannot carry an independent recovery clock).  Timeouts
    raise :class:`~repro.errors.InfectionTimeoutError` or are ``-1.0``.
    """
    mandatory, rho = validate_branching(branching)
    source = resolve_vertex(graph, source, role="source")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    rate = _validate_rate("transmission_rate", transmission_rate, minimum_exclusive=True)
    recovery = _validate_rate("recovery_rate", recovery_rate, minimum_exclusive=False)
    if recovery > 0.0 and time_step is not None:
        raise ProcessError(
            "recovery_rate > 0 requires asynchronous clocks (time_step=None); "
            "the discrete-round limit has no recovery events"
        )
    weights = resolve_edge_rates(graph, edge_rate_overrides)
    max_time, max_ticks = _resolve_horizon(graph, max_time, time_step, rate)
    initial = np.array([source], dtype=np.int64)
    parameters = (
        weights, source, initial, mandatory, rho, rate, recovery, time_step,
        max_time, max_ticks,
    )
    outcomes = np.concatenate(
        _run_sharded(_epidemic_event_shard, graph, parameters, n_replicas, seed,
                     shard_size, jobs)
    )
    times = outcomes[:, 0]
    _check_time_timeouts(
        times, raise_on_timeout, "BIPS", "infect", graph, max_time,
        InfectionTimeoutError,
    )
    return times


@dataclass(frozen=True)
class SisEventResult:
    """Outcomes of an event-driven SIS ensemble.

    Each replica ends in exactly one of three ways: full simultaneous
    infection (``infection_times[i] >= 0``), extinction — the absorbing
    all-susceptible state (``extinction_times[i] >= 0``) — or a
    timeout (both ``-1.0``).
    """

    infection_times: np.ndarray
    extinction_times: np.ndarray

    @property
    def n_replicas(self) -> int:
        """Number of replicas."""
        return int(self.infection_times.size)

    def infected_mask(self) -> np.ndarray:
        """Replicas that reached simultaneous full infection."""
        return self.infection_times >= 0

    def extinct_mask(self) -> np.ndarray:
        """Replicas whose epidemic died out."""
        return self.extinction_times >= 0

    def timed_out_mask(self) -> np.ndarray:
        """Replicas that hit the time horizon with neither outcome."""
        return ~(self.infected_mask() | self.extinct_mask())


def event_sis_times(
    graph: Graph,
    initial,
    *,
    branching: float = 2.0,
    transmission_rate: float = 1.0,
    recovery_rate: float = 0.0,
    time_step: float | None = None,
    edge_rate_overrides=None,
    n_replicas: int = 100,
    seed: SeedLike = None,
    max_time: float | None = None,
    raise_on_timeout: bool = True,
    jobs: int | None = None,
    shard_size: int | None = None,
) -> SisEventResult:
    """Event-driven SIS (no persistent source): infection vs extinction.

    The ablation counterpart of :func:`event_bips_infection_times`
    (compare :class:`~repro.core.sis.SisProcess`): identical resample
    law but every vertex can recover, so the all-susceptible state is
    absorbing and each replica either fully infects, goes extinct, or
    times out.  With ``raise_on_timeout=True`` (default) replicas that
    reach *neither* absorbing outcome raise
    :class:`~repro.errors.InfectionTimeoutError`.
    """
    mandatory, rho = validate_branching(branching)
    initial = resolve_vertex_set(graph, initial, role="initial")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    rate = _validate_rate("transmission_rate", transmission_rate, minimum_exclusive=True)
    recovery = _validate_rate("recovery_rate", recovery_rate, minimum_exclusive=False)
    if recovery > 0.0 and time_step is not None:
        raise ProcessError(
            "recovery_rate > 0 requires asynchronous clocks (time_step=None); "
            "the discrete-round limit has no recovery events"
        )
    weights = resolve_edge_rates(graph, edge_rate_overrides)
    max_time, max_ticks = _resolve_horizon(graph, max_time, time_step, rate)
    parameters = (
        weights, None, initial, mandatory, rho, rate, recovery, time_step,
        max_time, max_ticks,
    )
    outcomes = np.concatenate(
        _run_sharded(_epidemic_event_shard, graph, parameters, n_replicas, seed,
                     shard_size, jobs)
    )
    result = SisEventResult(
        infection_times=outcomes[:, 0].copy(), extinction_times=outcomes[:, 1].copy()
    )
    stuck = int(result.timed_out_mask().sum())
    if stuck and raise_on_timeout:
        raise InfectionTimeoutError(
            f"{stuck}/{n_replicas} SIS event-engine replicas on {graph.name} "
            f"neither fully infected nor went extinct within time horizon "
            f"{max_time:g}"
        )
    return result
