"""Batched ensemble simulation v2: many independent replicas, one array.

The experiment ensembles run hundreds of independent replicas of the
same configuration.  Stepping them one by one pays NumPy call overhead
per replica per round; the batch engines here evolve all replicas
simultaneously as dense matrices.

The v2 kernels are *allocation-lean*: every per-round buffer (the
next-state matrix, the newly-covered scratch, the neighbour counts) is
allocated once per shard and reused through ``out=`` / in-place
operations, state updates scatter through a single flat
``ravel``-indexed assignment instead of a Python loop over draws, and
finished replicas are *compacted out* of the live block (their rows
physically removed) rather than masked, so the per-round cost tracks
the unfinished population exactly.

* **COBRA** keeps ``(R, n)`` boolean matrices and scatters each active
  vertex's neighbour picks.
* **BIPS** never picks neighbours.  A non-source vertex is infected
  next round iff one of its samples hits an infected neighbour, which
  given the infected set is one Bernoulli per vertex with ``p_v = 1 −
  (1 − q_v)^m·(1 − ρ·q_v)``, ``q_v`` being its infected-neighbour
  fraction.  Each round sums the infected neighbours of every vertex
  (one row gather per neighbour slot over a vertex-major ``(n, R)``
  state) and draws one uniform per *armed* ``(replica, vertex)`` pair,
  a non-source vertex with ``q_v > 0``, in ascending order;
  :class:`_InfectionLaw` turns the uniform into the infection.  Other
  vertices would miss with certainty and draw nothing, so the sparse
  engine (:mod:`repro.core.sparse`), which lists the same armed pairs
  in the same order, returns the same bits.

Semantics are identical to :class:`~repro.core.cobra.CobraProcess` and
:class:`~repro.core.bips.BipsProcess` with replacement sampling (the
paper's setting), for any real branching factor ``>= 1`` including the
fractional ``k = 1 + ρ`` regime of Theorem 3; the test suite checks
distributional agreement against the sequential engines, and the BIPS
infection-time law against :class:`~repro.exact.bips_exact.ExactBips`.

Two output modes share one kernel per process:

* the *times* engines (:func:`batch_cobra_cover_times`,
  :func:`batch_bips_infection_times`) return the ``(R,)`` completion
  times;
* the *trace* engines (:func:`batch_cobra_traces`,
  :func:`batch_bips_traces`) additionally record per-round
  active / newly-covered / transmission counts as ``(R, T)`` arrays
  (a :class:`BatchTraces`), so message-accounting and phase-curve
  ensembles (E9, E6) ride the same fast path.  Recording draws nothing
  from the round stream: for a fixed seed the trace engines' completion
  times are bit-identical to the times engines'.  (At fractional k the
  BIPS trace counts the branching coins of unarmed vertices too; it
  draws them from a jumped copy of the shard's generator.)

The same recorder also serves a private *watched-set* mode
(:func:`_watched_ensemble`): per replica and round, whether the active
set meets a given vertex set.  It gives the Monte-Carlo tier of the
duality check (:func:`repro.exact.duality.duality_monte_carlo`) both
sides of Theorem 4 at every horizon from one ensemble per side.

Both engines shard their replicas into about
:data:`~repro.parallel.DEFAULT_SHARD_COUNT` fixed blocks seeded by
``SeedSequence.spawn`` children indexed by shard position.  The shard
decomposition depends only on ``n_replicas`` and ``shard_size`` —
never on ``jobs`` — so every returned array is bit-identical whether
the shards run inline (``jobs=1``) or across a process pool
(``jobs>1``).  When the pool would *spawn* workers (no ``fork``), the
graph ships once through a :class:`~repro.parallel.SharedGraph`
segment and reattaches zero-copy in each worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import SeedLike, ensure_generator, spawn_seed_sequences
from repro.core.memory import check_dense_state_budget
from repro.core.process import (
    resolve_vertex,
    validate_branching,
)
from repro.core.runner import default_max_rounds
from repro.errors import CoverTimeoutError, GraphPropertyError, InfectionTimeoutError
from repro.graphs.base import Graph
from repro.parallel import (
    acquire_shared_graph,
    map_shards,
    pool_start_method,
    resolve_shared_graph,
    shard_bounds,
    will_pool,
)


@dataclass(frozen=True)
class BatchTraces:
    """Per-round curves of a batched ensemble, one row per replica.

    All matrices share the shape ``(n_replicas, rounds)``; column
    ``t`` describes round ``t + 1``.  A replica's columns beyond its
    completion round are zero (nothing happens after completion), so
    row sums and row maxima are meaningful without masking.

    **Timeout contract.**  Under ``raise_on_timeout=False`` a replica
    that never completes is reported with ``completion_times == -1``
    and its row stays *fully populated* through every recorded round —
    a timed-out replica keeps evolving until ``max_rounds``, so unlike
    a completed replica it has no trailing zero columns.  The
    aggregate helpers (:meth:`total_transmissions`,
    :meth:`peak_transmissions`, :meth:`cumulative_counts`) therefore
    include timed-out rows *as observed up to the round cap*: totals
    are truncated at ``max_rounds`` and peaks are over the observed
    rounds.  For COBRA a timed-out row's cumulative count stays below
    ``n`` (coverage is monotone and is the completion criterion); for
    BIPS the completion criterion is *simultaneous* full infection, so
    a timed-out row never shows ``n`` in ``active_counts`` but its
    cumulative (ever-infected) count may still reach ``n``.  This is
    deliberate — the rows describe what the truncated run did, not an
    estimate of a complete run.  Callers comparing against completed
    runs should filter with :meth:`completed_mask`.

    Attributes
    ----------
    completion_times:
        ``(R,)`` completion round per replica; ``-1`` marks a timeout.
    active_counts:
        ``|C_t|`` (COBRA) / ``|A_t|`` (BIPS) after each round.
    newly_counts:
        Vertices covered (COBRA) / ever-infected (BIPS) for the first
        time in each round.
    transmissions:
        Messages sent in each round (BIPS: contacts made, the
        persistent source excluded, matching the sequential engines).
    initial_active:
        ``|C_0|`` / ``|A_0|`` — the batch engines start from a single
        vertex, so this is 1.
    initial_cumulative:
        Covered/infected count at round 0 (0 for COBRA under the
        paper's convention, 1 with ``include_start_in_cover``; 1 for
        BIPS).
    """

    completion_times: np.ndarray
    active_counts: np.ndarray
    newly_counts: np.ndarray
    transmissions: np.ndarray
    initial_active: int
    initial_cumulative: int

    @property
    def n_replicas(self) -> int:
        """Number of replicas (rows)."""
        return int(self.completion_times.size)

    @property
    def rounds(self) -> int:
        """Number of recorded rounds ``T`` (columns)."""
        return int(self.active_counts.shape[1])

    def completed_mask(self) -> np.ndarray:
        """``(R,)`` boolean mask of replicas that reached their goal.

        ``False`` rows timed out (``completion_times == -1``; only
        possible under ``raise_on_timeout=False``) and carry truncated
        curves — see the class docstring's timeout contract.
        """
        return self.completion_times >= 0

    def cumulative_counts(self) -> np.ndarray:
        """``(R, T)`` covered/ever-infected totals after each round.

        A timed-out COBRA row plateaus below ``n``; a timed-out BIPS
        row may still reach ``n`` here while never completing, because
        completion requires all vertices *simultaneously* infected
        (timeout contract above).
        """
        return self.initial_cumulative + np.cumsum(self.newly_counts, axis=1)

    def total_transmissions(self) -> np.ndarray:
        """``(R,)`` messages summed over each replica's whole run.

        For a timed-out row this is the total over the rounds actually
        run (truncated at ``max_rounds``), a *lower bound* on what a
        completed run would have sent.
        """
        return self.transmissions.sum(axis=1)

    def peak_transmissions(self) -> np.ndarray:
        """``(R,)`` largest per-round message count of each replica.

        Timed-out rows contribute the peak over their observed rounds.
        """
        return self.transmissions.max(axis=1)

    def active_trajectory(self, replica: int) -> np.ndarray:
        """``[|A_0|, |A_1|, ..., |A_T_r|]`` for one replica.

        Index = round, starting at round 0; a timed-out replica's
        trajectory spans all recorded rounds.
        """
        stop = int(self.completion_times[replica])
        if stop < 0:
            stop = self.rounds
        head = np.asarray([self.initial_active], dtype=np.int64)
        return np.concatenate([head, self.active_counts[replica, :stop]])


class _ShardTraceRecorder:
    """Per-round values of one shard, scattered by replica id.

    The kernels hand in live-block vectors (one entry per *unfinished*
    replica), one per column the recorder was built with; the recorder
    scatters them into fixed ``(R, capacity)`` matrices of the column
    dtypes, doubling the round capacity as needed, so recording adds
    no per-round allocation in the steady state.  Rows of finished
    replicas keep zeros (``False``) from their completion on.
    """

    def __init__(self, n_replicas: int, dtypes: tuple = (np.int64,) * 3) -> None:
        self._capacity = 64
        self._columns = [np.zeros((n_replicas, self._capacity), dtype=d) for d in dtypes]
        self._rounds = 0

    def record(self, replica_ids: np.ndarray, *values: np.ndarray) -> None:
        if self._rounds == self._capacity:
            self._capacity *= 2
            self._columns = [
                np.concatenate([matrix, np.zeros_like(matrix)], axis=1)
                for matrix in self._columns
            ]
        for matrix, value in zip(self._columns, values):
            matrix[replica_ids, self._rounds] = value
        self._rounds += 1

    def finalize(self, completion_times: np.ndarray) -> tuple[np.ndarray, ...]:
        rounds = self._rounds
        return (completion_times, *(matrix[:, :rounds].copy() for matrix in self._columns))


def _cobra_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray | tuple[np.ndarray, ...]:
    """One shard of COBRA replicas; ``-1`` marks a timeout.

    Returns the cover times, or ``(times, active, newly,
    transmissions)`` matrices when tracing is requested, or ``(times,
    seen)`` when ``watch`` is a vertex array: ``seen[i, t - 1]`` says
    whether ``C_t`` meets the watched set in replica ``i``.
    """
    graph, start, mandatory, rho, max_rounds, include_start_in_cover, record, watch = context
    graph = resolve_shared_graph(graph)
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices
    # Rows are padded to a power-of-two pitch so the flat active
    # positions decompose into (row base, vertex) with a mask instead
    # of an integer division; padding columns are never set.
    stride = 1 << (n - 1).bit_length() if n > 1 else 1
    vertex_mask = stride - 1

    # Row i of every buffer belongs to replica ``replica_ids[i]``; rows
    # of finished replicas are compacted away, so ``[:live]`` is always
    # the whole unfinished population and nothing else.
    active = np.zeros((n_replicas, stride), dtype=bool)
    active[:, start] = True
    covered = np.zeros((n_replicas, stride), dtype=bool)
    if include_start_in_cover:
        covered[:, start] = True
    # Scratch for the per-round counts; fully recomputed from
    # ``covered`` before every read, so no initial fill is needed.
    covered_counts = np.empty(n_replicas, dtype=np.int64)
    cover_times = np.full(n_replicas, -1, dtype=np.int64)
    replica_ids = np.arange(n_replicas)
    scratch = np.zeros((n_replicas, stride), dtype=bool)
    newly = np.empty((n_replicas, stride), dtype=bool) if record else None
    recorder = _ShardTraceRecorder(n_replicas) if record else None
    watcher = _ShardTraceRecorder(n_replicas, (bool,)) if watch is not None else None

    live = n_replicas
    for round_index in range(1, max_rounds + 1):
        if live == 0:
            break
        flat_active = active[:live].ravel()
        positions = np.flatnonzero(flat_active)
        columns = positions & vertex_mask
        bases = positions - columns
        picks = graph.sample_neighbors(columns, mandatory, rng)
        next_state = scratch[:live]
        next_state[...] = False
        flat_next = next_state.ravel()
        # Single flat scatter for all mandatory draws of all replicas.
        picks += bases[:, None]
        flat_next[picks] = True
        branch = None
        if rho > 0.0:
            branch = rng.random(columns.size) < rho
            if branch.any():
                extra = graph.sample_neighbors(columns[branch], 1, rng).ravel()
                flat_next[bases[branch] + extra] = True
        cumulative = covered[:live]
        if recorder is not None:
            fresh = np.greater(next_state, cumulative, out=newly[:live])  # next & ~covered
            fresh_counts = fresh.sum(axis=-1)
            rows = bases // stride
            transmissions = np.bincount(rows, minlength=live) * mandatory
            if branch is not None:
                transmissions += np.bincount(rows[branch], minlength=live)
            recorder.record(
                replica_ids[:live], next_state.sum(axis=-1), fresh_counts, transmissions
            )
        if watcher is not None:
            watcher.record(replica_ids[:live], next_state[:, watch].any(axis=-1))
        cumulative |= next_state
        counts = np.sum(cumulative, axis=-1, out=covered_counts[:live])
        if int(counts.max()) == n:
            done = counts == n
            keep = ~done
            cover_times[replica_ids[:live][done]] = round_index
            live = int(keep.sum())
            active[:live] = next_state[keep]
            covered[:live] = cumulative[keep]
            replica_ids[:live] = replica_ids[: keep.size][keep]
        else:
            active, scratch = scratch, active

    if watcher is not None:
        return watcher.finalize(cover_times)
    if recorder is None:
        return cover_times
    return recorder.finalize(cover_times)


class _InfectionLaw:
    """A non-source BIPS vertex's next-round infection test, from counts.

    A vertex with ``c`` of its ``d`` neighbours infected (``q = c/d``)
    samples ``m + 1`` neighbours with probability ``ρ`` and ``m``
    otherwise, and is infected iff a sample hits.  With ``h_j = 1 −
    (1 − q)^(m + j)`` it is infected iff its uniform ``u`` satisfies
    ``u < ρ·h₁`` or ``ρ ≤ u < ρ + (1 − ρ)·h₀``: ``u < ρ`` is its
    branching coin, and on either side of ``ρ`` the rescaled ``u`` is a
    fresh uniform.  That is probability ``1 − (1 − q)^m·(1 − ρ·q)``,
    the law :class:`~repro.exact.bips_exact.ExactBips` uses.

    Both thresholds are tabulated per ``(degree, count)``: ``index(v,
    c) = offsets[v] + c``, with ``offsets`` ``None`` on a regular graph
    (``index = c``).  Both round kernels look up this one table, so
    equal indices and uniforms give equal bits.
    """

    def __init__(self, graph: Graph, mandatory: int, rho: float) -> None:
        if graph.is_regular:
            distinct = np.array([graph.regular_degree], dtype=np.int64)
        else:
            distinct, inverse = np.unique(graph.degrees, return_inverse=True)
        counts = np.concatenate([np.arange(degree + 1) for degree in distinct])
        #: Smallest unsigned dtype holding every table index.
        self.index_dtype = np.min_scalar_type(counts.size - 1)
        self.offsets = None
        if not graph.is_regular:
            starts = np.cumsum(distinct + 1) - (distinct + 1)
            self.offsets = starts[inverse].astype(self.index_dtype)
        miss = 1.0 - counts / np.repeat(distinct, distinct + 1)
        all_miss = miss**mandatory
        self.rho = rho
        self.low = rho * (1.0 - all_miss * miss)
        # ρ + (1 − ρ)·h₀, written so that it is exactly 1 when q = 1.
        self.high = 1.0 - (1.0 - rho) * all_miss

    def infected(self, uniforms: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Whether each armed vertex is infected, given its uniform and index."""
        high = np.take(self.high, index)
        if self.rho == 0.0:
            return uniforms < high
        low = np.take(self.low, index)
        return uniforms < np.where(uniforms < self.rho, low, high)


def _neighbour_slots(graph: Graph) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Neighbour columns for summing infected neighbours one slot at a time.

    Vertices are ordered by non-increasing degree (the identity on a
    regular graph); slot ``j`` lists the ``j``-th neighbour of every
    vertex of degree above ``j``, a prefix of that order, so no row is
    padded to the maximum degree.  Returns ``(slots, rank)``: ``rank[v]``
    is ``v``'s position in the order, ``None`` when it is the identity.
    """
    n = graph.n_vertices
    degrees, flat = graph.neighborhoods(np.arange(n, dtype=np.int64))
    starts = np.cumsum(degrees) - degrees
    order = np.argsort(-degrees, kind="stable")
    rank = None
    if not graph.is_regular:
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
    sorted_degrees = degrees[order]
    slots = []
    for slot in range(int(sorted_degrees[0])):
        rows = int(np.count_nonzero(sorted_degrees > slot))
        slots.append(flat[starts[order[:rows]] + slot].astype(np.intp))
    return slots, rank


def _bips_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray | tuple[np.ndarray, ...]:
    """One shard of BIPS replicas; ``-1`` marks a timeout.

    Returns the infection times, or the trace matrices when requested,
    or ``(times, seen)`` when ``watch`` is a vertex array:
    ``seen[i, t - 1]`` says whether ``A_t`` meets the watched set in
    replica ``i``.

    Each round counts every vertex's infected neighbours, draws one
    uniform per *armed* ``(replica, vertex)`` pair (a non-source vertex
    with an infected neighbour) in ascending order, and applies
    :class:`_InfectionLaw`.  The state is vertex-major, ``(n, live)``,
    so each neighbour slot is one row gather; the counts are turned
    replica-major to list the armed pairs in draw order.
    """
    graph, source, mandatory, rho, max_rounds, record, watch = context
    graph = resolve_shared_graph(graph)
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    # Only the trace reads unarmed vertices' branching coins; they come
    # from a jumped copy of the stream, so recording draws nothing from
    # ``rng`` and the completion times stay the times engine's.
    coins = np.random.Generator(rng.bit_generator.jumped()) if record and rho > 0.0 else None
    n = graph.n_vertices
    law = _InfectionLaw(graph, mandatory, rho)
    slots, rank = _neighbour_slots(graph)
    index_dtype = law.index_dtype
    cells = n_replicas * n

    def block(buffer: np.ndarray, rows: int, columns: int) -> np.ndarray:
        # A contiguous (rows, columns) view at the head of a flat buffer.
        return buffer[: rows * columns].reshape(rows, columns)

    state_buffer = np.zeros(cells, dtype=np.uint8)
    gathered_buffer = np.empty(cells, dtype=np.uint8)
    counts_buffer = np.empty(cells, dtype=index_dtype)
    ranked_buffer = np.empty(cells, dtype=index_dtype) if rank is not None else None
    index_buffer = np.empty(cells, dtype=index_dtype)
    armed_buffer = np.empty(cells, dtype=bool)
    next_buffer = np.empty(cells, dtype=np.uint8)
    block(state_buffer, n, n_replicas)[source] = 1
    infection_times = np.full(n_replicas, -1, dtype=np.int64)
    replica_ids = np.arange(n_replicas)
    recorder = _ShardTraceRecorder(n_replicas) if record else None
    if recorder is not None:
        ever_infected = np.zeros((n_replicas, n), dtype=np.uint8)
        ever_infected[:, source] = 1
        newly = np.empty((n_replicas, n), dtype=bool)
    watcher = _ShardTraceRecorder(n_replicas, (bool,)) if watch is not None else None

    live = n_replicas
    for round_index in range(1, max_rounds + 1):
        if live == 0:
            break
        state = block(state_buffer, n, live)
        gathered = block(gathered_buffer, n, live)
        counts = block(counts_buffer, n, live)
        counts.fill(0)
        for slot in slots:
            rows = slot.size
            np.take(state, slot, axis=0, out=gathered[:rows], mode="clip")
            counts[:rows] += gathered[:rows]
        if rank is not None:
            counts = np.take(counts, rank, axis=0, out=block(ranked_buffer, n, live), mode="clip")
        index = block(index_buffer, live, n)
        index[...] = counts.T
        armed = np.greater(index, 0, out=block(armed_buffer, live, n))
        armed[:, source] = False
        positions = np.flatnonzero(armed)
        uniforms = rng.random(positions.size)
        if law.offsets is not None:
            index += law.offsets
        hit = law.infected(uniforms, np.take(index.ravel(), positions))
        next_state = block(next_buffer, live, n)
        next_state.fill(0)
        next_state.ravel()[positions] = hit
        next_state[:, source] = 1
        infected_counts = np.count_nonzero(next_state, axis=-1)
        if recorder is not None:
            fresh = np.greater(next_state, ever_infected[:live], out=newly[:live])
            fresh_counts = fresh.sum(axis=-1)
            ever_infected[:live] |= next_state
            # Contacts per replica, the persistent source's excluded:
            # ``m`` per non-source vertex, plus one per fired coin.
            transmissions = np.full(live, (n - 1) * mandatory, dtype=np.int64)
            if coins is not None:
                fired = positions[uniforms < rho] // n
                transmissions += np.bincount(fired, minlength=live)
                unarmed = n - 1 - np.count_nonzero(armed, axis=-1)
                transmissions += coins.binomial(unarmed, rho)
            recorder.record(replica_ids[:live], infected_counts, fresh_counts, transmissions)
        if watcher is not None:
            watcher.record(replica_ids[:live], next_state[:, watch].any(axis=-1))
        done = infected_counts == n
        if done.any():
            keep = ~done
            infection_times[replica_ids[:live][done]] = round_index
            next_state = next_state[keep]
            replica_ids[: next_state.shape[0]] = replica_ids[:live][keep]
            if recorder is not None:
                ever_infected[: next_state.shape[0]] = ever_infected[:live][keep]
            live = next_state.shape[0]
        block(state_buffer, n, live)[...] = next_state.T

    if watcher is not None:
        return watcher.finalize(infection_times)
    if recorder is None:
        return infection_times
    return recorder.finalize(infection_times)


def _run_sharded(
    kernel,
    graph: Graph,
    parameters: tuple,
    n_replicas: int,
    seed: SeedLike,
    shard_size: int | None,
    jobs: int | None,
) -> list:
    """Shard ``n_replicas`` rows, seed each shard, run, return raw results.

    When the shards will run on a spawn-started pool (no ``fork``) the
    graph is published through a :class:`~repro.parallel.SharedGraph`
    so every worker reattaches the CSR arrays zero-copy instead of
    unpickling its own copy.  Inside an active
    :func:`~repro.parallel.shared_graph_scope` (experiment runs and
    campaign entries open one) the publication is cached and reused
    across every ensemble call on the same graph — one copy per graph
    per scope; otherwise the segments are freed before returning, even
    on error.
    """
    bounds = shard_bounds(n_replicas, shard_size)
    seeds = spawn_seed_sequences(seed, len(bounds))
    tasks = [(start, stop, shard_seed) for (start, stop), shard_seed in zip(bounds, seeds)]
    # Graphs that pickle to a few bytes (implicit topologies) ship
    # directly — publishing them would require CSR arrays they don't
    # have, and there is nothing worth sharing anyway.
    compact = getattr(graph, "ships_compactly", False)
    if not compact and will_pool(jobs, len(tasks)) and pool_start_method() != "fork":
        handle, caller_owns = acquire_shared_graph(graph)
        try:
            return map_shards(kernel, (handle, *parameters), tasks, jobs=jobs)
        finally:
            if caller_owns:
                handle.unlink()
    return map_shards(kernel, (graph, *parameters), tasks, jobs=jobs)


def _merge_traces(results: list, rounds: int = 0) -> tuple[np.ndarray, ...]:
    """Concatenate per-shard ``(times, *matrices)`` tuples.

    Round columns are zero-padded to the longest shard, or to
    ``rounds`` when that is longer.
    """
    times = np.concatenate([shard[0] for shard in results])
    rounds = max(rounds, *(shard[1].shape[1] for shard in results))

    def stack(position: int) -> np.ndarray:
        padded = [
            np.pad(shard[position], ((0, 0), (0, rounds - shard[position].shape[1])))
            if shard[position].shape[1] < rounds
            else shard[position]
            for shard in results
        ]
        return np.concatenate(padded, axis=0)

    return (times, *(stack(position) for position in range(1, len(results[0]))))


def _watched_ensemble(
    process: str,
    graph: Graph,
    origin: int | np.ndarray,
    watch: np.ndarray,
    *,
    branching: float,
    n_replicas: int,
    rounds: int,
    seed: SeedLike,
) -> tuple[np.ndarray, np.ndarray]:
    """``rounds`` rounds of a COBRA or BIPS ensemble watching a vertex set.

    ``origin`` is COBRA's start set ``C_0`` or BIPS's persistent source.
    Returns ``(times, seen)``: the completion times (``-1`` for a
    replica not complete by ``rounds``) and an ``(n_replicas, rounds)``
    bool matrix whose column ``t - 1`` says whether ``C_t`` / ``A_t``
    meets ``watch``; a replica's columns after its completion round are
    False.  Watching draws no randomness, so the times are the times
    engine's at ``max_rounds=rounds``, with the same seed-stable shards
    over the default ``jobs``.
    """
    mandatory, rho = validate_branching(branching)
    check_dense_state_budget(
        graph,
        process=process,
        n_replicas=n_replicas,
        record=False,
        shard_size=None,
        jobs=None,
    )
    if process == "cobra":
        kernel, parameters = _cobra_shard, (origin, mandatory, rho, rounds, False, False, watch)
    else:
        kernel, parameters = _bips_shard, (origin, mandatory, rho, rounds, False, watch)
    return _merge_traces(
        _run_sharded(kernel, graph, parameters, n_replicas, seed, None, None), rounds
    )


def _check_timeouts(
    times: np.ndarray,
    raise_on_timeout: bool,
    process_name: str,
    goal: str,
    graph: Graph,
    max_rounds: int,
    error_cls: type = CoverTimeoutError,
) -> None:
    timed_out = int((times < 0).sum())
    if timed_out and raise_on_timeout:
        raise error_cls(
            f"{timed_out}/{times.size} {process_name} replicas on {graph.name} "
            f"did not {goal} within {max_rounds} rounds"
        )


def batch_cobra_cover_times(
    graph: Graph,
    start: int,
    *,
    branching: float = 2.0,
    n_replicas: int = 100,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    include_start_in_cover: bool = False,
    raise_on_timeout: bool = True,
    jobs: int | None = None,
    shard_size: int | None = None,
) -> np.ndarray:
    """Cover times of ``n_replicas`` independent COBRA runs.

    Equivalent in distribution to ``n_replicas`` independent
    :class:`~repro.core.cobra.CobraProcess` runs from ``start`` (with
    replacement sampling), but evolved as boolean matrices, one shard
    of ``shard_size`` replicas at a time.  ``jobs`` distributes the
    shards over a process pool (``None`` = the process-wide default,
    ``0`` = one worker per CPU); for a fixed ``seed`` and
    ``shard_size`` the result is bit-identical for every ``jobs``.

    Returns an int64 array of length ``n_replicas``; timeouts raise
    :class:`~repro.errors.CoverTimeoutError` (default) or are reported
    as ``-1``.
    """
    mandatory, rho = validate_branching(branching)
    start = resolve_vertex(graph, start, role="start")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if max_rounds is None:
        max_rounds = default_max_rounds(graph)
    check_dense_state_budget(
        graph,
        process="cobra",
        n_replicas=n_replicas,
        record=False,
        shard_size=shard_size,
        jobs=jobs,
    )
    parameters = (start, mandatory, rho, max_rounds, include_start_in_cover, False, None)
    times = np.concatenate(
        _run_sharded(_cobra_shard, graph, parameters, n_replicas, seed, shard_size, jobs)
    )
    _check_timeouts(times, raise_on_timeout, "COBRA", "cover", graph, max_rounds)
    return times


def batch_cobra_traces(
    graph: Graph,
    start: int,
    *,
    branching: float = 2.0,
    n_replicas: int = 100,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    include_start_in_cover: bool = False,
    raise_on_timeout: bool = True,
    jobs: int | None = None,
    shard_size: int | None = None,
) -> BatchTraces:
    """Per-round curves of ``n_replicas`` independent COBRA runs.

    The trace sibling of :func:`batch_cobra_cover_times`: same kernel,
    same randomness (for a fixed seed the ``completion_times`` are
    bit-identical to the times engine's output), but each round's
    active / newly-covered / transmission counts are recorded per
    replica, so message-accounting ensembles leave the sequential
    path.  Sharding and ``jobs`` follow the same seed-stable
    contract.  With ``raise_on_timeout=False`` timed-out
    rows stay in the returned matrices — see the
    :class:`BatchTraces` timeout contract.
    """
    mandatory, rho = validate_branching(branching)
    start = resolve_vertex(graph, start, role="start")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if max_rounds is None:
        max_rounds = default_max_rounds(graph)
    check_dense_state_budget(
        graph,
        process="cobra",
        n_replicas=n_replicas,
        record=True,
        shard_size=shard_size,
        jobs=jobs,
    )
    parameters = (start, mandatory, rho, max_rounds, include_start_in_cover, True, None)
    times, active, newly, transmissions = _merge_traces(
        _run_sharded(_cobra_shard, graph, parameters, n_replicas, seed, shard_size, jobs)
    )
    _check_timeouts(times, raise_on_timeout, "COBRA", "cover", graph, max_rounds)
    return BatchTraces(
        completion_times=times,
        active_counts=active,
        newly_counts=newly,
        transmissions=transmissions,
        initial_active=1,
        initial_cumulative=1 if include_start_in_cover else 0,
    )


def _bips_arguments(
    graph: Graph, source: int, branching: float, n_replicas: int, max_rounds: int | None
) -> tuple[int, int, float, int]:
    """Validated ``(source, mandatory, rho, max_rounds)`` of a BIPS ensemble.

    Shared by the batch and sparse entry points.  A vertex with no
    neighbour can never be infected, so BIPS would only run to its
    round cap: such graphs raise
    :class:`~repro.errors.GraphPropertyError` up front.
    """
    mandatory, rho = validate_branching(branching)
    source = resolve_vertex(graph, source, role="source")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if graph.min_degree == 0:
        isolated = int(np.argmin(graph.degrees))
        raise GraphPropertyError(
            f"BIPS cannot infect isolated vertex {isolated} of {graph.name}"
        )
    if max_rounds is None:
        max_rounds = default_max_rounds(graph)
    return source, mandatory, rho, max_rounds


def batch_bips_infection_times(
    graph: Graph,
    source: int,
    *,
    branching: float = 2.0,
    n_replicas: int = 100,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    raise_on_timeout: bool = True,
    jobs: int | None = None,
    shard_size: int | None = None,
) -> np.ndarray:
    """Infection times of ``n_replicas`` independent BIPS runs.

    Each round counts every vertex's infected neighbours with one row
    gather per neighbour slot over the ``(n, U)`` state of the `U`
    unfinished replicas of a shard, then draws one uniform per armed
    vertex (see :class:`_InfectionLaw`).  A round therefore moves
    ``2m·U`` bytes: cheap at the bounded degrees the experiments use,
    but on dense graphs such as ``K_n`` it costs more than sampling
    ``k`` neighbours per vertex would.  Sharding and ``jobs`` follow
    the same seed-stable contract as :func:`batch_cobra_cover_times`,
    and :func:`~repro.core.sparse.sparse_bips_infection_times` returns
    the same bits.  A graph with an isolated vertex raises
    :class:`~repro.errors.GraphPropertyError`.  Timeouts raise
    :class:`~repro.errors.InfectionTimeoutError` (default) or are
    reported as ``-1``.
    """
    source, mandatory, rho, max_rounds = _bips_arguments(
        graph, source, branching, n_replicas, max_rounds
    )
    check_dense_state_budget(
        graph,
        process="bips",
        n_replicas=n_replicas,
        record=False,
        shard_size=shard_size,
        jobs=jobs,
    )
    parameters = (source, mandatory, rho, max_rounds, False, None)
    times = np.concatenate(
        _run_sharded(_bips_shard, graph, parameters, n_replicas, seed, shard_size, jobs)
    )
    _check_timeouts(
        times, raise_on_timeout, "BIPS", "infect", graph, max_rounds,
        error_cls=InfectionTimeoutError,
    )
    return times


def batch_bips_traces(
    graph: Graph,
    source: int,
    *,
    branching: float = 2.0,
    n_replicas: int = 100,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    raise_on_timeout: bool = True,
    jobs: int | None = None,
    shard_size: int | None = None,
) -> BatchTraces:
    """Per-round curves of ``n_replicas`` independent BIPS runs.

    The trace sibling of :func:`batch_bips_infection_times` (same
    kernel and randomness; bit-identical ``completion_times``), used by
    the phase-curve ensembles.  ``active_counts`` are the infected-set
    sizes ``|A_t|`` the proof of Theorem 2 tracks.  Timeouts raise
    :class:`~repro.errors.InfectionTimeoutError`; with
    ``raise_on_timeout=False`` timed-out rows stay in the matrices
    under the :class:`BatchTraces` timeout contract.
    """
    source, mandatory, rho, max_rounds = _bips_arguments(
        graph, source, branching, n_replicas, max_rounds
    )
    check_dense_state_budget(
        graph,
        process="bips",
        n_replicas=n_replicas,
        record=True,
        shard_size=shard_size,
        jobs=jobs,
    )
    parameters = (source, mandatory, rho, max_rounds, True, None)
    times, active, newly, transmissions = _merge_traces(
        _run_sharded(_bips_shard, graph, parameters, n_replicas, seed, shard_size, jobs)
    )
    _check_timeouts(
        times, raise_on_timeout, "BIPS", "infect", graph, max_rounds,
        error_cls=InfectionTimeoutError,
    )
    return BatchTraces(
        completion_times=times,
        active_counts=active,
        newly_counts=newly,
        transmissions=transmissions,
        initial_active=1,
        initial_cumulative=1,
    )
