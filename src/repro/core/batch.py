"""The synchronous round engine: many independent replicas, one array.

The experiment ensembles run hundreds of independent replicas of the
same configuration.  Stepping them one by one pays NumPy call overhead
per replica per round; the engine here evolves all replicas of a shard
together, in one kernel per process (:func:`_cobra_shard`,
:func:`_bips_shard`) that works in two phases.

**Sparse opening, dense finish.**  Every run the paper measures starts
from one token or one infected source, so a shard's frontier starts
tiny and, on an expander, fills Θ(n) within O(log n) rounds.  While
the frontier (COBRA's active pairs, BIPS's infected pairs) holds less
than 1/128 of the shard's live cells (unfinished replicas × n), the
shard runs the sparse rounds of :mod:`repro.core.sparse`: pair lists
and a packed coverage bitset, per-round cost ∝ frontier.  Before the
first round at which it holds more (:class:`_Switch`, :data:`_SWITCH`)
the shard converts its live replicas' state once (pairs become rows,
the bitset bool rows, infected pairs the vertex-major BIPS state) and
finishes in the dense loop below; the dense buffers are allocated only
then, for the live replicas only.  Single-token COBRA (``k = 1``) runs
the sparse walk blocks to the end.  Both phases draw in ascending
(replica, vertex) order from the shard's stream, so every output bit
is the same whatever round the switch lands on
(``tests/core/test_round_switch.py`` lands it on every round).  The
trace and watched-set modes and every law but the paper's run the
dense loop from round 1 (:data:`_DENSE`).  The batch entry points keep
their up-front memory guard (:mod:`repro.core.memory`); the sparse
entry points (:mod:`repro.core.sparse`) run the same kernel and let a
shard switch only when that estimate says its dense state fits.

The dense loop is *allocation-lean*: every per-round buffer (the
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
  rounds (:mod:`repro.core.sparse`), which list the same armed pairs
  in the same order, draw the same bits.

Semantics are identical to :class:`~repro.core.cobra.CobraProcess` and
:class:`~repro.core.bips.BipsProcess` with replacement sampling (the
paper's setting), for any real branching factor ``>= 1`` including the
fractional ``k = 1 + ρ`` regime of Theorem 3; the test suite checks
distributional agreement against the sequential engines, and the BIPS
infection-time law against :class:`~repro.exact.bips_exact.ExactBips`.

**Law values.**  Each kernel also takes one law value beyond the
branching factor, :class:`CobraLaw` or :class:`BipsLaw`; the defaults
are the paper's processes, with the bits the kernels had before law
values existed.  The other laws the experiments use are the same two
round rules with one knob turned:

* lossy COBRA (``CobraLaw(loss=p)``, E13) thins the pick kernel's
  picks, one coin per pick drawn after the round's picks;
* lossy BIPS (``BipsLaw(loss=p)``) maps ``q → (1 − p)·q`` in the count
  kernel's threshold table, and ``reach_all=True`` (E13) reads the goal
  from the ever-infected set;
* plain SIS (``BipsLaw(persistent_source=False)``, E10) arms the source
  like any vertex and forces nothing infected.

The process classes stay the readable oracle these laws are tested
against (``tests/core/test_batch_laws.py``).  Lossy COBRA and SIS can
die out.  **An extinction is not a timeout:** ``-1`` still means only
that a replica was running at ``max_rounds``, so ``raise_on_timeout``
raises only for those, and a call with a ``law=`` returns a
:class:`BatchOutcome` whose ``extinct`` mask says which runs ended in
the empty state (SIS: at the round the set emptied).  The trace and
watched-set modes run the paper's laws only, and the sparse entry
points (:mod:`repro.core.sparse`) take no law value.

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
(``jobs>1``).  Pooled shards receive the graph inside the call's one
pickle under every start method (see :mod:`repro.parallel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._rng import SeedLike, ensure_generator, spawn_seed_sequences
from repro.core.memory import check_dense_state_budget
from repro.core.process import (
    reject_isolated_vertices,
    resolve_vertex,
    validate_branching,
    validate_loss,
)
from repro.core.runner import default_max_rounds
from repro.core.sparse import _bips_opening, _cobra_opening
from repro.errors import CoverTimeoutError, InfectionTimeoutError
from repro.graphs.base import Graph
from repro.parallel import map_shards, shard_bounds


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


@dataclass(frozen=True)
class CobraLaw:
    """The round rule of :func:`batch_cobra_cover_times` beyond its branching.

    ``loss`` drops each pick independently with this probability, as
    :class:`~repro.core.cobra.CobraProcess` does: one thinning coin per
    pick, drawn after the round's picks and branching coins.  A replica
    none of whose picks survives a round dies (message loss extension,
    experiment E13).  ``CobraLaw()`` is the paper's lossless COBRA.
    """

    loss: float = 0.0

    def __post_init__(self) -> None:
        validate_loss(self.loss)


@dataclass(frozen=True)
class BipsLaw:
    """The round rule of :func:`batch_bips_infection_times` beyond its branching.

    * ``loss``: each contact fails with this probability, so a vertex
      with infected-neighbour fraction ``q`` sees ``(1 − loss)·q``, the
      law of :class:`~repro.core.bips.BipsProcess` and
      :class:`~repro.exact.bips_exact.ExactBips`.
    * ``persistent_source``: whether the source stays infected (BIPS).
      Without it the source is one more vertex and the rule is plain SIS
      refresh dynamics (:class:`~repro.core.sis.SisProcess`): the empty
      state absorbs, and a replica that reaches it is extinct.
    * ``reach_all``: the goal.  ``False`` is ``infec(v)``, every vertex
      infected in one round; ``True`` is the first round by which every
      vertex has been infected at least once (the source counts from
      round 0), the coverage metric under loss (E13).

    ``BipsLaw()`` is the paper's BIPS.
    """

    loss: float = 0.0
    persistent_source: bool = True
    reach_all: bool = False

    def __post_init__(self) -> None:
        validate_loss(self.loss)


@dataclass(frozen=True)
class BatchOutcome:
    """How each replica of an ensemble run under an explicit law ended.

    Attributes
    ----------
    completion_times:
        ``(R,)`` round at which each replica's run ended: at its goal,
        or in the empty state where ``extinct``.  ``-1`` marks a timeout
        only: the run was still going at ``max_rounds``.
    extinct:
        ``(R,)`` whether the run ended in the empty state (SIS, lossy
        COBRA); never set for a law that cannot die.
    """

    completion_times: np.ndarray
    extinct: np.ndarray

    @property
    def goal_times(self) -> np.ndarray:
        """Completion rounds of the replicas that reached their goal."""
        return self.completion_times[(self.completion_times >= 0) & ~self.extinct]

    @property
    def extinction_times(self) -> np.ndarray:
        """Rounds at which the extinct replicas emptied."""
        return self.completion_times[self.extinct]

    @property
    def timeouts(self) -> int:
        """Replicas still running at ``max_rounds``."""
        return int(np.count_nonzero(self.completion_times < 0))


#: The paper's laws, which the trace and watched-set modes always run.
_PAPER_COBRA = CobraLaw()
_PAPER_BIPS = BipsLaw()

#: A shard reports a replica that died in round ``t`` as ``_DIED - t``,
#: so one int64 array carries goals (``t >= 1``), timeouts (``-1``) and
#: deaths (``<= -3``); :func:`_outcome` splits it.
_DIED = -2


def _outcome(times: np.ndarray) -> BatchOutcome:
    """Split a shard-encoded times array into a :class:`BatchOutcome`."""
    extinct = times < -1
    return BatchOutcome(np.where(extinct, _DIED - times, times), extinct)


@dataclass(frozen=True)
class _Switch:
    """When a shard leaves its sparse rounds for the dense loop.

    Before each sparse round ``t`` the shard asks :meth:`due` with its
    frontier (COBRA's active pairs, BIPS's infected pairs) and its live
    cells (unfinished replicas × n), and switches once the frontier
    holds at least ``fraction`` of the cells.  ``_Switch(0.0)`` runs the
    dense loop from round 1 and ``_Switch(math.inf)`` never leaves the
    sparse rounds; ``at_round`` switches before that round whatever the
    frontier, which is how the tests land the switch on every round.
    """

    fraction: float
    at_round: float = math.inf

    def due(self, round_index: int, frontier: int, cells: int) -> bool:
        return round_index >= self.at_round or frontier >= self.fraction * cells


#: The switch of every times-mode call under the paper's laws: a shard
#: runs sparse rounds until its frontier fills 1/128 of its live cells.
#: Over 1/256 .. 1/8, 1/128 timed best or within a few per cent of the
#: best on the 21³ and 31³ torus operations, a 32-replica rr(8192, 8)
#: shard and the 128-vertex ladder cell (the sweep is in CHANGES.md).
#: The entry points read it at call time and ship it in the shard
#: context, so a patched value reaches spawned workers.
_SWITCH = _Switch(1 / 128)
#: The dense loop from round 1: the trace and watched-set modes and
#: every law but the paper's run it.
_DENSE = _Switch(0.0)
#: Sparse rounds to the end: a sparse entry point whose dense state
#: would not fit the memory budget (:mod:`repro.core.memory`).
_SPARSE = _Switch(math.inf)


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
    whether ``C_t`` meets the watched set in replica ``i``.  Under a
    lossy :class:`CobraLaw` a replica that dies in round ``t`` reads
    ``_DIED - t``.

    The shard opens in sparse rounds (:func:`~repro.core.sparse._cobra_opening`)
    until ``switch`` is due, then converts the live replicas' pairs to
    rows and their coverage bitset to bool rows and finishes in the
    dense loop below.  Both phases draw in ascending (replica, vertex)
    order, so the bits do not depend on the round of the switch.
    """
    graph, start, mandatory, rho, max_rounds, include_start_in_cover, record, watch, law, switch = (
        context
    )
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices
    loss = law.loss
    cover_times = np.full(n_replicas, -1, dtype=np.int64)
    opening = _cobra_opening(
        graph, start, mandatory, rho, max_rounds, include_start_in_cover, rng, cover_times, switch
    )
    if opening is None:
        return cover_times
    first_round, rep, vtx, bits = opening
    # Rows are padded to a power-of-two pitch so the flat active
    # positions decompose into (row base, vertex) with a mask instead
    # of an integer division; padding columns are never set.
    stride = 1 << (n - 1).bit_length() if n > 1 else 1
    vertex_mask = stride - 1
    row_shift = stride.bit_length() - 1

    # Row i of every buffer belongs to replica ``replica_ids[i]``; rows
    # of finished replicas are compacted away, so ``[:live]`` is always
    # the whole unfinished population and nothing else.
    replica_ids = np.flatnonzero(cover_times == -1)
    live = replica_ids.size
    active = np.zeros((live, stride), dtype=bool)
    active.ravel()[(np.searchsorted(replica_ids, rep) << row_shift) | vtx] = True
    covered = np.zeros((live, stride), dtype=bool)
    covered[:, :n] = np.unpackbits(
        bits[replica_ids].astype("<u8", copy=False).view(np.uint8),
        axis=-1,
        count=n,
        bitorder="little",
    )
    # Scratch for the per-round counts; fully recomputed from
    # ``covered`` before every read, so no initial fill is needed.
    covered_counts = np.empty(live, dtype=np.int64)
    scratch = np.zeros((live, stride), dtype=bool)
    newly = np.empty((live, stride), dtype=bool) if record else None
    recorder = _ShardTraceRecorder(n_replicas) if record else None
    watcher = _ShardTraceRecorder(n_replicas, (bool,)) if watch is not None else None

    for round_index in range(first_round, max_rounds + 1):
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
        picks += bases[:, None]
        branch = extra = died = None
        if rho > 0.0:
            branch = rng.random(columns.size) < rho
            if branch.any():
                extra = graph.sample_neighbors(columns[branch], 1, rng).ravel()
                extra += bases[branch]
        if loss > 0.0:
            # One thinning coin per pick, after every pick and branching
            # coin, as CobraProcess draws them: the mandatory picks first.
            drawn = picks.size
            survives = rng.random(drawn + (0 if extra is None else extra.size)) >= loss
            picks = picks.ravel()[survives[:drawn]]
            if extra is not None:
                extra = extra[survives[drawn:]]
            # A replica none of whose picks survived dies this round.
            alive = np.zeros(live, dtype=bool)
            alive[picks >> row_shift] = True
            if extra is not None:
                alive[extra >> row_shift] = True
            died = ~alive
        # Single flat scatter for all mandatory draws of all replicas.
        flat_next[picks] = True
        if extra is not None:
            flat_next[extra] = True
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
        ended = None
        if int(counts.max()) == n:
            ended = counts == n
            cover_times[replica_ids[:live][ended]] = round_index
        if died is not None and died.any():
            cover_times[replica_ids[:live][died]] = _DIED - round_index
            ended = died if ended is None else ended | died
        if ended is not None:
            keep = ~ended
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
    the law :class:`~repro.exact.bips_exact.ExactBips` uses.  Under
    per-contact ``loss`` a sample sees an infected neighbour with
    probability ``(1 − loss)·q`` instead of ``q``, which is all the
    table changes.

    Both thresholds are tabulated per ``(degree, count)``: ``index(v,
    c) = offsets[v] + c``, with ``offsets`` ``None`` on a regular graph
    (``index = c``).  Both round kernels look up this one table, so
    equal indices and uniforms give equal bits.
    """

    def __init__(self, graph: Graph, mandatory: int, rho: float, loss: float = 0.0) -> None:
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
        fraction = counts / np.repeat(distinct, distinct + 1)
        miss = 1.0 - (1.0 - loss) * fraction
        all_miss = miss**mandatory
        self.rho = rho
        self.low = rho * (1.0 - all_miss * miss)
        # ρ + (1 − ρ)·h₀, written so that it is exactly 1 when q = 1.
        self.high = 1.0 - (1.0 - rho) * all_miss

    def infected(self, uniforms: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Whether each armed vertex is infected, given its uniform and index."""
        high = self.high.take(index)
        if self.rho == 0.0:
            return uniforms < high
        low = self.low.take(index)
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
    if graph.is_regular:
        return list(np.ascontiguousarray(flat.reshape(n, -1).T, dtype=np.intp)), None
    starts = np.cumsum(degrees) - degrees
    order = np.argsort(-degrees, kind="stable")
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

    The shard opens in sparse rounds (:func:`~repro.core.sparse._bips_opening`)
    until ``switch`` is due, then writes the live replicas' infected
    pairs, the persistent source among them, into the vertex-major
    state and finishes in the dense loop.  Each dense round counts every
    vertex's infected neighbours, draws one uniform per *armed*
    ``(replica, vertex)`` pair (a non-source vertex with an infected
    neighbour) in ascending order, and applies :class:`_InfectionLaw`;
    the sparse rounds list the same armed pairs in the same order, so
    the bits do not depend on the round of the switch.  The state is
    ``(n, live)``, so each neighbour slot is one row gather; the counts
    are turned replica-major to list the armed pairs in draw order.

    ``law`` (a :class:`BipsLaw`) sets the loss in the threshold table,
    whether the source is kept out of the armed pairs and forced
    infected (without a persistent source a replica whose infected set
    empties in round ``t`` reads ``_DIED - t``), and whether the goal is
    read from the current or the ever-infected set.
    """
    graph, source, mandatory, rho, max_rounds, record, watch, law, switch = context
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    # Only the trace reads unarmed vertices' branching coins; they come
    # from a jumped copy of the stream, so recording draws nothing from
    # ``rng`` and the completion times stay the times engine's.
    coins = np.random.Generator(rng.bit_generator.jumped()) if record and rho > 0.0 else None
    n = graph.n_vertices
    table = _InfectionLaw(graph, mandatory, rho, law.loss)
    infection_times = np.full(n_replicas, -1, dtype=np.int64)
    opening = _bips_opening(graph, source, table, max_rounds, rng, infection_times, switch)
    if opening is None:
        return infection_times
    first_round, rep, vtx = opening
    persistent = law.persistent_source
    slots, rank = _neighbour_slots(graph)
    index_dtype = table.index_dtype
    replica_ids = np.flatnonzero(infection_times == -1)
    live = replica_ids.size
    cells = live * n

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
    row_of = np.empty(n_replicas, dtype=np.intp)
    row_of[replica_ids] = np.arange(live)
    block(state_buffer, n, live)[vtx, row_of[rep]] = 1
    recorder = _ShardTraceRecorder(n_replicas) if record else None
    ever_infected = None
    if recorder is not None or law.reach_all:
        ever_infected = block(state_buffer, n, live).T.copy()
    if recorder is not None:
        newly = np.empty((live, n), dtype=bool)
    watcher = _ShardTraceRecorder(n_replicas, (bool,)) if watch is not None else None

    def views(live: int) -> tuple:
        # The buffers' blocks for ``live`` replicas, built again only
        # when finished replicas are compacted away: a round on a few
        # live replicas costs its NumPy calls, not their set-up.
        state = block(state_buffer, n, live)
        gathered = block(gathered_buffer, n, live)
        counts = block(counts_buffer, n, live)
        sums = [(slot, gathered[: slot.size], counts[: slot.size]) for slot in slots]
        ranked = None if rank is None else block(ranked_buffer, n, live)
        rows = (block(buffer, live, n) for buffer in (index_buffer, armed_buffer, next_buffer))
        return (state, counts, sums, ranked, *rows)

    state, counts, sums, ranked, index, armed, next_state = views(live)
    for round_index in range(first_round, max_rounds + 1):
        if live == 0:
            break
        counts.fill(0)
        for slot, gathered_rows, counts_rows in sums:
            state.take(slot, axis=0, out=gathered_rows, mode="clip")
            counts_rows += gathered_rows
        if ranked is None:
            index[...] = counts.T
        else:
            index[...] = counts.take(rank, axis=0, out=ranked, mode="clip").T
        np.greater(index, 0, out=armed)
        if persistent:
            armed[:, source] = False
        positions = armed.ravel().nonzero()[0]
        uniforms = rng.random(positions.size)
        if table.offsets is not None:
            index += table.offsets
        hit = table.infected(uniforms, index.ravel().take(positions))
        next_state.fill(0)
        next_state.ravel()[positions] = hit
        if persistent:
            next_state[:, source] = 1
        infected_counts = np.count_nonzero(next_state, axis=-1)
        if recorder is not None:
            fresh = np.greater(next_state, ever_infected[:live], out=newly[:live])
            fresh_counts = fresh.sum(axis=-1)
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
        if ever_infected is not None:
            ever_infected[:live] |= next_state
        if law.reach_all:
            done = np.count_nonzero(ever_infected[:live], axis=-1) == n
        else:
            done = infected_counts == n
        ended = done
        if not persistent:
            died = infected_counts == 0
            ended = done | died
        if ended.any():
            keep = ~ended
            infection_times[replica_ids[:live][done]] = round_index
            if not persistent:
                infection_times[replica_ids[:live][died]] = _DIED - round_index
            kept = next_state[keep]
            live = kept.shape[0]
            replica_ids[:live] = replica_ids[: keep.size][keep]
            if ever_infected is not None:
                ever_infected[:live] = ever_infected[: keep.size][keep]
            state, counts, sums, ranked, index, armed, next_state = views(live)
            state[...] = kept.T
        else:
            state[...] = next_state.T

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

    ``kernel(context, start, stop, seed)`` runs once per shard, with
    ``context = (graph, *parameters)``: pooled shards receive the graph
    inside the call's one pickle (see :mod:`repro.parallel`).
    """
    bounds = shard_bounds(n_replicas, shard_size)
    seeds = spawn_seed_sequences(seed, len(bounds))
    tasks = [(start, stop, shard_seed) for (start, stop), shard_seed in zip(bounds, seeds)]
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
        mandatory=mandatory,
        n_replicas=n_replicas,
        record=False,
        shard_size=None,
        jobs=None,
    )
    if process == "cobra":
        kernel = _cobra_shard
        parameters = (origin, mandatory, rho, rounds, False, False, watch, _PAPER_COBRA, _DENSE)
    else:
        kernel = _bips_shard
        parameters = (origin, mandatory, rho, rounds, False, watch, _PAPER_BIPS, _DENSE)
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
    # Only -1 is a timeout: a shard's death code (below -1) is not.
    timed_out = int(np.count_nonzero(times == -1))
    if timed_out and raise_on_timeout:
        raise error_cls(
            f"{timed_out}/{times.size} {process_name} replicas on {graph.name} "
            f"did not {goal} within {max_rounds} rounds"
        )


def _round_cap(graph: Graph, max_rounds: int | None) -> int:
    """``max_rounds``, or the graph's default cap when it is ``None``.

    The round engines step whole rounds, so the cap must be an integer
    (a NumPy integer too, but not a ``bool``) of at least 1.
    """
    if max_rounds is None:
        return default_max_rounds(graph)
    if (
        isinstance(max_rounds, bool)
        or not isinstance(max_rounds, (int, np.integer))
        or max_rounds < 1
    ):
        raise ValueError(f"max_rounds must be None or an integer >= 1, got {max_rounds!r}")
    return int(max_rounds)


def _cobra_arguments(
    graph: Graph, start: int, branching: float, n_replicas: int, max_rounds: int | None
) -> tuple[int, int, float, int]:
    """Validated ``(start, mandatory, rho, max_rounds)`` of a COBRA ensemble.

    Shared by the batch and sparse entry points.
    """
    mandatory, rho = validate_branching(branching)
    start = resolve_vertex(graph, start, role="start")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    return start, mandatory, rho, _round_cap(graph, max_rounds)


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
    law: CobraLaw | None = None,
) -> np.ndarray | BatchOutcome:
    """Cover times of ``n_replicas`` independent COBRA runs.

    Equivalent in distribution to ``n_replicas`` independent
    :class:`~repro.core.cobra.CobraProcess` runs from ``start`` (with
    replacement sampling), but evolved one shard of ``shard_size``
    replicas at a time: under the paper's law, sparse rounds while the
    active pairs fill less than 1/128 of the shard's live cells and
    boolean matrices after (at ``k = 1``, the walk blocks throughout);
    under a lossy ``law``, boolean matrices from round 1.  ``jobs``
    distributes the shards over a process pool (``None`` = the
    process-wide default, ``0`` = one worker per CPU); for a fixed
    ``seed`` and ``shard_size`` the result is bit-identical for every
    ``jobs``.

    Returns an int64 array of length ``n_replicas``; timeouts raise
    :class:`~repro.errors.CoverTimeoutError` (default) or are reported
    as ``-1``.  With a ``law`` (:class:`CobraLaw`, e.g. a per-message
    loss) it returns a :class:`BatchOutcome` instead, whose ``extinct``
    marks the replicas that died; a death is never a timeout, so only
    real timeouts raise.  ``CobraLaw()`` returns the bits of the
    default call.
    """
    start, mandatory, rho, max_rounds = _cobra_arguments(
        graph, start, branching, n_replicas, max_rounds
    )
    check_dense_state_budget(
        graph,
        process="cobra",
        mandatory=mandatory,
        n_replicas=n_replicas,
        record=False,
        shard_size=shard_size,
        jobs=jobs,
    )
    law_value = _PAPER_COBRA if law is None else law
    parameters = (
        start, mandatory, rho, max_rounds, include_start_in_cover, False, None, law_value,
        _SWITCH if law_value == _PAPER_COBRA else _DENSE,
    )
    times = np.concatenate(
        _run_sharded(_cobra_shard, graph, parameters, n_replicas, seed, shard_size, jobs)
    )
    _check_timeouts(times, raise_on_timeout, "COBRA", "cover", graph, max_rounds)
    return times if law is None else _outcome(times)


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
    start, mandatory, rho, max_rounds = _cobra_arguments(
        graph, start, branching, n_replicas, max_rounds
    )
    check_dense_state_budget(
        graph,
        process="cobra",
        mandatory=mandatory,
        n_replicas=n_replicas,
        record=True,
        shard_size=shard_size,
        jobs=jobs,
    )
    parameters = (
        start, mandatory, rho, max_rounds, include_start_in_cover, True, None, _PAPER_COBRA,
        _DENSE,
    )
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
    reject_isolated_vertices(graph, "BIPS")
    return source, mandatory, rho, _round_cap(graph, max_rounds)


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
    law: BipsLaw | None = None,
) -> np.ndarray | BatchOutcome:
    """Infection times of ``n_replicas`` independent BIPS runs.

    Under the paper's law a shard opens in sparse rounds, which cost the
    volume of its infected set, and once that set fills 1/128 of its
    live cells it finishes in the dense loop (any other ``law`` runs the
    dense loop from round 1): each round counts every vertex's
    infected neighbours with one row gather per neighbour slot over the
    ``(n, U)`` state of the `U` unfinished replicas, then draws one
    uniform per armed vertex (see :class:`_InfectionLaw`).  A dense
    round therefore moves ``2m·U`` bytes: cheap at the bounded degrees
    the experiments use, but on dense graphs such as ``K_n`` it costs
    more than sampling ``k`` neighbours per vertex would.  Sharding and
    ``jobs`` follow the same seed-stable contract as
    :func:`batch_cobra_cover_times`, and
    :func:`~repro.core.sparse.sparse_bips_infection_times` runs the same
    kernel and returns the same bits.  A graph with an isolated vertex
    raises :class:`~repro.errors.GraphPropertyError`.  Timeouts raise
    :class:`~repro.errors.InfectionTimeoutError` (default) or are
    reported as ``-1``.

    With a ``law`` (:class:`BipsLaw`: per-contact loss, no persistent
    source for plain SIS, or the reach-every-vertex goal) it returns a
    :class:`BatchOutcome`, whose ``extinct`` marks the SIS replicas
    whose infected set emptied; an extinction is never a timeout.
    ``source`` is then SIS's initially infected vertex.  ``BipsLaw()``
    returns the bits of the default call.
    """
    source, mandatory, rho, max_rounds = _bips_arguments(
        graph, source, branching, n_replicas, max_rounds
    )
    check_dense_state_budget(
        graph,
        process="bips",
        mandatory=mandatory,
        n_replicas=n_replicas,
        record=False,
        shard_size=shard_size,
        jobs=jobs,
    )
    law_value = _PAPER_BIPS if law is None else law
    parameters = (
        source, mandatory, rho, max_rounds, False, None, law_value,
        _SWITCH if law_value == _PAPER_BIPS else _DENSE,
    )
    times = np.concatenate(
        _run_sharded(_bips_shard, graph, parameters, n_replicas, seed, shard_size, jobs)
    )
    goal = "reach every vertex" if law is not None and law.reach_all else "infect"
    _check_timeouts(
        times, raise_on_timeout, "BIPS", goal, graph, max_rounds,
        error_cls=InfectionTimeoutError,
    )
    return times if law is None else _outcome(times)


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
        mandatory=mandatory,
        n_replicas=n_replicas,
        record=True,
        shard_size=shard_size,
        jobs=jobs,
    )
    parameters = (source, mandatory, rho, max_rounds, True, None, _PAPER_BIPS, _DENSE)
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
