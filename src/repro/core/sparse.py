"""The sparse rounds of the round engine: per-round cost ∝ frontier, not n.

Every shard of the round engine (:mod:`repro.core.batch`) opens here
and finishes in the dense loop there, once its frontier fills the
switch's share of its live cells (:data:`~repro.core.batch._SWITCH`,
1/128): the dense loop pays O(R·n) per round however small the
frontier is, and the rounds here pay for the frontier only.  They keep
the *exact same processes* in sparse state:

* **COBRA** (:func:`_cobra_opening`) — the active set is a ``(replica,
  vertex)`` pair list in ascending order and coverage is a packed
  ``uint64`` bitset of ``(R, ⌈n/64⌉)`` words (1 bit per vertex per
  replica, 64× smaller than a bool matrix).  Each round samples
  neighbours *only for frontier pairs*, merges tokens that land on the
  same site, tests freshness against the bitset, and scatters the new
  bits with ``np.bitwise_or.at`` — everything proportional to the
  frontier.  The single-token walk (``branching=1``: one token per
  replica, so nothing merges) has its own kernel, :func:`_walk_blocks`,
  and never switches.  A round there is one gather per live token, so
  it steps a block of rounds at a time:
  :meth:`~repro.graphs.base.Graph.walk` draws the whole block's picks in
  one call, and the coverage of the block is settled in a few
  vectorised passes.  The block is cut back to the first round in which
  a replica covers, so the picks stay the per-round kernel's.
* **BIPS** (:func:`_bips_opening`) — the infected set is a ``(replica,
  vertex)`` pair list.  Each round keys every neighbour of every
  infected pair through :meth:`~repro.graphs.base.Graph.neighborhoods`;
  a key's multiplicity is that vertex's infected-neighbour count.  The
  distinct non-source keys are the *armed* pairs, the only vertices
  that can become infected: every other vertex samples exclusively
  non-infected neighbours and stays susceptible with certainty, so it
  draws nothing and the process law is unchanged (the same thinning
  argument as the event engine).  Each armed pair draws one uniform
  against the dense loop's infection thresholds
  (:class:`~repro.core.batch._InfectionLaw`), so a round costs the
  volume of the infected set, not n.

Both dedupe pairs as int64 keys ``replica << shift | vertex``,
``shift`` being the bit length of ``n - 1``, so key order is (replica,
vertex) order.  :class:`KeyDeduper` returns the sorted distinct keys
without ``np.unique`` (which hashes before it sorts, ~10× an in-place
sort on a small frontier): a key array filling at least 1/8 of the
shard's key universe ``R << shift`` (under ``2·R·n``) is scattered into
a ``bool`` mark array and read back with ``flatnonzero``; a sparser one
is sorted in place and stripped of adjacent repeats.  The mark array is
allocated for the shard's first such key array and reused; its ``R <<
shift`` bytes never exceed the int64 key array that first needed it.
Below the switch's 1/128 a COBRA key array (at most ``k + 1`` keys per
pair) stays under 1/8 of the universe, and a BIPS one (a key per
neighbour) does while the infected pairs' mean degree is under 16.
BIPS uses the counted form: run lengths on the sort path, and on the
dense path an int64 ``bincount`` tally of the universe, at most eight
times the bytes of the key array.

The pair lists stay in ascending (replica, vertex) order, which is the
order the dense loop's ``flatnonzero`` visits its cells, so COBRA draws
the same picks and branching coins, and BIPS the same uniforms for the
same armed pairs, from the same stream in both phases: the bits do not
depend on the round of the switch.

The entry points here, :func:`sparse_cobra_cover_times` and
:func:`sparse_bips_infection_times` (``engine="sparse"``), run the
batch entry points' kernel with one difference: they skip the dense
memory guard, and their shards switch only when the estimate in
:mod:`repro.core.memory` says the dense state fits, so a graph too
large for ``(R, n)`` matrices stays in sparse rounds to the end
(million-vertex scenarios, memory-mapped graphs on a small machine).
Where it fits, both entry points return the same bits in the same
time; sharding, shard seeds and the ``jobs`` contract are the batch
entry points' too.
"""

from __future__ import annotations

import numpy as np

from repro._rng import SeedLike
from repro.core.memory import dense_state_fits
from repro.errors import InfectionTimeoutError
from repro.graphs.base import Graph

_WORD_BITS = 64
#: Bounds of the walk kernel's block length in rounds (see
#: :func:`_walk_blocks`).
_MIN_BLOCK = 4
_MAX_BLOCK = 256
#: ``_BIT_MASKS[i]`` is the uint64 word with only bit ``i`` set.
_BIT_MASKS = np.uint64(1) << np.arange(_WORD_BITS, dtype=np.uint64)


def _bit_coords(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split vertex ids into (word index, single-bit uint64 mask)."""
    return vertices >> 6, _BIT_MASKS[vertices & 63]


def _distinct_mask(keys: np.ndarray) -> np.ndarray:
    """``True`` at the first element of every run of a sorted array."""
    distinct = np.empty(keys.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return distinct


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` in ascending order, as ``np.unique``.

    Sorts ``keys`` in place and drops adjacent repeats, so callers pass
    an array they own.  On small inputs this is an order of magnitude
    cheaper than ``np.unique``, which hashes before it sorts.
    """
    keys.sort()
    if keys.size < 2:
        return keys
    return keys[_distinct_mask(keys)]


class KeyDeduper:
    """Sorted distinct keys drawn from ``[0, universe)``, at frontier cost.

    Key arrays that fill at least 1/8 of the universe are scattered into
    a ``bool`` mark array and read back with ``flatnonzero`` (a pass over
    the universe, at most eight times the keys); sparser ones go through
    :func:`sorted_unique`.  The mark array is allocated on the first
    dense call.  Its ``universe`` bytes are then at most the bytes of
    the int64 key array that triggered it, and every call leaves it
    all-False.

    :meth:`counted` also returns each key's multiplicity: the run
    lengths of the sorted keys on the sparse path, and an int64
    ``bincount`` tally of the universe on the dense path.
    """

    def __init__(self, universe: int) -> None:
        self.universe = universe
        self.marks: np.ndarray | None = None

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """Sorted distinct ``keys``; may reorder ``keys`` in place."""
        if 8 * keys.size < self.universe:
            return sorted_unique(keys)
        if self.marks is None:
            self.marks = np.zeros(self.universe, dtype=bool)
        marks = self.marks
        marks[keys] = True
        distinct = np.flatnonzero(marks)
        marks[distinct] = False
        return distinct

    def counted(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct ``keys`` and their int64 multiplicities.

        May reorder ``keys`` in place.
        """
        if 8 * keys.size < self.universe:
            keys.sort()
            starts = np.flatnonzero(_distinct_mask(keys))
            return keys[starts], np.diff(starts, append=keys.size)
        tallies = np.bincount(keys, minlength=self.universe)
        distinct = np.flatnonzero(tallies)
        return distinct, tallies[distinct]


def _cobra_opening(
    graph: Graph,
    start: int,
    mandatory: int,
    rho: float,
    max_rounds: int,
    include_start_in_cover: bool,
    rng: np.random.Generator,
    cover_times: np.ndarray,
    switch,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray] | None:
    """A COBRA shard's sparse rounds, up to the switch to the dense loop.

    Fills ``cover_times`` (``-1`` = still running) for the replicas that
    cover in these rounds.  Before every round ``t`` it asks
    ``switch.due(t, frontier, live cells)`` (see
    :class:`~repro.core.batch._Switch`), the frontier being the active
    pairs; once due it returns ``(t, rep, vtx, covered)``: the active
    pairs in ascending (replica, vertex) order and the ``(R, ⌈n/64⌉)``
    coverage bitset, for the dense loop to convert and finish from
    round ``t``.  It returns ``None`` when the shard finished or hit
    ``max_rounds`` in sparse rounds.  At ``k = 1`` the shard runs the
    walk blocks (:func:`_walk_blocks`) to the end unless the switch
    holds it in the dense loop from round 1.
    """
    n_replicas = cover_times.size
    n = graph.n_vertices
    n_words = (n + _WORD_BITS - 1) // _WORD_BITS
    # ``start`` is one vertex, or the start set C_0 of the watched-set mode.
    starts = np.unique(np.asarray(start, dtype=np.int64))
    covered = np.zeros((n_replicas, n_words), dtype=np.uint64)
    covered_counts = np.zeros(n_replicas, dtype=np.int64)
    if include_start_in_cover:
        words, bits = _bit_coords(starts)
        np.bitwise_or.at(covered[0], words, bits)
        covered[1:] = covered[0]
        covered_counts[:] = starts.size
    # The walk blocks cost a block of rounds, not a frontier, so they
    # never switch: they ask with an empty frontier, which only a switch
    # that runs the dense loop from round 1 (as the watched-set mode's
    # start sets do) answers with yes.
    if mandatory == 1 and rho == 0.0 and not switch.due(1, 0, n_replicas * n):
        _walk_blocks(graph, start, rng, max_rounds, covered, covered_counts, cover_times)
        return None

    # The frontier: one (replica, vertex) pair per active token site,
    # kept in ascending (replica, vertex) order.
    rep = np.repeat(np.arange(n_replicas, dtype=np.int64), starts.size)
    vtx = np.tile(starts, n_replicas)
    shift = (n - 1).bit_length()
    vertex_mask = (1 << shift) - 1
    dedupe = KeyDeduper(n_replicas << shift)
    live = n_replicas
    for round_index in range(1, max_rounds + 1):
        if live == 0:
            return None
        if switch.due(round_index, rep.size, live * n):
            return round_index, rep, vtx, covered
        picks = graph.sample_neighbors(vtx, mandatory, rng)
        new_rep = np.repeat(rep, mandatory) if mandatory > 1 else rep
        new_vtx = picks.reshape(-1)
        if rho > 0.0:
            branch = rng.random(vtx.size) < rho
            if branch.any():
                extra = graph.sample_neighbors(vtx[branch], 1, rng).reshape(-1)
                new_rep = np.concatenate([new_rep, rep[branch]])
                new_vtx = np.concatenate([new_vtx, extra])
        # Coalescing: tokens landing on the same (replica, vertex) merge.
        keys = dedupe((new_rep << shift) | new_vtx)
        rep = keys >> shift
        vtx = keys & vertex_mask
        words, bits = _bit_coords(vtx)
        fresh = (covered[rep, words] & bits) == 0
        if fresh.any():
            np.bitwise_or.at(covered, (rep[fresh], words[fresh]), bits[fresh])
            covered_counts += np.bincount(rep[fresh], minlength=n_replicas)
            finished = (covered_counts == n) & (cover_times < 0)
            if finished.any():
                cover_times[finished] = round_index
                live -= int(np.count_nonzero(finished))
                keep = ~finished[rep]
                rep = rep[keep]
                vtx = vtx[keep]
    return None


def _walk_blocks(
    graph: Graph,
    start: int,
    rng: np.random.Generator,
    max_rounds: int,
    covered: np.ndarray,
    covered_counts: np.ndarray,
    cover_times: np.ndarray,
) -> None:
    """Single-token COBRA (``k = 1``) a block of rounds at a time.

    Fills ``cover_times`` with the bits the per-round kernel returns.
    :meth:`~repro.graphs.base.Graph.walk` advances every live token a
    block of rounds, drawing what that many rounds of
    ``sample_neighbors`` would.  The block is then settled in a few
    passes: the first visit in round order of each ``(replica, vertex)``
    not covered before the block, each replica's running covered count,
    and the earliest round ``t*`` at which a replica covers.  From round
    ``t* + 1`` the per-round kernel steps without the finished replicas,
    and its draws fall on the others.  So a block that a finish cuts
    short keeps rounds up to ``t*`` only, restores the generator
    snapshot taken at block start and re-walks ``t* + 1`` rounds to
    leave it where the per-round kernel would.

    A cut block wastes its rounds after ``t*`` and walks ``t* + 1``
    twice, and finishes cluster in the tail of the cover-time law, so
    the block length halves after a cut block and doubles after a full
    one, within ``[_MIN_BLOCK, _MAX_BLOCK]`` = [4, 256] rounds.  A longer
    cap settles blocks less often but walks more wasted rounds: over
    eight 16-replica covers of a 2048-vertex 8-regular expander, caps
    of 64, 256 and 1,024 rounds took about 3,500, 1,070 and 500 walk
    calls for 216k, 238k and 296k rounds walked, and 256 took the least
    time.  No block passes ``max_rounds``.
    """
    n = graph.n_vertices
    shift = (n - 1).bit_length()
    rep = np.arange(cover_times.size, dtype=np.int64)
    vtx = np.full(cover_times.size, start, dtype=np.int64)
    settled = 0
    block = _MAX_BLOCK
    while rep.size and settled < max_rounds:
        rounds = min(block, max_rounds - settled)
        snapshot = rng.bit_generator.state
        trajectory = graph.walk(vtx, rounds, rng)
        live = rep.size
        # Visits to vertices the replica had not covered before the
        # block, in (round, replica) order; the first visit of each
        # (replica, vertex) is the first of its equal keys in a stable
        # sort.
        words, bits = _bit_coords(trajectory)
        visits = np.flatnonzero((covered[rep, words] & bits) == 0)
        vertices = trajectory.ravel()[visits]
        keys = ((visits % live) << shift) | vertices
        order = np.argsort(keys, kind="stable")
        first = order[_distinct_mask(keys[order])]
        fresh_rounds, columns = np.divmod(visits[first], live)
        vertices = vertices[first]

        gains = np.bincount(columns, minlength=live)
        needed = n - covered_counts[rep]
        finishing = np.flatnonzero(gains >= needed)
        last = rounds - 1
        if finishing.size:
            # A finishing replica covers at its needed-th fresh round.
            by_replica = np.sort(columns * rounds + fresh_rounds)
            offsets = np.cumsum(gains) - gains
            finish_rounds = by_replica[offsets[finishing] + needed[finishing] - 1] % rounds
            last = int(finish_rounds.min())
            finishing = finishing[finish_rounds == last]
            kept = fresh_rounds <= last
            columns, vertices = columns[kept], vertices[kept]
        words, bits = _bit_coords(vertices)
        np.bitwise_or.at(covered, (rep[columns], words), bits)
        covered_counts[rep] += np.bincount(columns, minlength=live)
        if last < rounds - 1:
            rng.bit_generator.state = snapshot
            graph.walk(vtx, last + 1, rng)
            block = max(block // 2, _MIN_BLOCK)
        else:
            block = min(2 * block, _MAX_BLOCK)
        settled += last + 1
        vtx = trajectory[last]
        if finishing.size:
            cover_times[rep[finishing]] = settled
            keep = cover_times[rep] < 0
            rep, vtx = rep[keep], vtx[keep]


def _bips_opening(
    graph: Graph,
    source: int,
    table,
    max_rounds: int,
    rng: np.random.Generator,
    infection_times: np.ndarray,
    switch,
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """A BIPS shard's sparse rounds, up to the switch to the dense loop.

    The dense loop's round on a pair list: every neighbour of every
    infected ``(replica, vertex)`` pair contributes one key, so the
    counted dedupe yields the armed pairs in ascending order with their
    infected-neighbour counts.  One uniform per armed pair and the
    threshold ``table`` (:class:`~repro.core.batch._InfectionLaw`) give
    the dense loop's bits.  Fills ``infection_times`` for the replicas
    that finish here.  Before every round ``t`` it asks
    ``switch.due(t, frontier, live cells)``, the frontier being the
    infected pairs; once due it returns ``(t, rep, vtx)``, the infected
    pairs with the persistent source, for the dense loop to convert.  It
    returns ``None`` when the shard finished or hit ``max_rounds`` here.
    """
    n_replicas = infection_times.size
    n = graph.n_vertices
    # The infected pairs, the persistent source included.
    rep = np.arange(n_replicas, dtype=np.int64)
    vtx = np.full(n_replicas, source, dtype=np.int64)
    live = rep.copy()
    shift = (n - 1).bit_length()
    vertex_mask = (1 << shift) - 1
    dedupe = KeyDeduper(n_replicas << shift)

    for round_index in range(1, max_rounds + 1):
        if live.size == 0:
            return None
        if switch.due(round_index, rep.size, live.size * n):
            return round_index, rep, vtx
        degrees, flat = graph.neighborhoods(vtx)
        keys = np.repeat(rep, degrees)
        keys <<= shift
        keys |= flat
        keys, counts = dedupe.counted(keys)
        armed_vtx = keys & vertex_mask
        armed = armed_vtx != source
        keys, counts, armed_vtx = keys[armed], counts[armed], armed_vtx[armed]
        uniforms = rng.random(keys.size)
        if table.offsets is not None:
            counts += table.offsets[armed_vtx]
        hit = table.infected(uniforms, counts)

        # The persistent source stays infected in every live replica.
        rep = np.concatenate([keys[hit] >> shift, live])
        vtx = np.concatenate([armed_vtx[hit], np.full(live.size, source)])
        finished = np.bincount(rep, minlength=n_replicas) == n
        if finished.any():
            infection_times[finished] = round_index
            keep = ~finished[rep]
            rep = rep[keep]
            vtx = vtx[keep]
            live = live[~finished[live]]
    return None


def _switch_if_dense_fits(
    graph: Graph,
    process: str,
    mandatory: int,
    n_replicas: int,
    shard_size: int | None,
    jobs: int | None,
):
    """The switch a sparse entry point ships: the paper's, or none at all.

    Its shards may leave the sparse rounds only when
    :func:`~repro.core.memory.dense_state_fits` says the dense state of
    every concurrently running shard fits the memory budget.
    """
    from repro.core import batch

    fits = dense_state_fits(
        graph,
        process=process,
        mandatory=mandatory,
        n_replicas=n_replicas,
        shard_size=shard_size,
        jobs=jobs,
    )
    return batch._SWITCH if fits else batch._SPARSE


def sparse_cobra_cover_times(
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
    """Cover times of ``n_replicas`` COBRA runs, sparse while the frontier is.

    Runs the kernel of :func:`~repro.core.batch.batch_cobra_cover_times`
    and returns its bits for the same arguments: each shard opens in
    sparse rounds (memory ``R·n/8`` bits plus the frontier, each round
    O(frontier)) and switches to the dense loop once its active pairs
    fill 1/128 of its live cells — but only when the dense state of
    every concurrently running shard fits the memory budget
    (:func:`~repro.core.memory.dense_state_fits`); otherwise it stays
    sparse to the end, and no memory guard raises.  At ``branching=1``
    the single-token walk steps in blocks of rounds with one draw call
    per block and one add and one gather per round
    (:func:`_walk_blocks`): about 0.05 s for 16 replicas covering a
    2048-vertex 8-regular expander (≈24k rounds), against 0.5–0.8 s for
    the per-round kernel on the same 2-core Xeon.  Sharding, seeding,
    ``jobs``, and the timeout contract follow the batch engine exactly;
    ``max_rounds`` must be ``None`` or an integer of at least 1.
    """
    from repro.core import batch

    start, mandatory, rho, max_rounds = batch._cobra_arguments(
        graph, start, branching, n_replicas, max_rounds
    )
    switch = _switch_if_dense_fits(graph, "cobra", mandatory, n_replicas, shard_size, jobs)
    parameters = (
        start, mandatory, rho, max_rounds, include_start_in_cover, False, None,
        batch._PAPER_COBRA, switch,
    )
    shards = batch._run_sharded(
        batch._cobra_shard, graph, parameters, n_replicas, seed, shard_size, jobs
    )
    times = np.concatenate(shards)
    batch._check_timeouts(times, raise_on_timeout, "COBRA", "cover", graph, max_rounds)
    return times


def sparse_bips_infection_times(
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
    """Infection times of ``n_replicas`` BIPS runs, sparse while the frontier is.

    Runs the kernel of :func:`~repro.core.batch.batch_bips_infection_times`
    and returns its bits for the same arguments: both phases draw one
    uniform per armed vertex (a non-source vertex with an infected
    neighbour) in ascending (replica, vertex) order from the same shard
    streams, and no other vertex draws.  Early rounds therefore cost the
    volume of the infected set.  As infection saturates, the armed set
    approaches n and a sparse round costs a few passes over ``R·n``
    (its keys fill the key space, and the dedupe tallies them with a
    ``bincount`` instead of sorting them), where the dense loop's count
    gathers are faster: sparse rounds run to the end took 1.5–3.3× the
    dense loop's time on the 21³ torus with 2 to 32 replicas.  So each
    shard switches to the dense loop once its infected pairs fill 1/128
    of its live cells, when the dense state of every concurrently
    running shard fits the memory budget
    (:func:`~repro.core.memory.dense_state_fits`); otherwise it stays in
    sparse rounds.  Sharding, seeding, ``jobs``, the isolated-vertex
    check and the timeout contract follow the batch engine exactly.
    """
    from repro.core import batch

    source, mandatory, rho, max_rounds = batch._bips_arguments(
        graph, source, branching, n_replicas, max_rounds
    )
    switch = _switch_if_dense_fits(graph, "bips", mandatory, n_replicas, shard_size, jobs)
    parameters = (source, mandatory, rho, max_rounds, False, None, batch._PAPER_BIPS, switch)
    shards = batch._run_sharded(
        batch._bips_shard, graph, parameters, n_replicas, seed, shard_size, jobs
    )
    times = np.concatenate(shards)
    batch._check_timeouts(
        times, raise_on_timeout, "BIPS", "infect", graph, max_rounds,
        error_cls=InfectionTimeoutError,
    )
    return times
