"""Sparse-frontier ensemble engines: per-round cost ∝ frontier, not n.

The batch engines (:mod:`repro.core.batch`) evolve ``(R, n)`` dense
boolean matrices — unbeatable when the active set is a constant
fraction of the graph, but at million-vertex scale both their memory
and their per-round work are O(R·n) even while the frontier is tiny.
The kernels here keep the *exact same processes* in sparse state:

* **COBRA** — the active set is a ``(replica, vertex)`` pair list in
  ascending order and coverage is a packed ``uint64`` bitset of
  ``(R, ⌈n/64⌉)`` words (1 bit per vertex per replica, 64× smaller
  than a bool matrix).  Each round samples neighbours *only for
  frontier pairs*, merges tokens that land on the same site, tests
  freshness against the bitset, and scatters the new bits with
  ``np.bitwise_or.at`` — everything proportional to the frontier.
  The single-token walk (``branching=1``: one token per replica, so
  nothing merges) has its own kernel, :func:`_walk_blocks`.  A round
  there is one gather per live token, so it steps a block of rounds at
  a time: :meth:`~repro.graphs.base.Graph.walk` draws the whole
  block's picks in one call, and the coverage of the block is settled
  in a few vectorised passes.  The block is cut back to the first
  round in which a replica covers, so the picks stay the per-round
  kernel's.
* **BIPS** — the infected set is a ``(replica, vertex)`` pair list.
  Each round keys every neighbour of every infected pair through
  :meth:`~repro.graphs.base.Graph.neighborhoods`; a key's multiplicity
  is that vertex's infected-neighbour count.  The distinct non-source
  keys are the *armed* pairs, the only vertices that can become
  infected: every other vertex samples exclusively non-infected
  neighbours and stays susceptible with certainty, so it draws nothing
  and the process law is unchanged (the same thinning argument as the
  event engine).  Each armed pair draws one uniform against the batch
  kernel's infection thresholds
  (:class:`~repro.core.batch._InfectionLaw`), so a round costs the
  volume of the infected set, not n.

Both kernels dedupe pairs as int64 keys ``replica << shift | vertex``,
``shift`` being the bit length of ``n - 1``, so key order is (replica,
vertex) order.  :class:`KeyDeduper` returns the sorted distinct keys
without ``np.unique`` (which hashes before it sorts, ~10× an in-place
sort on a small frontier): a key array filling at least 1/8 of the
shard's key universe ``R << shift`` (under ``2·R·n``) is scattered into
a ``bool`` mark array and read back with ``flatnonzero``; a sparser one
is sorted in place and stripped of adjacent repeats.  The mark array is
allocated on the shard's first dense round and reused; its ``R <<
shift`` bytes never exceed the int64 key array that first needed it.
BIPS uses the counted form: run lengths on the sort path, and on the
dense path an int64 ``bincount`` tally of the universe, at most eight
times the bytes of the key array.

Both sparse kernels are **bit-identical** to the batch engines: the
pair lists stay in ascending (replica, vertex) order, which is the
order the batch kernels' ``flatnonzero`` visits their cells, so COBRA
draws the same picks and branching coins, and BIPS the same uniforms
for the same armed pairs, from the same stream.  Both engines share
the batch sharding contract: shards depend only on ``n_replicas`` /
``shard_size`` and shard seeds are ``SeedSequence.spawn`` children, so
``jobs=1`` and ``jobs=8`` return bit-identical times.

When to use which engine (see also the README's Scale section): dense
batch for small graphs, dense-cover measurements and BIPS run to full
infection, where it leads (≈1.9× on ``benchmarks/bench_scale.py``'s
1024-vertex k=2 cover control, ``BENCH_scale.json``; about 3× for BIPS
on ``benchmarks/bench_batch.py``'s cell); ``sparse`` when n is large
and the measured horizon keeps the frontier well below n (fixed-horizon
growth cells, large sparse graphs, million-vertex scenarios,
single-token walks); ``event`` when continuous-time semantics or
per-edge rates are wanted.
"""

from __future__ import annotations

import numpy as np

from repro._rng import SeedLike, ensure_generator
from repro.core.batch import (
    _bips_arguments,
    _check_timeouts,
    _cobra_arguments,
    _InfectionLaw,
    _run_sharded,
)
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


def _sparse_cobra_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray:
    """One shard of COBRA replicas in sparse state; ``-1`` marks timeout."""
    graph, start, mandatory, rho, max_rounds, include_start_in_cover = context
    from repro.parallel import resolve_shared_graph

    graph = resolve_shared_graph(graph)
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices
    n_words = (n + _WORD_BITS - 1) // _WORD_BITS

    covered = np.zeros((n_replicas, n_words), dtype=np.uint64)
    covered_counts = np.zeros(n_replicas, dtype=np.int64)
    cover_times = np.full(n_replicas, -1, dtype=np.int64)
    if include_start_in_cover:
        word, bit = _bit_coords(np.int64(start))
        covered[:, word] |= bit
        covered_counts[:] = 1
    if mandatory == 1 and rho == 0.0:
        _walk_blocks(graph, start, rng, max_rounds, covered, covered_counts, cover_times)
        return cover_times

    # The frontier: one (replica, vertex) pair per active token site,
    # kept in ascending (replica, vertex) order.
    rep = np.arange(n_replicas, dtype=np.int64)
    vtx = np.full(n_replicas, start, dtype=np.int64)
    shift = (n - 1).bit_length()
    vertex_mask = (1 << shift) - 1
    dedupe = KeyDeduper(n_replicas << shift)

    for round_index in range(1, max_rounds + 1):
        if rep.size == 0:
            break
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
            finished = covered_counts == n
            if finished.any():
                cover_times[finished & (cover_times < 0)] = round_index
                keep = cover_times[rep] < 0
                rep = rep[keep]
                vtx = vtx[keep]
    return cover_times


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


def _sparse_bips_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray:
    """One shard of BIPS replicas in sparse state; ``-1`` marks timeout.

    The batch kernel's round on a pair list: every neighbour of every
    infected ``(replica, vertex)`` pair contributes one key, so the
    counted dedupe yields the armed pairs in ascending order with their
    infected-neighbour counts.  One uniform per armed pair and the same
    :class:`~repro.core.batch._InfectionLaw` table give the batch
    kernel's bits.
    """
    graph, source, mandatory, rho, max_rounds = context
    from repro.parallel import resolve_shared_graph

    graph = resolve_shared_graph(graph)
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices
    law = _InfectionLaw(graph, mandatory, rho)
    infection_times = np.full(n_replicas, -1, dtype=np.int64)

    # The infected pairs, the persistent source included.
    rep = np.arange(n_replicas, dtype=np.int64)
    vtx = np.full(n_replicas, source, dtype=np.int64)
    shift = (n - 1).bit_length()
    vertex_mask = (1 << shift) - 1
    dedupe = KeyDeduper(n_replicas << shift)

    for round_index in range(1, max_rounds + 1):
        if rep.size == 0:
            break
        degrees, flat = graph.neighborhoods(vtx)
        keys = np.repeat(rep, degrees)
        keys <<= shift
        keys |= flat
        keys, counts = dedupe.counted(keys)
        armed_vtx = keys & vertex_mask
        armed = armed_vtx != source
        keys, counts, armed_vtx = keys[armed], counts[armed], armed_vtx[armed]
        uniforms = rng.random(keys.size)
        if law.offsets is not None:
            counts += law.offsets[armed_vtx]
        hit = law.infected(uniforms, counts)

        # The persistent source stays infected in every live replica.
        live = np.flatnonzero(infection_times < 0)
        rep = np.concatenate([keys[hit] >> shift, live])
        vtx = np.concatenate([armed_vtx[hit], np.full(live.size, source)])
        finished = np.bincount(rep, minlength=n_replicas) == n
        if finished.any():
            infection_times[finished] = round_index
            keep = ~finished[rep]
            rep = rep[keep]
            vtx = vtx[keep]
    return infection_times


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
    """Cover times of ``n_replicas`` COBRA runs in sparse-frontier state.

    Bit-identical to :func:`~repro.core.batch.batch_cobra_cover_times`
    for the same arguments — both engines draw picks and coins in
    ascending (replica, vertex) order from the same shard streams — but
    memory is ``R·n/8`` bits plus the frontier, and each round costs
    O(frontier) instead of O(R·n).  At ``branching=1`` the single-token
    walk steps in blocks of rounds with one draw call per block and one
    add and one gather per round (:func:`_walk_blocks`): about 0.05 s
    for 16 replicas covering a 2048-vertex 8-regular expander (≈24k
    rounds), against 0.5–0.8 s for the per-round kernel on the same
    2-core Xeon.
    Sharding, seeding, ``jobs``, and the timeout contract follow the
    batch engine exactly; ``max_rounds`` must be ``None`` or an integer
    of at least 1.
    """
    start, mandatory, rho, max_rounds = _cobra_arguments(
        graph, start, branching, n_replicas, max_rounds
    )
    parameters = (start, mandatory, rho, max_rounds, include_start_in_cover)
    times = np.concatenate(
        _run_sharded(_sparse_cobra_shard, graph, parameters, n_replicas, seed, shard_size, jobs)
    )
    _check_timeouts(times, raise_on_timeout, "COBRA", "cover", graph, max_rounds)
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
    """Infection times of ``n_replicas`` BIPS runs in sparse-frontier state.

    Bit-identical to :func:`~repro.core.batch.batch_bips_infection_times`
    for the same arguments: both engines draw one uniform per armed
    vertex (a non-source vertex with an infected neighbour) in ascending
    (replica, vertex) order from the same shard streams, and no other
    vertex draws.  Early rounds therefore cost the volume of the
    infected set.  As infection saturates, the armed set approaches n
    and its keys fill the key space, so the dedupe tallies them with a
    ``bincount`` over ``R·2^⌈log2 n⌉`` entries instead of sorting them,
    and a round costs a few passes over ``R·n``.  Dense batch then
    leads: ≈2.7× on a 1024-vertex 8-regular expander at k=2 with 32
    replicas, and 1.5–3.3× on the 21³ torus with 2 to 32 replicas (best
    of three, one core of a 2-core Xeon).  Sharding, seeding, ``jobs``, the
    isolated-vertex check and the timeout contract follow the batch
    engine exactly.
    """
    source, mandatory, rho, max_rounds = _bips_arguments(
        graph, source, branching, n_replicas, max_rounds
    )
    parameters = (source, mandatory, rho, max_rounds)
    times = np.concatenate(
        _run_sharded(_sparse_bips_shard, graph, parameters, n_replicas, seed, shard_size, jobs)
    )
    _check_timeouts(
        times, raise_on_timeout, "BIPS", "infect", graph, max_rounds,
        error_cls=InfectionTimeoutError,
    )
    return times
