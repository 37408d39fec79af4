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
  Tokens can meet only when ``k > 1``, when a branching coin fired, or
  when a replica entered the round on more than one site; in any other
  round each live replica moves its one token to one site, so the pairs
  are already distinct and in order and the merge is skipped (the
  single-token walk, ``branching=1``, never merges).
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
1024-vertex k=2 cover control, ``BENCH_scale.json``; about 4× for BIPS
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
    _InfectionLaw,
    _run_sharded,
)
from repro.core.process import resolve_vertex, validate_branching
from repro.core.runner import default_max_rounds
from repro.errors import InfectionTimeoutError
from repro.graphs.base import Graph

_WORD_BITS = 64
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

    # The frontier: one (replica, vertex) pair per active token site,
    # kept in ascending (replica, vertex) order.
    rep = np.arange(n_replicas, dtype=np.int64)
    vtx = np.full(n_replicas, start, dtype=np.int64)
    live = n_replicas
    shift = (n - 1).bit_length()
    vertex_mask = (1 << shift) - 1
    dedupe = KeyDeduper(n_replicas << shift)

    for round_index in range(1, max_rounds + 1):
        if rep.size == 0:
            break
        picks = graph.sample_neighbors(vtx, mandatory, rng)
        # Two tokens can meet only if some replica sends more than one:
        # k > 1, a branching coin fired, or a replica holds two sites.
        merge = mandatory > 1 or rep.size > live
        new_rep = np.repeat(rep, mandatory) if mandatory > 1 else rep
        new_vtx = picks.reshape(-1)
        if rho > 0.0:
            branch = rng.random(vtx.size) < rho
            if branch.any():
                extra = graph.sample_neighbors(vtx[branch], 1, rng).reshape(-1)
                new_rep = np.concatenate([new_rep, rep[branch]])
                new_vtx = np.concatenate([new_vtx, extra])
                merge = True
        if merge:
            # Coalescing: tokens landing on the same (replica, vertex) merge.
            keys = dedupe((new_rep << shift) | new_vtx)
            rep = keys >> shift
            vtx = keys & vertex_mask
        else:
            # One token per live replica: already distinct and in order.
            rep, vtx = new_rep, new_vtx
        words, bits = _bit_coords(vtx)
        fresh = (covered[rep, words] & bits) == 0
        if fresh.any():
            np.bitwise_or.at(covered, (rep[fresh], words[fresh]), bits[fresh])
            covered_counts += np.bincount(rep[fresh], minlength=n_replicas)
            finished = covered_counts == n
            if finished.any():
                newly_done = finished & (cover_times < 0)
                cover_times[newly_done] = round_index
                live -= int(np.count_nonzero(newly_done))
                keep = cover_times[rep] < 0
                rep = rep[keep]
                vtx = vtx[keep]
    return cover_times


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
    O(frontier) instead of O(R·n).  Sharding, seeding, ``jobs``, and the
    timeout contract follow the batch engine exactly.
    """
    mandatory, rho = validate_branching(branching)
    start = resolve_vertex(graph, start, role="start")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if max_rounds is None:
        max_rounds = default_max_rounds(graph)
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
    leads: ≈4× on a 1024-vertex 8-regular expander at k=2 with 32
    replicas, and 3–8× on the 21³ torus with 2 to 32 replicas (best of
    three, one core of a 2-core Xeon).  Sharding, seeding, ``jobs``, the
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
