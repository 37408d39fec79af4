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
* **BIPS** — per round, only the *armed* set (infected vertices and
  their neighbours) can become infected: every other vertex samples
  exclusively non-infected neighbours and stays susceptible with
  certainty, so skipping its draws leaves the process law unchanged
  (the same thinning argument as the event engine).  The kernel
  expands ``frontier ∪ N(frontier)`` through
  :meth:`~repro.graphs.base.Graph.neighborhoods`, samples for the
  armed set only, and rebuilds the infected bitset incrementally
  (clearing old bits costs the *old* frontier, not n).

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

Sparse COBRA is **bit-identical** to the batch engine: the frontier
stays in ascending (replica, vertex) order, which is the order the
batch kernel's ``flatnonzero`` visits its active cells, so both engines
draw the same picks and branching coins from the same stream.  Sparse
BIPS agrees with batch BIPS only **in distribution** (KS-tested in
``tests/core/test_sparse.py``): it draws for the armed set alone, so
its stream differs, and ``tests/core/test_sparse_goldens.py`` pins it.
Both engines share the batch sharding contract: shards depend only on
``n_replicas`` / ``shard_size`` and shard seeds are
``SeedSequence.spawn`` children, so ``jobs=1`` and ``jobs=8`` return
bit-identical times.

When to use which engine (see also the README's Scale section): dense
batch for small graphs and dense-cover measurements, where it still
leads (≈1.9× on ``benchmarks/bench_scale.py``'s 1024-vertex k=2 cover
control, ``BENCH_scale.json``); ``sparse`` when n is large and the measured
horizon keeps the frontier well below n (fixed-horizon growth cells,
large sparse graphs, million-vertex scenarios, single-token walks);
``event`` when continuous-time semantics or per-edge rates are wanted.
"""

from __future__ import annotations

import numpy as np

from repro._rng import SeedLike, ensure_generator
from repro.core.batch import _check_timeouts, _run_sharded
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


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` in ascending order, as ``np.unique``.

    Sorts ``keys`` in place and drops adjacent repeats, so callers pass
    an array they own.  On small inputs this is an order of magnitude
    cheaper than ``np.unique``, which hashes before it sorts.
    """
    keys.sort()
    if keys.size < 2:
        return keys
    distinct = np.empty(keys.size, dtype=bool)
    distinct[0] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return keys[distinct]


class KeyDeduper:
    """Sorted distinct keys drawn from ``[0, universe)``, at frontier cost.

    Key arrays that fill at least 1/8 of the universe are scattered into
    a ``bool`` mark array and read back with ``flatnonzero`` (a pass over
    the universe, at most eight times the keys); sparser ones go through
    :func:`sorted_unique`.  The mark array is allocated on the first
    dense call.  Its ``universe`` bytes are then at most the bytes of
    the int64 key array that triggered it, and every call leaves it
    all-False.
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
    """One shard of BIPS replicas in sparse state; ``-1`` marks timeout."""
    graph, source, mandatory, rho, max_rounds = context
    from repro.parallel import resolve_shared_graph

    graph = resolve_shared_graph(graph)
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices
    n_words = (n + _WORD_BITS - 1) // _WORD_BITS

    infected_bits = np.zeros((n_replicas, n_words), dtype=np.uint64)
    infection_times = np.full(n_replicas, -1, dtype=np.int64)
    source_word, source_bit = _bit_coords(np.int64(source))
    infected_bits[:, source_word] |= source_bit

    rep = np.arange(n_replicas, dtype=np.int64)
    vtx = np.full(n_replicas, source, dtype=np.int64)
    shift = (n - 1).bit_length()
    vertex_mask = (1 << shift) - 1
    dedupe = KeyDeduper(n_replicas << shift)

    for round_index in range(1, max_rounds + 1):
        if rep.size == 0:
            break
        # Armed set: infected vertices and their neighbours — the only
        # vertices whose draws can hit an infected neighbour.
        counts, flat = graph.neighborhoods(vtx)
        keys = np.concatenate([rep, np.repeat(rep, counts)])
        keys <<= shift
        keys |= np.concatenate([vtx, flat])
        keys = dedupe(keys)
        armed_rep = keys >> shift
        armed_vtx = keys & vertex_mask

        picks = graph.sample_neighbors(armed_vtx, mandatory, rng)
        pick_words, pick_bits = _bit_coords(picks)
        hits = (infected_bits[armed_rep[:, None], pick_words] & pick_bits) != 0
        hit_any = hits.any(axis=1)
        if rho > 0.0:
            coin = rng.random(armed_vtx.size) < rho
            if coin.any():
                extra = graph.sample_neighbors(armed_vtx[coin], 1, rng).reshape(-1)
                extra_words, extra_bits = _bit_coords(extra)
                extra_hit = (infected_bits[armed_rep[coin], extra_words] & extra_bits) != 0
                hit_any[coin] |= extra_hit

        new_rep = armed_rep[hit_any]
        new_vtx = armed_vtx[hit_any]
        # The persistent source stays infected in every live replica.
        live = np.flatnonzero(infection_times < 0)
        not_source = new_vtx != source
        new_rep = np.concatenate([new_rep[not_source], live])
        new_vtx = np.concatenate([new_vtx[not_source], np.full(live.size, source)])

        # Rebuild the bitset incrementally: clear the old frontier's
        # bits (cost ∝ old frontier), then set the new one's.
        old_words, old_bits = _bit_coords(vtx)
        np.bitwise_and.at(infected_bits, (rep, old_words), ~old_bits)
        words, bits = _bit_coords(new_vtx)
        np.bitwise_or.at(infected_bits, (new_rep, words), bits)
        rep, vtx = new_rep, new_vtx

        infected_counts = np.bincount(rep, minlength=n_replicas)
        finished = infected_counts == n
        if finished.any():
            infection_times[finished & (infection_times < 0)] = round_index
            keep = infection_times[rep] < 0
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

    Distribution-equal to
    :func:`~repro.core.batch.batch_bips_infection_times`: per round only
    the armed set ``A_t ∪ N(A_t)`` samples, which leaves the law
    unchanged because every other vertex would sample non-infected
    neighbours with certainty.  Early rounds therefore cost the
    frontier volume.  As infection saturates, the armed set approaches
    n: its candidate pairs (each infected vertex plus its neighbours)
    then fill the key space, so the dedupe marks them in a ``bool``
    array of ``R·2^⌈log2 n⌉`` bytes instead of sorting them, and a round
    costs a few passes over ``R·n``.  Dense batch then stays ahead on
    small graphs: ≈3.5× on a 1024-vertex 8-regular expander at k=2 with
    32 replicas, while on the 21³ torus the two engines are within 10%
    (best of three, one core of a 2-core Xeon).  The stream differs
    from the batch engine's (draws for the armed set only);
    ``tests/core/test_sparse_goldens.py`` pins it.
    """
    mandatory, rho = validate_branching(branching)
    source = resolve_vertex(graph, source, role="source")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if max_rounds is None:
        max_rounds = default_max_rounds(graph)
    parameters = (source, mandatory, rho, max_rounds)
    times = np.concatenate(
        _run_sharded(_sparse_bips_shard, graph, parameters, n_replicas, seed, shard_size, jobs)
    )
    _check_timeouts(
        times, raise_on_timeout, "BIPS", "infect", graph, max_rounds,
        error_cls=InfectionTimeoutError,
    )
    return times
