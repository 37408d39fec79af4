"""Sparse-frontier ensemble engines: per-round cost ∝ frontier, not n.

The batch engines (:mod:`repro.core.batch`) evolve ``(R, n)`` dense
boolean matrices — unbeatable when the active set is a constant
fraction of the graph, but at million-vertex scale both their memory
and their per-round work are O(R·n) even while the frontier is tiny.
The kernels here keep the *exact same processes* in sparse state:

* **COBRA** — the active set is a deduplicated ``(replica, vertex)``
  pair list and coverage is a packed ``uint64`` bitset of
  ``(R, ⌈n/64⌉)`` words (1 bit per vertex per replica, 64× smaller
  than a bool matrix).  Each round samples neighbours *only for
  frontier pairs*, coalesces via one ``np.unique`` on composite keys,
  tests freshness against the bitset, and scatters the new bits with
  ``np.bitwise_or.at`` — everything proportional to the frontier.
* **BIPS** — per round, only the *armed* set (infected vertices and
  their neighbours) can become infected: every other vertex samples
  exclusively non-infected neighbours and stays susceptible with
  certainty, so skipping its draws leaves the process law unchanged
  (the same thinning argument as the event engine).  The kernel
  expands ``frontier ∪ N(frontier)`` through
  :meth:`~repro.graphs.base.Graph.neighborhoods`, samples for the
  armed set only, and rebuilds the infected bitset incrementally
  (clearing old bits costs the *old* frontier, not n).

Sparse COBRA is **bit-identical** to the batch engine: ``np.unique``
keeps the frontier in ascending (replica, vertex) order, which is the
order the batch kernel's ``flatnonzero`` visits its active cells, so
both engines draw the same picks and branching coins from the same
stream.  Sparse BIPS agrees with batch BIPS only **in distribution**
(KS-tested in ``tests/core/test_sparse.py``): it draws for the armed set
alone, so its stream differs.  Both engines share the batch sharding
contract: shards depend only on ``n_replicas`` / ``shard_size`` and
shard seeds are ``SeedSequence.spawn`` children, so ``jobs=1`` and
``jobs=8`` return bit-identical times.

When to use which engine (see also the README's Scale section): dense
batch for small graphs or dense-cover measurements; ``sparse`` when n
is large and the measured horizon keeps the frontier well below n
(fixed-horizon growth cells, large sparse graphs, million-vertex
scenarios); ``event`` when continuous-time semantics or per-edge rates
are wanted.
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


def _bit_coords(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split vertex ids into (word index, single-bit uint64 mask)."""
    words = vertices >> 6
    bits = np.uint64(1) << (vertices & 63).astype(np.uint64)
    return words, bits


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

    # The frontier: one (replica, vertex) pair per active token site.
    rep = np.arange(n_replicas, dtype=np.int64)
    vtx = np.full(n_replicas, start, dtype=np.int64)

    for round_index in range(1, max_rounds + 1):
        if rep.size == 0:
            break
        picks = graph.sample_neighbors(vtx, mandatory, rng)
        new_rep = np.repeat(rep, mandatory)
        new_vtx = picks.reshape(-1)
        if rho > 0.0:
            branch = rng.random(vtx.size) < rho
            if branch.any():
                extra = graph.sample_neighbors(vtx[branch], 1, rng).reshape(-1)
                new_rep = np.concatenate([new_rep, rep[branch]])
                new_vtx = np.concatenate([new_vtx, extra])
        # Coalescing: tokens landing on the same (replica, vertex) merge.
        keys = np.unique(new_rep * n + new_vtx)
        rep = keys // n
        vtx = keys - rep * n
        words, bits = _bit_coords(vtx)
        fresh = (covered[rep, words] & bits) == 0
        if fresh.any():
            np.bitwise_or.at(covered, (rep[fresh], words[fresh]), bits[fresh])
            covered_counts += np.bincount(rep[fresh], minlength=n_replicas)
            finished = covered_counts == n
            if finished.any():
                newly_done = finished & (cover_times < 0)
                cover_times[newly_done] = round_index
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

    for round_index in range(1, max_rounds + 1):
        if rep.size == 0:
            break
        # Armed set: infected vertices and their neighbours — the only
        # vertices whose draws can hit an infected neighbour.
        counts, flat = graph.neighborhoods(vtx)
        candidate_rep = np.concatenate([rep, np.repeat(rep, counts)])
        candidate_vtx = np.concatenate([vtx, flat])
        keys = np.unique(candidate_rep * n + candidate_vtx)
        armed_rep = keys // n
        armed_vtx = keys - armed_rep * n

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
        live = np.unique(rep)
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
    frontier volume; as infection saturates the armed set approaches n
    and dense batch wins — this engine is for the large-n sparse
    regime, not a replacement.
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
