"""The NumPy random-regular sampler draws from networkx's law.

:func:`repro.graphs.generators.random_regular` runs the batched pairing
of ``networkx.random_regular_graph`` on a NumPy generator, so below the
complement range only the random stream differs from a networkx build.
In the complement range (``2r > n - 1``) it returns the complement of
the pairing's ``(n - 1 - r)``-regular graph, so there the reference is
networkx's ``(n - 1 - r)``-regular sampler, complemented.  Both sides
condition on connectivity, as ``random_regular`` does.

* ``λ₂`` (second-largest adjacency eigenvalue, two-sample KS test) and
  the triangle count (Mann–Whitney U test), 400 graphs per side, at
  ``(32, 6)`` and ``(64, 8)`` against networkx directly and at
  ``(16, 12)`` against the complemented reference.
* The whole law on tiny graphs, by a chi-square test of the contingency
  table of outcomes, 3,000 graphs per side: the isomorphism class
  (keyed by the rounded spectrum) of connected cubic graphs on 8
  vertices, and every labelled graph of ``(6, 3)``, a complement case.

The false-positive budget is ``α = 1e-3`` per test, eight tests in all,
so a correct sampler fails the module with probability below 0.8% at
fresh seeds; at the pinned seeds the outcome is deterministic.

Those tests cannot see small departures, so one more test replays the
pairing against a plain transcription of networkx's loop, fed the same
shuffles, and asks for the same graph every time.  The last test checks
that the sampler and the dynamic-graph provider built on it run without
importing networkx at all.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from repro.graphs import generators
from repro.graphs.generators import _pairing_edge_keys

ALPHA = 1e-3
SRC = Path(__file__).resolve().parents[2] / "src"


def _repro_adjacencies(n: int, r: int, count: int):
    rng = np.random.default_rng([n, r, 1])
    for _ in range(count):
        graph = generators.random_regular(n, r, seed=rng)
        adjacency = np.zeros((n, n))
        adjacency[np.repeat(np.arange(n), graph.degrees), graph.indices] = 1.0
        yield adjacency


def _networkx_adjacencies(n: int, r: int, count: int):
    """networkx draws at seeds 0, 1, ...; complemented in the dense range."""
    complemented = 2 * r > n - 1
    degree = n - 1 - r if complemented else r
    seed = 0
    while count:
        candidate = nx.random_regular_graph(degree, n, seed=seed)
        seed += 1
        if complemented:
            candidate = nx.complement(candidate)
        if nx.is_connected(candidate):
            count -= 1
            yield nx.to_numpy_array(candidate, nodelist=range(n))


def _lambda2_and_triangles(adjacencies) -> np.ndarray:
    return np.array(
        [
            (np.linalg.eigvalsh(a)[-2], np.trace(a @ a @ a) / 6.0)
            for a in adjacencies
        ]
    )


@pytest.fixture(scope="module", params=[(32, 6), (64, 8), (16, 12)], ids=str)
def statistics(request):
    n, r = request.param
    return (
        _lambda2_and_triangles(_repro_adjacencies(n, r, 400)),
        _lambda2_and_triangles(_networkx_adjacencies(n, r, 400)),
    )


def test_lambda2_law_matches_networkx(statistics):
    ours, theirs = statistics
    assert stats.ks_2samp(ours[:, 0], theirs[:, 0]).pvalue > ALPHA


def test_triangle_law_matches_networkx(statistics):
    ours, theirs = statistics
    result = stats.mannwhitneyu(ours[:, 1], theirs[:, 1], alternative="two-sided")
    assert result.pvalue > ALPHA


def _labelled(adjacency: np.ndarray) -> bytes:
    return np.packbits(adjacency.astype(bool)).tobytes()


def _isomorphism_class(adjacency: np.ndarray) -> bytes:
    return (np.round(np.linalg.eigvalsh(adjacency), 6) + 0.0).tobytes()  # + 0.0 folds -0.0


@pytest.mark.parametrize(
    ("n", "r", "outcome"),
    [(8, 3, _isomorphism_class), (6, 3, _labelled)],
    ids=["(8, 3) classes", "(6, 3) labelled"],
)
def test_small_graph_law_matches_networkx(n, r, outcome):
    ours = Counter(map(outcome, _repro_adjacencies(n, r, 3000)))
    theirs = Counter(map(outcome, _networkx_adjacencies(n, r, 3000)))
    keys = sorted(ours.keys() | theirs.keys())
    table = np.array([[ours[key] for key in keys], [theirs[key] for key in keys]])
    assert len(keys) > 1
    assert stats.chi2_contingency(table).pvalue > ALPHA


class _SortedShuffles:
    """Shuffles that depend only on the multiset of stubs, not their order."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def permutation(self, stubs) -> np.ndarray:
        return self._rng.permutation(np.sort(np.asarray(stubs, dtype=np.int64)))


def _networkx_pairing(n: int, r: int, shuffles: _SortedShuffles) -> np.ndarray:
    """networkx 3.x's ``random_regular_graph`` loop, pair by pair, as edge keys."""

    def suitable(edges, leftover_counts):
        # networkx's restart test, with its swap of the outer loop variable.
        if not leftover_counts:
            return True
        for s1 in leftover_counts:
            for s2 in leftover_counts:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    while True:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * r
        while stubs:
            leftover_counts: dict[int, int] = {}
            shuffled = shuffles.permutation(stubs).tolist()
            for s1, s2 in zip(shuffled[0::2], shuffled[1::2]):
                s1, s2 = min(s1, s2), max(s1, s2)
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    leftover_counts[s1] = leftover_counts.get(s1, 0) + 1
                    leftover_counts[s2] = leftover_counts.get(s2, 0) + 1
            if not suitable(edges, leftover_counts):
                break
            stubs = [u for u, count in leftover_counts.items() for _ in range(count)]
        else:
            return np.array(sorted(u * n + v for u, v in edges), dtype=np.int64)


@pytest.mark.parametrize(("n", "r"), [(6, 3), (8, 3), (10, 4), (12, 5), (30, 8)])
def test_pairing_replays_networkx_step_for_step(n, r):
    for seed in range(200):
        ours = _pairing_edge_keys(n, r, _SortedShuffles(seed))
        theirs = _networkx_pairing(n, r, _SortedShuffles(seed))
        np.testing.assert_array_equal(ours, theirs)


def test_sampler_and_dynamic_provider_never_import_networkx():
    script = (
        "import sys\n"
        "from repro.core.dynamic import EvolvingRegularGraph\n"
        "from repro.graphs.generators import random_regular\n"
        "graph = random_regular(512, 8, seed=1)\n"
        "provider = EvolvingRegularGraph(512, 8, period=1, seed=2)\n"
        "assert provider(1) is not provider(2)\n"
        "assert graph.regular_degree == provider(2).regular_degree == 8\n"
        "print('networkx' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "False"
