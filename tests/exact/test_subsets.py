"""Tests for the bitmask subset algebra in :mod:`repro.exact.subsets`
and the closed forms the exact engines build their step rows from."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExactEngineError
from repro.exact import subsets
from repro.exact.bips_exact import ExactBips
from repro.exact.cobra_exact import ExactCobra
from repro.exact.duality import duality_gap
from repro.exact.subsets import (
    MATRIX_LIMIT,
    MAX_EXACT_VERTICES,
    check_size,
    mask_from_vertices,
    masks_containing,
    masks_disjoint_from,
    mobius,
    popcount_table,
    product_measure,
    vertices_from_mask,
)
from repro.graphs import generators


class TestMasks:
    def test_roundtrip(self):
        for vertices in ([], [0], [1, 3], [0, 2, 5]):
            assert vertices_from_mask(mask_from_vertices(vertices)) == sorted(vertices)

    def test_duplicates_harmless(self):
        assert mask_from_vertices([2, 2, 2]) == 4

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            mask_from_vertices([-1])

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            vertices_from_mask(-3)


class TestPopcountTable:
    def test_values(self):
        table = popcount_table(4)
        assert table.shape == (16,)
        expected = [bin(mask).count("1") for mask in range(16)]
        assert list(table) == expected

    def test_readonly(self):
        with pytest.raises(ValueError):
            popcount_table(3)[0] = 9

    def test_size_guard(self):
        with pytest.raises(ExactEngineError, match="limit"):
            check_size(MAX_EXACT_VERTICES + 1)
        check_size(MAX_EXACT_VERTICES)  # boundary is allowed


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Zeta transform by its definition: ``Σ_{U ⊆ T} values[U]`` for every ``T``.

    Acts along the first axis, like :func:`mobius`.
    """
    masks = np.arange(values.shape[0])
    inside = (masks[:, None] & masks[None, :]) == masks[None, :]  # [T, U]: U ⊆ T
    return inside @ values


class TestTransforms:
    @pytest.mark.parametrize("n_bits", range(1, 11))
    def test_mobius_inverts_subset_sums(self, n_bits):
        rng = np.random.default_rng(n_bits)
        values = rng.standard_normal(1 << n_bits)
        recovered = mobius(_subset_sums(values), n_bits)
        assert np.allclose(recovered, values, rtol=0.0, atol=1e-9)

    def test_mobius_acts_on_the_first_axis(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((8, 4))
        recovered = mobius(_subset_sums(values), 3)
        assert np.allclose(recovered, values, rtol=0.0, atol=1e-12)

    def test_product_measure(self):
        probabilities = np.array([[0.2, 0.5, 0.9], [1.0, 0.0, 0.25]])
        law = product_measure(probabilities)
        assert law.shape == (8, 2)
        for column, column_probabilities in zip(law.T, probabilities):
            assert column.sum() == pytest.approx(1.0)
            for mask in range(8):
                expected = 1.0
                for bit, p in enumerate(column_probabilities):
                    expected *= p if (mask >> bit) & 1 else 1.0 - p
                assert column[mask] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        ("branching", "loss"),
        [(1.0, 0.0), (1.5, 0.0), (2.0, 0.3), (3.0, 0.0)],
        # The "True" names sampling with replacement.
        ids=["1.0-0.0-True", "1.5-0.0-True", "2.0-0.3-True", "3.0-0.0-True"],
    )
    def test_cobra_zeta_row_is_product_of_vertex_factors(self, petersen, branching, loss):
        # A COBRA step is a union of independent per-vertex choice sets:
        # the subset sums of the row of S are the product over u in S of
        # the subset sums of the row of {u}.
        engine = ExactCobra(petersen, branching=branching, loss_probability=loss)
        factors = {u: _subset_sums(engine.step_distribution(1 << u)) for u in range(10)}
        for mask in range(1, 1 << 10, 37):
            expected = np.prod([factors[u] for u in vertices_from_mask(mask)], axis=0)
            assert np.allclose(
                _subset_sums(engine.step_distribution(mask)), expected, rtol=0.0, atol=1e-14
            )

    def test_cobra_vertex_factor_closed_form(self, petersen):
        # With replacement, P(choice set of u inside T) = q^k (1 - rho + rho q)
        # with q = loss + (1 - loss) |N(u) ∩ T| / d(u).
        engine = ExactCobra(petersen, branching=1.5, loss_probability=0.2)
        neighbors = mask_from_vertices(petersen.neighbors(0).tolist())
        overlap = popcount_table(10)[np.arange(1 << 10) & neighbors]
        q = 0.2 + 0.8 * overlap / 3
        assert np.allclose(
            _subset_sums(engine.step_distribution(1)), q * (0.5 + 0.5 * q),
            rtol=0.0, atol=1e-15,
        )

    @pytest.mark.parametrize("branching", [2.0, 1.5], ids=["2.0-True", "1.5-True"])
    def test_bips_row_is_product_measure(self, petersen, branching):
        engine = ExactBips(petersen, 3, branching=branching)
        masks = np.arange(1 << 10)
        for mask in range(1 << 3, 1 << 10, 41):
            probabilities = engine.infection_probabilities(mask)
            expected = np.ones(1 << 10)
            for u, p in enumerate(probabilities):
                expected *= np.where((masks >> u) & 1 == 1, p, 1.0 - p)
            assert np.allclose(engine.step_distribution(mask), expected, rtol=0.0, atol=1e-15)


class TestOnDemandRounds:
    """Above ``MATRIX_LIMIT`` rounds are built on demand by the same closed forms."""

    @pytest.fixture
    def engines(self, petersen):
        options = dict(branching=1.5, loss_probability=0.3)
        return ExactCobra(petersen, **options), ExactBips(petersen, 2, **options)

    def test_matches_materialised_matrix(self, engines, monkeypatch):
        cobra, bips = engines

        def laws():
            return [
                cobra.evolve(cobra.initial_distribution([0, 4]), 3),
                cobra.step_distribution(0b1000010001),
                cobra.hitting_survival_series([0], 7, 6),
                bips.evolve(bips.initial_distribution(), 3),
                bips.step_distribution(0b0110000100),
            ]

        materialised = laws()
        monkeypatch.setattr(subsets, "MATRIX_LIMIT", 0)
        for on_demand, expected in zip(laws(), materialised):
            assert np.allclose(on_demand, expected, rtol=0.0, atol=1e-14)

    def test_duality_above_the_limit(self):
        graph = generators.cycle(MATRIX_LIMIT + 2)
        assert duality_gap(graph, [0, 3], 7, 8, branching=1.5, loss_probability=0.2) < 1e-10


class TestSelectors:
    def test_masks_disjoint_from(self):
        selector = masks_disjoint_from(0b101, 3)
        chosen = np.flatnonzero(selector)
        assert list(chosen) == [0b000, 0b010]

    def test_masks_containing(self):
        selector = masks_containing(0, 3)
        chosen = np.flatnonzero(selector)
        assert list(chosen) == [1, 3, 5, 7]
