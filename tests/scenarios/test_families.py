"""Tests for declarative graph families and graph cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.experiments.sweep import expander_with_gap, family_with_gap
from repro.graphs.properties import is_connected
from repro.scenarios.families import (
    FAMILY_KINDS,
    GraphCase,
    GraphFamily,
    nearest_valid_sizes,
)


class TestGraphFamily:
    @pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
    def test_every_kind_builds_a_connected_member(self, kind):
        family = GraphFamily(kind)
        sizes = nearest_valid_sizes(family, (64,))
        graph = family.build(sizes[0], seed=3)
        assert graph.n_vertices == sizes[0]
        assert is_connected(graph)
        assert family.label()

    def test_random_regular_matches_expander_with_gap(self):
        family = GraphFamily("random_regular", {"degree": 6})
        via_family = family.build(64, seed=9)
        via_helper, _ = expander_with_gap(64, 6, seed=9)
        assert np.array_equal(via_family.indptr, via_helper.indptr)
        assert np.array_equal(via_family.indices, via_helper.indices)

    def test_family_with_gap_matches_legacy_helper(self):
        graph, lam = family_with_gap({"kind": "random_regular", "degree": 6}, 64, seed=9)
        legacy_graph, legacy_lam = expander_with_gap(64, 6, seed=9)
        assert np.array_equal(graph.indices, legacy_graph.indices)
        assert lam == legacy_lam

    def test_random_builds_are_seed_deterministic(self):
        family = GraphFamily("small_world", {"degree": 4, "rewire": 0.3})
        a = family.build(32, seed=5)
        b = family.build(32, seed=5)
        c = family.build(32, seed=6)
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_from_value_accepts_string_dict_and_instance(self):
        by_string = GraphFamily.from_value("hypercube")
        by_dict = GraphFamily.from_value({"kind": "hypercube"})
        assert by_string == by_dict
        assert GraphFamily.from_value(by_dict) is by_dict

    def test_defaults_are_filled_so_descriptions_serialise_identically(self):
        sparse = GraphFamily.from_value({"kind": "small_world"})
        explicit = GraphFamily.from_value(
            {"kind": "small_world", "degree": 8, "rewire": 0.2}
        )
        assert sparse == explicit
        assert sparse.to_dict() == explicit.to_dict()

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(ScenarioError, match="unknown graph family"):
            GraphFamily("mystery")
        with pytest.raises(ScenarioError, match="does not accept"):
            GraphFamily("hypercube", {"degree": 3})

    def test_invalid_sizes_rejected_up_front(self):
        with pytest.raises(ScenarioError, match="powers of two"):
            GraphFamily("hypercube").validate_size(100)
        with pytest.raises(ScenarioError, match="side"):
            GraphFamily("torus", {"dims": 3}).validate_size(100)
        with pytest.raises(ScenarioError, match="even"):
            GraphFamily("random_regular", {"degree": 3}).validate_size(65)

    def test_nearest_valid_sizes_snaps_and_dedupes(self):
        hypercube = nearest_valid_sizes(GraphFamily("hypercube"), (100, 120, 250))
        assert hypercube == (128, 256)
        torus = nearest_valid_sizes(GraphFamily("torus", {"dims": 2}), (100,))
        assert torus == (121,)  # snapped to an odd side => non-bipartite


class TestGraphCase:
    def test_builds_deterministic_and_seeded_generators(self):
        petersen = GraphCase("petersen", "petersen").build(seed=4)
        assert petersen.n_vertices == 10
        seeded = GraphCase("rr", "random_regular", (16, 3), seed_offset=2)
        assert np.array_equal(seeded.build(seed=1).indices, seeded.build(seed=1).indices)

    def test_roundtrips_through_dict(self):
        case = GraphCase("torus 5x5", "torus", ((5, 5),))
        assert GraphCase.from_value(case.to_dict()) == case

    def test_unknown_generator_rejected(self):
        with pytest.raises(ScenarioError, match="unknown generator"):
            GraphCase("x", "not_a_generator")

    @pytest.mark.parametrize("name", ["is_connected", "from_edges", "ensure_generator", "np"])
    def test_module_names_that_are_not_generators_rejected(self, name):
        with pytest.raises(ScenarioError, match="unknown generator"):
            GraphCase.from_value({"label": "x", "generator": name})

    def test_every_public_generator_accepted(self):
        import inspect

        from repro.graphs import generators

        defined = {
            name
            for name, value in vars(generators).items()
            if inspect.isfunction(value)
            and value.__module__ == generators.__name__
            and not name.startswith("_")
        }
        assert set(generators.__all__) == defined
        for name in generators.__all__:
            assert GraphCase("x", name).generator == name
