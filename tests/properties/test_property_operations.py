"""Property-based tests for graph persistence."""

from __future__ import annotations

from hypothesis import given, settings

from repro.graphs.io import from_edge_list_text, to_edge_list_text

from tests.properties.strategies import connected_small_graphs


@settings(max_examples=50, deadline=None)
@given(graph=connected_small_graphs())
def test_edge_list_text_roundtrip(graph):
    assert from_edge_list_text(to_edge_list_text(graph)) == graph
