"""Unit tests for repro.network.interference."""

from __future__ import annotations

import pytest

from repro.network.interference import (
    conflict_free,
    conflicting_pairs,
    has_conflict,
    receivers_of,
)
from repro.network.topology import WSNTopology


@pytest.fixture
def diamond() -> WSNTopology:
    """Transmitters 0 and 1 share the uncovered neighbour 2; node 3 hangs off 1."""
    positions = {0: (0.0, 0.0), 1: (2.0, 0.0), 2: (1.0, 1.0), 3: (3.0, 0.0)}
    edges = [(0, 2), (1, 2), (1, 3)]
    return WSNTopology.from_edges(edges, positions)


class TestHasConflict:
    def test_shared_uncovered_neighbor_conflicts(self, diamond):
        assert has_conflict(diamond, 0, 1, covered=frozenset({0, 1}))

    def test_shared_covered_neighbor_is_fine(self, diamond):
        assert not has_conflict(diamond, 0, 1, covered=frozenset({0, 1, 2}))

    def test_no_common_neighbor(self, diamond):
        assert not has_conflict(diamond, 0, 3, covered=frozenset({0, 3}))

    def test_node_never_conflicts_with_itself(self, diamond):
        assert not has_conflict(diamond, 0, 0, covered=frozenset())

    def test_matches_paper_definition_on_figure1(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        # Nodes 0, 1 and 2 all conflict pairwise at the uncovered node 3.
        assert has_conflict(topo, 0, 1, covered)
        assert has_conflict(topo, 1, 2, covered)
        assert has_conflict(topo, 0, 2, covered)
        # Nodes 0 and 4 share only node 3; once 3 is covered they are free.
        covered2 = covered | frozenset({3, 4, 10})
        assert not has_conflict(topo, 0, 4, covered2)


class TestConflictFree:
    def test_empty_and_singleton_sets_are_free(self, diamond):
        assert conflict_free(diamond, [], frozenset())
        assert conflict_free(diamond, [0], frozenset({0}))

    def test_detects_conflicting_pair(self, diamond):
        assert not conflict_free(diamond, [0, 1], frozenset({0, 1}))

    def test_consistent_with_conflicting_pairs(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        transmitters = [0, 1, 2]
        pairs = conflicting_pairs(topo, transmitters, covered)
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        assert not conflict_free(topo, transmitters, covered)


class TestReceiversOf:
    def test_union_of_uncovered_neighbors(self, diamond):
        covered = frozenset({0, 1})
        assert receivers_of(diamond, [0, 1], covered) == frozenset({2, 3})

    def test_excludes_covered(self, diamond):
        covered = frozenset({0, 1, 2})
        assert receivers_of(diamond, [0], covered) == frozenset()

    def test_figure1_optimal_second_advance(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        assert receivers_of(topo, [1], covered) == frozenset({3, 4, 10})
