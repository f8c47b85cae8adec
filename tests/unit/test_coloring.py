"""Unit tests for repro.core.coloring (Algorithm 1 and Eq. 1/2/3)."""

from __future__ import annotations

import pytest

from repro.core.coloring import (
    ColorScheme,
    cached_greedy_color_classes,
    conflict_graph,
    enumerate_color_classes,
    frontier_candidates,
    greedy_color_classes,
)
from repro.network.interference import conflict_free, has_conflict


class TestFrontierCandidates:
    def test_only_source_at_start(self, figure1):
        topo, source = figure1
        assert frontier_candidates(topo, frozenset({source})) == [source]

    def test_sorted_by_uncovered_receivers(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        assert frontier_candidates(topo, covered) == [0, 1, 2]

    def test_nodes_without_uncovered_neighbors_excluded(self, figure2):
        topo, _ = figure2
        covered = frozenset({1, 2, 3, 4, 5})
        assert frontier_candidates(topo, covered) == []

    def test_awake_filter(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        assert frontier_candidates(topo, covered, awake=[1, 2]) == [1, 2]
        assert frontier_candidates(topo, covered, awake=[]) == []

    def test_uncovered_nodes_never_candidates(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0})
        candidates = frontier_candidates(topo, covered)
        assert set(candidates) <= covered


class TestConflictGraph:
    def test_figure1_clique_at_node3(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        graph = conflict_graph(topo, [0, 1, 2], covered)
        assert graph[0] == {1, 2}
        assert graph[1] == {0, 2}
        assert graph[2] == {0, 1}

    def test_symmetric(self, figure1, small_deployment):
        for topo, source in (figure1, small_deployment):
            covered = frozenset({source}) | topo.neighbors(source)
            candidates = frontier_candidates(topo, covered)
            graph = conflict_graph(topo, candidates, covered)
            for u, conflicts in graph.items():
                for v in conflicts:
                    assert u in graph[v]

    def test_matches_pairwise_predicate(self, small_deployment):
        topo, source = small_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        candidates = frontier_candidates(topo, covered)
        graph = conflict_graph(topo, candidates, covered)
        for u in candidates:
            for v in candidates:
                if u == v:
                    continue
                assert (v in graph[u]) == has_conflict(topo, u, v, covered)


class TestGreedyColorClasses:
    def test_figure1_round_two_classes(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        assert greedy_color_classes(topo, covered) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_figure1_pipeline_class(self, figure1):
        """After {3, 4, 10} are covered, nodes 0 and 4 share the first colour."""
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2, 3, 4, 10})
        classes = greedy_color_classes(topo, covered)
        assert classes[0] == frozenset({0, 4})

    def test_empty_when_complete(self, figure2):
        topo, _ = figure2
        assert greedy_color_classes(topo, topo.node_set) == []

    def test_classes_partition_candidates(self, medium_deployment):
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        candidates = set(frontier_candidates(topo, covered))
        classes = greedy_color_classes(topo, covered)
        union = set().union(*classes)
        assert union == candidates
        assert sum(len(c) for c in classes) == len(candidates)

    def test_classes_are_interference_free(self, medium_deployment):
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        for color in greedy_color_classes(topo, covered):
            assert conflict_free(topo, color, covered)

    def test_later_class_nodes_conflict_with_previous_class(self, medium_deployment):
        """Eq. (1) constraint 4: a node is deferred only because of a conflict."""
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        classes = greedy_color_classes(topo, covered)
        for index in range(1, len(classes)):
            previous = classes[index - 1]
            for u in classes[index]:
                assert any(has_conflict(topo, u, v, covered) for v in previous)

    def test_duty_cycle_awake_restriction(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        classes = greedy_color_classes(topo, covered, awake=[1])
        assert classes == [frozenset({1})]

    def test_first_class_has_most_receivers(self, medium_deployment):
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        classes = greedy_color_classes(topo, covered)
        counts = [len(topo.uncovered_neighbors(u, covered)) for u in classes[0]]
        best = max(
            len(topo.uncovered_neighbors(u, covered))
            for u in frontier_candidates(topo, covered)
        )
        assert max(counts) == best


class TestEnumerateColorClasses:
    def test_every_class_is_maximal_and_conflict_free(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        candidates = set(frontier_candidates(topo, covered))
        classes = enumerate_color_classes(topo, covered)
        assert classes  # at least one admissible colour
        for color in classes:
            assert conflict_free(topo, color, covered)
            for extra in candidates - color:
                assert not conflict_free(topo, color | {extra}, covered)

    def test_figure1_enumeration_is_the_conflict_clique(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        classes = enumerate_color_classes(topo, covered)
        assert sorted(classes, key=lambda c: tuple(sorted(c))) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_cap_keeps_greedy_classes_available(self, medium_deployment):
        topo, source = medium_deployment
        covered = frozenset({source}) | topo.neighbors(source)
        capped = enumerate_color_classes(topo, covered, max_classes=2)
        greedy_first = greedy_color_classes(topo, covered)[0]
        assert greedy_first in capped

    def test_empty_for_complete_coverage(self, figure2):
        topo, _ = figure2
        assert enumerate_color_classes(topo, topo.node_set) == []


class TestColorScheme:
    def test_greedy_mode_delegates(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        scheme = ColorScheme(mode="greedy")
        assert scheme.color_classes(topo, covered) == greedy_color_classes(topo, covered)

    def test_exhaustive_mode_delegates(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        scheme = ColorScheme(mode="exhaustive")
        assert set(scheme.color_classes(topo, covered)) == set(
            enumerate_color_classes(topo, covered)
        )

    def test_unknown_mode_rejected(self, figure1):
        topo, source = figure1
        scheme = ColorScheme(mode="bogus")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            scheme.color_classes(topo, frozenset({source}))

    def test_num_colors_is_lambda(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1, 2})
        assert len(greedy_color_classes(topo, covered)) == 3


class TestCachedGreedyColorClasses:
    def test_matches_uncached_result(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0})
        assert cached_greedy_color_classes(topo, covered) == greedy_color_classes(
            topo, covered
        )

    def test_repeat_call_returns_cached_object(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 1})
        first = cached_greedy_color_classes(topo, covered)
        assert cached_greedy_color_classes(topo, covered) is first
        # A mutable covered set hits the same entry as its frozen twin.
        assert cached_greedy_color_classes(topo, set(covered)) is first

    def test_awake_restriction_is_part_of_the_key(self, figure1):
        topo, source = figure1
        covered = frozenset({source, 0, 1})
        unrestricted = cached_greedy_color_classes(topo, covered)
        restricted = cached_greedy_color_classes(topo, covered, awake={source})
        assert restricted == greedy_color_classes(topo, covered, awake={source})
        assert cached_greedy_color_classes(topo, covered) is unrestricted
