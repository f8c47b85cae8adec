"""Property-based tests for the colour scheme (Eq. 1/2, Algorithm 1)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import (
    enumerate_color_classes,
    exhaustive_colors,
    frontier_candidates,
    greedy_color_classes,
    greedy_colors,
    relay_candidates,
)
from repro.network.interference import conflict_free, has_conflict, receivers_of

from .conftest import coverage_states


@settings(max_examples=60, deadline=None)
@given(coverage_states())
def test_greedy_classes_partition_the_frontier(case):
    """Every relay candidate is assigned exactly one colour."""
    topology, _, covered = case
    candidates = frontier_candidates(topology, covered)
    classes = greedy_color_classes(topology, covered)
    assigned = [u for color in classes for u in color]
    assert sorted(assigned) == sorted(candidates)


@settings(max_examples=60, deadline=None)
@given(coverage_states())
def test_greedy_classes_are_interference_free(case):
    """Eq. (1) constraint 3: members of one colour never share an uncovered neighbour."""
    topology, _, covered = case
    for color in greedy_color_classes(topology, covered):
        assert conflict_free(topology, color, covered)


@settings(max_examples=60, deadline=None)
@given(coverage_states())
def test_every_candidate_has_an_uncovered_receiver(case):
    """Eq. (1) constraints 1-2: colours only contain useful relays."""
    topology, _, covered = case
    for color in greedy_color_classes(topology, covered):
        for u in color:
            assert u in covered
            assert topology.uncovered_neighbors(u, covered)


@settings(max_examples=60, deadline=None)
@given(coverage_states())
def test_deferred_candidates_conflict_with_previous_class(case):
    """Eq. (1) constraint 4: a later colour is justified by a conflict."""
    topology, _, covered = case
    classes = greedy_color_classes(topology, covered)
    for index in range(1, len(classes)):
        for u in classes[index]:
            assert any(
                has_conflict(topology, u, v, covered) for v in classes[index - 1]
            )


@settings(max_examples=60, deadline=None)
@given(coverage_states())
def test_selected_color_coverage_grows_monotonically(case):
    """Applying any colour strictly grows coverage (the broadcast advances)."""
    topology, _, covered = case
    classes = greedy_color_classes(topology, covered)
    for color in classes:
        reached = receivers_of(topology, color, covered)
        assert reached
        assert reached.isdisjoint(covered)


@settings(max_examples=40, deadline=None)
@given(coverage_states(max_nodes=12))
def test_exhaustive_classes_are_maximal(case):
    """Eq. (1): OPT candidates are maximal interference-free relay sets."""
    topology, _, covered = case
    candidates = set(frontier_candidates(topology, covered))
    for color in enumerate_color_classes(topology, covered):
        assert conflict_free(topology, color, covered)
        for extra in candidates - color:
            assert not conflict_free(topology, color | {extra}, covered)


@settings(max_examples=40, deadline=None)
@given(coverage_states(max_nodes=12))
def test_greedy_first_class_appears_among_maximal_sets(case):
    """The greedy scheme's first colour is itself maximal, hence an OPT candidate."""
    topology, _, covered = case
    classes = greedy_color_classes(topology, covered)
    if not classes:
        return
    exhaustive = enumerate_color_classes(topology, covered)
    assert classes[0] in exhaustive


# ---------------------------------------------------------------------------
# The mask core against Eq. (1)/(3) written directly on node sets.


def _set_receivers(topology, color, covered):
    """``A(W, t)``: the uncovered neighbours of a relay set."""
    return frozenset().union(*(topology.neighbors(u) for u in color)) - covered


def _set_conflict(topology, u, v, covered):
    """Eq. (1) constraint 3 violated: ``N(u) ∩ N(v) ∩ W̄ ≠ ∅``."""
    return bool(topology.neighbors(u) & topology.neighbors(v) - covered)


def _set_candidates(topology, covered, awake):
    """Constraints 1-2 (and Eq. 3's availability), in Algorithm 1 order."""
    pool = covered if awake is None else covered & awake
    useful = [u for u in pool if topology.neighbors(u) - covered]
    return sorted(useful, key=lambda u: (-len(topology.neighbors(u) - covered), u))


def _set_greedy(topology, covered, candidates):
    """Algorithm 1 on node sets: pack candidates into conflict-free classes."""
    classes, remaining = [], list(candidates)
    while remaining:
        current, deferred = [], []
        for u in remaining:
            if any(_set_conflict(topology, u, v, covered) for v in current):
                deferred.append(u)
            else:
                current.append(u)
        classes.append(frozenset(current))
        remaining = deferred
    return classes


@st.composite
def coverage_states_with_awake(draw, **kwargs):
    """A coverage state plus ``None`` (synchronous) or an awake node set."""
    topology, source, covered = draw(coverage_states(**kwargs))
    awake = draw(st.none() | st.frozensets(st.sampled_from(sorted(topology.node_ids))))
    return topology, covered, awake


def _masks(topology, covered, awake):
    covered_mask = topology.mask_from_nodes(covered)
    pool = covered_mask if awake is None else topology.mask_from_nodes(covered & awake)
    return covered_mask, pool


@settings(max_examples=80, deadline=None)
@given(coverage_states_with_awake())
def test_mask_candidates_and_greedy_colours_match_eq1_on_sets(case):
    """relay_candidates/greedy_colors agree with Eq. (1)-(3) on frozensets."""
    topology, covered, awake = case
    nodes = topology.nodes_from_mask
    candidates = relay_candidates(topology, *_masks(topology, covered, awake))
    expected = _set_candidates(topology, covered, awake)
    assert [min(nodes(bit)) for bit, _ in candidates] == expected
    for bit, reach in candidates:
        assert nodes(reach) == _set_receivers(topology, nodes(bit), covered)

    colors = greedy_colors(candidates)
    expected_classes = _set_greedy(topology, covered, expected)
    assert [nodes(color) for color, _ in colors] == expected_classes
    assert greedy_color_classes(topology, covered, awake) == expected_classes
    for color, reach in colors:
        receivers = _set_receivers(topology, nodes(color), covered)
        assert nodes(reach) == receivers
        assert receivers_of(topology, nodes(color), covered) == receivers


@settings(max_examples=40, deadline=None)
@given(coverage_states_with_awake(max_nodes=12))
def test_mask_exhaustive_colours_are_maximal_eq1_colours(case):
    """exhaustive_colors yields maximal conflict-free candidate sets, receivers included."""
    topology, covered, awake = case
    nodes = topology.nodes_from_mask
    candidates = relay_candidates(topology, *_masks(topology, covered, awake))
    pool = set(_set_candidates(topology, covered, awake))
    colors = exhaustive_colors(topology, candidates)
    assert len({color for color, _ in colors}) == len(colors)
    for color, reach in colors:
        members = nodes(color)
        assert members and members <= pool
        assert not any(
            _set_conflict(topology, u, v, covered) for u in members for v in members if u < v
        )
        for extra in pool - members:
            assert any(_set_conflict(topology, extra, v, covered) for v in members)
        assert nodes(reach) == _set_receivers(topology, members, covered)
    assert [nodes(color) for color, _ in colors] == enumerate_color_classes(
        topology, covered, awake
    )
