"""Property-based tests for the UDG topology substrate."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.time_counter import TimeCounter, UnreachableNodes
from repro.network.boundary import boundary_nodes, hull_nodes
from repro.network.geometry import euclidean_distance
from repro.network.quadrant import QUADRANTS, quadrant_partition
from repro.network.topology import WSNTopology

from .conftest import topologies_with_source, udg_topologies


def _bfs(topology, sources) -> dict[int, int]:
    """Plain multi-source BFS: hop distance from ``sources`` to each reachable node."""
    distance = {u: 0 for u in sources}
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for v in topology.neighbors(u):
            if v not in distance:
                distance[v] = distance[u] + 1
                queue.append(v)
    return distance


def _bfs_eccentricity(topology, source) -> int | None:
    """Eccentricity by BFS, ``None`` when some node is unreachable."""
    distance = _bfs(topology, [source])
    return max(distance.values()) if len(distance) == topology.num_nodes else None


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_udg_edges_match_distance_threshold(topology):
    """u-v is an edge iff dist(u, v) <= radius (UDG definition)."""
    radius = topology.radius
    for u in topology.node_ids:
        for v in topology.node_ids:
            if u >= v:
                continue
            distance = euclidean_distance(topology.position(u), topology.position(v))
            assert topology.has_edge(u, v) == (distance <= radius + 1e-12)


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_neighborhoods_are_symmetric_and_irreflexive(topology):
    for u in topology.node_ids:
        assert u not in topology.neighbors(u)
        for v in topology.neighbors(u):
            assert u in topology.neighbors(v)


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_mask_and_set_views_agree(topology):
    """The bitmask fast path is consistent with the frozenset API."""
    for u in topology.node_ids:
        assert topology.nodes_from_mask(topology.neighbor_mask(u)) == topology.neighbors(u)
    assert topology.nodes_from_mask(topology.full_mask) == topology.node_set


@settings(max_examples=60, deadline=None)
@given(topologies_with_source())
def test_hop_distances_satisfy_triangle_step(case):
    """BFS distances differ by at most one across an edge."""
    topology, source = case
    distances = topology.hop_distances(source)
    for u, v in topology.edges():
        assert abs(distances[u] - distances[v]) <= 1


@settings(max_examples=60, deadline=None)
@given(topologies_with_source())
def test_bfs_layers_partition_nodes(case):
    topology, source = case
    layers = topology.bfs_layers(source)
    union = set()
    for layer in layers:
        assert union.isdisjoint(layer)
        union |= layer
    assert union == set(topology.node_set)


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_quadrants_partition_each_neighborhood(topology):
    for u in topology.node_ids:
        partition = quadrant_partition(topology, u)
        assert set(partition) == set(QUADRANTS)
        union = frozenset().union(*partition.values())
        assert union == topology.neighbors(u)
        assert sum(len(p) for p in partition.values()) == len(topology.neighbors(u))


@settings(max_examples=40, deadline=None)
@given(udg_topologies(connected=False, min_nodes=3))
def test_hull_nodes_are_boundary_nodes(topology):
    assert hull_nodes(topology) <= boundary_nodes(topology)


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_hop_matrix_rows_equal_bfs(topology):
    hops = topology.hop_matrix
    assert hops.shape == (topology.num_nodes, topology.num_nodes)
    assert not hops.flags.writeable
    for i, u in enumerate(topology.node_ids):
        expected = topology.hop_distances(u)
        assert expected == _bfs(topology, [u])
        row = [expected.get(v, -1) for v in topology.node_ids]
        assert hops[i].tolist() == row


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False))
def test_eccentricity_and_diameter_match_bfs(topology):
    eccentricities = {u: _bfs_eccentricity(topology, u) for u in topology.node_ids}
    for u, expected in eccentricities.items():
        if expected is None:
            with pytest.raises(ValueError, match="disconnected"):
                topology.eccentricity(u)
        else:
            assert topology.eccentricity(u) == expected
    if None in eccentricities.values():
        with pytest.raises(ValueError, match="disconnected"):
            topology.diameter()
    else:
        assert topology.diameter() == max(eccentricities.values())


def test_diameter_of_empty_topology_raises():
    with pytest.raises(ValueError):
        WSNTopology([], {}).diameter()


@settings(max_examples=60, deadline=None)
@given(udg_topologies(connected=False), st.data())
def test_matrix_lower_bound_and_reachability_equal_bfs(topology, data):
    """The time counter's hop bound and reachability check match a plain BFS."""
    covered = frozenset(
        data.draw(st.sets(st.sampled_from(topology.node_ids), max_size=topology.num_nodes))
    )
    counter = TimeCounter(topology)
    uncovered = topology.node_set - covered
    distance = _bfs(topology, covered)
    expected_bound = max(distance.values(), default=0) if uncovered else 0
    assert counter._hop_lower_bound(topology.mask_from_nodes(covered)) == expected_bound
    if uncovered - distance.keys():
        with pytest.raises(UnreachableNodes):
            counter.check_reachable(covered)
    else:
        counter.check_reachable(covered)
