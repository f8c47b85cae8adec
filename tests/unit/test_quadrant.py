"""Unit tests for repro.network.quadrant."""

from __future__ import annotations

import pytest

from repro.network.deployment import DeploymentConfig
from repro.network.quadrant import (
    QUADRANTS,
    quadrant_index,
    quadrant_neighbors,
    quadrant_partition,
    quadrant_table,
)
from repro.network.topology import WSNTopology
from repro.scenarios import generate_scenario, scenario_names


@pytest.fixture
def star_topology() -> WSNTopology:
    """A centre node 0 with one neighbour in each quadrant."""
    positions = {
        0: (0.0, 0.0),
        1: (1.0, 0.5),    # Q1
        2: (-1.0, 0.5),   # Q2
        3: (-1.0, -0.5),  # Q3
        4: (1.0, -0.5),   # Q4
    }
    edges = [(0, i) for i in range(1, 5)]
    return WSNTopology.from_edges(edges, positions)


@pytest.fixture
def axis_star() -> WSNTopology:
    """A centre node 0 whose neighbours sit exactly on the axes (dx or dy is 0)."""
    positions = {
        0: (0.0, 0.0),
        1: (1.0, 0.0),    # +x axis: Q1
        2: (0.0, 1.0),    # +y axis: Q2
        3: (-1.0, 0.0),   # -x axis: Q3
        4: (0.0, -1.0),   # -y axis: Q4
        5: (2.0, 0.0),    # +x axis again, farther out
        6: (0.0, -2.0),   # -y axis again, farther out
    }
    edges = [(0, i) for i in range(1, 7)] + [(1, 5), (4, 6), (1, 2), (2, 3), (3, 4)]
    return WSNTopology.from_edges(edges, positions)


def _per_pair(topology: WSNTopology, u: int, quadrant: int) -> frozenset[int]:
    """``N(u) ∩ Q_i(u)`` from one ``quadrant_index`` call per neighbour."""
    origin = topology.position(u)
    return frozenset(
        v
        for v in topology.neighbors(u)
        if quadrant_index(origin, topology.position(v)) == quadrant
    )


def _assert_table_matches_quadrant_index(topology: WSNTopology) -> None:
    table = quadrant_table(topology)
    for index, u in enumerate(topology.node_ids):
        for quadrant in QUADRANTS:
            expected = _per_pair(topology, u, quadrant)
            assert table.members[u][quadrant - 1] == expected
            assert table.masks[index][quadrant - 1] == topology.mask_from_nodes(expected)
            assert quadrant_neighbors(topology, u, quadrant) == expected


class TestQuadrantTable:
    @pytest.mark.parametrize("name", scenario_names())
    def test_matches_quadrant_index_on_every_scenario(self, name):
        deployment = generate_scenario(name, DeploymentConfig(num_nodes=60), seed=3)
        _assert_table_matches_quadrant_index(deployment.topology)

    def test_half_open_boundaries_on_the_axes(self, axis_star):
        _assert_table_matches_quadrant_index(axis_star)
        members = quadrant_table(axis_star).members[0]
        assert members == (
            frozenset({1, 5}),
            frozenset({2}),
            frozenset({3}),
            frozenset({4, 6}),
        )

    def test_offsets_are_neighbour_position_differences(self, axis_star):
        offsets = quadrant_table(axis_star).offsets[1].tolist()
        expected = sorted(
            [x - 1.0, y - 0.0]
            for x, y in (axis_star.position(v) for v in axis_star.neighbors(1))
        )
        assert sorted(offsets) == expected

    def test_built_once_per_topology(self, star_topology):
        assert quadrant_table(star_topology) is quadrant_table(star_topology)

    def test_coincident_neighbours_rejected(self):
        positions = {0: (0.0, 0.0), 1: (0.0, 0.0)}
        topology = WSNTopology.from_edges([(0, 1)], positions)
        with pytest.raises(ValueError, match="coincides"):
            quadrant_table(topology)


class TestQuadrantIndex:
    @pytest.mark.parametrize(
        "point, expected",
        [
            ((1.0, 0.5), 1),
            ((1.0, 0.0), 1),    # +x axis belongs to Q1
            ((0.0, 1.0), 2),    # +y axis belongs to Q2
            ((-1.0, 0.5), 2),
            ((-1.0, 0.0), 3),   # -x axis belongs to Q3
            ((-1.0, -0.5), 3),
            ((0.0, -1.0), 4),   # -y axis belongs to Q4
            ((1.0, -0.5), 4),
        ],
    )
    def test_boundary_convention(self, point, expected):
        assert quadrant_index((0.0, 0.0), point) == expected

    def test_coincident_point_rejected(self):
        with pytest.raises(ValueError):
            quadrant_index((1.0, 1.0), (1.0, 1.0))

    def test_every_direction_maps_to_exactly_one_quadrant(self):
        import math

        for k in range(32):
            angle = 2 * math.pi * k / 32
            point = (math.cos(angle), math.sin(angle))
            assert quadrant_index((0.0, 0.0), point) in QUADRANTS


class TestQuadrantNeighbors:
    def test_star_assignment(self, star_topology):
        assert quadrant_neighbors(star_topology, 0, 1) == frozenset({1})
        assert quadrant_neighbors(star_topology, 0, 2) == frozenset({2})
        assert quadrant_neighbors(star_topology, 0, 3) == frozenset({3})
        assert quadrant_neighbors(star_topology, 0, 4) == frozenset({4})

    def test_invalid_quadrant_rejected(self, star_topology):
        with pytest.raises(ValueError):
            quadrant_neighbors(star_topology, 0, 5)

    def test_leaf_has_empty_opposite_quadrants(self, star_topology):
        # Node 1 sits in Q1 of the centre, so the centre sits in Q3 of node 1
        # and node 1 has no neighbour in its own Q1.
        assert quadrant_neighbors(star_topology, 1, 1) == frozenset()
        assert quadrant_neighbors(star_topology, 1, 3) == frozenset({0})


class TestQuadrantPartition:
    def test_partition_covers_all_neighbors_disjointly(self, star_topology, small_grid):
        for topo in (star_topology, small_grid):
            for u in topo.node_ids:
                partition = quadrant_partition(topo, u)
                union = frozenset().union(*partition.values())
                assert union == topo.neighbors(u)
                total = sum(len(members) for members in partition.values())
                assert total == len(topo.neighbors(u))

    def test_partition_of_explicit_candidates(self, star_topology):
        partition = quadrant_partition(star_topology, 0, candidates=[1, 3])
        assert partition[1] == frozenset({1})
        assert partition[3] == frozenset({3})
        assert partition[2] == frozenset()
        assert partition[4] == frozenset()

    def test_candidates_must_be_neighbours(self, star_topology):
        with pytest.raises(ValueError, match="not neighbours"):
            quadrant_partition(star_topology, 1, candidates=[0, 2])
