"""The scenario registry and the built-in deployment generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.deployment import Deployment, DeploymentConfig
from repro.scenarios import (
    SCENARIOS,
    generate_scenario,
    get_scenario,
    list_scenarios,
    scenario_names,
)
from repro.scenarios.generators import build_clustered, build_grid_holes

REQUIRED = {
    "uniform",
    "clustered",
    "corridor",
    "ring",
    "perturbed-grid",
    "grid-holes",
    "knn",
}


def _adjacency(deployment: Deployment) -> dict[int, frozenset[int]]:
    topology = deployment.topology
    return {u: topology.neighbors(u) for u in topology.node_ids}


class TestRegistry:
    def test_all_required_scenarios_registered(self):
        assert REQUIRED <= set(scenario_names())
        assert len(scenario_names()) >= 6

    def test_specs_have_summaries(self):
        for spec in list_scenarios():
            assert spec.summary
            assert spec.builder is not None

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("moebius-strip")

    def test_generate_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="unknown parameters"):
            generate_scenario("ring", num_nodes=40, seed=0, wobble=3)

    def test_generate_requires_config_or_num_nodes(self):
        with pytest.raises(ValueError, match="num_nodes or config"):
            generate_scenario("ring")

    def test_scenario_names_sorted(self):
        assert scenario_names() == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(REQUIRED))
class TestEveryScenario:
    CONFIG = DeploymentConfig(num_nodes=60)

    def test_returns_connected_deployment(self, name):
        deployment = generate_scenario(name, self.CONFIG, seed=1)
        assert isinstance(deployment, Deployment)
        assert deployment.scenario == name
        assert deployment.topology.num_nodes == self.CONFIG.num_nodes
        assert deployment.topology.is_connected()
        assert deployment.source in deployment.topology.node_set

    def test_deterministic_under_fixed_seed(self, name):
        a = generate_scenario(name, self.CONFIG, seed=42)
        b = generate_scenario(name, self.CONFIG, seed=42)
        assert np.array_equal(a.topology.positions, b.topology.positions)
        assert _adjacency(a) == _adjacency(b)
        assert a.source == b.source
        assert a.attempts == b.attempts

    def test_different_seeds_differ(self, name):
        a = generate_scenario(name, self.CONFIG, seed=0)
        b = generate_scenario(name, self.CONFIG, seed=1)
        assert not np.array_equal(a.topology.positions, b.topology.positions)

    def test_positions_inside_the_area(self, name):
        deployment = generate_scenario(name, self.CONFIG, seed=4)
        positions = deployment.topology.positions
        assert positions.shape == (self.CONFIG.num_nodes, 2)
        assert positions.min() >= 0.0
        assert positions.max() <= self.CONFIG.area_side

    def test_links_follow_the_scenario_link_model(self, name):
        deployment = generate_scenario(name, self.CONFIG, seed=6)
        topology = deployment.topology
        positions = topology.positions
        index = {u: i for i, u in enumerate(topology.node_ids)}
        distance = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
        if name == "knn":
            # Proximity links: each node keeps at least its k nearest nodes.
            k = get_scenario(name).defaults["k"]
            for u in topology.node_ids:
                order = np.argsort(distance[index[u]], kind="stable")[1 : k + 1]
                nearest = {topology.node_ids[i] for i in order}
                assert nearest <= topology.neighbors(u)
        else:
            # Unit-disc links: exactly the pairs within the radius.
            radius = self.CONFIG.radius
            for u in topology.node_ids:
                within = {
                    v for v in topology.node_ids
                    if v != u and distance[index[u], index[v]] <= radius
                }
                assert topology.neighbors(u) == within

    def test_source_respects_eccentricity_window(self, name):
        deployment = generate_scenario(name, self.CONFIG, seed=3)
        ecc = deployment.topology.eccentricity(deployment.source)
        assert ecc >= deployment.config.source_min_ecc
        if deployment.config.source_max_ecc is not None:
            assert ecc <= deployment.config.source_max_ecc


class TestScenarioGeometry:
    def test_corridor_positions_inside_strip(self):
        config = DeploymentConfig(num_nodes=80)
        deployment = generate_scenario("corridor", config, seed=5, width=0.2)
        positions = deployment.topology.positions
        side = config.area_side
        band = 0.2 * side
        assert positions[:, 1].min() >= (side - band) / 2 - 1e-9
        assert positions[:, 1].max() <= (side + band) / 2 + 1e-9

    def test_ring_positions_inside_annulus(self):
        config = DeploymentConfig(num_nodes=80)
        deployment = generate_scenario("ring", config, seed=5)
        centre = config.area_side / 2
        radii = np.linalg.norm(deployment.topology.positions - centre, axis=1)
        half = config.area_side / 2
        assert radii.min() >= 0.55 * half - 1e-9
        assert radii.max() <= 0.95 * half + 1e-9

    def test_knn_degree_at_least_k(self):
        deployment = generate_scenario("knn", num_nodes=60, seed=2, k=4)
        topology = deployment.topology
        assert min(topology.degree(u) for u in topology.node_ids) >= 4
        # Symmetrised-union degree can exceed k but stays O(k), never O(n).
        assert topology.max_degree() < 4 * 4

    def test_knn_ignores_radius(self):
        deployment = generate_scenario("knn", num_nodes=40, seed=2)
        assert deployment.topology.radius is None

    def test_clustered_respects_cluster_count_param(self):
        a = generate_scenario("clustered", num_nodes=60, seed=9, clusters=2)
        b = generate_scenario("clustered", num_nodes=60, seed=9, clusters=6)
        assert not np.array_equal(a.topology.positions, b.topology.positions)

    def test_perturbed_grid_zero_jitter_is_lattice(self):
        deployment = generate_scenario("perturbed-grid", num_nodes=49, seed=0, jitter=0.0)
        xs = np.unique(np.round(deployment.topology.positions[:, 0], 9))
        assert len(xs) == 7  # 49 nodes factor into a 7x7 lattice

    def test_grid_holes_produces_requested_count_even_with_large_holes(self):
        deployment = generate_scenario(
            "grid-holes", num_nodes=70, seed=4, holes=4, hole_radius=0.2
        )
        assert deployment.topology.num_nodes == 70

    def test_grid_holes_leave_the_voids_empty(self):
        # The hole centres are the builder's first draw, so a generator on
        # the same seed recovers them.
        config = DeploymentConfig(num_nodes=70)
        hole_radius = 0.14 * config.area_side
        topology = build_grid_holes(
            config, np.random.default_rng(8), holes=3, hole_radius=0.14
        )
        centers = np.random.default_rng(8).uniform(
            hole_radius, config.area_side - hole_radius, size=(3, 2)
        )
        gaps = np.linalg.norm(
            topology.positions[:, None, :] - centers[None, :, :], axis=2
        )
        assert topology.num_nodes == 70
        assert gaps.min() >= hole_radius

    def test_clustered_nodes_gather_around_the_centres(self):
        config = DeploymentConfig(num_nodes=120)
        topology = build_clustered(
            config, np.random.default_rng(3), clusters=1, spread=0.05, margin=0.4
        )
        # One cluster: a margin of 0.4 puts the centre in the middle fifth of
        # the square, and a spread of 0.05 * side keeps every node within
        # 5 sigma of it on each axis.
        centre = topology.positions.mean(axis=0)
        assert np.all(np.abs(centre - config.area_side / 2) <= 0.1 * config.area_side + 1.0)
        radii = np.linalg.norm(topology.positions - centre, axis=1)
        assert radii.max() <= 5 * 0.05 * config.area_side * np.sqrt(2)

    def test_explicit_source_window_override(self):
        deployment = generate_scenario(
            "clustered", num_nodes=60, seed=7, source_min_ecc=1, source_max_ecc=None
        )
        assert deployment.config.source_min_ecc == 1

    def test_uniform_scenario_inherits_config_window(self):
        config = DeploymentConfig(num_nodes=60, source_min_ecc=5, source_max_ecc=8)
        deployment = generate_scenario("uniform", config, seed=1)
        ecc = deployment.topology.eccentricity(deployment.source)
        assert 5 <= ecc <= 8


_BAD_PARAMETERS = [
    ("clustered", {"clusters": 0}, "clusters must be >= 1"),
    ("clustered", {"spread": 0.0}, "spread must be positive"),
    ("clustered", {"margin": 0.5}, r"margin must be in \[0, 0.5\)"),
    ("clustered", {"margin": -0.1}, r"margin must be in \[0, 0.5\)"),
    ("corridor", {"width": 0.0}, r"width must be in \(0, 1\]"),
    ("corridor", {"width": 1.5}, r"width must be in \(0, 1\]"),
    ("ring", {"inner": 0.0}, "need 0 < inner < outer <= 1"),
    ("ring", {"inner": 0.9, "outer": 0.5}, "need 0 < inner < outer <= 1"),
    ("ring", {"outer": 1.2}, "need 0 < inner < outer <= 1"),
    ("perturbed-grid", {"jitter": -0.1}, r"jitter must be in \[0, 0.5\]"),
    ("perturbed-grid", {"jitter": 0.6}, r"jitter must be in \[0, 0.5\]"),
    ("grid-holes", {"holes": -1}, "holes must be >= 0"),
    ("grid-holes", {"hole_radius": 0.0}, r"hole_radius must be in \(0, 0.5\)"),
    ("grid-holes", {"hole_radius": 0.5}, r"hole_radius must be in \(0, 0.5\)"),
    ("grid-holes", {"jitter": 0.7}, r"jitter must be in \[0, 0.5\]"),
    ("knn", {"k": 0}, "k must be >= 1"),
    ("knn", {"k": 30}, "k must be < num_nodes, got k=30, num_nodes=30"),
]

_EDGE_PARAMETERS = [
    ("corridor", {"width": 1.0}),
    ("perturbed-grid", {"jitter": 0.5}),
    ("grid-holes", {"holes": 0}),
    ("knn", {"k": 29}),
]


def _case_id(name, params):
    return name + "-" + ",".join(f"{key}={value}" for key, value in params.items())


class TestBuilderParameters:
    """Each builder checks its own parameters before drawing a position."""

    @pytest.mark.parametrize(
        "name, params, message",
        _BAD_PARAMETERS,
        ids=[_case_id(name, params) for name, params, _ in _BAD_PARAMETERS],
    )
    def test_out_of_range_parameters_rejected(self, name, params, message):
        with pytest.raises(ValueError, match=message):
            generate_scenario(name, num_nodes=30, seed=0, **params)

    @pytest.mark.parametrize(
        "name, params",
        _EDGE_PARAMETERS,
        ids=[_case_id(name, params) for name, params in _EDGE_PARAMETERS],
    )
    def test_boundary_parameters_accepted(self, name, params):
        builder = get_scenario(name).builder
        topology = builder(DeploymentConfig(num_nodes=30), np.random.default_rng(0), **params)
        assert topology.num_nodes == 30
