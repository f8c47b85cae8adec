"""Hypothesis strategies and conformance fixtures shared by the property tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.network.topology import WSNTopology
from repro.sim.links import LINK_MODELS, build_link_model

# Connected-UDG generation rejects disconnected draws, which trips the
# default filter-rate health check on small node counts; the rejection rate
# is expected and harmless for these structural properties.
settings.register_profile(
    "repro",
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("repro")


@st.composite
def udg_topologies(draw, min_nodes: int = 4, max_nodes: int = 18, connected: bool = True):
    """Random connected unit-disc-graph topologies on a small area.

    Positions are drawn on a coarse grid (two decimals) to avoid
    degenerate floating-point edge cases; the radius is chosen large enough
    that connectivity is common, and disconnected draws are rejected via
    ``hypothesis.assume``-style filtering in the caller when required.
    """
    from hypothesis import assume

    count = draw(st.integers(min_nodes, max_nodes))
    side = 7.0
    coords = draw(
        st.lists(
            st.tuples(
                st.integers(0, 70).map(lambda v: v * side / 70),
                st.integers(0, 70).map(lambda v: v * side / 70),
            ),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    radius = draw(st.sampled_from([3.0, 4.0, 5.0]))
    topology = WSNTopology.from_positions(coords, radius=radius)
    if connected:
        assume(topology.is_connected())
    return topology


@st.composite
def topologies_with_source(draw, **kwargs):
    """A connected topology plus a source node drawn from it."""
    topology = draw(udg_topologies(**kwargs))
    source = draw(st.sampled_from(sorted(topology.node_ids)))
    return topology, source


@st.composite
def coverage_states(draw, **kwargs):
    """A connected topology plus a covered set that grew from a source by BFS.

    Mirrors how real broadcast states look: the covered set is always
    connected and contains the source, which is what the colouring engine
    encounters in practice.
    """
    topology, source = draw(topologies_with_source(**kwargs))
    distances = topology.hop_distances(source)
    order = sorted(distances, key=lambda u: (distances[u], u))
    prefix = draw(st.integers(1, len(order)))
    covered = frozenset(order[:prefix])
    return topology, source, covered


def is_power_of_two_area(value: float) -> bool:  # pragma: no cover - helper
    return math.isfinite(value)


# ---------------------------------------------------------------------------
# Conformance fixtures
#
# The conformance suites are parameterized over the link-model *registry*
# (not a hand-written name list), so registering a new link model
# automatically enrolls it in the whole matrix.

#: Loss probability used whenever a conformance run needs a lossy model;
#: high enough that failed deliveries actually occur on small topologies.
CONFORMANCE_LOSS = 0.25


@pytest.fixture(params=sorted(LINK_MODELS))
def link_model_name(request) -> str:
    """Every registered link model name."""
    return request.param


def conformance_link_model(name: str, seed: int = 0):
    """A concrete link model for a conformance run.

    The lossy models get a fixed, test-controlled seed: traces are a pure
    function of (model, seed), so repeated runs with one seed must agree.
    """
    loss = 0.0 if name == "reliable" else CONFORMANCE_LOSS
    return build_link_model(name, loss_probability=loss, seed=seed)
