"""Property-based tests for wake-up schedules, CWT and the duty-cycle system."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import duty_cycle_17_bound
from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.core.time_counter import SearchConfig
from repro.dutycycle.cwt import cycle_waiting_time, max_cwt
from repro.dutycycle.schedule import WakeupSchedule
from repro.sim.broadcast import run_broadcast
from repro.sim.validation import validate_broadcast

from .conftest import topologies_with_source


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 30),          # cycle rate
    st.integers(0, 2**30),       # seed
    st.integers(1, 6),           # number of cycles to inspect
)
def test_exactly_one_wakeup_per_cycle(rate, seed, cycles):
    schedule = WakeupSchedule([0], rate=rate, seed=seed)
    slots = schedule.active_slots_until(0, cycles * rate)
    assert len(slots) == cycles
    for index, slot in enumerate(slots):
        assert index * rate < slot <= (index + 1) * rate


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**30), st.integers(1, 100))
def test_next_active_slot_within_one_cycle(rate, seed, query_slot):
    """A node always gets a sending opportunity within the next full cycle."""
    schedule = WakeupSchedule([0], rate=rate, seed=seed)
    nxt = schedule.next_active_slot(0, query_slot)
    assert query_slot <= nxt < query_slot + 2 * rate
    assert schedule.is_active(0, nxt)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 25), st.integers(0, 2**30), st.integers(1, 60))
def test_cwt_bounded_by_two_cycles(rate, seed, slot):
    schedule = WakeupSchedule([0, 1], rate=rate, seed=seed)
    wait = cycle_waiting_time(schedule, 0, 1, slot)
    assert 1 <= wait <= max_cwt(rate)


@settings(max_examples=15, deadline=None)
@given(topologies_with_source(max_nodes=10), st.integers(2, 8), st.integers(0, 2**20))
def test_duty_cycle_broadcast_valid_and_bounded(case, rate, seed):
    """Duty-cycle broadcasts are model-valid and within the Theorem-1 bound."""
    topology, source = case
    schedule = WakeupSchedule(topology.node_ids, rate=rate, seed=seed)
    policy = GreedyOptPolicy(search=SearchConfig(mode="beam", beam_width=3))
    result = run_broadcast(
        topology, source, policy, schedule=schedule, align_start=True, validate=False
    )
    assert result.covered == topology.node_set
    assert validate_broadcast(topology, result, schedule=schedule) == []
    eccentricity = topology.eccentricity(source)
    # Sanity cap: far below the 17-approximation's worst case, comfortably
    # above Theorem 1 to tolerate the beam heuristic on unlucky schedules.
    assert result.latency <= duty_cycle_17_bound(max(eccentricity, 1), max_cwt(rate))


@settings(max_examples=15, deadline=None)
@given(topologies_with_source(max_nodes=10), st.integers(2, 6), st.integers(0, 2**20))
def test_duty_cycle_latency_structure(case, rate, seed):
    """Latency counts both the advances and the unavoidable idle slots."""
    topology, source = case
    schedule = WakeupSchedule(topology.node_ids, rate=rate, seed=seed)
    duty = run_broadcast(
        topology,
        source,
        EModelPolicy(),
        schedule=schedule,
        align_start=True,
        validate=False,
    )
    eccentricity = topology.eccentricity(source)
    assert duty.latency == duty.num_advances + duty.idle_time
    assert duty.num_advances >= eccentricity
    assert duty.latency >= eccentricity


@st.composite
def wakeup_schedules(draw):
    """Uniform, heterogeneous-rate or partly explicit schedules over 1-12 nodes."""
    nodes = list(range(draw(st.integers(1, 12))))
    rate = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**30))
    kind = draw(st.sampled_from(["uniform", "heterogeneous", "explicit"]))
    if kind == "heterogeneous":
        rates = {u: draw(st.integers(1, 12)) for u in nodes}
        return WakeupSchedule(nodes, rate=rate, seed=seed, rates=rates)
    if kind == "explicit":
        pinned = draw(st.sets(st.sampled_from(nodes), min_size=1))
        explicit = {
            u: draw(st.lists(st.integers(1, 3 * rate), min_size=1, max_size=4))
            for u in pinned
        }
        return WakeupSchedule(nodes, rate=rate, seed=seed, explicit=explicit)
    return WakeupSchedule(nodes, rate=rate, seed=seed)


@settings(max_examples=80, deadline=None)
@given(wakeup_schedules(), st.data())
def test_awake_nodes_equals_per_node_filter(schedule, data):
    """The per-slot awake-set cache answers exactly like ``is_active`` per node."""
    nodes = schedule.node_ids
    for _ in range(6):
        candidates = data.draw(st.lists(st.sampled_from(nodes), max_size=len(nodes)))
        slot = data.draw(st.integers(1, 80))
        expected = frozenset(u for u in candidates if schedule.is_active(u, slot))
        assert schedule.awake_nodes(candidates, slot) == expected
        assert schedule.awake_nodes(frozenset(candidates), slot) == expected


@settings(max_examples=20, deadline=None)
@given(wakeup_schedules())
def test_awake_nodes_rejects_bad_slots_and_unknown_nodes(schedule):
    with pytest.raises(ValueError):
        schedule.awake_nodes(schedule.node_ids, 0)
    with pytest.raises(KeyError):
        schedule.awake_nodes([schedule.node_ids[0], max(schedule.node_ids) + 1], 1)
