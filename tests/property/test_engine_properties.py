"""Property: the engines produce valid traces that replay exactly.

For random connected UDG topologies, random duty cycles and several
policies, ``run_broadcast`` must return a
:class:`~repro.sim.trace.BroadcastResult` that the independent validator
accepts, and replaying that trace through the engine must reproduce it
advance for advance.  Any drift in interference checking, receiver
computation or wake-up handling shows up here.  (The deterministic
scenario × duty-model × loss matrix lives in
``test_backend_conformance.py``; this file is the hypothesis-driven half.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.baselines.flooding import LargestFirstPolicy
from repro.core.policies import EModelPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.sim.broadcast import run_broadcast
from repro.sim.replay import ReplayPolicy
from repro.sim.validation import validate_broadcast

from .conftest import topologies_with_source

pytestmark = pytest.mark.slow_property

SYNC_POLICIES = {
    "largest-first": LargestFirstPolicy,
    "e-model": EModelPolicy,
    "26-approx": Approx26Policy,
}
DUTY_POLICIES = {
    "largest-first": LargestFirstPolicy,
    "e-model": EModelPolicy,
    "17-approx": Approx17Policy,
}


@settings(max_examples=25)
@given(
    drawn=topologies_with_source(),
    policy_key=st.sampled_from(sorted(SYNC_POLICIES)),
)
def test_round_engine_traces_validate(drawn, policy_key):
    topology, source = drawn
    trace = run_broadcast(topology, source, SYNC_POLICIES[policy_key](), validate=False)
    assert validate_broadcast(topology, trace) == []


@settings(max_examples=25)
@given(
    drawn=topologies_with_source(),
    policy_key=st.sampled_from(sorted(DUTY_POLICIES)),
    rate=st.integers(1, 8),
    schedule_seed=st.integers(0, 2**20),
)
def test_slot_engine_traces_validate(drawn, policy_key, rate, schedule_seed):
    topology, source = drawn
    schedule = WakeupSchedule(topology.node_ids, rate=rate, seed=schedule_seed)
    trace = run_broadcast(
        topology,
        source,
        DUTY_POLICIES[policy_key](),
        schedule=schedule,
        align_start=True,
        validate=False,
    )
    assert validate_broadcast(topology, trace, schedule=schedule) == []


@settings(max_examples=25)
@given(
    drawn=topologies_with_source(),
    rate=st.integers(1, 6),
    schedule_seed=st.integers(0, 2**20),
)
def test_replay_round_trips_through_the_engine(drawn, rate, schedule_seed):
    """A recorded trace replays bit-identically."""
    topology, source = drawn
    schedule = WakeupSchedule(topology.node_ids, rate=rate, seed=schedule_seed)
    trace = run_broadcast(
        topology, source, LargestFirstPolicy(), schedule=schedule, align_start=True
    )
    replayed = run_broadcast(
        topology,
        source,
        ReplayPolicy(trace),
        schedule=schedule,
        start_time=trace.start_time,
    )
    assert replayed == trace
