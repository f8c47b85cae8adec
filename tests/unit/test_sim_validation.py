"""Unit tests for repro.sim.validation (independent trace validation)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.flooding import LargestFirstPolicy
from repro.core.advance import Advance
from repro.core.policies import GreedyOptPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.sim.broadcast import run_broadcast
from repro.sim.trace import BroadcastResult
from repro.sim.validation import ScheduleViolation, assert_valid, validate_broadcast


def _make_result(topology, source, advances, start=1, end=None):
    covered = {source}
    for advance in advances:
        covered |= advance.receivers
    return BroadcastResult(
        policy_name="manual",
        source=source,
        start_time=start,
        end_time=end if end is not None else (advances[-1].time if advances else start - 1),
        covered=frozenset(covered),
        advances=tuple(advances),
    )


class TestValidTraces:
    def test_engine_traces_are_valid(self, figure1, figure2, small_deployment):
        for topo, source in (figure1, figure2, small_deployment):
            result = run_broadcast(topo, source, GreedyOptPolicy(), validate=False)
            assert validate_broadcast(topo, result) == []
            assert_valid(topo, result)

    def test_incomplete_allowed_when_requested(self, figure2):
        topo, source = figure2
        advance = Advance.from_color(topo, frozenset({source}), frozenset({source}), time=1)
        result = _make_result(topo, source, [advance])
        assert validate_broadcast(topo, result, require_complete=True)
        assert validate_broadcast(topo, result, require_complete=False) == []


class TestViolationsDetected:
    def test_transmitter_without_message(self, figure2):
        topo, source = figure2
        bogus = Advance(time=1, color=frozenset({4}), receivers=frozenset({2}))
        result = _make_result(topo, source, [bogus])
        violations = validate_broadcast(topo, result, require_complete=False)
        assert any("without the message" in v for v in violations)

    def test_conflicting_transmitters(self, figure2):
        topo, source = figure2
        first = Advance.from_color(topo, frozenset({source}), frozenset({source}), time=1)
        conflicting = Advance.from_color(
            topo, frozenset({source, 2, 3}), frozenset({2, 3}), time=2
        )
        result = _make_result(topo, source, [first, conflicting])
        violations = validate_broadcast(topo, result)
        assert any("conflicting" in v for v in violations)

    def test_wrong_receivers_detected(self, figure2):
        topo, source = figure2
        wrong = Advance(time=1, color=frozenset({source}), receivers=frozenset({2}))
        result = _make_result(topo, source, [wrong])
        violations = validate_broadcast(topo, result, require_complete=False)
        assert any("differ" in v for v in violations)

    def test_duplicate_delivery_detected(self, figure2):
        topo, source = figure2
        first = Advance.from_color(topo, frozenset({source}), frozenset({source}), time=1)
        duplicate = Advance(time=2, color=frozenset({2}), receivers=frozenset({3, 4, 5}))
        result = _make_result(topo, source, [first, duplicate])
        violations = validate_broadcast(topo, result)
        assert any("twice" in v for v in violations)

    def test_non_increasing_times_detected(self, figure2):
        topo, source = figure2
        first = Advance.from_color(topo, frozenset({source}), frozenset({source}), time=2)
        second = Advance.from_color(
            topo, frozenset({source, 2, 3}), frozenset({2}), time=2
        )
        result = _make_result(topo, source, [first, second], start=2, end=2)
        violations = validate_broadcast(topo, result)
        assert any("strictly increasing" in v for v in violations)

    def test_incomplete_coverage_detected(self, figure2):
        topo, source = figure2
        advance = Advance.from_color(topo, frozenset({source}), frozenset({source}), time=1)
        result = _make_result(topo, source, [advance])
        violations = validate_broadcast(topo, result)
        assert any("incomplete" in v for v in violations)

    def test_sleeping_transmitter_detected(self, figure2_duty):
        topo, source, schedule = figure2_duty
        advance = Advance.from_color(topo, frozenset({source}), frozenset({source}), time=3)
        result = _make_result(topo, source, [advance], start=3)
        violations = validate_broadcast(
            topo, result, schedule=schedule, require_complete=False
        )
        assert any("sleeping" in v for v in violations)

    def test_assert_valid_raises_with_details(self, figure2):
        topo, source = figure2
        bogus = Advance(time=1, color=frozenset({4}), receivers=frozenset({2}))
        result = _make_result(topo, source, [bogus])
        with pytest.raises(ScheduleViolation, match="manual"):
            assert_valid(topo, result, require_complete=False)


@pytest.fixture(scope="module")
def duty_trace():
    """A multi-hop duty-cycle trace on a 60-node random deployment."""
    config = DeploymentConfig(
        num_nodes=60, area_side=20.0, radius=5.0, source_min_ecc=2, source_max_ecc=None
    )
    topology, source = deploy_uniform(config=config, seed=11)
    schedule = WakeupSchedule(topology.node_ids, rate=5, seed=2)
    trace = run_broadcast(
        topology, source, LargestFirstPolicy(), schedule=schedule, align_start=True
    )
    return topology, schedule, trace


def _corrupt(trace, schedule, corruption):
    advances = list(trace.advances)
    if corruption == "drop_first_advance":
        return dataclasses.replace(trace, advances=tuple(advances[1:]))
    if corruption == "duplicate_delivery":
        advances[1] = dataclasses.replace(
            advances[1], receivers=advances[1].receivers | advances[0].receivers
        )
        return dataclasses.replace(trace, advances=tuple(advances))
    if corruption == "sleeping_transmitter":
        target = advances[1]
        asleep_slot = target.time + 1
        while any(schedule.is_active(u, asleep_slot) for u in target.color) or any(
            a.time == asleep_slot for a in advances
        ):
            asleep_slot += 1
        advances[1] = dataclasses.replace(target, time=asleep_slot)
        advances.sort(key=lambda a: a.time)
        return dataclasses.replace(
            trace, advances=tuple(advances), end_time=max(a.time for a in advances)
        )
    if corruption == "wrong_covered":
        return dataclasses.replace(trace, covered=trace.covered - {max(trace.covered)})
    assert corruption == "wrong_end_time"
    return dataclasses.replace(trace, end_time=trace.end_time + 3)


class TestCorruptedDutyTraces:
    def test_engine_trace_is_valid(self, duty_trace):
        topology, schedule, trace = duty_trace
        assert validate_broadcast(topology, trace, schedule=schedule) == []

    @pytest.mark.parametrize(
        "corruption",
        [
            "drop_first_advance",
            "duplicate_delivery",
            "sleeping_transmitter",
            "wrong_covered",
            "wrong_end_time",
        ],
    )
    def test_corruption_is_detected(self, duty_trace, corruption):
        topology, schedule, trace = duty_trace
        bad = _corrupt(trace, schedule, corruption)
        assert validate_broadcast(topology, bad, schedule=schedule), (
            f"corruption {corruption!r} was not detected"
        )

    def test_unknown_covered_ids_are_reported(self, duty_trace):
        topology, schedule, trace = duty_trace
        bad = dataclasses.replace(trace, covered=trace.covered | {987_654})
        assert validate_broadcast(topology, bad, schedule=schedule)
