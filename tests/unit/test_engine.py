"""Unit tests for repro.sim.engine and repro.sim.broadcast."""

from __future__ import annotations

import pytest

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import EModelPolicy, GreedyOptPolicy, SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.sim.broadcast import run_broadcast
from repro.sim.engine import RoundEngine, SimulationTimeout, SlotEngine


class _ScriptedPolicy(SchedulingPolicy):
    """Replays a fixed list of transmitter sets (for engine edge cases)."""

    name = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.cursor = 0

    def select_advance(self, state: BroadcastState) -> Advance | None:
        if self.cursor >= len(self.script):
            return None
        color = self.script[self.cursor]
        self.cursor += 1
        if color is None:
            return None
        return Advance.from_color(state.topology, state.covered, frozenset(color), state.time)


class TestRoundEngine:
    def test_records_advances_and_latency(self, figure2):
        topo, source = figure2
        engine = RoundEngine(topo)
        result = engine.run(GreedyOptPolicy(), source)
        assert result.latency == 2
        assert result.start_time == 1
        assert result.end_time == 2
        assert [a.time for a in result.advances] == [1, 2]

    def test_custom_start_time(self, figure2):
        topo, source = figure2
        result = RoundEngine(topo).run(GreedyOptPolicy(), source, start_time=5)
        assert result.start_time == 5
        assert result.end_time == 6
        assert result.latency == 2

    def test_unknown_source_rejected(self, figure2):
        topo, _ = figure2
        with pytest.raises(ValueError):
            RoundEngine(topo).run(GreedyOptPolicy(), 999)

    def test_timeout_when_policy_idles(self, figure2):
        topo, source = figure2
        idle_policy = _ScriptedPolicy([None] * 100)
        with pytest.raises(SimulationTimeout):
            RoundEngine(topo).run(idle_policy, source, max_rounds=10)

    def test_uncovered_transmitter_rejected(self, figure2):
        topo, source = figure2
        rogue = _ScriptedPolicy([{4}])
        with pytest.raises(ValueError, match="do not hold the message"):
            RoundEngine(topo).run(rogue, source)

    def test_conflicting_transmitters_rejected(self, figure2):
        topo, source = figure2
        # 2 and 3 conflict at node 4 once both hold the message.
        rogue = _ScriptedPolicy([{1}, {2, 3}])
        with pytest.raises(ValueError, match="conflicting"):
            RoundEngine(topo).run(rogue, source)

    def test_wrong_receivers_rejected(self, figure2):
        topo, source = figure2

        class Deaf(SchedulingPolicy):
            name = "deaf"

            def select_advance(self, state):
                return Advance(
                    time=state.time, color=frozenset({source}), receivers=frozenset()
                )

        with pytest.raises(ValueError, match="advance.receivers does not match"):
            RoundEngine(topo).run(Deaf(), source)

    def test_unknown_receivers_rejected_as_mismatch(self, figure2):
        # A receiver outside the topology is a receivers mismatch (ValueError),
        # never a bare KeyError from an index lookup.
        topo, source = figure2

        class Phantom(SchedulingPolicy):
            name = "phantom"

            def select_advance(self, state):
                good = Advance.from_color(
                    state.topology, state.covered, frozenset({source}), state.time
                )
                return Advance(
                    time=good.time,
                    color=good.color,
                    receivers=good.receivers | {987_654},
                )

        with pytest.raises(ValueError, match="advance.receivers does not match"):
            RoundEngine(topo).run(Phantom(), source)


class TestSlotEngine:
    def test_rejects_schedule_missing_nodes(self, figure2):
        topo, _ = figure2
        schedule = WakeupSchedule([1, 2], rate=5)
        with pytest.raises(ValueError, match="missing nodes"):
            SlotEngine(topo, schedule)

    def test_align_start_moves_to_source_wakeup(self, figure2_duty):
        topo, source, schedule = figure2_duty
        engine = SlotEngine(topo, schedule)
        result = engine.run(GreedyOptPolicy(), source, start_time=1, align_start=True)
        assert result.start_time == 2  # the source's first wake-up slot
        assert result.end_time == 4

    def test_sleeping_transmitter_rejected(self, figure2_duty):
        topo, source, schedule = figure2_duty
        # Node 1 (the source) is not awake at slot 3.
        rogue = _ScriptedPolicy([None, {1}])
        engine = SlotEngine(topo, schedule)
        with pytest.raises(ValueError, match="sleeping"):
            engine.run(rogue, source, start_time=2)

    def test_idle_slots_counted_in_latency(self, figure2_duty):
        topo, source, schedule = figure2_duty
        result = SlotEngine(topo, schedule).run(
            GreedyOptPolicy(), source, start_time=2
        )
        assert result.latency == 3  # slots 2, 3 (idle), 4
        assert result.idle_time == 1


class TestRunBroadcast:
    def test_dispatches_to_round_engine(self, figure2):
        topo, source = figure2
        result = run_broadcast(topo, source, GreedyOptPolicy())
        assert result.synchronous
        assert result.cycle_rate == 1

    def test_dispatches_to_slot_engine(self, figure2_duty):
        topo, source, schedule = figure2_duty
        result = run_broadcast(
            topo, source, GreedyOptPolicy(), schedule=schedule, start_time=2
        )
        assert not result.synchronous
        assert result.cycle_rate == schedule.rate

    def test_prepare_called(self, figure1):
        topo, source = figure1
        policy = EModelPolicy()
        run_broadcast(topo, source, policy)
        assert policy.estimate is not None

    def test_validation_catches_model_violations(self, figure2):
        topo, source = figure2
        # The scripted policy is engine-legal per advance, but we forge the
        # interference_free flag so the engine skips checks and validation
        # must catch the conflict instead.
        rogue = _ScriptedPolicy([{1}, {2, 3}])
        rogue.interference_free = False
        from repro.sim.validation import ScheduleViolation

        with pytest.raises(ScheduleViolation):
            run_broadcast(topo, source, rogue, validate=True)

    def test_max_time_forwarded(self, figure2):
        topo, source = figure2
        idle = _ScriptedPolicy([None] * 50)
        with pytest.raises(SimulationTimeout):
            run_broadcast(topo, source, idle, max_time=5, validate=False)
