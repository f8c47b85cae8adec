"""Unit tests for the broadcast kernel (repro.sim.engine) and repro.sim.broadcast."""

from __future__ import annotations

import pytest

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import EModelPolicy, GreedyOptPolicy, SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.broadcast import run_broadcast
from repro.sim.engine import SimulationTimeout, simulate
from repro.sim.links import IndependentLossLinks
from repro.sim.trace import MultiBroadcastResult


class _ScriptedPolicy(SchedulingPolicy):
    """Replays a fixed list of transmitter sets (for kernel edge cases)."""

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


class _HintedRelay(SchedulingPolicy):
    """A frontier relay that acts only at slots ``1 mod 3`` and hints them.

    One transmitter per advance (the smallest covered node with an uncovered
    neighbour), so every advance is interference-free and re-planned from
    the actual covered set: loss-tolerant in the kernel's sense.
    """

    name = "hinted-relay"

    def __init__(self):
        self.offered: list[int] = []

    def next_decision_slot(self, time: int) -> int | None:
        return time + (1 - time) % 3

    def select_advance(self, state: BroadcastState) -> Advance | None:
        self.offered.append(state.time)
        if state.time % 3 != 1:
            return None
        topology = state.topology
        for node in sorted(state.covered):
            if topology.neighbors(node) - state.covered:
                return Advance.from_color(
                    topology, state.covered, frozenset({node}), state.time
                )
        return None


@pytest.fixture
def path5() -> WSNTopology:
    positions = {i: (float(i), 0.0) for i in range(5)}
    edges = [(i, i + 1) for i in range(4)]
    return WSNTopology.from_edges(edges, positions)


class TestRoundBased:
    def test_records_advances_and_latency(self, figure2):
        topo, source = figure2
        result = run_broadcast(topo, source, GreedyOptPolicy())
        assert result.latency == 2
        assert result.start_time == 1
        assert result.end_time == 2
        assert [a.time for a in result.advances] == [1, 2]

    def test_custom_start_time(self, figure2):
        topo, source = figure2
        result = run_broadcast(topo, source, GreedyOptPolicy(), start_time=5)
        assert result.start_time == 5
        assert result.end_time == 6
        assert result.latency == 2

    def test_unknown_source_rejected(self, figure2):
        topo, _ = figure2
        with pytest.raises(ValueError, match="unknown source"):
            simulate(topo, [GreedyOptPolicy()], [999])
        with pytest.raises(ValueError, match="unknown source"):
            run_broadcast(topo, 999, GreedyOptPolicy())

    def test_timeout_when_policy_idles(self, figure2):
        topo, source = figure2
        idle_policy = _ScriptedPolicy([None] * 100)
        with pytest.raises(SimulationTimeout):
            simulate(topo, [idle_policy], [source], max_time=10)

    def test_uncovered_transmitter_rejected(self, figure2):
        topo, source = figure2
        rogue = _ScriptedPolicy([{4}])
        with pytest.raises(ValueError, match="do not hold the message"):
            run_broadcast(topo, source, rogue)

    def test_conflicting_transmitters_rejected(self, figure2):
        topo, source = figure2
        # 2 and 3 conflict at node 4 once both hold the message.
        rogue = _ScriptedPolicy([{1}, {2, 3}])
        with pytest.raises(ValueError, match="conflicting"):
            run_broadcast(topo, source, rogue)

    def test_wrong_receivers_rejected(self, figure2):
        topo, source = figure2

        class Deaf(SchedulingPolicy):
            name = "deaf"

            def select_advance(self, state):
                return Advance(
                    time=state.time, color=frozenset({source}), receivers=frozenset()
                )

        with pytest.raises(ValueError, match="advance.receivers does not match"):
            run_broadcast(topo, source, Deaf())

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
            run_broadcast(topo, source, Phantom())


class TestDutyCycle:
    def test_rejects_schedule_missing_nodes(self, figure2):
        topo, source = figure2
        schedule = WakeupSchedule([1, 2], rate=5)
        with pytest.raises(ValueError, match="missing nodes"):
            simulate(topo, [GreedyOptPolicy()], [source], schedule=schedule)

    def test_align_start_moves_to_source_wakeup(self, figure2_duty):
        topo, source, schedule = figure2_duty
        result = run_broadcast(
            topo, source, GreedyOptPolicy(), schedule=schedule, align_start=True
        )
        assert result.start_time == 2  # the source's first wake-up slot
        assert result.end_time == 4

    def test_sleeping_transmitter_rejected(self, figure2_duty):
        topo, source, schedule = figure2_duty
        # Node 1 (the source) is not awake at slot 3.
        rogue = _ScriptedPolicy([None, {1}])
        with pytest.raises(ValueError, match="sleeping"):
            run_broadcast(topo, source, rogue, schedule=schedule, start_time=2)

    def test_idle_slots_counted_in_latency(self, figure2_duty):
        topo, source, schedule = figure2_duty
        result = run_broadcast(
            topo, source, GreedyOptPolicy(), schedule=schedule, start_time=2
        )
        assert result.latency == 3  # slots 2, 3 (idle), 4
        assert result.idle_time == 1


class TestKernel:
    def test_single_source_is_the_one_message_case(self, figure2):
        topo, source = figure2
        policy = GreedyOptPolicy()
        policy.prepare(topo, None, source)
        multi = simulate(topo, [policy], [source])
        assert isinstance(multi, MultiBroadcastResult)
        assert multi.messages == (run_broadcast(topo, source, GreedyOptPolicy()),)

    def test_two_sources_are_offered_only_hinted_slots(self, path5):
        policies = [_HintedRelay(), _HintedRelay()]
        result = run_broadcast(path5, [0, 4], policies)
        assert result.is_complete(path5)
        for policy in policies:
            assert policy.offered
            assert all(time % 3 == 1 for time in policy.offered), policy.offered

    def test_hints_from_every_message_are_needed_to_jump(self, path5):
        hinted, unhinted = _HintedRelay(), EModelPolicy()
        unhinted.prepare(path5, None, 4)
        simulate(path5, [hinted, unhinted], [0, 4])
        # The unhinted message forces every slot to be offered.
        assert any(time % 3 != 1 for time in hinted.offered)


class _Idle(SchedulingPolicy):
    """Never transmits; records every slot it is offered."""

    name = "idle"

    def __init__(self, hint_offset: int | None = None):
        self.hint_offset = hint_offset
        self.offered: list[int] = []

    def next_decision_slot(self, time: int) -> int | None:
        return None if self.hint_offset is None else time + self.hint_offset

    def select_advance(self, state: BroadcastState) -> Advance | None:
        self.offered.append(state.time)
        return None


class TestDefaultTimeLimit:
    """The default ``max_time``: one formula per system, stretched by the
    link model's retransmission factor and by the message count."""

    def test_round_based_bound(self, path5):
        # Source 0: depth 4, max degree 2 -> 4 * 2 + 4 + 8 = 20 rounds.
        with pytest.raises(SimulationTimeout, match="by time 21 "):
            simulate(path5, [_Idle()], [0])

    def test_bound_follows_the_source_eccentricity(self, path5):
        # Source 2: depth 2 -> 2 * 2 + 2 + 8 = 14 rounds.
        with pytest.raises(SimulationTimeout, match="by time 15 "):
            simulate(path5, [_Idle()], [2])

    def test_duty_cycle_bound(self, path5):
        schedule = WakeupSchedule(path5.node_ids, rate=4, seed=1)
        # depth 4 * (2 * 4 * (2 + 2)) + 4 * 4 = 144 slots.
        with pytest.raises(SimulationTimeout, match="by time 145 "):
            simulate(path5, [_Idle()], [0], schedule=schedule)

    def test_duty_cycle_bound_uses_the_sleepiest_rate(self, path5):
        schedule = WakeupSchedule(path5.node_ids, rate=4, seed=1, rates={3: 6})
        # max_rate 6: 4 * (2 * 6 * (2 + 2)) + 4 * 6 = 216 slots.
        with pytest.raises(SimulationTimeout, match="by time 217 "):
            simulate(path5, [_Idle()], [0], schedule=schedule)

    def test_lossy_links_stretch_the_bound(self, path5):
        links = IndependentLossLinks(0.5, seed=3)
        # 20 rounds / (1 - 0.5) = 40.
        with pytest.raises(SimulationTimeout, match="by time 41 "):
            simulate(path5, [_Idle()], [0], link_model=links)

    def test_message_count_stretches_the_worst_source_bound(self, path5):
        # max(20, 14) rounds for sources 0 and 2, times k = 2.
        with pytest.raises(SimulationTimeout, match=r"by time 81 \(2/2 messages"):
            simulate(path5, [_Idle(), _Idle()], [0, 2], start_time=41)

    def test_explicit_max_time_overrides_the_default(self, path5):
        policy = _Idle()
        with pytest.raises(SimulationTimeout, match="by time 4 "):
            simulate(path5, [policy], [0], max_time=3)
        assert policy.offered == [1, 2, 3, 4]

    def test_hint_past_the_limit_times_out(self, path5):
        policy = _Idle(hint_offset=1000)
        with pytest.raises(SimulationTimeout, match="covered 1/5 nodes"):
            simulate(path5, [policy], [0], max_time=10)
        assert policy.offered == []


class TestSimulateInputs:
    def test_start_time_is_one_based(self, path5):
        with pytest.raises(ValueError, match="1-based"):
            simulate(path5, [EModelPolicy()], [0], start_time=0)

    def test_empty_sources_rejected(self, path5):
        with pytest.raises(ValueError, match=">= 1 source"):
            simulate(path5, [], [])

    def test_duplicate_sources_rejected(self, path5):
        with pytest.raises(ValueError, match="duplicate sources"):
            simulate(path5, [_Idle(), _Idle()], [3, 3])

    def test_one_policy_per_message(self, path5):
        with pytest.raises(ValueError, match="2 policies for 1 sources"):
            simulate(path5, [_Idle(), _Idle()], [0])

    def test_long_missing_node_lists_are_truncated(self):
        positions = {i: (float(i), 0.0) for i in range(8)}
        topology = WSNTopology.from_edges([(i, i + 1) for i in range(7)], positions)
        schedule = WakeupSchedule([0], rate=2)
        with pytest.raises(ValueError, match=r"missing nodes \[1, 2, 3, 4, 5\]\.\.\."):
            simulate(topology, [_Idle()], [0], schedule=schedule)

    def test_one_node_network_has_nothing_to_send(self):
        topology = WSNTopology.from_positions([(0.0, 0.0)], radius=1.0)
        policy = _Idle()
        result = simulate(topology, [policy], [0], start_time=5)
        assert policy.offered == []
        (message,) = result.messages
        assert message.advances == ()
        assert message.end_time == 4
        assert message.covered == frozenset({0})

    def test_lossy_run_records_intended_receivers(self, path5):
        policy = GreedyOptPolicy()
        policy.prepare(path5, None, 0)
        links = IndependentLossLinks(0.6, seed=5)
        (message,) = simulate(path5, [policy], [0], link_model=links).messages
        assert message.covered == path5.node_set
        assert any(a.receivers != a.intended for a in message.advances)
        for advance in message.advances:
            assert advance.receivers <= advance.intended


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
        # The scripted policy is legal per advance, but we forge the
        # interference_free flag so the kernel skips checks and validation
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
