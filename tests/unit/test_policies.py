"""Unit tests for repro.core.policies (OPT, G-OPT, E-model)."""

from __future__ import annotations

import pytest

from repro.core.advance import Advance, BroadcastState
from repro.core.coloring import ColorScheme
from repro.core.policies import EModelPolicy, GreedyOptPolicy, OptPolicy
from repro.core.time_counter import SearchConfig, UnreachableNodes
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.broadcast import run_broadcast


ALL_POLICIES = [OptPolicy, GreedyOptPolicy, EModelPolicy]


class TestSelectionOnFigure1:
    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_second_advance_selects_node1(self, figure1, policy_cls):
        """All three schedulers make the paper's key decision: launch node 1."""
        topo, source = figure1
        policy = policy_cls()
        policy.prepare(topo, None, source)
        covered = frozenset({source, 0, 1, 2})
        state = BroadcastState(topo, covered, time=2)
        advance = policy.select_advance(state)
        assert advance is not None
        assert advance.color == frozenset({1})
        assert advance.receivers == frozenset({3, 4, 10})
        assert advance.num_colors == 3

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_full_broadcast_is_optimal(self, figure1, policy_cls):
        topo, source = figure1
        result = run_broadcast(topo, source, policy_cls())
        assert result.latency == 3

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_none_when_complete(self, figure1, policy_cls):
        topo, source = figure1
        policy = policy_cls()
        policy.prepare(topo, None, source)
        state = BroadcastState(topo, topo.node_set, time=9)
        assert policy.select_advance(state) is None


class TestTimeCounterPolicies:
    def test_lazy_preparation_from_state(self, figure2):
        topo, source = figure2
        policy = GreedyOptPolicy()
        state = BroadcastState(topo, frozenset({source}), time=1)
        advance = policy.select_advance(state)
        assert advance is not None and advance.color == frozenset({source})
        assert policy.counter is not None

    def test_prepare_rebuilds_on_new_topology(self, figure1, figure2):
        topo1, source1 = figure1
        topo2, source2 = figure2
        policy = GreedyOptPolicy(topo1)
        first_counter = policy.counter
        policy.prepare(topo2, None, source2)
        assert policy.counter is not first_counter
        policy.prepare(topo2, None, source2)
        # Same topology and schedule: the counter is kept (cache cleared).
        assert policy.counter is policy.counter

    def test_search_config_exposed(self):
        config = SearchConfig(mode="beam", beam_width=3)
        policy = GreedyOptPolicy(search=config)
        assert policy.search_config is config

    def test_opt_uses_exhaustive_colors(self, figure1):
        topo, source = figure1
        opt = OptPolicy(topo)
        gopt = GreedyOptPolicy(topo)
        assert opt.name == "OPT"
        assert gopt.name == "G-OPT"
        assert opt._decision_scheme.mode == "exhaustive"
        assert gopt._decision_scheme.mode == "greedy"

    def test_opt_never_worse_than_gopt_on_examples(self, figure1, figure2, small_deployment):
        for topo, source in (figure1, figure2, small_deployment):
            opt = run_broadcast(topo, source, OptPolicy())
            gopt = run_broadcast(topo, source, GreedyOptPolicy())
            assert opt.latency <= gopt.latency


class TestSingleCandidateFastPath:
    """A decision with one admissible colour skips the M search."""

    @staticmethod
    def _via_select_color(policy, state, colors):
        color, _ = policy.counter.select_color(state.covered, state.time, colors)
        return Advance.from_color(
            state.topology,
            state.covered,
            color,
            state.time,
            color_index=1,
            num_colors=1,
            note=policy.name,
        )

    @pytest.mark.parametrize("policy_cls", [OptPolicy, GreedyOptPolicy])
    @pytest.mark.parametrize("rate", [None, 3])
    def test_every_single_candidate_decision_matches_select_color(
        self, small_deployment, policy_cls, rate
    ):
        topo, source = small_deployment
        schedule = None if rate is None else WakeupSchedule(topo.node_ids, rate=rate, seed=5)
        policy = policy_cls(search=SearchConfig(mode="beam", beam_width=4))
        policy.prepare(topo, schedule, source)
        scheme = ColorScheme(mode="greedy")
        covered, time, checked = frozenset({source}), 1, 0
        while covered != topo.node_set:
            state = BroadcastState(topo, covered, time=time, schedule=schedule)
            advance = policy.select_advance(state)
            awake = None if schedule is None else schedule.awake_nodes(covered, time)
            colors = scheme.color_classes(topo, covered, awake)
            if len(colors) == 1 and advance is not None and advance.num_colors == 1:
                assert advance == self._via_select_color(policy, state, colors)
                checked += 1
            if advance is not None:
                covered |= advance.receivers
            time += 1
        assert checked > 0

    @pytest.mark.parametrize("policy_cls", [OptPolicy, GreedyOptPolicy])
    @pytest.mark.parametrize("duty", [False, True])
    def test_disconnected_topology_still_raises(self, policy_cls, duty):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (9.0, 9.0), 3: (10.0, 9.0)}
        topo = WSNTopology.from_edges([(0, 1), (2, 3)], positions)
        schedule = WakeupSchedule(topo.node_ids, rate=1, seed=0) if duty else None
        policy = policy_cls()
        policy.prepare(topo, schedule, 0)
        state = BroadcastState(topo, frozenset({0}), time=1, schedule=schedule)
        with pytest.raises(UnreachableNodes, match="disconnected"):
            policy.select_advance(state)


class TestEModelPolicy:
    def test_estimate_built_on_prepare(self, figure1):
        topo, source = figure1
        policy = EModelPolicy()
        assert policy.estimate is None
        policy.prepare(topo, None, source)
        assert policy.estimate is not None
        assert policy.estimate.mode == "sync"

    def test_estimate_rebuilt_for_duty_schedule(self, figure1):
        topo, source = figure1
        schedule = WakeupSchedule(topo.node_ids, rate=10, seed=0)
        policy = EModelPolicy(topo)
        sync_estimate = policy.estimate
        policy.prepare(topo, schedule, source)
        assert policy.estimate is not sync_estimate
        assert policy.estimate.mode == "duty"

    def test_unit_weight_option(self, figure1):
        topo, source = figure1
        schedule = WakeupSchedule(topo.node_ids, rate=10, seed=0)
        policy = EModelPolicy(weight="unit")
        policy.prepare(topo, schedule, source)
        # Unit weights make duty-cycle values integral hop counts.
        assert policy.estimate.value(1, 1) == 2.0

    def test_returns_none_when_no_awake_candidate(self, figure2_duty):
        topo, source, schedule = figure2_duty
        policy = EModelPolicy(topo, schedule)
        state = BroadcastState(topo, frozenset({source}), time=3, schedule=schedule)
        assert policy.select_advance(state) is None

    def test_duty_advance_only_uses_awake_transmitters(self, figure2_duty):
        topo, source, schedule = figure2_duty
        policy = EModelPolicy(topo, schedule)
        state = BroadcastState(topo, frozenset({1, 2, 3}), time=4, schedule=schedule)
        advance = policy.select_advance(state)
        assert advance is not None
        assert all(schedule.is_active(u, 4) for u in advance.color)

    def test_repr_contains_name(self):
        assert "E-model" in repr(EModelPolicy())
