"""Unit tests for repro.core.time_counter (the time counter M)."""

from __future__ import annotations

import random

import pytest

from repro.core.coloring import ColorScheme, greedy_color_classes
from repro.core.time_counter import (
    SearchBudgetExceeded,
    SearchConfig,
    TimeCounter,
    UnreachableNodes,
    _id_order_key,
)
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.graphs import FIGURE2_DUTY_START
from repro.network.topology import WSNTopology


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.mode == "exact"
        assert config.beam_width == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"beam_width": 0},
            {"max_states": 0},
            {"max_slots": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


class TestSynchronousExact:
    def test_figure2_completion_matches_table2(self, figure2):
        topo, source = figure2
        counter = TimeCounter(topo)
        assert counter.completion_time({source}, 1) == 2

    def test_figure1_completion_matches_table3(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        assert counter.completion_time({source}, 1) == 3

    def test_complete_coverage_returns_t_minus_one(self, figure2):
        topo, _ = figure2
        counter = TimeCounter(topo)
        assert counter.completion_time(topo.node_set, 7) == 6

    def test_time_shift_invariance(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        base = counter.completion_time({source}, 1)
        shifted = counter.completion_time({source}, 5)
        assert shifted == base + 4

    def test_monotone_in_coverage(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        small = frozenset({source})
        large = small | frozenset({0, 1, 2})
        assert counter.completion_time(large, 1) <= counter.completion_time(small, 1)

    def test_rank_colors_prefers_node1_on_figure1(self, figure1):
        """The core motivating decision: selecting {1} beats selecting {0}."""
        topo, source = figure1
        counter = TimeCounter(topo)
        covered = frozenset({source, 0, 1, 2})
        colors = greedy_color_classes(topo, covered)
        ranked = counter.rank_colors(covered, 2, colors)
        assert ranked[0][0] == frozenset({1})
        assert ranked[0][1] == 3
        by_color = dict(ranked)
        assert by_color[frozenset({0})] == 4
        assert by_color[frozenset({2})] == 4

    def test_select_color_agrees_with_rank(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        covered = frozenset({source, 0, 1, 2})
        colors = greedy_color_classes(topo, covered)
        assert counter.select_color(covered, 2, colors) == counter.rank_colors(
            covered, 2, colors
        )[0]

    def test_best_color_none_when_complete(self, figure2):
        topo, _ = figure2
        counter = TimeCounter(topo)
        assert counter.best_color(topo.node_set, 3) is None

    def test_line_graph_needs_eccentricity_rounds(self, line_topology):
        counter = TimeCounter(line_topology)
        assert counter.completion_time({0}, 1) == line_topology.eccentricity(0)

    def test_exhaustive_scheme_no_worse_than_greedy(self, figure1, small_deployment):
        for topo, source in (figure1, small_deployment):
            greedy = TimeCounter(topo, color_scheme=ColorScheme("greedy"))
            exhaustive = TimeCounter(topo, color_scheme=ColorScheme("exhaustive"))
            assert exhaustive.completion_time({source}, 1) <= greedy.completion_time(
                {source}, 1
            )

    def test_unreachable_nodes_detected(self):
        topo = WSNTopology.from_positions([(0, 0), (1, 0), (50, 50)], radius=2.0)
        counter = TimeCounter(topo)
        with pytest.raises(UnreachableNodes):
            counter.completion_time({0}, 1)

    def test_state_budget_enforced(self, medium_deployment):
        topo, source = medium_deployment
        counter = TimeCounter(topo, config=SearchConfig(mode="exact", max_states=3))
        with pytest.raises(SearchBudgetExceeded):
            counter.completion_time({source}, 1)

    def test_clear_cache_resets_stats(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        counter.completion_time({source}, 1)
        assert counter.stats.expansions > 0
        counter.clear_cache()
        assert counter.stats.expansions == 0

    def test_invalid_time_rejected(self, figure2):
        topo, source = figure2
        counter = TimeCounter(topo)
        with pytest.raises(ValueError):
            counter.completion_time({source}, 0)

    def test_select_color_requires_candidates(self, figure2):
        topo, source = figure2
        counter = TimeCounter(topo)
        with pytest.raises(ValueError):
            counter.select_color({source}, 1, [])


class TestSynchronousBeam:
    def test_beam_matches_exact_on_paper_examples(self, figure1, figure2):
        for topo, source in (figure1, figure2):
            exact = TimeCounter(topo, config=SearchConfig(mode="exact"))
            beam = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=4))
            assert beam.completion_time({source}, 1) == exact.completion_time({source}, 1)

    def test_beam_matches_exact_on_small_random(self, small_deployment):
        topo, source = small_deployment
        exact = TimeCounter(topo, config=SearchConfig(mode="exact"))
        beam = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=8))
        assert beam.completion_time({source}, 1) == exact.completion_time({source}, 1)

    def test_beam_select_color_on_figure1(self, figure1):
        topo, source = figure1
        beam = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=4))
        covered = frozenset({source, 0, 1, 2})
        colors = greedy_color_classes(topo, covered)
        color, completion = beam.select_color(covered, 2, colors)
        assert color == frozenset({1})
        assert completion == 3

    def test_beam_results_bracketed_by_bounds(self, medium_deployment):
        """Any beam width yields a valid schedule length: >= d and close to d."""
        topo, source = medium_deployment
        eccentricity = topo.eccentricity(source)
        for width in (1, 4, 8):
            counter = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=width))
            latency = counter.completion_time({source}, 1)
            assert latency >= eccentricity
            assert latency <= eccentricity + 3


class TestDutyCycle:
    def test_figure2_duty_matches_table4(self, figure2_duty):
        topo, source, schedule = figure2_duty
        counter = TimeCounter(topo, schedule=schedule)
        assert counter.completion_time({source}, FIGURE2_DUTY_START) == 4

    def test_deferring_to_node3_is_worse(self, figure2_duty):
        """Table IV: selecting {3} at slot 4 postpones completion past r+3."""
        topo, source, schedule = figure2_duty
        counter = TimeCounter(topo, schedule=schedule)
        covered = frozenset({1, 2, 3})
        ranked = counter.rank_colors(covered, 4, [frozenset({2}), frozenset({3})])
        by_color = dict(ranked)
        assert by_color[frozenset({2})] == 4
        assert by_color[frozenset({3})] > 10

    def test_beam_matches_exact_on_duty_example(self, figure2_duty):
        topo, source, schedule = figure2_duty
        exact = TimeCounter(topo, schedule=schedule, config=SearchConfig(mode="exact"))
        beam = TimeCounter(
            topo, schedule=schedule, config=SearchConfig(mode="beam", beam_width=4)
        )
        assert beam.completion_time({source}, FIGURE2_DUTY_START) == exact.completion_time(
            {source}, FIGURE2_DUTY_START
        )

    def test_duty_completion_at_least_sync(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=5)
        sync = TimeCounter(topo, config=SearchConfig(mode="beam", beam_width=4))
        duty = TimeCounter(
            topo, schedule=schedule, config=SearchConfig(mode="beam", beam_width=4)
        )
        start = schedule.next_active_slot(source, 1)
        sync_latency = sync.completion_time({source}, 1)
        duty_latency = duty.completion_time({source}, start) - start + 1
        assert duty_latency >= sync_latency

    def test_schedule_must_cover_exactly_the_topology(self, small_deployment):
        topo, _ = small_deployment
        wider = WakeupSchedule([*topo.node_ids, max(topo.node_ids) + 1], rate=5, seed=1)
        with pytest.raises(ValueError, match="exactly the topology's nodes"):
            TimeCounter(topo, schedule=wider)


class TestMaskSearchState:
    """The search's frontier bookkeeping on masks (see the module docstring)."""

    @staticmethod
    def _frontier_from_scratch(topo: WSNTopology, covered: frozenset[int]) -> int:
        return topo.mask_from_nodes(
            u for u in covered if topo.neighbors(u) - covered
        )

    def test_incremental_frontier_matches_from_scratch(self, medium_deployment):
        topo, source = medium_deployment
        counter = TimeCounter(topo)
        covered = frozenset({source})
        covered_mask = topo.mask_from_nodes(covered)
        frontier = counter._frontier(covered_mask, (0, covered_mask))
        assert frontier == self._frontier_from_scratch(topo, covered)
        # Grow W one greedy colour at a time, deriving each frontier from the
        # previous one and the colour's receivers only.
        while len(covered) < topo.num_nodes:
            color = greedy_color_classes(topo, covered)[-1]
            reached = topo.mask_from_nodes(topo.neighbors(next(iter(color))) - covered)
            covered = covered | topo.nodes_from_mask(reached)
            frontier = counter._frontier(topo.mask_from_nodes(covered), (frontier, reached))
            assert frontier == self._frontier_from_scratch(topo, covered)

    def test_memoised_hop_bound_cleared_with_the_cache(self, figure1):
        topo, source = figure1
        counter = TimeCounter(topo)
        covered = topo.mask_from_nodes({source})
        bound = counter._hop_lower_bound(covered)
        assert counter._hop_lower_bound(covered) == bound == max(
            topo.hop_distances(source).values()
        )
        counter.clear_cache()
        assert counter._hop_lower_bound(covered) == bound

    @pytest.mark.parametrize("size", [1, 2, 5, 9])
    def test_id_order_key_sorts_like_sorted_id_tuples(self, size):
        rng = random.Random(size)
        width = 12
        masks = {
            sum(1 << i for i in rng.sample(range(width), size)) for _ in range(60)
        }
        by_key = sorted(masks, key=lambda m: _id_order_key(m, width))
        by_ids = sorted(masks, key=lambda m: tuple(i for i in range(width) if m >> i & 1))
        assert by_key == by_ids
