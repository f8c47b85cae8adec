"""Unit tests for the baseline parent-selection variants (cover vs tree)."""

from __future__ import annotations

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.baselines.bfs_tree import build_broadcast_tree
from repro.dutycycle.schedule import WakeupSchedule
from repro.sim.broadcast import run_broadcast
from repro.sim.validation import validate_broadcast


class TestTreeParentMode:
    def test_invalid_mode_rejected(self, figure1):
        topo, source = figure1
        with pytest.raises(ValueError, match="parent_mode"):
            build_broadcast_tree(topo, source, parent_mode="magic")

    def test_tree_mode_assigns_smallest_id_parent(self, figure1):
        topo, source = figure1
        tree = build_broadcast_tree(topo, source, parent_mode="tree")
        distances = topo.hop_distances(source)
        for child, parent in tree.parent_of.items():
            candidates = {
                u for u in topo.neighbors(child) if distances[u] == distances[child] - 1
            }
            assert parent == min(candidates)

    def test_tree_mode_never_fewer_parents_than_cover(self, medium_deployment):
        topo, source = medium_deployment
        cover = build_broadcast_tree(topo, source, parent_mode="cover")
        tree = build_broadcast_tree(topo, source, parent_mode="tree")
        for level in range(len(cover.layers)):
            assert len(tree.parents_per_layer[level]) >= len(
                cover.parents_per_layer[level]
            )

    def test_both_modes_cover_every_layer(self, medium_deployment):
        topo, source = medium_deployment
        for mode in ("cover", "tree"):
            tree = build_broadcast_tree(topo, source, parent_mode=mode)
            for level, parents in enumerate(tree.parents_per_layer):
                if level + 1 >= len(tree.layers):
                    continue
                reached = set()
                for parent in parents:
                    reached |= topo.neighbors(parent)
                assert set(tree.layers[level + 1]) <= reached


class TestBaselineStrength:
    def test_weak_baseline_is_never_faster(self, figure1, medium_deployment):
        """The literal BFS-tree baseline needs at least as many rounds as the
        strong (set-cover) variant — quantifying the greedy parent-cover note
        of docs/architecture.md#documented-approximations."""
        for topo, source in (figure1, medium_deployment):
            strong = run_broadcast(topo, source, Approx26Policy(parent_mode="cover"))
            weak = run_broadcast(topo, source, Approx26Policy(parent_mode="tree"))
            assert weak.latency >= strong.latency
            assert weak.covered == strong.covered == topo.node_set

    def test_weak_variant_traces_are_still_valid(self, medium_deployment):
        topo, source = medium_deployment
        result = run_broadcast(
            topo, source, Approx26Policy(parent_mode="tree"), validate=False
        )
        assert validate_broadcast(topo, result) == []

    def test_duty_cycle_variant(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=8)
        strong = run_broadcast(
            topo,
            source,
            Approx17Policy(parent_mode="cover"),
            schedule=schedule,
            align_start=True,
        )
        weak = run_broadcast(
            topo,
            source,
            Approx17Policy(parent_mode="tree"),
            schedule=schedule,
            align_start=True,
        )
        assert strong.covered == weak.covered == topo.node_set
        assert validate_broadcast(topo, weak, schedule=schedule) == []
