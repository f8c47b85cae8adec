"""Unit tests for broadcasting over unreliable links (``run_broadcast`` with
an :class:`~repro.sim.links.IndependentLossLinks` link model)."""

from __future__ import annotations

import pytest

from repro.baselines.flooding import FloodingPolicy, LargestFirstPolicy
from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.core.time_counter import SearchConfig
from repro.sim.broadcast import run_broadcast
from repro.sim.links import IndependentLossLinks
from repro.utils.rng import derive_seed


def run_lossy(topo, source, policy, *, loss_probability, seed=0, **kwargs):
    """One broadcast over independent per-link losses."""
    return run_broadcast(
        topo,
        source,
        policy,
        link_model=IndependentLossLinks(loss_probability, seed=seed),
        **kwargs,
    )


class TestLossFreeEquivalence:
    def test_zero_loss_matches_reliable_engine(self, figure1, small_deployment):
        for topo, source in (figure1, small_deployment):
            reliable = run_broadcast(topo, source, EModelPolicy())
            lossy = run_lossy(
                topo, source, EModelPolicy(), loss_probability=0.0
            )
            assert lossy.latency == reliable.latency
            assert lossy.covered == reliable.covered
            assert [a.color for a in lossy.advances] == [
                a.color for a in reliable.advances
            ]


class TestLossyBehaviour:
    def test_broadcast_completes_despite_losses(self, small_deployment):
        topo, source = small_deployment
        result = run_lossy(
            topo,
            source,
            EModelPolicy(),
            loss_probability=0.3,
            seed=5,
        )
        assert result.covered == topo.node_set

    def test_losses_never_speed_up_coverage(self, small_deployment):
        topo, source = small_deployment
        clean = run_lossy(
            topo, source, EModelPolicy(), loss_probability=0.0
        )
        lossy = run_lossy(
            topo, source, EModelPolicy(), loss_probability=0.4, seed=3
        )
        assert lossy.latency >= clean.latency

    def test_retransmissions_appear_in_trace(self, small_deployment):
        """With losses a node may transmit again in a later round."""
        topo, source = small_deployment
        result = run_lossy(
            topo, source, LargestFirstPolicy(), loss_probability=0.5, seed=11
        )
        counts = result.transmissions_by_node()
        assert any(count > 1 for count in counts.values())

    def test_receivers_subset_of_intended(self, small_deployment):
        topo, source = small_deployment
        result = run_lossy(
            topo, source, EModelPolicy(), loss_probability=0.3, seed=7
        )
        covered = {source}
        for advance in result.advances:
            intended = set()
            for u in advance.color:
                intended |= set(topo.neighbors(u))
            intended -= covered
            assert set(advance.receivers) <= intended
            covered |= advance.receivers

    def test_duty_cycle_lossy_broadcast(self, small_deployment, duty_schedule_factory):
        topo, source = small_deployment
        schedule = duty_schedule_factory(topo, rate=6)
        result = run_lossy(
            topo,
            source,
            GreedyOptPolicy(search=SearchConfig(mode="beam", beam_width=3)),
            schedule=schedule,
            loss_probability=0.2,
            seed=2,
            align_start=True,
        )
        assert result.covered == topo.node_set
        for advance in result.advances:
            for node in advance.color:
                assert schedule.is_active(node, advance.time)

    def test_invalid_probability_rejected(self, figure2):
        topo, source = figure2
        with pytest.raises(ValueError):
            run_lossy(topo, source, EModelPolicy(), loss_probability=1.5)
        with pytest.raises(ValueError):
            IndependentLossLinks(-0.1)

    def test_deterministic_given_seed(self, small_deployment):
        topo, source = small_deployment
        first = run_lossy(
            topo, source, EModelPolicy(), loss_probability=0.3, seed=9
        )
        second = run_lossy(
            topo, source, EModelPolicy(), loss_probability=0.3, seed=9
        )
        assert first.latency == second.latency
        assert [a.receivers for a in first.advances] == [
            a.receivers for a in second.advances
        ]


class TestLatencyInflation:
    def test_mean_latency_never_below_loss_free(self, small_deployment):
        topo, source = small_deployment
        mean_latency = {}
        for probability in (0.0, 0.2, 0.4):
            latencies = [
                run_lossy(
                    topo,
                    source,
                    EModelPolicy(),
                    loss_probability=probability,
                    seed=derive_seed(1, "loss", probability, repetition),
                ).latency
                for repetition in range(2)
            ]
            mean_latency[probability] = sum(latencies) / len(latencies)
        # Latency under losses is never better than the loss-free latency.
        assert all(value >= mean_latency[0.0] for value in mean_latency.values())

    def test_flooding_runs_unvalidated_over_lossy_links(self, small_deployment):
        """Flooding ignores interference, so lossy runs skip the validator."""
        topo, source = small_deployment
        policy = FloodingPolicy()
        result = run_lossy(
            topo,
            source,
            policy,
            loss_probability=0.3,
            seed=4,
            validate=policy.interference_free,
        )
        assert result.covered == topo.node_set
        assert result.latency >= topo.eccentricity(source)
