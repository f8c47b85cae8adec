"""Ablation A5: how strong is our baseline re-implementation?

docs/architecture.md#documented-approximations attributes the gap between the paper's 70-90% improvement
claims and our measured 45-85% to the strength of the re-implemented
baselines (greedy minimal parent cover).  This bench quantifies that by
comparing the two parent-selection modes of the 26-approximation on the same
deployments:

* ``cover`` — greedy minimal set cover (our default, *strong* baseline);
* ``tree``  — literal BFS-tree parents (every node with an assigned child
  transmits), the weaker reading of the construction.

Expected shape: the weak variant needs noticeably more rounds, and measuring
the improvement of G-OPT against it recovers (or exceeds) the paper's
headline percentages.
"""

from __future__ import annotations

import pytest

from repro.baselines.approx26 import Approx26Policy
from repro.core.policies import GreedyOptPolicy
from repro.core.time_counter import SearchConfig
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.sim.broadcast import run_broadcast
from repro.sim.metrics import improvement_percent
from repro.utils.format import format_table

from _bench_utils import emit, mean


def _run_baseline_strength(count: int = 3, num_nodes: int = 150):
    config = DeploymentConfig(num_nodes=num_nodes, source_min_ecc=4, source_max_ecc=None)
    results: dict[str, list[int]] = {"cover (strong)": [], "tree (weak)": [], "G-OPT": []}
    for index in range(count):
        topology, source = deploy_uniform(config=config, seed=700 + index)
        results["cover (strong)"].append(
            run_broadcast(
                topology, source, Approx26Policy(parent_mode="cover"), validate=False
            ).latency
        )
        results["tree (weak)"].append(
            run_broadcast(
                topology, source, Approx26Policy(parent_mode="tree"), validate=False
            ).latency
        )
        results["G-OPT"].append(
            run_broadcast(
                topology,
                source,
                GreedyOptPolicy(search=SearchConfig(mode="beam", beam_width=4)),
                validate=False,
            ).latency
        )
    return results


@pytest.mark.ablation
def test_ablation_baseline_strength(benchmark, bench_rounds):
    results = benchmark.pedantic(_run_baseline_strength, **bench_rounds)

    rows = [[name, *values, f"{mean(values):.1f}"] for name, values in results.items()]
    emit(
        "Ablation A5: baseline parent-selection strength (150-node deployments)",
        format_table(["variant", "dep 1", "dep 2", "dep 3", "mean"], rows),
    )

    strong = mean(results["cover (strong)"])
    weak = mean(results["tree (weak)"])
    gopt = mean(results["G-OPT"])
    assert weak >= strong
    improvement_vs_strong = improvement_percent(strong, gopt)
    improvement_vs_weak = improvement_percent(weak, gopt)
    emit(
        "Ablation A5: measured improvement of G-OPT",
        f"vs strong baseline: {improvement_vs_strong:.1f}%   "
        f"vs weak baseline: {improvement_vs_weak:.1f}%   "
        "(paper reports >= 70% against its baseline)",
    )
    assert improvement_vs_weak >= improvement_vs_strong
    # Against the literal BFS-tree baseline the paper's >= 70% lower bound is
    # approached or exceeded.
    assert improvement_vs_weak >= 55.0
