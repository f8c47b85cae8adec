"""Cross-cutting guarantees of the scenario subsystem.

Three invariants, each over non-uniform scenarios and heterogeneous duty
models:

* seeded determinism — the engines reproduce their traces bit-for-bit on
  every scenario topology (including the non-UDG ``knn``);
* worker invariance — sweep records are bit-identical for any worker count;
* axis independence — changing the duty model never changes the deployment,
  and changing the scenario never changes a shared node's wake-up stream.
"""

from __future__ import annotations

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.core.time_counter import SearchConfig
from repro.dutycycle.models import build_wakeup_schedule
from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_sweep
from repro.network.deployment import DeploymentConfig
from repro.scenarios import generate_scenario
from repro.utils.rng import derive_seed

# The scenario matrices are part of CI's slow_property selection.
pytestmark = pytest.mark.slow_property

PARITY_SCENARIOS = ("clustered", "ring", "grid-holes", "knn")
POLICIES = {"17-approx": Approx17Policy, "E-model": EModelPolicy}


def _scenario_config(scenario: str, duty_model: str = "uniform") -> SweepConfig:
    return SweepConfig(
        node_counts=(30, 45),
        repetitions=2,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=4,
        scenario=scenario,
        duty_model=duty_model,
    )


@pytest.mark.parametrize("scenario", PARITY_SCENARIOS)
@pytest.mark.parametrize("duty_model", ["uniform", "two-tier", "zipf"])
def test_traces_are_deterministic_on_scenario(scenario, duty_model):
    """Repeated runs give identical, complete traces on non-uniform scenarios."""
    from repro.sim.broadcast import run_broadcast

    deployment = generate_scenario(scenario, DeploymentConfig(num_nodes=45), seed=11)
    topology, source = deployment.topology, deployment.source
    for policy_cls in (Approx17Policy, EModelPolicy, GreedyOptPolicy):
        traces = []
        for _ in range(2):
            schedule = build_wakeup_schedule(
                topology.node_ids,
                rate=6,
                seed=derive_seed(11, "wakeup"),
                model=duty_model,
                model_seed=derive_seed(11, "model"),
            )
            traces.append(
                run_broadcast(
                    topology,
                    source,
                    policy_cls(),
                    schedule=schedule,
                    align_start=True,
                )
            )
        assert traces[0] == traces[1]
        assert traces[0].covered == topology.node_set


@pytest.mark.parametrize("scenario", ["clustered", "corridor"])
def test_sweep_records_worker_invariant_with_scenario(scenario):
    """Records are bit-identical for any worker count on scenario sweeps."""
    config = _scenario_config(scenario, duty_model="two-tier")
    serial = run_sweep(config, system="duty", rate=6, policies=POLICIES, workers=1)
    parallel = run_sweep(config, system="duty", rate=6, policies=POLICIES, workers=3)
    assert serial.records == parallel.records
    assert all(r.scenario == scenario for r in serial.records)
    assert all(r.duty_model == "two-tier" for r in serial.records)


def test_sweep_workers_agree_on_zipf_ring():
    config = _scenario_config("ring", duty_model="zipf")
    serial = run_sweep(config, system="duty", rate=6, policies=POLICIES, workers=1)
    parallel = run_sweep(config, system="duty", rate=6, policies=POLICIES, workers=2)
    assert serial.records == parallel.records


def test_duty_model_does_not_change_deployment():
    """The two workload axes are independent: same cell seed -> same topology."""
    base = _scenario_config("clustered", duty_model="uniform")
    tiered = _scenario_config("clustered", duty_model="zipf")
    a = run_sweep(base, system="duty", rate=6, policies=POLICIES)
    b = run_sweep(tiered, system="duty", rate=6, policies=POLICIES)
    for ra, rb in zip(a.records, b.records):
        assert (ra.seed, ra.source, ra.eccentricity) == (rb.seed, rb.source, rb.eccentricity)
    # ... while the heterogeneous rates genuinely change the outcome.
    assert [r.latency for r in a.records] != [r.latency for r in b.records]


def test_scenario_does_not_change_sync_policies():
    """Scenario sweeps also run in the round-based synchronous system."""
    from repro.baselines.approx26 import Approx26Policy

    config = _scenario_config("perturbed-grid")
    sweep = run_sweep(
        config, system="sync", policies={"26-approx": Approx26Policy}, workers=2
    )
    assert len(sweep.records) == 4
    assert all(r.system == "sync" and r.duty_model == "uniform" for r in sweep.records)
