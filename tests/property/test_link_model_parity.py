"""Cross-cutting guarantees of the composable simulation core's loss axis.

The tentpole invariants of the link-model refactor:

* **seeded lossy traces** — ``run_broadcast`` with an
  :class:`~repro.sim.links.IndependentLossLinks` model reproduces its lossy
  traces *bit-for-bit* for the same (model, seed), across deployment
  scenarios, duty models and loss probabilities;
* **zero-loss identity** — ``IndependentLossLinks(0.0)`` is declared
  lossless and takes the reliable code path, so its traces compare *equal*
  to :class:`~repro.sim.links.ReliableLinks` runs;
* **worker invariance** — lossy sweep records are bit-identical for any
  worker count (the per-cell ``"link-loss"`` seed split removes any
  dependence on execution order);
* **validator agreement** — the validator accepts every lossy trace when
  told it is lossy, and rejects it when treated as reliable (the receivers
  genuinely differ).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.flooding import LargestFirstPolicy
from repro.core.policies import EModelPolicy
from repro.core.time_counter import SearchConfig
from repro.dutycycle.models import build_wakeup_schedule
from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_sweep
from repro.network.deployment import DeploymentConfig
from repro.scenarios import generate_scenario
from repro.sim.broadcast import run_broadcast
from repro.sim.links import IndependentLossLinks, ReliableLinks
from repro.sim.validation import validate_broadcast
from repro.utils.rng import derive_seed

# The loss matrices are part of CI's slow_property selection.
pytestmark = pytest.mark.slow_property

PARITY_SCENARIOS = ("uniform", "clustered", "ring")
DUTY_MODELS = ("uniform", "two-tier")
LOSS_PROBABILITIES = (0.0, 0.1, 0.3)

_DEPLOYMENT = DeploymentConfig(
    num_nodes=30,
    area_side=22.0,
    radius=7.0,
    source_min_ecc=2,
    source_max_ecc=None,
)


def _deployment(scenario: str, seed: int):
    deployment = generate_scenario(scenario, _DEPLOYMENT, seed=seed)
    return deployment.topology, deployment.source


def _schedule(topology, duty_model: str, seed: int):
    return build_wakeup_schedule(
        topology.node_ids,
        rate=6,
        seed=derive_seed(seed, "wakeup-schedule"),
        model=duty_model,
        model_seed=derive_seed(seed, "duty-model"),
    )


@pytest.mark.parametrize("loss", LOSS_PROBABILITIES)
@pytest.mark.parametrize("duty_model", DUTY_MODELS)
@pytest.mark.parametrize("scenario", PARITY_SCENARIOS)
def test_lossy_duty_traces_are_seed_deterministic(scenario, duty_model, loss):
    """Same (model, seed), same lossy trace on the duty-cycle system."""
    topology, source = _deployment(scenario, seed=101)
    schedule = _schedule(topology, duty_model, seed=101)
    first, second = (
        run_broadcast(
            topology,
            source,
            EModelPolicy(),
            schedule=schedule,
            align_start=True,
            link_model=IndependentLossLinks(loss, seed=2012),
        )
        for _ in range(2)
    )
    assert first == second
    assert first.covered == topology.node_set


@pytest.mark.parametrize("loss", LOSS_PROBABILITIES)
@pytest.mark.parametrize("scenario", PARITY_SCENARIOS)
def test_lossy_sync_traces_are_seed_deterministic(scenario, loss):
    """Same (model, seed), same lossy trace on the round-based system."""
    topology, source = _deployment(scenario, seed=77)
    first, second = (
        run_broadcast(
            topology,
            source,
            LargestFirstPolicy(),
            link_model=IndependentLossLinks(loss, seed=5),
        )
        for _ in range(2)
    )
    assert first == second
    assert first.covered == topology.node_set


def test_zero_loss_is_the_reliable_identity():
    """loss=0.0 takes the lossless path: traces equal ReliableLinks runs."""
    topology, source = _deployment("uniform", seed=13)
    reliable = run_broadcast(
        topology, source, EModelPolicy(), link_model=ReliableLinks()
    )
    zero_loss = run_broadcast(
        topology,
        source,
        EModelPolicy(),
        link_model=IndependentLossLinks(0.0, seed=99),
    )
    default = run_broadcast(topology, source, EModelPolicy())
    assert zero_loss == reliable == default
    assert all(a.intended_receivers is None for a in zero_loss.advances)


@pytest.mark.parametrize("scenario", ("uniform", "clustered"))
def test_lossy_trace_validates(scenario):
    """Lossy traces are validated against *delivered* receivers."""
    topology, source = _deployment(scenario, seed=19)
    trace = run_broadcast(
        topology,
        source,
        EModelPolicy(),
        link_model=IndependentLossLinks(0.3, seed=8),
        validate=False,
    )
    assert trace.failed_deliveries > 0  # the seed actually exercises losses
    assert validate_broadcast(topology, trace, lossy=True) == []
    # Treated as a reliable trace, the delivered receivers no longer match
    # the model's expected receivers — the strict validator must object.
    strict = validate_broadcast(topology, trace, lossy=False)
    assert strict, "a genuinely lossy trace passed strict reliable validation"


def _lossy_config() -> SweepConfig:
    return SweepConfig(
        node_counts=(24, 30),
        repetitions=2,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=4,
        source_min_ecc=2,
        source_max_ecc=None,
        area_side=22.0,
        radius=7.0,
        link_model="independent-loss",
        loss_probability=0.2,
    )


def test_lossy_sweep_records_are_worker_invariant():
    """Lossy sweep records are bit-identical for any worker count."""
    config = _lossy_config()
    serial = run_sweep(config, system="sync", workers=1)
    parallel = run_sweep(config, system="sync", workers=2)
    assert serial.records == parallel.records
    assert all(r.link_model == "independent-loss" for r in serial.records)
    assert all(r.loss_probability == 0.2 for r in serial.records)


def test_lossy_sweep_composes_with_scenario_and_duty_model():
    """loss x scenario x duty-model x workers is one orthogonal grid."""
    config = dataclasses.replace(
        _lossy_config(), scenario="clustered", duty_model="two-tier"
    )
    serial = run_sweep(config, system="duty", rate=6, workers=1)
    parallel = run_sweep(config, system="duty", rate=6, workers=2)
    assert serial.records == parallel.records
    assert serial.records, "the composed sweep produced no records"
    assert {r.scenario for r in serial.records} == {"clustered"}
    assert {r.duty_model for r in serial.records} == {"two-tier"}
