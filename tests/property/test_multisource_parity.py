"""Cross-cutting guarantees of the multi-source broadcast subsystem.

The tentpole invariants of the multi-source workload:

* **seeded determinism** — ``run_broadcast(sources, ...)`` reproduces its
  :class:`~repro.sim.trace.MultiBroadcastResult` traces *bit-for-bit*
  across deployment scenarios, duty models, message counts
  ``k ∈ {1, 2, 4}`` and every registered link model;
* **single-source identity** — a one-element source list wraps a per-message
  trace *equal* to the plain single-source ``run_broadcast`` call, reliable
  and lossy alike;
* **worker invariance** — multi-source sweep records are bit-identical for
  any worker count (the per-cell ``"multi-source"`` placement split removes
  any dependence on execution order);
* **validator agreement** — the validator accepts every multi-source
  trace, per message and across messages.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.policies import EModelPolicy
from repro.core.time_counter import SearchConfig
from repro.dutycycle.models import build_wakeup_schedule
from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_sweep
from repro.network.deployment import DeploymentConfig
from repro.network.sources import select_sources
from repro.scenarios import generate_scenario
from repro.sim.broadcast import run_broadcast
from repro.sim.links import IndependentLossLinks, ReliableLinks
from repro.sim.validation import validate_multi_broadcast
from repro.utils.rng import derive_seed

# The multi-source matrices are part of CI's slow_property selection.
pytestmark = pytest.mark.slow_property

PARITY_SCENARIOS = ("uniform", "clustered", "ring")
DUTY_MODELS = ("uniform", "two-tier")
SOURCE_COUNTS = (1, 2, 4)
LINK_MODELS = ("reliable", "independent-loss")

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


def _link(name: str):
    return (
        ReliableLinks()
        if name == "reliable"
        else IndependentLossLinks(0.25, seed=2012)
    )


@pytest.mark.parametrize("k", SOURCE_COUNTS)
@pytest.mark.parametrize("duty_model", DUTY_MODELS)
@pytest.mark.parametrize("scenario", PARITY_SCENARIOS)
def test_multisource_duty_traces_are_deterministic(scenario, duty_model, k):
    """Same inputs, same trace for every (scenario, duty model, k) duty cell."""
    topology, anchor = _deployment(scenario, seed=211)
    schedule = _schedule(topology, duty_model, seed=211)
    sources = select_sources(topology, k, placement="spread", seed=3, anchor=anchor)
    first, second = (
        run_broadcast(
            topology,
            list(sources),
            EModelPolicy(),
            schedule=schedule,
            align_start=True,
        )
        for _ in range(2)
    )
    assert first == second
    assert first.is_complete(topology)
    assert first.num_messages == k


@pytest.mark.parametrize("link_model", LINK_MODELS)
@pytest.mark.parametrize("k", SOURCE_COUNTS)
@pytest.mark.parametrize("scenario", PARITY_SCENARIOS)
def test_multisource_sync_traces_are_deterministic(scenario, k, link_model):
    """Same inputs, same trace on the round-based system, all link models."""
    topology, anchor = _deployment(scenario, seed=87)
    sources = select_sources(topology, k, placement="random", seed=9, anchor=anchor)
    first, second = (
        run_broadcast(
            topology,
            list(sources),
            EModelPolicy(),
            link_model=_link(link_model),
        )
        for _ in range(2)
    )
    assert first == second
    assert first.is_complete(topology)


@pytest.mark.parametrize("link_model", LINK_MODELS)
@pytest.mark.parametrize("duty_model", DUTY_MODELS)
def test_multisource_lossy_duty_is_deterministic(duty_model, link_model):
    """The loss axis composes with multi-source on the duty-cycle system."""
    topology, anchor = _deployment("clustered", seed=51)
    schedule = _schedule(topology, duty_model, seed=51)
    sources = select_sources(topology, 3, placement="spread", seed=4, anchor=anchor)
    first, second = (
        run_broadcast(
            topology,
            list(sources),
            EModelPolicy(),
            schedule=schedule,
            align_start=True,
            link_model=_link(link_model),
        )
        for _ in range(2)
    )
    assert first == second


@pytest.mark.parametrize("link_model", LINK_MODELS)
def test_single_element_sources_reproduce_single_source_traces(link_model):
    """``sources=[s]`` wraps a trace equal to the plain single-source run."""
    topology, source = _deployment("uniform", seed=33)
    schedule = _schedule(topology, "uniform", seed=33)
    multi = run_broadcast(
        topology,
        [source],
        EModelPolicy(),
        schedule=schedule,
        align_start=True,
        link_model=_link(link_model),
    )
    single = run_broadcast(
        topology,
        source,
        EModelPolicy(),
        schedule=schedule,
        align_start=True,
        link_model=_link(link_model),
    )
    assert multi.num_messages == 1
    assert multi.messages[0] == single
    assert multi.latency == single.latency


@pytest.mark.parametrize("scenario", ("uniform", "ring"))
def test_multisource_trace_validates(scenario):
    """Per-message and cross-message checks pass the validator."""
    topology, anchor = _deployment(scenario, seed=19)
    schedule = _schedule(topology, "two-tier", seed=19)
    sources = select_sources(topology, 4, placement="corner", seed=1,
                             area_side=22.0, anchor=anchor)
    trace = run_broadcast(
        topology,
        list(sources),
        EModelPolicy(),
        schedule=schedule,
        align_start=True,
        validate=False,
    )
    assert validate_multi_broadcast(topology, trace, schedule=schedule) == []


def _multi_config(**overrides) -> SweepConfig:
    base = dict(
        node_counts=(24, 30),
        repetitions=2,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=4,
        source_min_ecc=2,
        source_max_ecc=None,
        area_side=22.0,
        radius=7.0,
        n_sources=3,
        source_placement="spread",
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_multisource_sweep_records_are_worker_invariant():
    """Multi-source sweep records are bit-identical for any worker count."""
    config = _multi_config()
    serial = run_sweep(config, system="sync", workers=1)
    parallel = run_sweep(config, system="sync", workers=2)
    assert serial.records == parallel.records
    assert all(r.n_sources == 3 for r in serial.records)
    assert all(r.source_placement == "spread" for r in serial.records)


def test_multisource_sweep_composes_with_loss_scenario_and_duty_model():
    """sources x loss x scenario x duty-model x workers is one grid."""
    config = dataclasses.replace(
        _multi_config(),
        scenario="clustered",
        duty_model="two-tier",
        link_model="independent-loss",
        loss_probability=0.2,
    )
    serial = run_sweep(config, system="duty", rate=6, workers=1)
    parallel = run_sweep(config, system="duty", rate=6, workers=2)
    assert serial.records == parallel.records
    assert serial.records, "the composed sweep produced no records"
    assert {r.n_sources for r in serial.records} == {3}
    assert {r.link_model for r in serial.records} == {"independent-loss"}


def test_k1_sweep_records_match_plain_sweep():
    """``n_sources=1`` keeps every record identical to a plain sweep."""
    plain = _multi_config(n_sources=1)
    multi_aware = plain.with_sources(1)
    assert run_sweep(plain, system="sync").records == run_sweep(
        multi_aware, system="sync"
    ).records
