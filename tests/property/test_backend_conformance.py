"""Engine conformance: every link model × scenario × duty model.

For every entry of :data:`repro.sim.links.LINK_MODELS`, ``run_broadcast``
must return a valid, complete trace that is a pure function of its inputs
(seeded determinism), across the full deployment-scenario × duty-model ×
loss matrix.  The link-model fixture lives in ``conftest.py`` and is
parameterized over the registry itself, so a newly registered link model
is enrolled automatically — there is no name list here to forget to
extend.

The line-up matrices run the same grid under every scheduler of the
paper's sweep line-ups (the one the figures compare), as the runner builds
it for each link model — planned baselines drop out of the lossy line-up
exactly as they do in a lossy sweep.  Each cell checks, beyond determinism
and completeness, that the independent validator accepts the trace, that
the latency respects the hop-distance lower bound (one hop per round or
slot at most), and — on reliable links — that the trace replays advance
for advance through :class:`~repro.sim.replay.ReplayPolicy`.

The full matrices carry the ``slow_property`` marker: they always run in
the default suite, and CI's property job selects them with
``-m slow_property`` to re-check conformance alone when engine or kernel
code changes.
"""

from __future__ import annotations

import pytest

from repro.core.policies import EModelPolicy
from repro.dutycycle.models import build_wakeup_schedule, duty_model_names
from repro.experiments.config import SweepConfig
from repro.experiments.runner import default_policies
from repro.network.deployment import DeploymentConfig
from repro.scenarios import generate_scenario, scenario_names
from repro.sim.broadcast import run_broadcast
from repro.sim.links import LINK_MODELS
from repro.sim.replay import ReplayPolicy
from repro.sim.validation import validate_broadcast

from .conftest import CONFORMANCE_LOSS, conformance_link_model

#: One compact deployment per scenario: large enough for multi-hop traces
#: and real interference, small enough that the full matrix stays fast.
_DEPLOY = DeploymentConfig(
    num_nodes=20,
    area_side=22.0,
    radius=8.0,
    source_min_ecc=2,
    source_max_ecc=None,
)


def _run_matrix_cell(link_name, scenario, duty_model, *, seed):
    """One conformance check: a valid trace, identical across two runs.

    Returns the trace so callers can pile on extra invariants.
    """
    deployment = generate_scenario(scenario, _DEPLOY, seed=seed)
    topology, source = deployment.topology, deployment.source
    schedule = None
    if duty_model is not None:
        schedule = build_wakeup_schedule(
            topology.node_ids,
            rate=5,
            seed=seed + 1,
            model=duty_model,
            model_seed=seed + 2,
        )
    kwargs = dict(schedule=schedule, align_start=schedule is not None)
    first, second = (
        run_broadcast(
            topology,
            source,
            EModelPolicy(),
            link_model=conformance_link_model(link_name, seed=seed),
            **kwargs,
        )
        for _ in range(2)
    )
    context = f"scenario={scenario}, duty_model={duty_model}, link={link_name}"
    assert second == first, f"same inputs, different traces ({context})"
    assert first.covered == topology.node_set, f"incomplete broadcast ({context})"
    return first


@pytest.mark.slow_property
@pytest.mark.parametrize("scenario", scenario_names())
def test_sync_matrix_is_deterministic(link_model_name, scenario):
    """Round-based system: every link model × scenario."""
    _run_matrix_cell(link_model_name, scenario, None, seed=101)


@pytest.mark.slow_property
@pytest.mark.parametrize("duty_model", duty_model_names())
@pytest.mark.parametrize("scenario", scenario_names())
def test_duty_matrix_is_deterministic(link_model_name, scenario, duty_model):
    """Duty-cycle system: every link model × scenario × duty model."""
    _run_matrix_cell(link_model_name, scenario, duty_model, seed=202)


def test_conformance_smoke(link_model_name):
    """Unmarked fast subset: uniform scenario, both systems, one seed each.

    This keeps a conformance signal in every plain ``pytest`` run even when
    the slow matrices are deselected.
    """
    _run_matrix_cell(link_model_name, "uniform", None, seed=7)
    _run_matrix_cell(link_model_name, "uniform", "uniform", seed=7)


def test_reference_matrix_traces_validate(link_model_name):
    """The engine's traces pass the validator on a matrix sample."""
    deployment = generate_scenario("clustered", _DEPLOY, seed=11)
    topology, source = deployment.topology, deployment.source
    schedule = build_wakeup_schedule(topology.node_ids, rate=4, seed=12)
    link = conformance_link_model(link_model_name, seed=13)
    trace = run_broadcast(
        topology,
        source,
        EModelPolicy(),
        schedule=schedule,
        align_start=True,
        link_model=link,
    )
    assert (
        validate_broadcast(topology, trace, schedule=schedule, lossy=not link.lossless)
        == []
    )


def _line_up(system: str, link_name: str) -> dict:
    """The runner's policy line-up for ``system`` over ``link_name``."""
    loss = 0.0 if link_name == "reliable" else CONFORMANCE_LOSS
    config = SweepConfig(link_model=link_name, loss_probability=loss)
    return default_policies(config, system)


def _line_up_params(system: str) -> list:
    """(link model, policy) pairs: every line-up entry under every link model."""
    return [
        pytest.param(link_name, policy_name, id=f"{link_name}-{policy_name}")
        for link_name in sorted(LINK_MODELS)
        for policy_name in _line_up(system, link_name)
    ]


def _deployment_and_schedule(scenario, duty_model, *, seed):
    deployment = generate_scenario(scenario, _DEPLOY, seed=seed)
    schedule = None
    if duty_model is not None:
        schedule = build_wakeup_schedule(
            deployment.topology.node_ids,
            rate=5,
            seed=seed + 1,
            model=duty_model,
            model_seed=seed + 2,
        )
    return deployment.topology, deployment.source, schedule


def _run_line_up_cell(system, link_name, policy_name, scenario, duty_model, *, seed):
    """One line-up cell: deterministic, complete, valid, above the hop bound."""
    topology, source, schedule = _deployment_and_schedule(
        scenario, duty_model, seed=seed
    )
    factory = _line_up(system, link_name)[policy_name]
    link = conformance_link_model(link_name, seed=seed)
    first, second = (
        run_broadcast(
            topology,
            source,
            factory(),
            schedule=schedule,
            align_start=schedule is not None,
            link_model=conformance_link_model(link_name, seed=seed),
        )
        for _ in range(2)
    )
    context = (
        f"policy={policy_name}, scenario={scenario}, duty_model={duty_model}, "
        f"link={link_name}"
    )
    assert second == first, f"same inputs, different traces ({context})"
    assert first.covered == topology.node_set, f"incomplete broadcast ({context})"
    assert first.policy_name == policy_name
    assert (
        validate_broadcast(topology, first, schedule=schedule, lossy=not link.lossless)
        == []
    ), f"trace failed validation ({context})"
    eccentricity = topology.eccentricity(source)
    assert first.num_advances >= eccentricity, f"beat the hop bound ({context})"
    assert first.latency >= first.num_advances


@pytest.mark.slow_property
@pytest.mark.parametrize("scenario", scenario_names())
@pytest.mark.parametrize(("link_name", "policy_name"), _line_up_params("sync"))
def test_sync_line_up_matrix(link_name, policy_name, scenario):
    """Round-based system: every line-up policy × link model × scenario."""
    _run_line_up_cell("sync", link_name, policy_name, scenario, None, seed=303)


@pytest.mark.slow_property
@pytest.mark.parametrize("duty_model", duty_model_names())
@pytest.mark.parametrize("scenario", scenario_names())
@pytest.mark.parametrize(("link_name", "policy_name"), _line_up_params("duty"))
def test_duty_line_up_matrix(link_name, policy_name, scenario, duty_model):
    """Duty-cycle system: every line-up policy × link model × scenario × duty model."""
    _run_line_up_cell("duty", link_name, policy_name, scenario, duty_model, seed=404)


@pytest.mark.slow_property
@pytest.mark.parametrize("scenario", scenario_names())
@pytest.mark.parametrize(
    ("system", "policy_name"),
    [
        pytest.param(system, name, id=f"{system}-{name}")
        for system in ("sync", "duty")
        for name in _line_up(system, "reliable")
    ],
)
def test_line_up_traces_replay_exactly(system, policy_name, scenario):
    """Each line-up policy's reliable trace replays advance for advance.

    The replay consults the policy only at its recorded decision slots
    (``next_decision_slot``), so the engine must both honour the hint and
    re-derive the same receivers from the same transmitter sets.
    """
    duty_model = None if system == "sync" else "uniform"
    topology, source, schedule = _deployment_and_schedule(
        scenario, duty_model, seed=505
    )
    factory = _line_up(system, "reliable")[policy_name]
    trace = run_broadcast(
        topology, source, factory(), schedule=schedule, align_start=schedule is not None
    )
    calls = 0

    class CountingReplay(ReplayPolicy):
        def select_advance(self, state):
            nonlocal calls
            calls += 1
            return super().select_advance(state)

    replayed = run_broadcast(
        topology,
        source,
        CountingReplay(trace),
        schedule=schedule,
        start_time=trace.start_time,
    )
    assert replayed == trace
    assert calls == trace.num_advances
