"""Named, seeded deployment scenarios beyond the paper's uniform workload.

``repro.scenarios`` is a registry of deployment generators.  Every scenario
returns a standard :class:`~repro.network.deployment.Deployment`, so the
broadcast kernel — reliable or lossy — and the whole experiment harness run
unchanged on any of them:

>>> from repro.scenarios import generate_scenario, scenario_names
>>> scenario_names()  # doctest: +NORMALIZE_WHITESPACE
['clustered', 'corridor', 'grid-holes', 'knn', 'perturbed-grid', 'ring',
 'uniform']
>>> deployment = generate_scenario("clustered", num_nodes=80, seed=7)

The catalog with parameters and sketches lives in ``docs/scenarios.md``;
the CLI lists it with ``python -m repro.experiments --list-scenarios``.
"""

from repro.scenarios.registry import (
    SCENARIOS,
    ScenarioSpec,
    generate_scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.scenarios import generators as _generators  # noqa: F401  (registers builders)

__all__ = [
    "SCENARIOS",
    "ScenarioSpec",
    "generate_scenario",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "scenario_names",
]
