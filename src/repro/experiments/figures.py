"""Generators for the paper's Figures 3-7 plus cross-scenario comparisons.

Each generator returns a :class:`FigureResult` holding exactly the series the
paper plots: density (nodes per sq-ft) on the x-axis and the end-to-end
latency ``P(A)`` (rounds for Figure 3, slots for Figures 4-7) on the y-axis,
one series per scheduler or analytical bound.  The benchmark modules under
``benchmarks/`` call these generators and assert the qualitative shape; the
CLI (``python -m repro.experiments``) prints them as text tables / CSV.

Beyond the paper, :func:`figure_scenarios` compares the policies *across
deployment scenarios* (see :mod:`repro.scenarios`): one x position per
scenario, mean latency over the whole sweep per policy.
:func:`figure_reliability` sweeps the §VI loss axis instead: one x position
per loss probability, with a latency series and a retransmission series per
policy.  :func:`figure_multisource` sweeps the concurrent-message count
``k``: one x position per source count, with a makespan-latency series and
a total-energy series per policy (the workload catalog's multi-source
entry — see ``docs/workloads.md``).

:func:`figure_ratio` turns the solver catalog into an empirical
approximation-ratio study: on instances small enough for the exact tier
(:data:`~repro.experiments.config.RATIO_SWEEP`) it divides every policy's
latency by the certified optimum of the *same* deployment across a
scenario x duty-model grid, pairing each observed ratio with its proved
bound (see ``docs/solvers.md``).

Every generator accepts ``store=`` / ``resume=`` and forwards them to
:func:`~repro.experiments.runner.run_sweep`, so figures regenerate from a
populated :class:`~repro.store.ExperimentStore` without re-simulating
(see ``docs/store.md``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.bounds import (
    duty_cycle_17_bound,
    duty_cycle_opt_bound,
    sync_opt_bound,
)
from repro.dutycycle.cwt import max_cwt
from repro.experiments.config import RATIO_SWEEP, SweepConfig, sweep_from_env
from repro.experiments.runner import SweepResult, default_policies, run_sweep
from repro.sim.metrics import aggregate_latency
from repro.solvers.registry import SOLVER_TIERS
from repro.store import ExperimentStore
from repro.utils.format import format_series_table, to_csv
from repro.utils.validation import require

__all__ = [
    "FigureResult",
    "DEFAULT_SCENARIO_SET",
    "DEFAULT_LOSS_PROBABILITIES",
    "DEFAULT_SOURCE_COUNTS",
    "DEFAULT_RATIO_SCENARIOS",
    "DEFAULT_RATIO_DUTY_MODELS",
    "RETX_SUFFIX",
    "ENERGY_SUFFIX",
    "BOUND_SUFFIX",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure_scenarios",
    "figure_reliability",
    "figure_multisource",
    "figure_ratio",
]


@dataclass
class FigureResult:
    """One reproduced figure: x values plus one y series per curve.

    ``x_values`` are densities for the paper's figures and scenario names
    for :func:`figure_scenarios` (the text/CSV renderers accept both).
    """

    name: str
    title: str
    x_label: str
    x_values: tuple[float | str, ...]
    series: dict[str, list[float]] = field(default_factory=dict)
    y_label: str = "P(A)"
    sweep: SweepResult | None = None

    def to_text(self) -> str:
        """The figure as an aligned text table (one row per density)."""
        header = f"{self.name}: {self.title}  [y = {self.y_label}]"
        table = format_series_table(self.x_label, list(self.x_values), self.series)
        return f"{header}\n{table}"

    def to_csv(self) -> str:
        """The figure as CSV (columns: x, one per series)."""
        headers = [self.x_label, *self.series.keys()]
        rows = []
        for index, x in enumerate(self.x_values):
            rows.append([x, *(values[index] for values in self.series.values())])
        return to_csv(headers, rows)

    def series_for(self, name: str) -> list[float]:
        """One named series (raises ``KeyError`` with the known names)."""
        try:
            return self.series[name]
        except KeyError:
            raise KeyError(
                f"unknown series {name!r}; available: {sorted(self.series)}"
            ) from None


def _densities(config: SweepConfig) -> tuple[float, ...]:
    return config.densities


def figure3(
    config: SweepConfig | None = None,
    *,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Figure 3: ``P(A)`` in the round-based synchronous system.

    Series: 26-approximation, OPT, G-OPT, E-model (simulated) and
    OPT-analysis (the Theorem-1 bound ``d + 2`` averaged over deployments).
    """
    config = config or sweep_from_env()
    sweep = run_sweep(config, system="sync", store=store, resume=resume)
    series = sweep.latency_series(["26-approx", "OPT", "G-OPT", "E-model"])
    series["OPT-analysis"] = [
        sync_opt_bound(round(d)) + 1 for d in sweep.eccentricity_series()
    ]
    return FigureResult(
        name="Figure 3",
        title="End-to-end delay in the round-based synchronous system",
        x_label="density (nodes/sq-ft)",
        x_values=_densities(config),
        series=series,
        y_label="P(A) [rounds]",
        sweep=sweep,
    )


def _duty_experiment(
    config: SweepConfig,
    rate: int,
    name: str,
    title: str,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    sweep = run_sweep(config, system="duty", rate=rate, store=store, resume=resume)
    series = sweep.latency_series(["17-approx", "OPT", "G-OPT", "E-model"])
    return FigureResult(
        name=name,
        title=title,
        x_label="density (nodes/sq-ft)",
        x_values=_densities(config),
        series=series,
        y_label="P(A) [slots]",
        sweep=sweep,
    )


def _duty_bounds(
    config: SweepConfig,
    rate: int,
    name: str,
    title: str,
    sweep: SweepResult | None,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Analytical upper bounds (Theorem 1 vs the 17kd baseline bound)."""
    if sweep is None:
        # Only the deployments' eccentricities are needed; running the cheap
        # E-model alone keeps this fast while reusing the same deployments.
        from repro.core.policies import EModelPolicy  # local import to avoid cycle

        sweep = run_sweep(
            config,
            system="duty",
            rate=rate,
            policies={"E-model": EModelPolicy},
            store=store,
            resume=resume,
        )
    eccentricities = sweep.eccentricity_series()
    series = {
        "OPT-analysis (2r(d+2))": [
            float(duty_cycle_opt_bound(rate, round(d))) for d in eccentricities
        ],
        "17-approx bound (17kd)": [
            float(duty_cycle_17_bound(round(d), max_cwt(rate))) for d in eccentricities
        ],
    }
    return FigureResult(
        name=name,
        title=title,
        x_label="density (nodes/sq-ft)",
        x_values=_densities(config),
        series=series,
        y_label="P(A) upper bound [slots]",
        sweep=sweep,
    )


def figure4(
    config: SweepConfig | None = None,
    *,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Figure 4: experimental ``P(A)`` in the duty-cycle system, ``r = 10``."""
    config = config or sweep_from_env()
    return _duty_experiment(
        config,
        rate=10,
        name="Figure 4",
        title="End-to-end delay in the duty-cycle system (r = 10)",
        store=store,
        resume=resume,
    )


def figure5(
    config: SweepConfig | None = None,
    sweep: SweepResult | None = None,
    *,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Figure 5: analytical ``P(A)`` upper bounds, duty cycle ``r = 10``.

    ``sweep`` may be the result attached to :func:`figure4` to reuse its
    deployments (the bounds only depend on the eccentricities).
    """
    config = config or sweep_from_env()
    return _duty_bounds(
        config,
        rate=10,
        name="Figure 5",
        title="Analytical upper bounds in the duty-cycle system (r = 10)",
        sweep=sweep,
        store=store,
        resume=resume,
    )


def figure6(
    config: SweepConfig | None = None,
    *,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Figure 6: experimental ``P(A)`` in the light duty-cycle system, ``r = 50``."""
    config = config or sweep_from_env()
    return _duty_experiment(
        config,
        rate=50,
        name="Figure 6",
        title="End-to-end delay in the light duty-cycle system (r = 50)",
        store=store,
        resume=resume,
    )


def figure7(
    config: SweepConfig | None = None,
    sweep: SweepResult | None = None,
    *,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Figure 7: analytical ``P(A)`` upper bounds, duty cycle ``r = 50``."""
    config = config or sweep_from_env()
    return _duty_bounds(
        config,
        rate=50,
        name="Figure 7",
        title="Analytical upper bounds in the light duty-cycle system (r = 50)",
        sweep=sweep,
        store=store,
        resume=resume,
    )


#: Scenarios compared by :func:`figure_scenarios` (every built-in scenario).
DEFAULT_SCENARIO_SET: tuple[str, ...] = (
    "uniform",
    "clustered",
    "corridor",
    "ring",
    "perturbed-grid",
    "grid-holes",
    "knn",
)


def figure_scenarios(
    config: SweepConfig | None = None,
    *,
    scenarios: tuple[str, ...] | None = None,
    system: str = "duty",
    rate: int = 10,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Cross-scenario comparison: mean policy latency per deployment scenario.

    Beyond the paper: one full sweep per scenario (same node counts,
    repetitions and duty model as ``config``), aggregated to the
    mean latency over *all* records of each policy.  The x-axis enumerates
    the scenarios, one series per policy — the figure answers "how robust
    is each policy's advantage when the topology stops being uniform?".
    """
    config = config or sweep_from_env()
    chosen = DEFAULT_SCENARIO_SET if scenarios is None else scenarios
    series: dict[str, list[float]] = {}
    sweeps: list[SweepResult] = []
    for scenario in chosen:
        sweep = run_sweep(
            dataclasses.replace(config, scenario=scenario),
            system=system,
            rate=rate,
            store=store,
            resume=resume,
        )
        sweeps.append(sweep)
        for policy in sweep.policies:
            values = [r.latency for r in sweep.records_for(policy)]
            series.setdefault(policy, []).append(aggregate_latency(values)["mean"])
    unit = "slots" if system == "duty" else "rounds"
    title = (
        f"Mean end-to-end delay per deployment scenario "
        f"({'duty cycle r = ' + str(rate) if system == 'duty' else 'round-based'}, "
        f"duty model {config.duty_model!r})"
    )
    return FigureResult(
        name="Scenario comparison",
        title=title,
        x_label="scenario",
        x_values=tuple(chosen),
        series=series,
        y_label=f"P(A) [{unit}]",
        sweep=sweeps[-1] if sweeps else None,
    )


#: Loss probabilities swept by :func:`figure_reliability`.
DEFAULT_LOSS_PROBABILITIES: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)

#: Suffix of the retransmission series of :func:`figure_reliability`.
RETX_SUFFIX = " [retx]"


def figure_reliability(
    config: SweepConfig | None = None,
    *,
    loss_probabilities: tuple[float, ...] | None = None,
    system: str = "sync",
    rate: int = 10,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Robustness under lossy links: latency and retransmissions vs loss.

    The §VI argument made measurable: one full sweep per loss probability
    (``0.0`` maps to reliable links, so the leftmost column is the paper's
    own workload), aggregated per policy to

    * ``<policy>`` — mean end-to-end latency over all records, and
    * ``<policy> [retx]`` — mean retransmission count per broadcast
      (transmissions beyond each node's first).

    The per-cell deployments and loss streams are seed-paired across the
    loss probabilities, so a policy's curve shows the effect of losing
    deliveries, not of resampling topologies.  Conflict-aware schedulers
    should degrade gracefully: latency inflates roughly like ``1/(1-p)``
    while coverage always completes.
    """
    config = config or sweep_from_env()
    chosen = (
        DEFAULT_LOSS_PROBABILITIES
        if loss_probabilities is None
        else tuple(loss_probabilities)
    )
    # One line-up for the whole figure: the loss-tolerant schedulers of the
    # highest swept probability (planned baselines drop out of lossy sweeps),
    # so every series spans every x position — including the 0.0 column.
    line_up = default_policies(config.with_loss(max(chosen)), system)
    latency_series: dict[str, list[float]] = {}
    retx_series: dict[str, list[float]] = {}
    sweeps: list[SweepResult] = []
    for probability in chosen:
        sweep = run_sweep(
            config.with_loss(probability),
            system=system,
            rate=rate,
            policies=line_up,
            store=store,
            resume=resume,
        )
        sweeps.append(sweep)
        for policy in sweep.policies:
            records = sweep.records_for(policy)
            latency_series.setdefault(policy, []).append(
                aggregate_latency([r.latency for r in records])["mean"]
            )
            retx = [r.retransmissions for r in records]
            retx_series.setdefault(f"{policy}{RETX_SUFFIX}", []).append(
                sum(retx) / len(retx)
            )
    unit = "slots" if system == "duty" else "rounds"
    title = (
        f"Latency and retransmissions vs per-link loss probability "
        f"({'duty cycle r = ' + str(rate) if system == 'duty' else 'round-based'}, "
        f"scenario {config.scenario!r})"
    )
    return FigureResult(
        name="Reliability",
        title=title,
        x_label="loss probability",
        x_values=chosen,
        series={**latency_series, **retx_series},
        y_label=f"P(A) [{unit}] / retransmissions",
        sweep=sweeps[-1] if sweeps else None,
    )


#: Concurrent-message counts swept by :func:`figure_multisource`.
DEFAULT_SOURCE_COUNTS: tuple[int, ...] = (1, 2, 4)

#: Suffix of the total-energy series of :func:`figure_multisource`.
ENERGY_SUFFIX = " [energy]"


def figure_multisource(
    config: SweepConfig | None = None,
    *,
    source_counts: tuple[int, ...] | None = None,
    placement: str | None = None,
    system: str = "duty",
    rate: int = 10,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Latency and energy vs the number of concurrent messages ``k``.

    The multi-source workload made measurable: one full sweep per source
    count (``k = 1`` is the paper's single-source broadcast, so the
    leftmost column reproduces the plain sweep bit-for-bit), aggregated per
    policy to

    * ``<policy>`` — mean makespan latency (completion of the slowest
      message) over all records, and
    * ``<policy> [energy]`` — mean total broadcast energy under the default
      :class:`~repro.sim.energy.EnergyModel` (tx + rx/overhearing + idle
      listening over the shared window).

    The per-cell deployments and placement streams are seed-paired across
    the source counts, so a policy's curve shows the cost of concurrent
    wavefronts contending for slots, not of resampling topologies.  One
    line-up spans every column (the planned baselines drop out of ``k > 1``
    sweeps, so the figure keeps the frontier schedulers throughout).
    """
    config = config or sweep_from_env()
    chosen = (
        DEFAULT_SOURCE_COUNTS if source_counts is None else tuple(source_counts)
    )
    if placement is not None:
        config = dataclasses.replace(config, source_placement=placement)
    line_up = default_policies(config.with_sources(max(chosen)), system)
    latency_series: dict[str, list[float]] = {}
    energy_series: dict[str, list[float]] = {}
    sweeps: list[SweepResult] = []
    for count in chosen:
        sweep = run_sweep(
            config.with_sources(count),
            system=system,
            rate=rate,
            policies=line_up,
            store=store,
            resume=resume,
        )
        sweeps.append(sweep)
        for policy in sweep.policies:
            records = sweep.records_for(policy)
            latency_series.setdefault(policy, []).append(
                aggregate_latency([r.latency for r in records])["mean"]
            )
            energy_series.setdefault(f"{policy}{ENERGY_SUFFIX}", []).append(
                aggregate_latency([r.total_energy for r in records])["mean"]
            )
    unit = "slots" if system == "duty" else "rounds"
    title = (
        f"Makespan latency and total energy vs concurrent messages "
        f"({'duty cycle r = ' + str(rate) if system == 'duty' else 'round-based'}, "
        f"placement {config.source_placement!r})"
    )
    return FigureResult(
        name="Multi-source",
        title=title,
        x_label="concurrent messages k",
        x_values=tuple(float(count) for count in chosen),
        series={**latency_series, **energy_series},
        y_label=f"makespan [{unit}] / energy [model units]",
        sweep=sweeps[-1] if sweeps else None,
    )


#: Deployment scenarios of the :func:`figure_ratio` grid.
DEFAULT_RATIO_SCENARIOS: tuple[str, ...] = ("uniform", "clustered", "ring")

#: Duty-cycle models of the :func:`figure_ratio` grid (duty system only).
DEFAULT_RATIO_DUTY_MODELS: tuple[str, ...] = ("uniform", "two-tier")

#: Suffix of the proved-bound series paired with a baseline's observed
#: ratios by :func:`figure_ratio` (mirrors :data:`RETX_SUFFIX`).
BOUND_SUFFIX = " [bound]"


def figure_ratio(
    config: SweepConfig | None = None,
    *,
    scenarios: tuple[str, ...] | None = None,
    duty_models: tuple[str, ...] | None = None,
    system: str = "duty",
    rate: int = 10,
    store: ExperimentStore | None = None,
    resume: bool = True,
) -> FigureResult:
    """Observed approximation ratios vs the exact optimum, per grid cell.

    The empirical counterpart of the solver catalog's proved bounds
    (``docs/solvers.md``): ``config`` — :data:`RATIO_SWEEP` by default —
    must select an exact solver tier, whose certified optimum anchors every
    ratio.  One full sweep runs per grid cell (scenario x duty model for
    the duty system; the duty-model axis collapses for ``system="sync"``,
    where wake-up schedules do not exist), and each policy's latency is
    divided by the exact optimum of the *same* deployment (same node count,
    repetition, source and wake-up schedule) before averaging:

    * ``<policy>`` — mean observed ratio ``latency / optimum`` per cell
      (the exact tier's own series is identically ``1.0``);
    * ``<baseline> [bound]`` — the baseline's proved ratio bound, constant
      across the grid: ``26`` for the synchronous 26-approximation, and
      ``17 k`` for the duty-cycle 17-approximation (latency at most
      ``17 k d`` slots against an optimum of at least ``d``, with ``k``
      the maximum contention-window size :func:`~repro.dutycycle.cwt.max_cwt`
      of the configured rate).

    ``report.ratio_claims`` checks the three invariants this figure makes
    measurable: no ratio below 1, the exact tier exactly at 1, and every
    observed ratio at or below its proved bound.
    """
    config = config or RATIO_SWEEP
    tier = SOLVER_TIERS[config.solver]
    require(
        tier.guarantee == "optimal",
        f"figure_ratio needs an exact solver tier to anchor the ratios; "
        f"config.solver={config.solver!r} guarantees only "
        f"{tier.guarantee!r}",
    )
    chosen_scenarios = (
        DEFAULT_RATIO_SCENARIOS if scenarios is None else tuple(scenarios)
    )
    if system == "sync":
        chosen_models: tuple[str, ...] = (config.duty_model,)
    else:
        chosen_models = (
            DEFAULT_RATIO_DUTY_MODELS if duty_models is None else tuple(duty_models)
        )
    grid = [
        (scenario, duty_model)
        for scenario in chosen_scenarios
        for duty_model in chosen_models
    ]
    labels = tuple(
        scenario if system == "sync" else f"{scenario}/{duty_model}"
        for scenario, duty_model in grid
    )
    series: dict[str, list[float]] = {}
    sweeps: list[SweepResult] = []
    for scenario, duty_model in grid:
        sweep = run_sweep(
            dataclasses.replace(config, scenario=scenario, duty_model=duty_model),
            system=system,
            rate=rate,
            store=store,
            resume=resume,
        )
        sweeps.append(sweep)
        # Pair each record against the exact optimum of its own deployment.
        optimum = {
            (r.num_nodes, r.repetition): r.latency
            for r in sweep.records_for(tier.name)
        }
        for policy in sweep.policies:
            ratios = [
                r.latency / optimum[(r.num_nodes, r.repetition)]
                for r in sweep.records_for(policy)
            ]
            series.setdefault(policy, []).append(sum(ratios) / len(ratios))
    # The proved ratio bounds, paired with the observed series they cap.
    if system == "sync" and "26-approx" in series:
        series[f"26-approx{BOUND_SUFFIX}"] = [26.0] * len(grid)
    if system == "duty" and "17-approx" in series:
        series[f"17-approx{BOUND_SUFFIX}"] = [17.0 * max_cwt(rate)] * len(grid)
    title = (
        f"Observed latency ratio vs the exact optimum "
        f"({'duty cycle r = ' + str(rate) if system == 'duty' else 'round-based'}, "
        f"solver tier {config.solver!r}, n <= {max(config.node_counts)})"
    )
    return FigureResult(
        name="Approximation ratio",
        title=title,
        x_label="scenario" if system == "sync" else "scenario/duty model",
        x_values=labels,
        series=series,
        y_label="latency / optimum",
        sweep=sweeps[-1] if sweeps else None,
    )
