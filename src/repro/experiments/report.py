"""Summary-claim evaluation (Section V-C) and CSV/report helpers.

Section V-C distils the figures into a handful of quantitative claims; this
module recomputes them from reproduced figure results so the CLI's
``claims`` target (and the ``benchmarks/test_summary_claims.py`` bench) can
put the paper's numbers and the measured numbers side by side:

* at least ~70% latency improvement over the 26-approximation in the
  round-based system;
* 85-90% improvement over the 17-approximation in the duty-cycle systems;
* G-OPT within 2 rounds of OPT in the round-based system;
* G-OPT equal to OPT in the light duty-cycle system and within ``r`` slots
  in the heavy duty-cycle system;
* the E-model close to G-OPT/OPT in all systems.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.figures import (
    BOUND_SUFFIX,
    ENERGY_SUFFIX,
    RETX_SUFFIX,
    FigureResult,
)
from repro.sim.metrics import improvement_percent
from repro.solvers.registry import SOLVER_TIERS
from repro.store import ExperimentStore
from repro.utils.format import format_table

__all__ = [
    "ClaimCheck",
    "summary_claims",
    "summary_claims_from_store",
    "reliability_claims",
    "multisource_claims",
    "ratio_claims",
    "claims_to_text",
    "store_summary_text",
]


@dataclass(frozen=True)
class ClaimCheck:
    """One §V-C claim: the paper's statement vs the measured quantity."""

    claim: str
    paper: str
    measured: str
    value: float
    holds: bool


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def summary_claims(
    fig3: FigureResult,
    fig4: FigureResult | None = None,
    fig6: FigureResult | None = None,
    *,
    sync_improvement_floor: float = 25.0,
    duty_improvement_floor: float = 50.0,
    gopt_gap_rounds: float = 2.0,
) -> list[ClaimCheck]:
    """Evaluate the Section V-C claims on reproduced figure results.

    The ``*_floor`` thresholds are the acceptance criteria used by the
    benchmark (they are intentionally looser than the paper's headline
    numbers because our baseline re-implementations are somewhat stronger
    than the originals — see docs/architecture.md#documented-approximations).
    """
    checks: list[ClaimCheck] = []

    baseline = _mean(fig3.series_for("26-approx"))
    gopt = _mean(fig3.series_for("G-OPT"))
    opt = _mean(fig3.series_for("OPT"))
    emodel = _mean(fig3.series_for("E-model"))
    sync_improvement = improvement_percent(baseline, gopt)
    checks.append(
        ClaimCheck(
            claim="Synchronous: G-OPT improves on the 26-approximation",
            paper=">= 70% improvement expected",
            measured=f"{sync_improvement:.1f}% mean improvement",
            value=sync_improvement,
            holds=sync_improvement >= sync_improvement_floor,
        )
    )
    gap = max(
        g - o for g, o in zip(fig3.series_for("G-OPT"), fig3.series_for("OPT"))
    )
    checks.append(
        ClaimCheck(
            claim="Synchronous: G-OPT within 2 rounds of OPT",
            paper="difference no more than 2 hops/rounds",
            measured=f"max mean gap {gap:.2f} rounds",
            value=gap,
            holds=gap <= gopt_gap_rounds,
        )
    )
    emodel_gap = improvement_percent(baseline, emodel)
    checks.append(
        ClaimCheck(
            claim="Synchronous: E-model close to the optimisation targets",
            paper="close to OPT / G-OPT",
            measured=(
                f"E-model {emodel:.1f} vs G-OPT {gopt:.1f} rounds "
                f"({emodel_gap:.1f}% below the baseline)"
            ),
            value=emodel - gopt,
            holds=emodel_gap >= sync_improvement_floor / 2,
        )
    )

    for figure, label in ((fig4, "heavy duty cycle (r=10)"), (fig6, "light duty cycle (r=50)")):
        if figure is None:
            continue
        baseline_d = _mean(figure.series_for("17-approx"))
        gopt_d = _mean(figure.series_for("G-OPT"))
        improvement = improvement_percent(baseline_d, gopt_d)
        checks.append(
            ClaimCheck(
                claim=f"{label}: G-OPT improves on the 17-approximation",
                paper="85% up to 90% improvement expected",
                measured=f"{improvement:.1f}% mean improvement",
                value=improvement,
                holds=improvement >= duty_improvement_floor,
            )
        )
    return checks


def _figure_from_store(store: ExperimentStore, name: str, **filters) -> FigureResult:
    """One paper figure rebuilt from cached records (query layer, no sims)."""
    sweep = store.query(**filters)
    return FigureResult(
        name=name,
        title=f"{name} (from store {store.root})",
        x_label="density (nodes/sq-ft)",
        x_values=sweep.config.densities,
        series=sweep.latency_series(),
        sweep=sweep,
    )


def summary_claims_from_store(
    store: ExperimentStore, **thresholds: float
) -> list[ClaimCheck]:
    """Recompute the §V-C claims purely from cached records.

    Reads the paper's workload (uniform deployments, reliable links, one
    source) through the store's query layer — the figures come back from
    disk, no cell is simulated.  The synchronous figure is required; the
    duty-cycle figures contribute their claims only when their sweeps are
    cached (``rate`` 10 and 50).  ``thresholds`` forward to
    :func:`summary_claims`.
    """
    paper_axes = dict(
        scenario="uniform", duty_model="uniform", link_model="reliable", n_sources=1
    )
    fig3 = _figure_from_store(store, "Figure 3", system="sync", **paper_axes)
    duty: dict[int, FigureResult | None] = {}
    for rate, name in ((10, "Figure 4"), (50, "Figure 6")):
        try:
            duty[rate] = _figure_from_store(
                store, name, system="duty", rate=rate, **paper_axes
            )
        except LookupError:
            duty[rate] = None
    return summary_claims(fig3, duty[10], duty[50], **thresholds)


def store_summary_text(store: ExperimentStore) -> str:
    """Render a store's :meth:`~repro.store.ExperimentStore.stats` as text
    (the ``store stats`` CLI target)."""
    stats = store.stats()

    def _rendered(grouped: dict) -> str:
        return (
            ", ".join(f"{key}: {count}" for key, count in grouped.items()) or "-"
        )

    rows = [
        ["cached cells", str(stats.cells)],
        ["records", str(stats.records)],
        ["shard bytes", str(stats.shard_bytes)],
        ["systems", _rendered(stats.systems)],
        ["scenarios", _rendered(stats.scenarios)],
        ["link models", _rendered(stats.link_models)],
        ["schema versions", _rendered(stats.schema_versions)],
    ]
    return f"store: {store.root}\n{format_table(['field', 'value'], rows)}"


def reliability_claims(figure: FigureResult) -> list[ClaimCheck]:
    """Evaluate the §VI robustness claims on a reliability figure.

    ``figure`` is the result of
    :func:`repro.experiments.figures.figure_reliability`; its x axis is the
    loss probability and its series come in pairs (``<policy>`` latency,
    ``<policy> [retx]`` retransmissions).  Two checks per policy:

    * *graceful degradation* — every broadcast completed (the sweep raises
      otherwise) and the mean latency under losses never beats the
      loss-free mean (losing deliveries cannot speed up coverage);
    * *retransmissions absorb the losses* — at the highest loss rate the
      policy retransmits at least as much as at zero loss (the frontier
      re-serves uncovered nodes instead of live-locking).
    """
    checks: list[ClaimCheck] = []
    policies = [name for name in figure.series if not name.endswith(RETX_SUFFIX)]
    # The CLI accepts the loss points in any order; baseline on the least
    # lossy point and compare against the lossiest one, not on positions.
    losses = [float(value) for value in figure.x_values]
    base = min(range(len(losses)), key=losses.__getitem__)
    peak = max(range(len(losses)), key=losses.__getitem__)
    for policy in policies:
        latency = figure.series_for(policy)
        degradation = min(value - latency[base] for value in latency)
        checks.append(
            ClaimCheck(
                claim=f"{policy}: losses never speed up the broadcast",
                paper="§VI: uncovered nodes stay in the frontier",
                measured=(
                    f"mean latency {latency[base]:.1f} -> {latency[peak]:.1f} "
                    f"across loss {losses[base]}..{losses[peak]}"
                ),
                value=latency[peak] - latency[base],
                holds=degradation >= 0.0,
            )
        )
        retx = figure.series_for(f"{policy}{RETX_SUFFIX}")
        checks.append(
            ClaimCheck(
                claim=f"{policy}: retransmissions absorb the losses",
                paper="graceful degradation, no protocol change",
                measured=f"mean retransmissions {retx[base]:.1f} -> {retx[peak]:.1f}",
                value=retx[peak],
                holds=retx[peak] >= retx[base],
            )
        )
    return checks


def multisource_claims(figure: FigureResult) -> list[ClaimCheck]:
    """Evaluate the structural multi-source claims on a multisource figure.

    ``figure`` is the result of
    :func:`repro.experiments.figures.figure_multisource`; its x axis is the
    concurrent-message count ``k`` and its series come in pairs
    (``<policy>`` makespan, ``<policy> [energy]`` total energy).  Two
    checks per policy:

    * *concurrency is never free* — every message must still cover the
      whole network, so the mean makespan at the largest ``k`` is at least
      the single-message mean (wavefronts add work and contend for slots);
    * *energy grows with the message count* — more wavefronts mean more
      transmissions and a same-or-longer idle window, so the mean total
      energy is non-decreasing from the smallest to the largest ``k``.
    """
    checks: list[ClaimCheck] = []
    policies = [name for name in figure.series if not name.endswith(ENERGY_SUFFIX)]
    counts = [float(value) for value in figure.x_values]
    base = min(range(len(counts)), key=counts.__getitem__)
    peak = max(range(len(counts)), key=counts.__getitem__)
    for policy in policies:
        makespan = figure.series_for(policy)
        checks.append(
            ClaimCheck(
                claim=f"{policy}: concurrent messages never shrink the makespan",
                paper="every wavefront still covers the whole network",
                measured=(
                    f"mean makespan {makespan[base]:.1f} -> {makespan[peak]:.1f} "
                    f"across k = {counts[base]:.0f}..{counts[peak]:.0f}"
                ),
                value=makespan[peak] - makespan[base],
                holds=makespan[peak] >= makespan[base],
            )
        )
        energy = figure.series_for(f"{policy}{ENERGY_SUFFIX}")
        checks.append(
            ClaimCheck(
                claim=f"{policy}: total energy grows with the message count",
                paper="more wavefronts burn more radio energy",
                measured=f"mean energy {energy[base]:.0f} -> {energy[peak]:.0f}",
                value=energy[peak],
                holds=energy[peak] >= energy[base],
            )
        )
    return checks


def ratio_claims(figure: FigureResult) -> list[ClaimCheck]:
    """Evaluate the approximation-ratio invariants on a ratio figure.

    ``figure`` is the result of
    :func:`repro.experiments.figures.figure_ratio`; its x axis enumerates
    the scenario x duty-model grid and its series are observed latency
    ratios against the exact optimum, with proved bounds attached as
    ``<baseline> [bound]`` pairs.  Three families of checks:

    * *the optimum is a true floor* — no policy's observed ratio dips
      below 1 on any grid cell (the exact tier certifies the minimum over
      every conflict-aware schedule, so a smaller ratio would disprove it);
    * *the exact tier is exact* — the solver tier's own ratio is
      identically ``1.0`` across the grid;
    * *proved bounds hold empirically* — every baseline with a proved
      ratio bound stays at or below it on every grid cell (the catalog's
      guarantee column, measured).
    """
    checks: list[ClaimCheck] = []
    policies = [name for name in figure.series if not name.endswith(BOUND_SUFFIX)]
    for policy in policies:
        ratios = figure.series_for(policy)
        low = min(ratios)
        checks.append(
            ClaimCheck(
                claim=f"{policy}: never beats the certified optimum",
                paper="exact tier is a true lower bound",
                measured=f"min observed ratio {low:.3f}",
                value=low,
                holds=low >= 1.0 - 1e-9,
            )
        )
        tier = SOLVER_TIERS.get(policy)
        if tier is not None and tier.guarantee == "optimal":
            high = max(ratios)
            checks.append(
                ClaimCheck(
                    claim=f"{policy}: achieves ratio 1 on every grid cell",
                    paper="optimal by the determinism contract",
                    measured=f"observed ratios {low:.3f}..{high:.3f}",
                    value=high,
                    holds=low == 1.0 and high == 1.0,
                )
            )
        bound_series = figure.series.get(f"{policy}{BOUND_SUFFIX}")
        if bound_series is not None:
            worst = max(
                observed - bound for observed, bound in zip(ratios, bound_series)
            )
            checks.append(
                ClaimCheck(
                    claim=f"{policy}: observed ratio within the proved bound",
                    paper=f"proved ratio bound {min(bound_series):g}",
                    measured=f"max observed ratio {max(ratios):.3f}",
                    value=max(ratios),
                    holds=worst <= 0.0,
                )
            )
    return checks


def claims_to_text(checks: list[ClaimCheck]) -> str:
    """Render claim checks as an aligned text table."""
    headers = ["claim", "paper", "measured", "holds"]
    rows = [[c.claim, c.paper, c.measured, "yes" if c.holds else "NO"] for c in checks]
    return format_table(headers, rows)
