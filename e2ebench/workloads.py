"""The benchmark's workloads: each one is a shipped CLI target.

A workload calls the same public entry points as its CLI target
(``repro.experiments.figures`` and ``repro.experiments.report``) with the
CLI defaults (``reference`` engine, ``workers=1``); only ``SweepConfig.seed``
comes from the benchmark's ``--seed``.  Every sweep a figure runs is
captured, so the output digest covers the records of all of them plus the
claim verdicts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.experiments import figures, report
from repro.experiments.config import QUICK_SWEEP, RATIO_SWEEP, SweepConfig

#: Repetitions of the ``exact-ratio`` workload (``ratio --repetitions``).
RATIO_REPETITIONS = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``sweeps`` and ``policies`` give the grid shape: the target runs
    ``sweeps`` sweeps of ``policies`` broadcasts per cell, so the broadcasts
    a run attempts follow from the config alone, even when it raises.
    """

    name: str
    why: str
    config: SweepConfig
    tiny: dict
    sweeps: int
    policies: int
    target: Callable[[SweepConfig], list]
    #: Whether every claim of the target must hold for the output to be
    #: correct (the ratio invariants are proved bounds, the paper's
    #: headline claims are a reproduction result that may not hold).
    claims_must_hold: bool = False

    def grid(self, seed: int, tiny: bool = False) -> SweepConfig:
        """The workload's config for ``seed`` (``tiny`` for tests)."""
        config = dataclasses.replace(self.config, seed=seed)
        return dataclasses.replace(config, **self.tiny) if tiny else config

    def cells(self, config: SweepConfig) -> int:
        return self.sweeps * len(config.node_counts) * config.repetitions

    def broadcasts(self, config: SweepConfig) -> int:
        return self.cells(config) * self.policies


def _claims(config: SweepConfig) -> list:
    fig3 = figures.figure3(config)
    fig4 = figures.figure4(config)
    fig6 = figures.figure6(config)
    checks = report.summary_claims(fig3, fig4, fig6)
    report.claims_to_text(checks)
    return checks


def _lossy_sync(config: SweepConfig) -> list:
    result = figures.figure_reliability(config, system="sync", rate=10)
    result.to_text()
    return []


def _exact_ratio(config: SweepConfig) -> list:
    result = figures.figure_ratio(config, system="duty", rate=10)
    checks = report.ratio_claims(result)
    report.claims_to_text(checks)
    return checks


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="claims",
            why=(
                "claims target, quick scale, figure3/4/6: the paper's headline result, "
                "dominated by OPT/G-OPT time-counter search and WSNTopology.diameter"
            ),
            config=QUICK_SWEEP,
            tiny={"node_counts": (50,), "repetitions": 1},
            sweeps=3,
            policies=4,
            target=_claims,
        ),
        Workload(
            name="lossy-sync",
            why=(
                "reliability --system sync, quick scale, loss 0-0.3: the lossy-link "
                "path, round-based, never calls diameter"
            ),
            config=QUICK_SWEEP,
            tiny={"node_counts": (50,), "repetitions": 1},
            sweeps=4,
            policies=3,
            target=_lossy_sync,
        ),
        Workload(
            name="exact-ratio",
            why=(
                f"ratio --repetitions {RATIO_REPETITIONS}, n 6-10: the exact solver "
                "tier and fixed per-broadcast costs on tiny networks"
            ),
            config=RATIO_SWEEP.with_repetitions(RATIO_REPETITIONS),
            tiny={"node_counts": (6,), "repetitions": 1},
            sweeps=6,
            policies=5,
            target=_exact_ratio,
            claims_must_hold=True,
        ),
    )
}


@contextmanager
def capture_sweeps():
    """Collect every ``SweepResult`` the figure functions produce."""
    original = figures.run_sweep
    captured: list = []

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        captured.append(result)
        return result

    figures.run_sweep = recording
    try:
        yield captured
    finally:
        figures.run_sweep = original


def digest(sweeps: list, checks: list) -> str:
    """SHA-256 over the records of every sweep and the claim verdicts."""
    payload = {
        "rows": [sweep.to_rows() for sweep in sweeps],
        "claims": [[c.claim, c.measured, c.holds] for c in checks],
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()
