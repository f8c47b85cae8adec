"""Section V-C summary claims, recomputed from the reproduced figures.

This bench runs the three experimental sweeps (Figures 3, 4 and 6) once and
evaluates the paper's quantitative take-aways side by side with the measured
values; the claim table is printed next to the substitutions listed in
docs/architecture.md#documented-approximations.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import figure3, figure4, figure6
from repro.experiments.report import claims_to_text, summary_claims

from _bench_utils import emit


@pytest.mark.figure
def test_section5c_summary_claims(benchmark, sweep_config, bench_rounds):
    def _run():
        fig3 = figure3(sweep_config)
        fig4 = figure4(sweep_config)
        fig6 = figure6(sweep_config)
        return summary_claims(fig3, fig4, fig6)

    checks = benchmark.pedantic(_run, **bench_rounds)
    emit("Section V-C claims (paper vs measured)", claims_to_text(checks))

    assert len(checks) == 5
    failing = [check.claim for check in checks if not check.holds]
    assert not failing, f"claims not reproduced at benchmark scale: {failing}"
