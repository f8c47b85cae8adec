"""The store's tentpole property: warm and resumed sweeps are bit-identical.

The acceptance criterion of the persistent experiment store, executable:
for deployment scenarios × worker counts,

* **warm identity** — ``run_sweep`` with a fully populated store returns
  records *bit-identical* to a cold (store-less) run — loading cells from
  disk is indistinguishable from simulating them;
* **resume identity** — a *partially* populated store (an interrupted
  sweep, or a smaller grid persisted earlier) resumes to the same records
  while simulating only the missing cells;
* **cross-execution reuse** — cells cached by one worker count satisfy
  every other, because the cache key deliberately excludes it.
"""

from __future__ import annotations

import pytest

from repro.baselines.approx17 import Approx17Policy
from repro.core.policies import EModelPolicy
from repro.core.time_counter import SearchConfig
from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_sweep
from repro.store import ExperimentStore

SCENARIOS = ("uniform", "clustered")
WORKER_COUNTS = (1, 2)

#: Cheap line-up so the grid (2 node counts x 2 repetitions) stays fast.
POLICIES = {"17-approx": Approx17Policy, "E-model": EModelPolicy}


def _config(scenario: str, node_counts: tuple[int, ...] = (16, 24)) -> SweepConfig:
    return SweepConfig(
        node_counts=node_counts,
        area_side=10.0,
        radius=4.0,
        repetitions=2,
        source_min_ecc=1,
        source_max_ecc=None,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=4,
        scenario=scenario,
    )


def _sweep(config, *, workers=1, **kwargs):
    return run_sweep(
        config,
        system="duty",
        rate=5,
        policies=POLICIES,
        workers=workers,
        **kwargs,
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_warm_store_is_bit_identical_to_cold_run(tmp_path, scenario, workers):
    config = _config(scenario)
    cold = _sweep(config, workers=workers)
    with ExperimentStore(tmp_path / "store") as store:
        populate = _sweep(config, workers=workers, store=store)
        assert populate.records == cold.records
        assert populate.cache_hits == 0
        assert populate.cache_misses == 4
        warm = _sweep(config, workers=workers, store=store)
    assert warm.records == cold.records
    assert warm.cache_hits == 4
    assert warm.cache_misses == 0


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_partial_store_resumes_simulating_only_missing_cells(
    tmp_path, monkeypatch, scenario, workers
):
    """An interrupted sweep's store completes to the cold-run records."""
    full = _config(scenario)
    cold = _sweep(full, workers=workers)
    with ExperimentStore(tmp_path / "store") as store:
        # Interrupt-equivalent: only the first node count's cells persisted
        # (the same digests the full grid derives — the grid shape is not
        # part of the key).
        _sweep(_config(scenario, node_counts=(16,)), store=store)

        import repro.experiments.runner as runner_mod

        simulated = []
        real_run_cell = runner_mod._run_cell

        def counting_run_cell(cell):
            simulated.append((cell.num_nodes, cell.repetition))
            return real_run_cell(cell)

        if workers == 1:
            # In-process execution lets us count exactly which cells were
            # simulated; multi-worker runs assert via the hit/miss split.
            monkeypatch.setattr(runner_mod, "_run_cell", counting_run_cell)
        resumed = _sweep(full, workers=workers, store=store)
        if workers == 1:
            assert sorted(simulated) == [(24, 0), (24, 1)]
    assert resumed.records == cold.records
    assert resumed.cache_hits == 2
    assert resumed.cache_misses == 2


def test_cells_cached_by_one_execution_mode_serve_all_others(tmp_path):
    """workers is excluded from the key: one population, all reuse."""
    config = _config("clustered")
    cold = _sweep(config)
    with ExperimentStore(tmp_path / "store") as store:
        _sweep(config, workers=2, store=store)
        for workers in WORKER_COUNTS:
            warm = _sweep(config, workers=workers, store=store)
            assert warm.records == cold.records
            assert (warm.cache_hits, warm.cache_misses) == (4, 0)


def test_interrupt_mid_sweep_keeps_completed_cells(tmp_path, monkeypatch):
    """Cells are persisted as they finish, not at sweep end: a crash after
    the first cell leaves that cell reusable."""
    config = _config("uniform")
    import repro.experiments.runner as runner_mod

    real_run_cell = runner_mod._run_cell
    calls = []

    def exploding_run_cell(cell):
        if len(calls) == 1:
            raise KeyboardInterrupt("simulated interrupt")
        calls.append(cell)
        return real_run_cell(cell)

    with ExperimentStore(tmp_path / "store") as store:
        monkeypatch.setattr(runner_mod, "_run_cell", exploding_run_cell)
        with pytest.raises(KeyboardInterrupt):
            _sweep(config, store=store)
        monkeypatch.setattr(runner_mod, "_run_cell", real_run_cell)
        resumed = _sweep(config, store=store)
        assert resumed.cache_hits == 1
        assert resumed.cache_misses == 3
    assert resumed.records == _sweep(config).records
