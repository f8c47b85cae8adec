"""Colour-cache microbenchmark: warm ``cached_greedy_color_classes`` hits.

The time-counter and E-model policies colour their decision frontier with
:func:`repro.core.coloring.cached_greedy_color_classes`, keyed on
``(topology, covered, awake)``.  The broadcasts of one sweep cell share a
topology, so they revisit the same frontiers; this module times a warm
cache hit against the uncached :func:`greedy_color_classes` on a
mid-broadcast frontier of such a shared topology.  Regression floor at
paper scale; quick scale records only.

Results are written as JSON to ``$REPRO_BENCH_COLOR_CACHE_JSON`` (default
``BENCH_color_cache.json`` in the working directory) so CI can upload them
as an artifact.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.baselines.flooding import LargestFirstPolicy
from repro.core.coloring import cached_greedy_color_classes, greedy_color_classes
from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.network.deployment import DeploymentConfig, deploy_uniform
from repro.sim.broadcast import run_broadcast

from _bench_utils import emit, paper_scale as _paper_scale, time_per_call as _time_per_call

NUM_NODES = 50  # the paper-geometry n=50 column
#: Warm colour-cache hit vs an uncached recolouring (measured ~20x on the
#: mid-broadcast frontier, where the uncovered residue is already small;
#: early frontiers reach ~100x).
COLOR_CACHE_TARGET = 10.0


def _json_path() -> str:
    return os.environ.get("REPRO_BENCH_COLOR_CACHE_JSON", "BENCH_color_cache.json")


@pytest.fixture(scope="module")
def shared_topology():
    """One n=50 deployment and the traces of the policies that share it."""
    config = DeploymentConfig(
        num_nodes=NUM_NODES,
        area_side=50.0,
        radius=10.0,
        source_min_ecc=2,
        source_max_ecc=None,
    )
    topology, source = deploy_uniform(config=config, seed=2012)
    traces = [
        run_broadcast(topology, source, policy)
        for policy in (EModelPolicy(), GreedyOptPolicy(), LargestFirstPolicy())
    ]
    return topology, traces


@pytest.mark.ablation
def test_color_cache_reuse(shared_topology):
    """Warm colour-cache hits stay far cheaper than recolouring."""
    topology, traces = shared_topology
    trace = traces[0]
    # A mid-broadcast frontier — the shape the policies of one cell
    # re-request over their shared deployment.
    covered = trace.advances[len(trace.advances) // 2].color | {trace.source}

    def cold() -> None:
        greedy_color_classes(topology, covered)

    def warm() -> None:
        cached_greedy_color_classes(topology, covered)

    warm()  # populate the cache before timing the hit path
    reps = 200 if _paper_scale() else 20
    cold_s = _time_per_call(cold, min_reps=reps)
    warm_s = _time_per_call(warm, min_reps=reps)
    speedup = cold_s / warm_s

    results = {
        "workload": {
            "num_nodes": NUM_NODES,
            "area_side": 50.0,
            "radius": 10.0,
            "policies": [t.policy_name for t in traces],
            "scale": "paper" if _paper_scale() else "quick",
        },
        "color_cache": {
            "cold_us": cold_s * 1e6,
            "warm_us": warm_s * 1e6,
            "speedup": speedup,
            "target": COLOR_CACHE_TARGET,
        },
    }
    with open(_json_path(), "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit(
        "Colour-cache reuse (n=50 mid-broadcast frontier)",
        f"cold {cold_s * 1e6:.1f} us  warm {warm_s * 1e6:.2f} us  ({speedup:.0f}x)",
    )
    if _paper_scale():
        assert speedup >= COLOR_CACHE_TARGET, (
            f"warm colour-cache hit only {speedup:.1f}x over recolouring; "
            f"expected >= {COLOR_CACHE_TARGET}x — the memoisation the "
            "decision-level colourings rely on has regressed"
        )
