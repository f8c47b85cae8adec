"""Tests of the benchmark itself, on tiny grids of each workload.

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from child import run_once

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = run.WORKLOAD_NAMES


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_manifest_matches_the_tables():
    from workloads import WORKLOADS as TABLE

    assert tuple(TABLE) == WORKLOADS
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_reports_every_named_metric_with_its_unit(name, trace):
    result = run.measure(name, 2012, seconds=0, trace=trace, tiny=True)
    section = "per_layer" if trace else "end_to_end"
    named = {m["name"]: m["unit"] for m in run.manifest()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_digest_fails_every_broadcast(name):
    outcome = run_once(name, 2012, tiny=True)
    attempted, failed, problems = run.judge([outcome], expected="0" * 64)
    assert failed == attempted > 0 and problems
    assert run.judge([outcome], expected=outcome["digest"])[1] == 0


def test_disagreeing_runs_fail_without_a_committed_digest():
    outcome = run_once("exact-ratio", 2012, tiny=True)
    other = {**outcome, "digest": "0" * 64}
    attempted, failed, _ = run.judge([outcome, other], expected=None)
    assert failed == attempted == 2 * outcome["attempted"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_self_times_sum_to_traced_wall(name):
    from repro.sim import broadcast

    before = broadcast.run_broadcast
    outcome = run_once(name, 2012, trace=True, tiny=True)
    assert broadcast.run_broadcast is before  # the tracer restored every name
    times = outcome["self_times"]
    assert sum(times.values()) == pytest.approx(outcome["wall_s"], rel=1e-9)
    assert min(times.values()) > -1e-6
    layers = {key: value for key, (value, _) in outcome["layers"].items()}
    assert layers["sim.run_broadcast.calls"] == outcome["attempted"]


def test_tracing_changes_no_record_and_counts_repeat_exactly():
    plain = run_once("claims", 2012, tiny=True)
    first, second = (run_once("claims", 2012, trace=True, tiny=True) for _ in range(2))
    assert plain["digest"] == first["digest"] == second["digest"]
    counts = [
        {key: value for key, (value, unit) in run["layers"].items() if unit == "count"}
        for run in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["core.time_counter.select_color.calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "e2ebench", tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "claims", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
