"""End-to-end, layer-attributed benchmark of the shipped CLI targets.

Run from the repository root:

    python3 e2ebench/run.py --workload claims --seed 2012 --seconds 30 --trace 0

One client drives a closed loop: each run of the workload is a fresh
single interpreter (``child.py``), and the next run starts after the
previous one ends, until ``--seconds`` have passed.  ``--trace 0`` reports
the end-to-end metrics (medians over the runs); with ``--trace 1`` every
second run is traced, and the per-layer metrics are low medians over the
traced runs.  Every run's output digest must match the committed digest of
its seed (``digests.json``) and the other runs of the same seed; a run that
does not fails all its broadcasts.  The last line of standard output is one
JSON object with the result.

    python3 e2ebench/run.py --write-manifest

rewrites ``BENCHMARK.json`` and ``e2ebench/environment.json`` from the
tables in these files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("claims", "lossy-sync", "exact-ratio")
DEFAULT_SEED = 2012
HELD_OUT_SEED = 4242
RUN_SECONDS = 30
#: Fresh-interpreter CLI imports per run; their median is ``setup_s``.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

#: End-to-end metrics: name -> (unit, bound as a share of the parent's median).
END_TO_END = {
    "wall_s": ("s", 0.25),
    "setup_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.1),
}

#: Per-layer metrics measured by this file rather than by the traced run.
PARENT_LAYER_METRICS = {"setup.scipy_loaded": "bool", "trace.overhead_ratio": "ratio"}

SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import repro.experiments.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - start, int('scipy' in sys.modules))\n"
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return env


def _run(argv: list[str]) -> str:
    """Run one fresh interpreter to completion and return its last stdout line."""
    done = subprocess.run(
        [sys.executable, *argv],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{argv[:2]} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def setup_probe() -> tuple[float, int]:
    """Seconds to import the CLI and build its parser; whether scipy loaded."""
    seconds, scipy_loaded = _run(["-c", SETUP_PROBE]).split()
    return float(seconds), int(scipy_loaded)


def workload_run(name: str, seed: int, trace: bool = False, tiny: bool = False) -> dict:
    argv = [str(HERE / "child.py"), "--workload", name, "--seed", str(seed)]
    argv += ["--trace"] * trace + ["--tiny"] * tiny
    return json.loads(_run(argv))


def judge(runs: list[dict], expected: str | None) -> tuple[int, int, list[str]]:
    """Broadcasts attempted and failed over ``runs``, and what went wrong.

    A run with a digest other than the committed one (or, for a seed with
    none committed, runs that disagree) fails every broadcast it attempted.
    """
    digests = sorted({run["digest"] for run in runs})

    def wrong(run: dict) -> bool:
        return run["digest"] != expected if expected else len(digests) > 1

    problems = [p for run in runs for p in run["problems"]]
    if any(map(wrong, runs)):
        problems.append(f"output digests {digests}, expected {expected or 'one digest'}")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["attempted"] if wrong(run) else run["failed"] for run in runs)
    return attempted, failed, problems


def closed_loop(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> list[dict]:
    """Runs back to back until ``seconds`` have passed.

    With ``trace`` every second run is traced, so the loop holds at least
    one untraced and one traced run.
    """
    runs: list[dict] = []
    start = time.perf_counter()
    while len(runs) < 1 + trace or time.perf_counter() - start < seconds:
        runs.append(workload_run(name, seed, trace and len(runs) % 2 == 1, tiny))
    return runs


def _samples(values: list[float]) -> str:
    return " ".join(f"{value:.4f}" for value in values)


def environment() -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "engine": "reference",
        "workers": 1,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run: the result object the last output line carries.

    ``tiny`` shrinks the grid for the benchmark's own tests; tiny grids
    have no committed digest.
    """
    # The first import compiles the bytecode cache, which users pay once.
    _, scipy_loaded = setup_probe()
    setup = [] if trace else [setup_probe()[0] for _ in range(SETUP_SAMPLES)]
    runs = closed_loop(name, seed, seconds, trace, tiny)
    plain = [run for run in runs if "layers" not in run]
    traced = [run for run in runs if "layers" in run]
    walls = [run["wall_s"] for run in plain]
    print(f"environment: {json.dumps({**environment(), 'seed': seed})}")
    print(
        f"workload: {name} cells={runs[0]['cells']} broadcasts={runs[0]['attempted']} "
        f"untraced runs={len(plain)} traced runs={len(traced)} digest={runs[0]['digest']}"
    )
    print(f"wall_s per run: {_samples(walls)}")
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        for key, (_, unit) in traced[0]["layers"].items():
            # median_low keeps counts whole: it picks one run's value.
            values = [run["layers"][key][0] for run in traced]
            metrics[key] = (statistics.median_low(values), unit)
        metrics["setup.scipy_loaded"] = (scipy_loaded, "bool")
        metrics["trace.overhead_ratio"] = (
            statistics.median(run["wall_s"] for run in traced) / statistics.median(walls),
            "ratio",
        )
    else:
        print(f"setup_s per sample: {_samples(setup)}")
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (statistics.median(run["peak_rss_mb"] for run in plain), "MB")
    committed = json.loads((HERE / "digests.json").read_text())
    expected = None if tiny else committed[name].get(str(seed))
    attempted, failed, problems = judge(runs, expected)
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} broadcasts)")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    from tracer import LAYER_METRICS
    from workloads import WORKLOADS

    def why(w) -> str:
        config = w.grid(DEFAULT_SEED)
        return f"{w.why} ({w.cells(config)} cells, {w.broadcasts(config)} broadcasts)"

    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": why(w)} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "lower"}
            for name, unit in {**LAYER_METRICS, **PARENT_LAYER_METRICS}.items()
        ],
    }


def write_manifest() -> None:
    """Write ``BENCHMARK.json`` and ``environment.json`` from the tables."""
    sys.path[:0] = [str(HERE), "src"]
    from workloads import WORKLOADS

    Path("BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    sizes = {}
    for w in WORKLOADS.values():
        config = w.grid(DEFAULT_SEED)
        sizes[w.name] = {"cells": w.cells(config), "broadcasts": w.broadcasts(config)}
    info = {
        **environment(),
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "workloads": sizes,
    }
    (HERE / "environment.json").write_text(json.dumps(info, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    # Exit through SystemExit, so subprocess.run kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not Path("src/repro").is_dir():
        print("run from the repository root: src/repro is missing", file=sys.stderr)
        return 2
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
