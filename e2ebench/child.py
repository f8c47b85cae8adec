"""One run of one workload in this process; prints its result as JSON.

    PYTHONPATH=src python3 e2ebench/child.py --workload claims --seed 2012 [--trace] [--tiny]

The run parent (``run.py``) starts a fresh interpreter per run, so every
run pays the same imports and starts from empty caches.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from workloads import WORKLOADS, capture_sweeps, digest


def run_once(name: str, seed: int, *, trace: bool = False, tiny: bool = False) -> dict:
    """Run workload ``name`` once and describe the outcome.

    The wall time spans the workload's first call to its last result;
    imports happen before it.  A raised error fails every broadcast the
    run had not finished (``failed``); it never escapes.
    """
    workload = WORKLOADS[name]
    config = workload.grid(seed, tiny=tiny)
    expected = workload.broadcasts(config)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    error = None
    checks: list = []
    with capture_sweeps() as sweeps:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            checks = workload.target(config)
        except Exception:  # the run reports the failure, the loop goes on
            error = traceback.format_exc(limit=5)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
    records = [r for sweep in sweeps for r in sweep.records]
    problems = [error] if error else []
    if not error and len(records) != expected:
        problems.append(f"{len(records)} records, expected {expected}")
    if workload.claims_must_hold:
        problems += [f"claim fails: {c.claim} ({c.measured})" for c in checks if not c.holds]
    outcome = {
        "workload": name,
        "seed": seed,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest(sweeps, checks),
        "cells": workload.cells(config),
        "attempted": expected,
        "failed": expected - len(records) if error else expected if problems else 0,
        "problems": problems,
        "records": {
            "sim.slots": sum(r.end_time for r in records),
            "sim.advances": sum(r.num_advances for r in records),
            "sim.transmissions": sum(r.total_transmissions for r in records),
            "sim.retransmissions": sum(r.retransmissions for r in records),
        },
    }
    if tracer is not None:
        from tracer import LAYER_METRICS

        values = {**tracer.metrics(wall), **outcome["records"]}
        outcome["layers"] = {key: (values[key], unit) for key, unit in LAYER_METRICS.items()}
        outcome["self_times"] = tracer.self_times(wall)
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    outcome = run_once(args.workload, args.seed, trace=args.trace, tiny=args.tiny)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
