"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps public names of the ``repro`` layers: module
functions on every ``repro`` module that binds them, methods on their
classes.  Each wrapped call is a span; a span's self time is its duration
minus the time of the spans it encloses, so the self times of all spans
plus the time outside every span (``experiments.runner.self_s``) sum to
the traced wall time.  :meth:`Tracer.uninstall` restores every name.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

from repro.baselines.approx17 import Approx17Policy
from repro.baselines.approx26 import Approx26Policy
from repro.core.policies import EModelPolicy, GreedyOptPolicy, OptPolicy
from repro.core.time_counter import TimeCounter
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.solvers.policies import ExactPolicy

#: Span name -> module functions it wraps, on every ``repro`` module binding them.
FUNCTION_SPANS = {
    "network.deploy": [
        ("repro.network.deployment", "deploy_uniform"),
        ("repro.scenarios.registry", "generate_scenario"),
    ],
    "dutycycle.schedule": [("repro.dutycycle.models", "build_wakeup_schedule")],
    "sim.run_broadcast": [("repro.sim.broadcast", "run_broadcast")],
    "sim.energy": [("repro.sim.energy", "energy_of_broadcast")],
    "experiments.report": [
        ("repro.experiments.report", "summary_claims"),
        ("repro.experiments.report", "ratio_claims"),
    ],
}

#: Span name -> methods it wraps.
METHOD_SPANS = {
    "network.diameter": [(WSNTopology, "diameter")],
    "dutycycle.awake_nodes": [(WakeupSchedule, "awake_nodes")],
    **{
        f"{layer}.{cls.name}.{span}": [(cls, method)]
        for layer, cls in (
            ("core", OptPolicy),
            ("core", GreedyOptPolicy),
            ("core", EModelPolicy),
            ("core", Approx17Policy),
            ("core", Approx26Policy),
            ("solvers", ExactPolicy),
        )
        for span, method in (("prepare", "prepare"), ("decide", "select_advance"))
    },
}

#: Per-layer metrics the traced run reports: name -> unit.
LAYER_METRICS = {
    "network.deploy.busy_s": "s",
    "network.deploy.calls": "count",
    "network.diameter.busy_s": "s",
    "network.diameter.calls": "count",
    "dutycycle.schedule.busy_s": "s",
    "dutycycle.awake_nodes.busy_s": "s",
    "dutycycle.awake_nodes.calls": "count",
    **{
        f"{layer}.{policy}.{metric}": unit
        for layer, policy in (
            ("core", "OPT"),
            ("core", "G-OPT"),
            ("core", "E-model"),
            ("core", "17-approx"),
            ("core", "26-approx"),
            ("solvers", "exact"),
        )
        for metric, unit in (("prepare_s", "s"), ("decide_s", "s"), ("decisions", "count"))
    },
    "core.time_counter.select_color.calls": "count",
    "core.time_counter.single_candidate.calls": "count",
    "core.time_counter.single_candidate_share": "ratio",
    "core.time_counter.expansions": "count",
    "core.time_counter.states": "count",
    "core.time_counter.memo_hits": "count",
    "sim.run_broadcast.busy_s": "s",
    "sim.run_broadcast.calls": "count",
    "sim.run_broadcast.p50_ms": "ms",
    "sim.run_broadcast.p80_ms": "ms",
    "sim.engine.self_s": "s",
    "sim.validation.busy_s": "s",
    "sim.energy.busy_s": "s",
    "sim.slots": "count",
    "sim.advances": "count",
    "sim.transmissions": "count",
    "sim.retransmissions": "count",
    "experiments.runner.self_s": "s",
    "experiments.report.busy_s": "s",
}


class Tracer:
    """In-memory spans and counters around calls into the ``repro`` layers."""

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.broadcast_s: list[float] = []  # per-call run_broadcast durations
        self.counts: Counter[str] = Counter()
        self.covered = 0.0  # time inside outermost spans
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: Counter[str] = Counter()
        self._undo: list[tuple] = []

    def _span(self, name: str, fn):
        stack, opened = self._stack, self._open
        clock = time.perf_counter
        samples = self.broadcast_s if name == "sim.run_broadcast" else None

        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            opened[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                opened[name] -= 1
                self.self_time[name] += elapsed - frame[0]
                self.calls[name] += 1
                if samples is not None:
                    samples.append(elapsed)
                if not opened[name]:  # a recursive call is busy once
                    self.busy[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.covered += elapsed

        return spanned

    def _select_color(self, fn):
        counts = self.counts

        def counted(counter, covered, time_, colors):
            colors = list(colors)
            stats = counter.stats
            before = (stats.expansions, stats.states, stats.memo_hits)
            try:
                return fn(counter, covered, time_, colors)
            finally:
                counts["select_color"] += 1
                counts["single_candidate"] += len(colors) == 1
                counts["expansions"] += stats.expansions - before[0]
                counts["states"] += stats.states - before[1]
                counts["memo_hits"] += stats.memo_hits - before[2]

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name; call :meth:`uninstall` to restore them."""
        for name, targets in FUNCTION_SPANS.items():
            for module_name, attr in targets:
                original = getattr(importlib.import_module(module_name), attr)
                wrapped = self._span(name, original)
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") and (
                        vars(module).get(attr) is original
                    ):
                        self._set(module, attr, wrapped)
        # Validation is timed where run_broadcast calls it.
        broadcast = importlib.import_module("repro.sim.broadcast")
        self._set(broadcast, "assert_valid", self._span("sim.validation", broadcast.assert_valid))
        for name, targets in METHOD_SPANS.items():
            for cls, attr in targets:
                self._set(cls, attr, self._span(name, getattr(cls, attr)))
        self._set(TimeCounter, "select_color", self._select_color(TimeCounter.select_color))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def metrics(self, wall: float) -> dict[str, float]:
        """The per-layer metrics of a traced run of ``wall`` seconds."""
        busy, calls, counts = self.busy, self.calls, self.counts
        values: dict[str, float] = {}
        for layer in ("network.deploy", "network.diameter", "dutycycle.awake_nodes"):
            values[f"{layer}.busy_s"] = busy[layer]
            values[f"{layer}.calls"] = calls[layer]
        values["dutycycle.schedule.busy_s"] = busy["dutycycle.schedule"]
        for name in METHOD_SPANS:
            layer, _, span = name.rpartition(".")
            if span == "prepare":
                values[f"{layer}.prepare_s"] = busy[name]
            elif span == "decide":
                values[f"{layer}.decide_s"] = busy[name]
                values[f"{layer}.decisions"] = calls[name]
        selects = counts["select_color"]
        values["core.time_counter.select_color.calls"] = selects
        values["core.time_counter.single_candidate.calls"] = counts["single_candidate"]
        values["core.time_counter.single_candidate_share"] = (
            counts["single_candidate"] / selects if selects else 0.0
        )
        for key in ("expansions", "states", "memo_hits"):
            values[f"core.time_counter.{key}"] = counts[key]
        deciles = statistics.quantiles(self.broadcast_s, n=10, method="inclusive")
        values["sim.run_broadcast.busy_s"] = busy["sim.run_broadcast"]
        values["sim.run_broadcast.calls"] = len(self.broadcast_s)
        values["sim.run_broadcast.p50_ms"] = 1000.0 * deciles[4]
        values["sim.run_broadcast.p80_ms"] = 1000.0 * deciles[7]
        values["sim.engine.self_s"] = self.self_time["sim.run_broadcast"]
        values["sim.validation.busy_s"] = busy["sim.validation"]
        values["sim.energy.busy_s"] = busy["sim.energy"]
        values["experiments.runner.self_s"] = wall - self.covered
        values["experiments.report.busy_s"] = busy["experiments.report"]
        return values

    def self_times(self, wall: float) -> dict[str, float]:
        """Self time of every span, plus the time outside all of them."""
        times = dict(self.self_time)
        times["experiments.runner"] = wall - self.covered
        return times


_MISSING = object()
