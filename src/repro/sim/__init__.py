"""Broadcast simulation: the kernel, traces, validation and metrics."""

from repro.sim.broadcast import run_broadcast
from repro.sim.energy import EnergyModel, EnergyReport, energy_of_broadcast
from repro.sim.engine import SimulationTimeout, simulate
from repro.sim.links import (
    LINK_MODELS,
    IndependentLossLinks,
    LinkModel,
    ReliableLinks,
    build_link_model,
    link_model_names,
)
from repro.sim.metrics import (
    BroadcastMetrics,
    MultiBroadcastMetrics,
    improvement_percent,
)
from repro.sim.render import render_schedule_timeline, render_topology_ascii
from repro.sim.replay import ReplayPolicy
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.sim.validation import (
    ScheduleViolation,
    assert_valid,
    validate_broadcast,
    validate_multi_broadcast,
)

__all__ = [
    "BroadcastMetrics",
    "BroadcastResult",
    "EnergyModel",
    "EnergyReport",
    "IndependentLossLinks",
    "LINK_MODELS",
    "LinkModel",
    "MultiBroadcastMetrics",
    "MultiBroadcastResult",
    "ReliableLinks",
    "ReplayPolicy",
    "ScheduleViolation",
    "SimulationTimeout",
    "assert_valid",
    "build_link_model",
    "energy_of_broadcast",
    "link_model_names",
    "improvement_percent",
    "render_schedule_timeline",
    "render_topology_ascii",
    "run_broadcast",
    "simulate",
    "validate_broadcast",
    "validate_multi_broadcast",
]
