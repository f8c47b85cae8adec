"""Seeded stdlib-``random`` fuzzing of the engines.

Hypothesis drives the structured property suites; this file adds a second,
independent randomness source — the standard library's ``random`` module
with explicit seeds — so conformance is not hostage to one generator's
corpus shape.  Each fuzz case draws a random connected UDG deployment, a
random duty cycle, a random frontier policy and a random loss probability,
then asserts two invariants:

1. **Seeded determinism** — running the same case twice returns equal
   traces.
2. **Validator cleanliness** — the trace passes
   :func:`~repro.sim.validation.validate_broadcast` (against the delivered
   receivers when lossy).

A subset of the seeds is re-run as a multi-source workload (two or three
concurrent messages from distinct fuzzed sources) under the same two
invariants, checked by
:func:`~repro.sim.validation.validate_multi_broadcast`.

All draws derive from the test's seed parameter, so a failing case replays
from its pytest id alone.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.flooding import LargestFirstPolicy
from repro.core.policies import EModelPolicy, GreedyOptPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.sim.broadcast import run_broadcast
from repro.sim.links import IndependentLossLinks
from repro.sim.validation import validate_broadcast, validate_multi_broadcast

_POLICIES = (
    ("e-model", EModelPolicy),
    ("g-opt", GreedyOptPolicy),
    ("largest-first", LargestFirstPolicy),
)


def _fuzz_topology(rng: random.Random) -> WSNTopology:
    """A random connected UDG on a small area, by rejection sampling."""
    while True:
        count = rng.randint(8, 22)
        side = 7.0
        positions = set()
        while len(positions) < count:
            positions.add(
                (round(rng.uniform(0.0, side), 2), round(rng.uniform(0.0, side), 2))
            )
        radius = rng.choice([3.0, 4.0, 5.0])
        topology = WSNTopology.from_positions(sorted(positions), radius=radius)
        if topology.is_connected():
            return topology


def _fuzz_case(seed: int):
    """Derive one complete fuzz scenario from a single stdlib-random seed."""
    rng = random.Random(seed)
    topology = _fuzz_topology(rng)
    source = rng.choice(sorted(topology.node_ids))
    duty = rng.random() < 0.6
    schedule = None
    if duty:
        schedule = WakeupSchedule(
            topology.node_ids, rate=rng.randint(1, 6), seed=rng.randrange(2**20)
        )
    name, factory = _POLICIES[rng.randrange(len(_POLICIES))]
    loss = rng.choice([0.0, 0.0, 0.15, 0.3])
    link = None if loss == 0.0 else IndependentLossLinks(loss, seed=rng.randrange(2**20))
    return topology, source, schedule, factory, link


@pytest.mark.slow_property
@pytest.mark.parametrize("seed", range(24))
def test_fuzzed_traces_are_deterministic_and_validate(seed):
    topology, source, schedule, factory, link = _fuzz_case(seed)
    kwargs = dict(
        schedule=schedule,
        align_start=schedule is not None,
        link_model=link,
    )
    first, second = (
        run_broadcast(topology, source, factory(), **kwargs) for _ in range(2)
    )
    assert second == first, f"fuzz seed {seed}: same inputs, different traces"
    assert (
        validate_broadcast(topology, first, schedule=schedule, lossy=link is not None)
        == []
    ), f"fuzz seed {seed}: trace failed validation"


@pytest.mark.slow_property
@pytest.mark.parametrize("seed", range(0, 24, 3))
def test_fuzzed_multisource_traces_are_deterministic_and_validate(seed):
    topology, source, schedule, factory, link = _fuzz_case(seed)
    rng = random.Random(seed + 10_000)
    others = sorted(topology.node_set - {source})
    sources = [source, *rng.sample(others, rng.randint(1, 2))]
    kwargs = dict(
        schedule=schedule,
        align_start=schedule is not None,
        link_model=link,
    )
    first, second = (
        run_broadcast(topology, sources, factory(), **kwargs) for _ in range(2)
    )
    assert second == first, f"fuzz seed {seed}: same inputs, different traces"
    assert [message.source for message in first.messages] == sources
    assert (
        validate_multi_broadcast(
            topology, first, schedule=schedule, lossy=link is not None
        )
        == []
    ), f"fuzz seed {seed}: multi-source trace failed validation"
