"""Hypothesis strategies and conformance fixtures shared by the property tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.network.topology import WSNTopology
from repro.sim.links import LINK_MODELS, build_link_model

# Connected-UDG generation rejects disconnected draws, which trips the
# default filter-rate health check on small node counts; the rejection rate
# is expected and harmless for these structural properties.
settings.register_profile(
    "repro",
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("repro")


@st.composite
def udg_topologies(draw, min_nodes: int = 4, max_nodes: int = 18, connected: bool = True):
    """Random connected unit-disc-graph topologies on a small area.

    Positions are drawn on a coarse grid (two decimals) to avoid
    degenerate floating-point edge cases; the radius is chosen large enough
    that connectivity is common, and disconnected draws are rejected via
    ``hypothesis.assume``-style filtering in the caller when required.
    """
    from hypothesis import assume

    count = draw(st.integers(min_nodes, max_nodes))
    side = 7.0
    coords = draw(
        st.lists(
            st.tuples(
                st.integers(0, 70).map(lambda v: v * side / 70),
                st.integers(0, 70).map(lambda v: v * side / 70),
            ),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    radius = draw(st.sampled_from([3.0, 4.0, 5.0]))
    topology = WSNTopology.from_positions(coords, radius=radius)
    if connected:
        assume(topology.is_connected())
    return topology


@st.composite
def topologies_with_source(draw, **kwargs):
    """A connected topology plus a source node drawn from it."""
    topology = draw(udg_topologies(**kwargs))
    source = draw(st.sampled_from(sorted(topology.node_ids)))
    return topology, source


@st.composite
def coverage_states(draw, **kwargs):
    """A connected topology plus a covered set that grew from a source by BFS.

    Mirrors how real broadcast states look: the covered set is always
    connected and contains the source, which is what the colouring engine
    encounters in practice.
    """
    topology, source = draw(topologies_with_source(**kwargs))
    distances = topology.hop_distances(source)
    order = sorted(distances, key=lambda u: (distances[u], u))
    prefix = draw(st.integers(1, len(order)))
    covered = frozenset(order[:prefix])
    return topology, source, covered


def is_power_of_two_area(value: float) -> bool:  # pragma: no cover - helper
    return math.isfinite(value)


# ---------------------------------------------------------------------------
# Conformance fixtures
#
# The conformance suites are parameterized over the link-model *registry*
# (not a hand-written name list), so registering a new link model
# automatically enrolls it in the whole matrix.

#: Loss probability used whenever a conformance run needs a lossy model;
#: high enough that failed deliveries actually occur on small topologies.
CONFORMANCE_LOSS = 0.25


@pytest.fixture(params=sorted(LINK_MODELS))
def link_model_name(request) -> str:
    """Every registered link model name."""
    return request.param


def conformance_link_model(name: str, seed: int = 0):
    """A concrete link model for a conformance run.

    The lossy models get a fixed, test-controlled seed: traces are a pure
    function of (model, seed), so repeated runs with one seed must agree.
    """
    loss = 0.0 if name == "reliable" else CONFORMANCE_LOSS
    return build_link_model(name, loss_probability=loss, seed=seed)


# ---------------------------------------------------------------------------
# Fabric fault-injection harness
#
# The fixtures below are the fault vocabulary of the fabric suites
# (test_fabric_faults.py, test_fabric_lease_fuzz.py): a manual clock that
# only moves when a test says so, a transport wrapper that drops / delays /
# duplicates messages on a seeded schedule, and a worker that crashes at
# precise points of its claim-simulate-post loop.  Every fault decision
# comes from a seeded ``random.Random``, so a failing schedule replays
# exactly from its seed.


class ManualClock:
    """A monotonic clock that advances only on request.

    Injected as ``LeaseQueue(clock=...)`` and as workers' ``sleep=`` (via
    :meth:`advance`), it makes lease expiry a deterministic function of the
    test script rather than of wall time.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"the clock only moves forward, got {seconds}")
        self.now += seconds


class FlakyTransport:
    """A fault-injecting wrapper around any fabric transport.

    Each request draws a fixed number of values from the seeded RNG (so
    fault schedules are a pure function of the seed, independent of which
    faults fire) and then either:

    * delivers normally,
    * **drops the request** (raises before the coordinator sees it),
    * **delays** it (advances the manual clock past the lease TTL before
      delivery — the slow-worker / lease-expiry schedule),
    * **duplicates** it (delivers twice, returning the second response —
      the at-least-once schedule), or
    * **drops the response** (delivers, then raises — the worker retries a
      result the coordinator already committed).

    Probabilities are per fault; whatever remains is a normal delivery.
    """

    def __init__(
        self,
        inner,
        rng,
        clock: ManualClock,
        *,
        drop_request: float = 0.0,
        drop_response: float = 0.0,
        duplicate: float = 0.0,
        delay: float = 0.0,
        delay_by: float = 0.0,
    ) -> None:
        from repro.fabric import TransportError

        self._inner = inner
        self._rng = rng
        self._clock = clock
        self._drop_request = drop_request
        self._drop_response = drop_response
        self._duplicate = duplicate
        self._delay = delay
        self._delay_by = delay_by
        self._error = TransportError
        self.faults: dict[str, int] = {
            "drop_request": 0,
            "drop_response": 0,
            "duplicate": 0,
            "delay": 0,
        }

    def request(self, action: str, payload: dict) -> dict:
        # Fixed draw count per request: the schedule depends only on the
        # seed and the request sequence, never on which branches fire.
        draws = [self._rng.random() for _ in range(4)]
        if draws[0] < self._drop_request:
            self.faults["drop_request"] += 1
            raise self._error(f"injected: dropped {action} request")
        if draws[1] < self._delay:
            self.faults["delay"] += 1
            self._clock.advance(self._delay_by)
        response = self._inner.request(action, payload)
        if draws[2] < self._duplicate:
            self.faults["duplicate"] += 1
            response = self._inner.request(action, payload)
        if draws[3] < self._drop_response:
            self.faults["drop_response"] += 1
            raise self._error(f"injected: dropped {action} response")
        return response

    def close(self) -> None:
        self._inner.close()


def make_flaky_worker_class():
    """Build ``FlakyWorker`` lazily so importing conftest stays cheap."""
    from repro.fabric import FabricWorker, WorkerCrashed

    class FlakyWorker(FabricWorker):
        """A worker that crashes at seeded points of its loop.

        ``crash_after_claim`` dies holding a fresh lease (the mid-cell
        crash the lease TTL exists for); ``crash_before_post`` dies with
        the simulation done but the result unposted; ``crash_after_post``
        dies after the coordinator committed — the next worker's claim
        must still converge.  Crashes raise :class:`WorkerCrashed`, which
        the run loop never catches.
        """

        def __init__(
            self,
            transport,
            rng,
            *,
            crash_after_claim: float = 0.0,
            crash_before_post: float = 0.0,
            crash_after_post: float = 0.0,
            **kwargs,
        ) -> None:
            super().__init__(transport, **kwargs)
            self._rng = rng
            self._crash_after_claim = crash_after_claim
            self._crash_before_post = crash_before_post
            self._crash_after_post = crash_after_post

        def simulate(self, cell, grant):
            if self._rng.random() < self._crash_after_claim:
                raise WorkerCrashed(f"{self.name}: crashed holding {grant['lease']}")
            return super().simulate(cell, grant)

        def post(self, payload):
            if self._rng.random() < self._crash_before_post:
                raise WorkerCrashed(f"{self.name}: crashed before posting")
            super().post(payload)
            if self._rng.random() < self._crash_after_post:
                raise WorkerCrashed(f"{self.name}: crashed after posting")

    return FlakyWorker
