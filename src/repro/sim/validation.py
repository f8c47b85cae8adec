"""Independent validation of broadcast traces.

The kernel already rejects invalid advances while simulating; this module
re-checks a finished :class:`~repro.sim.trace.BroadcastResult` *from scratch*
(replaying coverage from the source) so that tests, property-based checks and
the experiment harness can assert the network-model invariants without
trusting the kernel's internal bookkeeping.  The checks are exactly the
paper's model constraints:

1.  every transmitter held the message before transmitting;
2.  (duty-cycle) every transmitter was awake in its transmission slot;
3.  transmitters of the same round/slot are mutually interference-free with
    respect to the nodes that still needed the message;
4.  the recorded receivers are exactly the uncovered neighbours of the
    transmitters — or, for a lossy trace (``lossy=True``), a *subset* of
    them, with the advance's ``intended_receivers`` matching the model's
    expected receivers exactly;
5.  coverage is complete at the end and every node received the message
    exactly once (no duplicate delivery in the trace);
6.  times are within ``[start_time, end_time]`` and strictly increasing.

Lossy traces (produced by ``run_broadcast(..., link_model=...)`` with a
lossy :class:`~repro.sim.links.LinkModel`) are validated against the
*delivered* receivers: every constraint above still holds, only the
receiver-equality of check 4 relaxes to subset-plus-intent.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import conflicting_pairs, receivers_of
from repro.network.topology import WSNTopology
from repro.sim.trace import BroadcastResult, MultiBroadcastResult

__all__ = [
    "ScheduleViolation",
    "validate_broadcast",
    "assert_valid",
    "validate_multi_broadcast",
]


class ScheduleViolation(AssertionError):
    """A broadcast trace violates the paper's network model."""


def validate_broadcast(
    topology: WSNTopology,
    result: BroadcastResult,
    *,
    schedule: WakeupSchedule | None = None,
    require_complete: bool = True,
    lossy: bool = False,
) -> list[str]:
    """Return a list of violation descriptions (empty when the trace is valid).

    ``lossy=True`` validates a trace produced over a lossy link model: the
    recorded receivers must be a subset of the model's expected receivers
    (the *delivered* subset), and any recorded ``intended_receivers`` must
    equal the expected receivers exactly.
    """
    violations: list[str] = []
    covered: set[int] = {result.source}
    delivered: dict[int, int] = {result.source: result.start_time - 1}
    previous_time = result.start_time - 1

    for index, advance in enumerate(result.advances):
        prefix = f"advance #{index} (t={advance.time})"
        if advance.time <= previous_time:
            violations.append(f"{prefix}: times not strictly increasing")
        previous_time = advance.time
        if advance.time < result.start_time or advance.time > result.end_time:
            violations.append(f"{prefix}: outside [start_time, end_time]")

        not_holding = advance.color - covered
        if not_holding:
            violations.append(
                f"{prefix}: transmitters without the message {sorted(not_holding)}"
            )
        if schedule is not None:
            asleep = [
                u for u in advance.color if not schedule.is_active(u, advance.time)
            ]
            if asleep:
                violations.append(f"{prefix}: sleeping transmitters {sorted(asleep)}")
        conflicts = conflicting_pairs(topology, advance.color, frozenset(covered))
        if conflicts:
            violations.append(f"{prefix}: conflicting transmitter pairs {conflicts}")

        expected = receivers_of(topology, advance.color, frozenset(covered))
        if lossy:
            if advance.intended_receivers is not None and (
                advance.intended_receivers != expected
            ):
                violations.append(
                    f"{prefix}: intended receivers "
                    f"{sorted(advance.intended_receivers)} differ from the "
                    f"model's {sorted(expected)}"
                )
            if not advance.receivers <= expected:
                extra = advance.receivers - expected
                violations.append(
                    f"{prefix}: delivered receivers include nodes the model "
                    f"could not reach {sorted(extra)}"
                )
        elif expected != advance.receivers:
            violations.append(
                f"{prefix}: recorded receivers {sorted(advance.receivers)} differ "
                f"from the model's {sorted(expected)}"
            )
        duplicates = advance.receivers & delivered.keys()
        if duplicates:
            violations.append(
                f"{prefix}: nodes received the message twice {sorted(duplicates)}"
            )
        for node in advance.receivers:
            delivered[node] = advance.time
        covered |= advance.receivers

    if frozenset(covered) != result.covered:
        violations.append(
            "result.covered does not match the coverage replayed from the trace"
        )
    if require_complete and frozenset(covered) != topology.node_set:
        missing = topology.node_set - covered
        violations.append(f"broadcast incomplete: {len(missing)} nodes never covered")
    if result.advances and result.end_time != result.advances[-1].time:
        violations.append(
            "end_time does not match the time of the last recorded advance"
        )
    return violations


def validate_multi_broadcast(
    topology: WSNTopology,
    result: MultiBroadcastResult,
    *,
    schedule: WakeupSchedule | None = None,
    require_complete: bool = True,
    lossy: bool = False,
) -> list[str]:
    """Validate a multi-source trace (empty list when valid).

    Two layers of checks:

    1. **Per-message validity** — every message's :class:`BroadcastResult`
       must be a valid single-source trace on its own (same checks as
       :func:`validate_broadcast`): the contention kernel defers advances
       but never bends the paper's network model for an individual
       wavefront.
    2. **Cross-message contention rules** — for every round/slot shared by
       two messages: no node serves two messages at once (transmitter or
       intended receiver), and no intended receiver of one message is in
       range of another message's transmitter (the collision would destroy
       the delivery).  These are evaluated on the *intended* receivers, so
       they hold for lossy traces too.
    """
    violations: list[str] = []
    seen_sources: set[int] = set()
    for index, message in enumerate(result.messages):
        if message.source != result.sources[index]:
            violations.append(
                f"message {index}: trace source {message.source} does not match "
                f"result.sources[{index}] = {result.sources[index]}"
            )
        if message.source in seen_sources:
            violations.append(f"message {index}: duplicate source {message.source}")
        seen_sources.add(message.source)
        if message.start_time != result.start_time:
            violations.append(
                f"message {index}: start_time {message.start_time} differs from "
                f"the shared timeline start {result.start_time}"
            )
        for violation in validate_broadcast(
            topology,
            message,
            schedule=schedule,
            require_complete=require_complete,
            lossy=lossy,
        ):
            violations.append(f"message {index} (source {message.source}): {violation}")

    if len(result.messages) < 2:
        return violations
    # Cross-message checks per shared round/slot, on the intended receivers.
    by_time: dict[int, list[tuple[int, frozenset[int], frozenset[int]]]] = defaultdict(list)
    for index, message in enumerate(result.messages):
        for advance in message.advances:
            by_time[advance.time].append((index, advance.color, advance.intended))
    for time in sorted(by_time):
        entries = by_time[time]
        if len(entries) < 2:
            continue
        for (i, color_i, recv_i), (j, color_j, recv_j) in combinations(entries, 2):
            overlap = (color_i | recv_i) & (color_j | recv_j)
            if overlap:
                violations.append(
                    f"t={time}: nodes {sorted(overlap)} serve messages {i} and "
                    f"{j} simultaneously"
                )
            mask_i = topology.mask_from_nodes(color_i)
            mask_j = topology.mask_from_nodes(color_j)
            jammed = {
                r for r in recv_i if topology.neighbor_mask(r) & mask_j
            } | {
                r for r in recv_j if topology.neighbor_mask(r) & mask_i
            }
            if jammed:
                violations.append(
                    f"t={time}: receivers {sorted(jammed)} of messages {i}/{j} "
                    "are in range of the other message's transmitters "
                    "(cross-message collision)"
                )
    return violations


def assert_valid(
    topology: WSNTopology,
    result: BroadcastResult | MultiBroadcastResult,
    *,
    schedule: WakeupSchedule | None = None,
    require_complete: bool = True,
    lossy: bool = False,
) -> None:
    """Raise :class:`ScheduleViolation` when the trace violates the model.

    A :class:`MultiBroadcastResult` is checked by
    :func:`validate_multi_broadcast`, any other trace by
    :func:`validate_broadcast`.
    """
    multi = isinstance(result, MultiBroadcastResult)
    validator = validate_multi_broadcast if multi else validate_broadcast
    violations = validator(
        topology,
        result,
        schedule=schedule,
        require_complete=require_complete,
        lossy=lossy,
    )
    if violations:
        details = "\n  - ".join(violations)
        subject = (
            f"multi-source broadcast trace ({result.num_messages} messages)"
            if multi
            else f"broadcast trace from policy {result.policy_name!r}"
        )
        raise ScheduleViolation(
            f"{subject} violates the network model:\n  - {details}"
        )
