"""The broadcast kernel: one loop for both system models and any source count.

:func:`simulate` owns the simulation loop; every scheduling decision is
delegated to a :class:`repro.core.policies.SchedulingPolicy`, and every
*delivery* to a :class:`repro.sim.links.LinkModel` (reliable by default,
lossy for the §VI robustness experiments).  ``schedule=None`` selects the
round-based system (every node may relay every round); a wake-up schedule
selects the duty-cycle system (a node relays only at its wake-up slots).
The kernel enforces the paper's network model at the boundary:

* a node may only relay if it already holds the message;
* (duty-cycle) a node may only relay in a slot contained in its wake-up
  schedule ``T(u)``;
* the transmitters of a single round/slot must be mutually interference-free
  with respect to the nodes that still need the message — a policy
  returning a conflicting set is a bug and the kernel fails loudly instead
  of silently simulating an invalid schedule;
* the nodes *intended* by an advance are exactly the uncovered neighbours
  of its transmitters; the link model then decides which of them actually
  receive the message (all of them, for :class:`~repro.sim.links.ReliableLinks`).

A broadcast is ``k`` wavefronts on one timeline, one per source; the
single-source broadcast is the ``k = 1`` case, so coverage, timing and
trace recording are defined in exactly one place.  With ``k > 1`` the
wavefronts share the timeline (and the wake-up schedule) and contend for
slots under the paper's interference rules.  Each message keeps its own
covered set and its own policy instance; per slot the messages are offered
in a rotating priority order (so no message is structurally favoured) and
an advance is *deferred* — not transmitted, retried at a later slot — when
it would cross-interfere with an advance already accepted this slot:

* a node may serve at most one message per slot (transmitter or intended
  receiver of two messages → the later message waits);
* an intended receiver of one message must not be in range of another
  accepted message's transmitter (the collision would destroy both), in
  either acceptance order.

Deferral relies on the policies re-planning from their actual covered set
every slot, which is exactly the :attr:`SchedulingPolicy.loss_tolerant`
contract; ``run_broadcast`` rejects planned baselines for ``k > 1``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.advance import Advance, BroadcastState
from repro.core.policies import SchedulingPolicy
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import conflicting_pairs, receivers_of
from repro.network.topology import WSNTopology
from repro.sim.links import LinkModel, ReliableLinks
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.utils.validation import require

__all__ = ["SimulationTimeout", "simulate"]


class SimulationTimeout(RuntimeError):
    """The broadcast did not complete within the kernel's time limit."""


def _check_advance(
    topology: WSNTopology,
    advance: Advance,
    covered: frozenset[int],
    time: int,
    schedule: WakeupSchedule | None,
    check_conflicts: bool,
) -> None:
    if advance.time != time:
        raise ValueError(
            f"policy returned an advance for time {advance.time}, expected {time}"
        )
    not_covered = advance.color - covered
    if not_covered:
        raise ValueError(
            f"policy scheduled transmitters that do not hold the message: "
            f"{sorted(not_covered)}"
        )
    if schedule is not None:
        asleep = [u for u in advance.color if not schedule.is_active(u, time)]
        if asleep:
            raise ValueError(
                f"policy scheduled sleeping transmitters at slot {time}: {sorted(asleep)}"
            )
    if check_conflicts:
        conflicts = conflicting_pairs(topology, advance.color, covered)
        if conflicts:
            raise ValueError(
                f"policy scheduled conflicting transmitters at time {time}: {conflicts}"
            )
    expected = receivers_of(topology, advance.color, covered)
    if expected != advance.receivers:
        raise ValueError(
            "advance.receivers does not match the uncovered neighbours of its "
            f"transmitters at time {time}"
        )


def _default_max_time(
    topology: WSNTopology,
    schedule: WakeupSchedule | None,
    link_model: LinkModel,
    source: int,
) -> int:
    """A generous time cap for one wavefront from ``source``.

    Round-based: the hop radius times the maximum colour-clique size cannot
    exceed the number of nodes times the hop radius.  Duty-cycle: several
    times the baseline's ``17 k d`` worst case.  Both are stretched by the
    link model's expected retransmission factor.
    """
    depth = max(topology.eccentricity(source), 1)
    if schedule is None:
        return int(
            (depth * max(topology.max_degree(), 1) + depth + 8)
            * link_model.limit_stretch
        )
    # max_rate, not rate: with heterogeneous duty cycling the cap must
    # cover the sleepiest node's cycle length.
    worst_per_layer = 2 * schedule.max_rate * (max(topology.max_degree(), 1) + 2)
    return int(
        (depth * worst_per_layer + 4 * schedule.max_rate) * link_model.limit_stretch
    )


def _check_inputs(
    topology: WSNTopology,
    policies: Sequence[SchedulingPolicy],
    sources: Sequence[int],
    schedule: WakeupSchedule | None,
    start_time: int,
) -> None:
    """Reject malformed input before any slot is simulated.

    The messages are built only on failure: this runs once per broadcast,
    on the hot path of every sweep.
    """
    require(start_time >= 1, "start_time is 1-based")
    if not sources:
        raise ValueError("a broadcast needs >= 1 source")
    for source in sources:
        if source not in topology:
            raise ValueError(f"unknown source node {source}")
    if len(set(sources)) != len(sources):
        raise ValueError(f"duplicate sources: {sorted(sources)}")
    if len(policies) != len(sources):
        raise ValueError(
            f"need one policy per message: {len(policies)} policies for "
            f"{len(sources)} sources"
        )
    if schedule is not None:
        missing = set(topology.node_ids) - set(schedule.node_ids)
        if missing:
            shown = sorted(missing)
            raise ValueError(
                f"wake-up schedule missing nodes {shown[:5]}..."
                if len(shown) > 5
                else f"wake-up schedule missing nodes {shown}"
            )


def simulate(
    topology: WSNTopology,
    policies: Sequence[SchedulingPolicy],
    sources: Sequence[int],
    *,
    schedule: WakeupSchedule | None = None,
    link_model: LinkModel | None = None,
    start_time: int = 1,
    align_start: bool = False,
    max_time: int | None = None,
) -> MultiBroadcastResult:
    """Simulate ``len(sources)`` broadcasts on one timeline; return every trace.

    ``policies[i]`` schedules the message of ``sources[i]`` and must already
    be prepared (``run_broadcast`` calls each policy's ``prepare`` hook).
    ``schedule=None`` selects the round-based system.  ``align_start=True``
    (duty-cycle only) moves the start to the *earliest* wake-up slot of any
    source at or after ``start_time`` — for one source, ``t_s ∈ T(s)`` as in
    the paper's examples; the other messages simply wait for their source's
    first active slot.  ``max_time`` caps the simulated rounds/slots; it
    defaults to the worst single-wavefront bound over the sources, stretched
    by the message count (slot contention can serialise the wavefronts in
    the worst case).

    Every unfinished message's :meth:`SchedulingPolicy.next_decision_slot`
    hint is consulted each slot: when all of them promise to idle, the
    kernel jumps to the earliest hinted slot.
    """
    _check_inputs(topology, policies, sources, schedule, start_time)
    link = ReliableLinks() if link_model is None else link_model
    if schedule is not None and align_start:
        start_time = min(
            schedule.next_active_slot(source, start_time) for source in sources
        )
    k = len(sources)
    if max_time is None:
        max_time = max(
            _default_max_time(topology, schedule, link, source) for source in sources
        ) * k
    limit = start_time + max_time

    lossless = link.lossless
    link_state = None if lossless else link.make_state()
    full = topology.node_set
    check_conflicts = [getattr(policy, "interference_free", True) for policy in policies]
    covered: list[frozenset[int]] = [frozenset({source}) for source in sources]
    advances: list[list[Advance]] = [[] for _ in range(k)]
    end_times = [start_time - 1] * k
    # The rotating priority orders, one per residue of the slot index.
    rotations = [tuple((offset + j) % k for j in range(k)) for offset in range(k)]
    contended = k > 1
    pending = [m for m in range(k) if covered[m] != full]
    time = start_time

    while pending:
        # Honour the fast-forward hints before the limit check: each hint
        # promises select_advance answers None on the skipped slots, so
        # jumping is trace-preserving — but only when every unfinished
        # message makes that promise.
        hinted = None
        for m in pending:
            hint = policies[m].next_decision_slot(time)
            if hint is None:
                hinted = None
                break
            if hinted is None or hint < hinted:
                hinted = hint
        if hinted is not None and hinted > time:
            time = hinted
        if time > limit:
            spreading = ", ".join(f"{len(covered[m])}/{len(full)}" for m in pending)
            raise SimulationTimeout(
                f"broadcast did not complete by time {limit} ({len(pending)}/{k} "
                f"messages still spreading, covered {spreading} nodes); the "
                "policies, the wake-up schedule or the slot contention is not "
                "making progress"
            )
        # Slot-contention bookkeeping (k > 1): nodes engaged this slot
        # (either transmitting or intended to receive some accepted
        # message), nodes in range of an accepted transmitter, and the
        # accepted intended receivers — all as bigint masks.
        busy_mask = heard_mask = rx_mask = 0
        for m in rotations[(time - start_time) % k]:
            frontier = covered[m]
            if frontier == full:
                continue
            state = BroadcastState(
                topology=topology, covered=frontier, time=time, schedule=schedule
            )
            advance = policies[m].select_advance(state)
            if advance is None:
                continue
            _check_advance(
                topology, advance, frontier, time, schedule, check_conflicts[m]
            )
            if contended:
                color_mask = topology.mask_from_nodes(advance.color)
                recv_mask = topology.mask_from_nodes(advance.receivers)
                cand_heard = 0
                for transmitter in advance.color:
                    cand_heard |= topology.neighbor_mask(transmitter)
                if (
                    ((color_mask | recv_mask) & busy_mask)
                    or (recv_mask & heard_mask)
                    or (rx_mask & cand_heard)
                ):
                    # Cross-message contention: defer this message; its
                    # frontier is unchanged, so the policy re-plans later.
                    continue
                busy_mask |= color_mask | recv_mask
                heard_mask |= cand_heard
                rx_mask |= recv_mask
            if lossless:
                recorded = advance
                delivered = advance.receivers
            else:
                delivered = link.deliver(link_state, topology, advance, frontier)
                recorded = replace(
                    advance, receivers=delivered, intended_receivers=advance.receivers
                )
            advances[m].append(recorded)
            if delivered:
                covered[m] = frontier | delivered
                end_times[m] = time
                if covered[m] == full:
                    pending.remove(m)
        time += 1

    synchronous = schedule is None
    cycle_rate = 1 if synchronous else schedule.rate
    return MultiBroadcastResult(
        sources=tuple(int(source) for source in sources),
        start_time=start_time,
        messages=tuple(
            BroadcastResult(
                policy_name=policies[m].name,
                source=sources[m],
                start_time=start_time,
                end_time=end_times[m],
                covered=covered[m],
                advances=tuple(advances[m]),
                synchronous=synchronous,
                cycle_rate=cycle_rate,
            )
            for m in range(k)
        ),
        synchronous=synchronous,
        cycle_rate=cycle_rate,
    )
