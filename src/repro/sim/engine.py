"""Round-based and slot-based broadcast engines (the set-based kernel).

The engines own the simulation loop; every scheduling decision is delegated
to a :class:`repro.core.policies.SchedulingPolicy`, and every *delivery* to
a :class:`repro.sim.links.LinkModel` (reliable by default, lossy for the
§VI robustness experiments).  Both engines enforce the paper's network
model at the boundary:

* a node may only relay if it already holds the message;
* (slot engine) a node may only relay in a slot contained in its wake-up
  schedule ``T(u)``;
* the transmitters of a single round/slot must be mutually interference-free
  with respect to the nodes that still need the message — a policy
  returning a conflicting set is a bug and the engine fails loudly instead
  of silently simulating an invalid schedule;
* the nodes *intended* by an advance are exactly the uncovered neighbours
  of its transmitters; the link model then decides which of them actually
  receive the message (all of them, for :class:`~repro.sim.links.ReliableLinks`).

``_EngineBase._run`` is the shared broadcast kernel: one loop serves the
reliable and the lossy configurations of both system models, so there is a
single place where coverage, timing and trace recording are defined.

``_EngineBase._run_multi`` is the *multi-source* kernel behind
``run_broadcast(..., k sources)``: ``k`` concurrent wavefronts share the
timeline (and, in the slot engine, the wake-up schedule) and contend for
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

__all__ = ["SimulationTimeout", "RoundEngine", "SlotEngine"]


class SimulationTimeout(RuntimeError):
    """The broadcast did not complete within the engine's time limit."""


class _EngineBase:
    """Shared bookkeeping of both engines."""

    def __init__(self, topology: WSNTopology, link_model: LinkModel | None = None) -> None:
        self.topology = topology
        self.link_model = ReliableLinks() if link_model is None else link_model

    def _check_advance(
        self,
        advance: Advance,
        covered: frozenset[int],
        time: int,
        schedule: WakeupSchedule | None,
        *,
        check_conflicts: bool = True,
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
            conflicts = conflicting_pairs(self.topology, advance.color, covered)
            if conflicts:
                raise ValueError(
                    f"policy scheduled conflicting transmitters at time {time}: {conflicts}"
                )
        expected = receivers_of(self.topology, advance.color, covered)
        if expected != advance.receivers:
            raise ValueError(
                "advance.receivers does not match the uncovered neighbours of its "
                f"transmitters at time {time}"
            )

    def _run(
        self,
        policy: SchedulingPolicy,
        source: int,
        start_time: int,
        limit: int,
        schedule: WakeupSchedule | None,
    ) -> BroadcastResult:
        require(source in self.topology, f"unknown source node {source}")
        require(start_time >= 1, "start_time is 1-based")
        link = self.link_model
        link_state = None if link.lossless else link.make_state()
        covered: frozenset[int] = frozenset({source})
        advances: list[Advance] = []
        time = start_time
        end_time = start_time - 1
        full = self.topology.node_set

        while covered != full:
            # Honour the policy's fast-forward hint before the limit check:
            # the hint promises select_advance answers None on the skipped
            # slots, so jumping is trace-preserving.
            hinted = policy.next_decision_slot(time)
            if hinted is not None and hinted > time:
                time = hinted
            if time > limit:
                raise SimulationTimeout(
                    f"broadcast did not complete by time {limit} "
                    f"(covered {len(covered)}/{len(full)} nodes); the policy or the "
                    "wake-up schedule is not making progress"
                )
            state = BroadcastState(
                topology=self.topology,
                covered=covered,
                time=time,
                schedule=schedule,
            )
            advance = policy.select_advance(state)
            if advance is not None:
                self._check_advance(
                    advance,
                    covered,
                    time,
                    schedule,
                    check_conflicts=getattr(policy, "interference_free", True),
                )
                if link.lossless:
                    recorded = advance
                    delivered = advance.receivers
                else:
                    delivered = link.deliver(link_state, self.topology, advance, covered)
                    recorded = replace(
                        advance,
                        receivers=delivered,
                        intended_receivers=advance.receivers,
                    )
                covered = covered | delivered
                if delivered:
                    end_time = time
                advances.append(recorded)
            time += 1

        return BroadcastResult(
            policy_name=policy.name,
            source=source,
            start_time=start_time,
            end_time=max(end_time, start_time - 1),
            covered=covered,
            advances=tuple(advances),
            synchronous=schedule is None,
            cycle_rate=1 if schedule is None else schedule.rate,
        )

    def _check_multi_inputs(
        self, policies: Sequence[SchedulingPolicy], sources: Sequence[int]
    ) -> None:
        """Distinct known sources and one policy per message."""
        require(len(sources) >= 1, "a multi-source broadcast needs >= 1 source")
        require(
            len(set(sources)) == len(sources),
            f"duplicate sources: {sorted(sources)}",
        )
        for source in sources:
            require(source in self.topology, f"unknown source node {source}")
        require(
            len(policies) == len(sources),
            f"need one policy per message: {len(policies)} policies for "
            f"{len(sources)} sources",
        )

    def _run_multi(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        start_time: int,
        limit: int,
        schedule: WakeupSchedule | None,
    ) -> MultiBroadcastResult:
        # Inputs were validated by the public ``run_multi`` entry point
        # (which needs them checked before its default-limit computation).
        require(start_time >= 1, "start_time is 1-based")
        topology = self.topology
        k = len(sources)
        link = self.link_model
        link_state = None if link.lossless else link.make_state()
        full = topology.node_set
        covered: list[frozenset[int]] = [frozenset({s}) for s in sources]
        advances: list[list[Advance]] = [[] for _ in range(k)]
        end_times = [start_time - 1] * k
        time = start_time

        while any(c != full for c in covered):
            if time > limit:
                pending = sum(1 for c in covered if c != full)
                raise SimulationTimeout(
                    f"multi-source broadcast did not complete by time {limit} "
                    f"({pending}/{k} messages still spreading); the policies, "
                    "the wake-up schedule or the slot contention is not making "
                    "progress"
                )
            # Slot-contention bookkeeping: nodes engaged this slot (either
            # transmitting or intended to receive some accepted message),
            # nodes in range of an accepted transmitter, and the accepted
            # intended receivers — all as bigint masks.
            busy_mask = 0
            heard_mask = 0
            rx_mask = 0
            offset = (time - start_time) % k
            for m in ((offset + j) % k for j in range(k)):
                if covered[m] == full:
                    continue
                policy = policies[m]
                state = BroadcastState(
                    topology=topology,
                    covered=covered[m],
                    time=time,
                    schedule=schedule,
                )
                advance = policy.select_advance(state)
                if advance is None:
                    continue
                self._check_advance(
                    advance,
                    covered[m],
                    time,
                    schedule,
                    check_conflicts=getattr(policy, "interference_free", True),
                )
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
                if link.lossless:
                    recorded = advance
                    delivered = advance.receivers
                else:
                    delivered = link.deliver(link_state, topology, advance, covered[m])
                    recorded = replace(
                        advance,
                        receivers=delivered,
                        intended_receivers=advance.receivers,
                    )
                covered[m] = covered[m] | delivered
                if delivered:
                    end_times[m] = time
                advances[m].append(recorded)
                busy_mask |= color_mask | recv_mask
                heard_mask |= cand_heard
                rx_mask |= recv_mask
            time += 1

        messages = tuple(
            BroadcastResult(
                policy_name=policies[i].name,
                source=sources[i],
                start_time=start_time,
                end_time=max(end_times[i], start_time - 1),
                covered=covered[i],
                advances=tuple(advances[i]),
                synchronous=schedule is None,
                cycle_rate=1 if schedule is None else schedule.rate,
            )
            for i in range(k)
        )
        return MultiBroadcastResult(
            sources=tuple(int(s) for s in sources),
            start_time=start_time,
            messages=messages,
            synchronous=schedule is None,
            cycle_rate=1 if schedule is None else schedule.rate,
        )


class RoundEngine(_EngineBase):
    """The round-based synchronous system: every node may relay every round."""

    def run(
        self,
        policy: SchedulingPolicy,
        source: int,
        *,
        start_time: int = 1,
        max_rounds: int | None = None,
    ) -> BroadcastResult:
        """Simulate a broadcast and return its trace.

        ``max_rounds`` defaults to a generous bound derived from the
        baseline's worst case (the hop radius times the maximum colour-clique
        size cannot exceed the number of nodes times the hop radius).
        """
        require(source in self.topology, f"unknown source node {source}")
        if max_rounds is None:
            max_rounds = self._default_max_rounds(source)
        limit = start_time + max_rounds
        return self._run(policy, source, start_time, limit, schedule=None)

    def _default_max_rounds(self, source: int) -> int:
        depth = max(self.topology.eccentricity(source), 1)
        return int(
            (depth * max(self.topology.max_degree(), 1) + depth + 8)
            * self.link_model.limit_stretch
        )

    def run_multi(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        *,
        start_time: int = 1,
        max_rounds: int | None = None,
    ) -> MultiBroadcastResult:
        """Simulate ``len(sources)`` concurrent broadcasts on one timeline.

        ``max_rounds`` defaults to the worst single-source bound over the
        sources, stretched by the message count (slot contention can
        serialise the wavefronts in the worst case).
        """
        self._check_multi_inputs(policies, sources)
        if max_rounds is None:
            max_rounds = max(
                self._default_max_rounds(source) for source in sources
            ) * max(len(sources), 1)
        limit = start_time + max_rounds
        return self._run_multi(policies, sources, start_time, limit, schedule=None)


class SlotEngine(_EngineBase):
    """The asynchronous duty-cycle system: relays only at wake-up slots."""

    def __init__(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule,
        link_model: LinkModel | None = None,
    ) -> None:
        super().__init__(topology, link_model)
        missing = set(topology.node_ids) - set(schedule.node_ids)
        if missing:
            raise ValueError(
                f"wake-up schedule missing nodes {sorted(missing)[:5]}..."
                if len(missing) > 5
                else f"wake-up schedule missing nodes {sorted(missing)}"
            )
        self.schedule = schedule

    def run(
        self,
        policy: SchedulingPolicy,
        source: int,
        *,
        start_time: int = 1,
        align_start: bool = False,
        max_slots: int | None = None,
    ) -> BroadcastResult:
        """Simulate a duty-cycle broadcast.

        ``align_start=True`` moves the start to the source's first wake-up
        slot at or after ``start_time`` (so ``t_s ∈ T(s)`` as in the paper's
        examples).  ``max_slots`` defaults to several times the baseline's
        ``17 k d`` worst case.
        """
        require(source in self.topology, f"unknown source node {source}")
        if align_start:
            start_time = self.schedule.next_active_slot(source, start_time)
        if max_slots is None:
            max_slots = self._default_max_slots(source)
        limit = start_time + max_slots
        return self._run(policy, source, start_time, limit, schedule=self.schedule)

    def _default_max_slots(self, source: int) -> int:
        depth = max(self.topology.eccentricity(source), 1)
        # max_rate, not rate: with heterogeneous duty cycling the cap
        # must cover the sleepiest node's cycle length.
        worst_per_layer = 2 * self.schedule.max_rate * (
            max(self.topology.max_degree(), 1) + 2
        )
        return int(
            (depth * worst_per_layer + 4 * self.schedule.max_rate)
            * self.link_model.limit_stretch
        )

    def run_multi(
        self,
        policies: Sequence[SchedulingPolicy],
        sources: Sequence[int],
        *,
        start_time: int = 1,
        align_start: bool = False,
        max_slots: int | None = None,
    ) -> MultiBroadcastResult:
        """Simulate concurrent duty-cycle broadcasts on one shared timeline.

        ``align_start=True`` moves the shared start to the *earliest* wake-up
        slot of any source at or after ``start_time`` (the other messages
        simply wait for their source's first active slot).  ``max_slots``
        defaults to the worst single-source bound over the sources,
        stretched by the message count.
        """
        self._check_multi_inputs(policies, sources)
        if align_start:
            start_time = min(
                self.schedule.next_active_slot(source, start_time)
                for source in sources
            )
        if max_slots is None:
            max_slots = max(
                self._default_max_slots(source) for source in sources
            ) * max(len(sources), 1)
        limit = start_time + max_slots
        return self._run_multi(
            policies, sources, start_time, limit, schedule=self.schedule
        )
