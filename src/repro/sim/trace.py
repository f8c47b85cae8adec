"""Broadcast traces: the full record of one simulated broadcast.

A :class:`BroadcastResult` stores every advance the policy issued, in order,
plus enough bookkeeping to recompute any metric afterwards.  The latency
definition follows the paper: the broadcast starts at ``t_s`` (the first
slot the source may transmit in) and ends at ``t_e``, the slot of the last
transmission that completes coverage; ``P(A)`` is ``t_e`` when ``t_s = 1``.
The figures sweep random sources, so :attr:`BroadcastResult.latency`
reports the elapsed rounds/slots ``t_e - t_s + 1`` which coincides with
``P(A)`` for ``t_s = 1`` and is start-time invariant otherwise.

A *multi-source* broadcast (``run_broadcast(..., sources)`` with ``k``
sources) simulates ``k`` concurrent wavefronts on one shared timeline; its
:class:`MultiBroadcastResult` wraps one complete per-message
:class:`BroadcastResult` per wavefront — each message's trace is a valid
single-source trace on its own (coverage, receivers, awake checks), while
the wrapper reports the workload-level view: the makespan (the paper's
``P(A)`` of the slowest message), per-message latencies, and the merged
advance stream that energy accounting consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.advance import Advance
from repro.network.topology import WSNTopology

__all__ = ["BroadcastResult", "MultiBroadcastResult"]


@dataclass(frozen=True)
class BroadcastResult:
    """The outcome of one simulated broadcast.

    Attributes
    ----------
    policy_name:
        Name of the scheduling policy that produced the trace.
    source:
        The broadcast source.
    start_time:
        ``t_s`` — the round/slot at which the simulation started.
    end_time:
        ``t_e`` — the round/slot of the last transmission (equals
        ``start_time - 1`` if the network had a single node and nothing was
        transmitted).
    covered:
        The final covered set (equals the node set for a completed broadcast).
    advances:
        Every advance, in chronological order.
    synchronous:
        True for the round-based system, False for the duty-cycle system.
    cycle_rate:
        The duty-cycle rate ``r`` (1 for the synchronous system).
    """

    policy_name: str
    source: int
    start_time: int
    end_time: int
    covered: frozenset[int]
    advances: tuple[Advance, ...] = field(default_factory=tuple)
    synchronous: bool = True
    cycle_rate: int = 1

    @property
    def latency(self) -> int:
        """Elapsed rounds/slots ``t_e - t_s + 1`` (the paper's ``P(A)`` for ``t_s=1``)."""
        return self.end_time - self.start_time + 1

    @property
    def num_advances(self) -> int:
        """Number of rounds/slots in which at least one relay transmitted."""
        return len(self.advances)

    @property
    def total_transmissions(self) -> int:
        """Total number of individual node transmissions."""
        return sum(len(advance.color) for advance in self.advances)

    @property
    def idle_time(self) -> int:
        """Rounds/slots in the broadcast window without any transmission."""
        return self.latency - self.num_advances

    @property
    def retransmissions(self) -> int:
        """Transmissions beyond each node's first.

        Over lossy links an uncovered node simply stays in the frontier, so
        a relay whose deliveries failed is scheduled again later; this
        counts those repeat transmissions across the whole trace.  (Frontier
        policies never retransmit over reliable links; layered baselines may
        legally transmit a node twice, so this is not strictly a loss
        metric — compare against the loss-free trace of the same policy.)
        """
        return sum(
            count - 1 for count in self.transmissions_by_node().values() if count > 1
        )

    @property
    def failed_deliveries(self) -> int:
        """Intended deliveries that failed across all advances (lossy links)."""
        return sum(advance.failed_deliveries for advance in self.advances)

    def is_complete(self, topology: WSNTopology) -> bool:
        """True iff every node of ``topology`` ended up covered."""
        return self.covered == topology.node_set

    def coverage_timeline(self) -> list[tuple[int, int]]:
        """``(time, cumulative covered count)`` after each advance.

        The initial entry accounts for the source holding the message at
        ``start_time`` before any transmission.
        """
        count = len(self.covered)
        # Reconstruct forward from the advances: start with the source only.
        timeline: list[tuple[int, int]] = [(self.start_time, 1)]
        running = 1
        for advance in self.advances:
            running += len(advance.receivers)
            timeline.append((advance.time, running))
        if running != count:  # pragma: no cover - defensive, validated elsewhere
            timeline.append((self.end_time, count))
        return timeline

    def transmissions_by_node(self) -> dict[int, int]:
        """How many times each node transmitted during the broadcast."""
        counts: dict[int, int] = {}
        for advance in self.advances:
            for node in advance.color:
                counts[node] = counts.get(node, 0) + 1
        return counts

    def summary(self) -> str:
        """A one-line human-readable summary (used by the examples)."""
        system = "rounds" if self.synchronous else f"slots (r={self.cycle_rate})"
        return (
            f"{self.policy_name}: latency={self.latency} {system}, "
            f"advances={self.num_advances}, transmissions={self.total_transmissions}"
        )


@dataclass(frozen=True)
class MultiBroadcastResult:
    """The outcome of one multi-source broadcast (``k`` concurrent messages).

    Attributes
    ----------
    sources:
        The broadcast sources, one per message (message ``i`` originates at
        ``sources[i]``).
    start_time:
        The shared ``t_s`` of every message (all wavefronts start on the
        same timeline).
    messages:
        One complete per-message :class:`BroadcastResult` per source, in
        source order.  ``messages[i].latency`` / ``messages[i].covered``
        are the per-message latency and coverage; for ``k = 1`` the single
        entry is bit-identical to the plain single-source trace.
    synchronous, cycle_rate:
        The system model, mirrored from the kernel.
    """

    sources: tuple[int, ...]
    start_time: int
    messages: tuple[BroadcastResult, ...] = field(default_factory=tuple)
    synchronous: bool = True
    cycle_rate: int = 1

    @property
    def num_messages(self) -> int:
        """Number of concurrent messages ``k``."""
        return len(self.messages)

    @property
    def end_time(self) -> int:
        """``t_e`` of the slowest message."""
        return max(
            (message.end_time for message in self.messages),
            default=self.start_time - 1,
        )

    @property
    def latency(self) -> int:
        """The makespan: elapsed rounds/slots until *every* message covered
        the network (``max_i latency_i`` on the shared timeline)."""
        return self.end_time - self.start_time + 1

    @property
    def makespan(self) -> int:
        """Alias of :attr:`latency` (the workload-level completion time)."""
        return self.latency

    @property
    def per_message_latency(self) -> tuple[int, ...]:
        """The per-message latencies, in source order."""
        return tuple(message.latency for message in self.messages)

    @property
    def advances(self) -> tuple[Advance, ...]:
        """All advances of all messages merged chronologically.

        Within one round/slot the advances keep source order (the merge is
        stable); energy and transmission accounting iterate this stream.
        """
        merged = [
            advance for message in self.messages for advance in message.advances
        ]
        merged.sort(key=lambda advance: advance.time)
        return tuple(merged)

    @property
    def num_advances(self) -> int:
        """Total advances across all messages."""
        return sum(message.num_advances for message in self.messages)

    @property
    def total_transmissions(self) -> int:
        """Total individual node transmissions across all messages."""
        return sum(message.total_transmissions for message in self.messages)

    @property
    def retransmissions(self) -> int:
        """Total per-message repeat transmissions (see
        :attr:`BroadcastResult.retransmissions`)."""
        return sum(message.retransmissions for message in self.messages)

    @property
    def failed_deliveries(self) -> int:
        """Total failed intended deliveries across all messages (lossy links)."""
        return sum(message.failed_deliveries for message in self.messages)

    def message_for(self, source: int) -> BroadcastResult:
        """The per-message trace of the message originating at ``source``."""
        for message in self.messages:
            if message.source == source:
                return message
        raise KeyError(
            f"no message originates at {source}; sources: {list(self.sources)}"
        )

    def is_complete(self, topology: WSNTopology) -> bool:
        """True iff every message covered every node of ``topology``."""
        return all(message.is_complete(topology) for message in self.messages)

    def summary(self) -> str:
        """A one-line human-readable summary (used by the examples)."""
        system = "rounds" if self.synchronous else f"slots (r={self.cycle_rate})"
        per_message = "/".join(str(lat) for lat in self.per_message_latency)
        return (
            f"{self.num_messages} messages: makespan={self.latency} {system} "
            f"(per-message {per_message}), "
            f"transmissions={self.total_transmissions}"
        )
