"""Pseudo-random wake-up schedules ``T(u)`` for the duty-cycle system.

Section III of the paper: each node periodically turns its *sending* channel
on according to "a pseudo-random sequence in the uniform distribution with a
preset seed"; the receiving channel is always on.  With cycle rate ``r``
(slots per cycle on average), the node is active to send once per ``r``-slot
cycle, but not at a fixed offset: the active slot inside each cycle is drawn
uniformly at random.  Because the sequence is pseudo-random with a known
seed, any neighbour that learned the seed and the last active slot during
beaconing can *predict* future wake-ups — which is exactly the API exposed
here (:meth:`WakeupSchedule.next_active_slot`).

The implementation materialises wake-up slots lazily, cycle by cycle, so a
schedule can be queried arbitrarily far into the future without
pre-committing to a horizon.

Heterogeneous rates
-------------------
The paper assigns one global cycle rate ``r`` to every node.  Real
deployments are rarely that homogeneous: mains-powered backbone nodes duty
cycle aggressively while battery nodes sleep most of the time.
:class:`WakeupSchedule` therefore accepts an optional per-node ``rates``
mapping that overrides the base rate node by node; every query API
(:meth:`~WakeupSchedule.is_active`, :meth:`~WakeupSchedule.next_active_slot`,
:meth:`~WakeupSchedule.awake_nodes`, ...) is rate-agnostic.  Named rate
*assignment models* (two-tier, zipf, ...) live in
:mod:`repro.dutycycle.models`.  Worst-case bounds (simulation caps, search
horizons) must use :attr:`WakeupSchedule.max_rate` — the slowest node's
rate — rather than :attr:`WakeupSchedule.rate`, which stays the base rate.

Determinism contract: a node's wake-up stream depends only on
``(seed, node_id, its rate)``, never on the other nodes' rates, so any two
schedules built from the same seed agree on every node they share.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Mapping, Sequence

from repro.utils.rng import derive_seed, make_rng
from repro.utils.validation import require

__all__ = ["WakeupSchedule"]


class _NodeSequence:
    """Lazily generated wake-up slots for a single node."""

    __slots__ = ("_rate", "_rng", "_slots", "_slot_set", "_cycles_generated")

    def __init__(self, rate: int, seed: int) -> None:
        self._rate = rate
        self._rng = make_rng(seed)
        self._slots: list[int] = []
        self._slot_set: set[int] = set()
        self._cycles_generated = 0

    def _extend_to_slot(self, slot: int) -> None:
        """Generate cycles until the sequence covers ``slot``."""
        needed_cycles = max(self._cycles_generated, (slot // self._rate) + 2)
        while self._cycles_generated < needed_cycles:
            cycle_index = self._cycles_generated
            # Cycle k spans slots [k*r + 1, (k+1)*r]; the active slot is a
            # uniform draw within the cycle.
            offset = int(self._rng.integers(1, self._rate + 1))
            active = cycle_index * self._rate + offset
            self._slots.append(active)
            self._slot_set.add(active)
            self._cycles_generated += 1

    def is_active(self, slot: int) -> bool:
        self._extend_to_slot(slot)
        return slot in self._slot_set

    def next_active(self, slot: int) -> int:
        """The smallest active slot >= ``slot``."""
        # The cycle after ``slot``'s is generated too, so the sorted slot
        # list always holds an active slot >= ``slot``.
        self._extend_to_slot(slot + 2 * self._rate)
        return self._slots[bisect_left(self._slots, slot)]

    def active_between(self, first: int, last: int) -> list[int]:
        """Active slots in ``[first, last]``."""
        self._extend_to_slot(last)
        slots = self._slots
        return slots[bisect_left(slots, first) : bisect_right(slots, last)]


class _ExplicitSequence:
    """Wake-up slots given explicitly (used for the paper's worked examples)."""

    __slots__ = ("_rate", "_slots", "_slot_set")

    def __init__(self, rate: int, slots: Sequence[int]) -> None:
        ordered = sorted(set(int(s) for s in slots))
        require(bool(ordered), "explicit schedule needs at least one slot")
        require(ordered[0] >= 1, "slots are 1-based; got a slot < 1")
        self._rate = rate
        self._slots = ordered
        self._slot_set = set(ordered)

    def _horizon(self) -> int:
        """Length of the explicitly specified (repeating) prefix, in slots."""
        return ((self._slots[-1] - 1) // self._rate + 1) * self._rate

    def is_active(self, slot: int) -> bool:
        if slot in self._slot_set:
            return True
        # Beyond the explicit horizon the pattern repeats, which keeps
        # examples finite while still defining an infinite schedule.
        horizon = self._horizon()
        if slot > horizon:
            reduced = (slot - 1) % horizon + 1
            return reduced in self._slot_set
        return False

    def next_active(self, slot: int) -> int:
        for active in self._slots:
            if active >= slot:
                return active
        horizon = self._horizon()
        base = ((slot - 1) // horizon) * horizon
        while True:
            for active in self._slots:
                candidate = base + active
                if candidate >= slot:
                    return candidate
            base += horizon

    def active_between(self, first: int, last: int) -> list[int]:
        """Active slots in ``[first, last]``."""
        return [s for s in range(first, last + 1) if self.is_active(s)]


class WakeupSchedule:
    """Wake-up schedules for every node of a topology.

    Parameters
    ----------
    node_ids:
        The nodes to generate schedules for.
    rate:
        The base cycle rate ``r`` (paper notation): on average one sending
        opportunity every ``r`` slots.  ``rate=1`` degenerates to the
        synchronous system (every node can send every slot).
    seed:
        Base seed; each node derives an independent stream.
    explicit:
        Optional mapping ``node_id -> sequence of active slots`` overriding
        the pseudo-random generation for those nodes (used to reproduce the
        paper's Figure 2(e)/Table IV example).
    rates:
        Optional mapping ``node_id -> cycle rate`` overriding the base rate
        for those nodes (heterogeneous duty cycling; see
        :mod:`repro.dutycycle.models` for named assignment models).  Nodes
        absent from the mapping keep the base ``rate``.
    """

    def __init__(
        self,
        node_ids: Iterable[int],
        rate: int,
        *,
        seed: int | None = 0,
        explicit: Mapping[int, Sequence[int]] | None = None,
        rates: Mapping[int, int] | None = None,
    ) -> None:
        require(rate >= 1, f"cycle rate must be >= 1, got {rate}")
        self._rate = int(rate)
        self._node_ids = tuple(sorted(set(int(u) for u in node_ids)))
        base_seed = 0 if seed is None else int(seed)
        explicit = dict(explicit or {})
        unknown = set(explicit) - set(self._node_ids)
        if unknown:
            raise ValueError(f"explicit schedules for unknown nodes: {sorted(unknown)}")
        overrides = {int(u): int(r) for u, r in (rates or {}).items()}
        unknown_rates = set(overrides) - set(self._node_ids)
        if unknown_rates:
            raise ValueError(f"rates for unknown nodes: {sorted(unknown_rates)}")
        for node_id, node_rate in overrides.items():
            require(
                node_rate >= 1,
                f"cycle rate must be >= 1, got {node_rate} for node {node_id}",
            )
        self._rates: dict[int, int] = {
            u: overrides.get(u, self._rate) for u in self._node_ids
        }
        self._sequences: dict[int, _NodeSequence | _ExplicitSequence] = {}
        self._node_set = frozenset(self._node_ids)
        # slot -> every node awake at that slot: as a mask, filled a block
        # of slots at a time, and as a set, built from the mask on demand.
        self._awake_masks: dict[int, int] = {}
        self._awake_sets: dict[int, frozenset[int]] = {}
        for node_id in self._node_ids:
            node_rate = self._rates[node_id]
            if node_id in explicit:
                self._sequences[node_id] = _ExplicitSequence(node_rate, explicit[node_id])
            else:
                self._sequences[node_id] = _NodeSequence(
                    node_rate, derive_seed(base_seed, "wakeup", node_id)
                )

    # ------------------------------------------------------------------
    @property
    def rate(self) -> int:
        """The base cycle rate ``r`` (nodes without an override use it)."""
        return self._rate

    @property
    def max_rate(self) -> int:
        """The slowest node's cycle rate — use this for worst-case bounds."""
        return max(self._rates.values(), default=self._rate)

    @property
    def rates(self) -> dict[int, int]:
        """Per-node cycle rates (a copy; every node is present)."""
        return dict(self._rates)

    @property
    def is_heterogeneous(self) -> bool:
        """True iff at least two nodes have different cycle rates."""
        return len(set(self._rates.values())) > 1

    def rate_of(self, node_id: int) -> int:
        """The cycle rate of one node."""
        return self._rates[node_id]

    @property
    def node_ids(self) -> tuple[int, ...]:
        """Nodes covered by this schedule."""
        return self._node_ids

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._sequences

    def is_active(self, node_id: int, slot: int) -> bool:
        """True iff ``slot`` ∈ ``T(node_id)`` (the node may send then)."""
        if slot < 1:
            raise ValueError(f"slots are 1-based, got {slot}")
        return self._sequences[node_id].is_active(slot)

    def next_active_slot(self, node_id: int, slot: int) -> int:
        """The earliest slot >= ``slot`` at which ``node_id`` may send."""
        if slot < 1:
            raise ValueError(f"slots are 1-based, got {slot}")
        return self._sequences[node_id].next_active(slot)

    def awake_nodes(self, candidates: Iterable[int], slot: int) -> frozenset[int]:
        """Subset of ``candidates`` whose sending channel is on at ``slot``.

        The set of nodes awake at ``slot`` is computed once per slot and
        cached, so repeated queries (the engine and the time-counter search
        ask about the same slots many times) cost one set intersection.
        Raises ``KeyError`` for a candidate the schedule does not cover.
        """
        if slot < 1:
            raise ValueError(f"slots are 1-based, got {slot}")
        if not isinstance(candidates, (set, frozenset)):
            candidates = frozenset(candidates)
        if not candidates <= self._node_set:
            raise KeyError(min(candidates - self._node_set))
        awake = self._awake_sets.get(slot)
        if awake is None:
            mask = self.awake_mask(slot)
            members = []
            while mask:
                low = mask & -mask
                members.append(self._node_ids[low.bit_length() - 1])
                mask ^= low
            awake = self._awake_sets[slot] = frozenset(members)
        return awake & candidates

    def awake_mask(self, slot: int) -> int:
        """Every node awake at ``slot`` as a bitmask (cached like :meth:`awake_nodes`).

        Bit ``i`` stands for ``node_ids[i]`` — the bit order of a
        :class:`~repro.network.topology.WSNTopology` over the same nodes.
        """
        mask = self._awake_masks.get(slot)
        if mask is None:
            if slot < 1:
                raise ValueError(f"slots are 1-based, got {slot}")
            self._fill_awake(slot)
            mask = self._awake_masks[slot]
        return mask

    def _fill_awake(self, slot: int) -> None:
        """Cache who is awake in the block of ``max_rate`` slots holding ``slot``.

        One pass over each node's sorted wake-up slots serves the whole
        block, instead of asking every node about every slot.
        """
        span = self.max_rate
        first = slot - (slot - 1) % span
        masks = [0] * span
        for index, sequence in enumerate(self._sequences.values()):
            for active in sequence.active_between(first, first + span - 1):
                masks[active - first] |= 1 << index
        for offset, mask in enumerate(masks):
            self._awake_masks[first + offset] = mask

    def next_awake_slot(self, candidates: Iterable[int], slot: int) -> int | None:
        """Earliest slot >= ``slot`` at which *some* candidate is awake.

        Returns ``None`` when ``candidates`` is empty.  This is the hook the
        slot-based simulator uses to skip long stretches of idle slots
        without iterating them one by one.
        """
        best: int | None = None
        for u in candidates:
            nxt = self.next_active_slot(u, slot)
            if best is None or nxt < best:
                best = nxt
        return best

    def active_slots_until(self, node_id: int, horizon: int) -> list[int]:
        """All active slots of ``node_id`` up to and including ``horizon``."""
        if horizon < 1:
            return []
        return self._sequences[node_id].active_between(1, horizon)

    def iter_active(self, node_id: int, start: int = 1) -> Iterator[int]:
        """Yield active slots of ``node_id`` from ``start`` onwards (infinite)."""
        slot = max(1, start)
        while True:
            slot = self.next_active_slot(node_id, slot)
            yield slot
            slot += 1

    # ------------------------------------------------------------------
    @classmethod
    def synchronous(cls, node_ids: Iterable[int]) -> "WakeupSchedule":
        """A degenerate schedule where every node may send in every slot."""
        return cls(node_ids, rate=1, seed=0)

    @classmethod
    def from_explicit(
        cls, schedules: Mapping[int, Sequence[int]], rate: int
    ) -> "WakeupSchedule":
        """Build a schedule entirely from explicit per-node slot lists."""
        return cls(schedules.keys(), rate=rate, seed=0, explicit=schedules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WakeupSchedule(rate={self._rate}, nodes={len(self._node_ids)})"
