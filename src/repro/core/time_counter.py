"""The time counter ``M`` (Eqs. 4-8): heuristic evaluation of colour choices.

``M(W, t)`` is the earliest end round/slot of a broadcast that currently
covers ``W`` at time ``t`` and, from now on, always selects the colour whose
recursive completion time is minimal.  The OPT target evaluates ``M`` over
*every* admissible colour (Eq. 5/6); the G-OPT target restricts the
candidates to the greedy colour classes (Eq. 7/8).

Tractability
------------
The exact recursion is exponential in the number of advances.  The paper
computes ``M`` "off-line in the simulator" without describing how it is made
tractable; this implementation provides

* ``mode="exact"`` — memoised depth-first search over coverage states with a
  hard state-count budget (used in tests and on the paper's worked
  examples, where it is cheap), and
* ``mode="beam"``  — a beam search over coverage states (default width 8)
  that preserves the "evaluate each candidate colour by its recursive
  completion time" semantics while bounding work; exact and beam agree on
  every small instance we test (see ``tests/unit/test_time_counter.py`` and
  the beam-width ablation benchmark).

Two structural properties keep both searches sound:

* **Monotonicity** — a larger covered set never completes later: every
  colour admissible for ``W`` remains admissible (after dropping useless
  transmitters) for any ``W' ⊇ W``, so transmitting earlier never hurts.
  This is why the duty-cycle search may always jump to the next slot at
  which *some* frontier node is awake instead of branching over idle waits.
* **Admissible lower bound** — any schedule needs at least as many advances
  as the largest hop distance from ``W`` to an uncovered node, because one
  advance extends coverage by at most one hop.  The bound drives both the
  exact search's pruning and the beam ranking.

Every search runs on bitmasks (bit ``i`` stands for ``topology.node_ids[i]``).
A search state is the covered mask ``W`` plus a *front*: the frontier of
its parent state and the receivers of the advance that led to it, so an
expansion touches the wavefront, not all of ``W``.  In the synchronous
system every frontier node is a relay candidate and the candidates are
read off the front directly; in the duty-cycle system the state's own
frontier (covered nodes with an uncovered neighbour, awake or not) is
derived by re-checking only the receivers and the parent's frontier nodes
next to them.  Beam ties are broken exactly as on node sets: equal-size
states by ``_id_order_key``, first colours by their sorted id tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Literal

import numpy as np

from repro.core.coloring import ColorScheme, relay_candidates
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.interference import neighbor_masks, receivers_mask
from repro.network.topology import WSNTopology

__all__ = ["SearchConfig", "TimeCounter", "SearchBudgetExceeded", "UnreachableNodes"]

#: An unreachable pair of the topology's hop matrix (``-1``) read as unsigned:
#: the largest value, so it never wins a minimum over several sources.
_UNREACHABLE = np.iinfo(np.uint32).max


def _id_order_key(mask: int, width: int) -> int:
    """Sort key ordering masks of *equal size* like ``tuple(sorted(ids))``.

    Node ids are stored in ascending bit order, so of two equally large sets
    the one holding the lowest differing bit sorts first; reversing the bits
    turns that into "larger value first".  ``width`` is the number of nodes.
    """
    return -int(f"{mask:0{width}b}"[::-1], 2)


class SearchBudgetExceeded(RuntimeError):
    """Raised when the exact search exceeds its state budget.

    The caller should retry with ``mode="beam"`` (or a larger budget).
    """


class UnreachableNodes(RuntimeError):
    """Raised when uncovered nodes can never be reached (disconnected graph)."""


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of the ``M`` search.

    Attributes
    ----------
    mode:
        ``"exact"`` (memoised DFS, guaranteed optimal w.r.t. the colour
        provider) or ``"beam"`` (bounded-width search).
    beam_width:
        Number of coverage states kept per step in beam mode.
    max_states:
        State budget of the exact mode; exceeded ⇒ :class:`SearchBudgetExceeded`.
    max_slots:
        Hard horizon for duty-cycle searches, expressed as a multiple of
        ``2 r (d + 2)`` (the Theorem-1 bound); a schedule exceeding it
        indicates a modelling error rather than a legitimate schedule.
    """

    mode: Literal["exact", "beam"] = "exact"
    beam_width: int = 8
    max_states: int = 250_000
    max_slots: float = 4.0

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "beam"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.max_states < 1:
            raise ValueError(f"max_states must be >= 1, got {self.max_states}")
        if self.max_slots <= 0:
            raise ValueError(f"max_slots must be > 0, got {self.max_slots}")


@dataclass
class _SearchStats:
    """Counters exposed for tests and the ablation benchmarks."""

    expansions: int = 0
    memo_hits: int = 0
    states: int = 0

    def reset(self) -> None:
        self.expansions = 0
        self.memo_hits = 0
        self.states = 0


class TimeCounter:
    """Evaluates ``M(W, t)`` for a topology under a colour scheme.

    Parameters
    ----------
    topology:
        The network.
    schedule:
        Wake-up schedule for the duty-cycle system; ``None`` selects the
        round-based synchronous recursion (Eq. 4/5/7).  It must cover
        exactly the topology's nodes, so that its awake masks share the
        topology's bit order.
    color_scheme:
        The colour provider used *inside* the recursion: greedy for G-OPT
        (Eq. 7/8), exhaustive for OPT (Eq. 5/6).
    config:
        Search configuration (exact vs beam).
    """

    def __init__(
        self,
        topology: WSNTopology,
        schedule: WakeupSchedule | None = None,
        color_scheme: ColorScheme | None = None,
        config: SearchConfig | None = None,
    ) -> None:
        if schedule is not None and schedule.node_ids != topology.node_ids:
            raise ValueError(
                "the wake-up schedule must cover exactly the topology's nodes"
            )
        self.topology = topology
        self.schedule = schedule
        self.color_scheme = color_scheme or ColorScheme(mode="greedy")
        self.config = config or SearchConfig()
        self.stats = _SearchStats()
        self._sync_memo: dict[int, int] = {}
        self._duty_memo: dict[tuple[int, int], int] = {}
        self._hop_bounds: dict[int, int] = {}
        self._full = topology.full_mask
        self._neighbors = neighbor_masks(topology)
        # Hop bounds and reachability read the topology's hop matrix, one
        # row per covered node.
        self._hops = topology.hop_matrix.view(np.uint32)
        self._bytes = (topology.num_nodes + 7) // 8

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def completion_time(self, covered: Iterable[int], time: int) -> int:
        """``M(W, t)``: the end round/slot of the best continuation.

        For a complete ``W`` this is ``t - 1`` (the broadcast already ended
        before ``t``), matching the terminal case of Eq. (4).
        """
        covered = frozenset(covered)
        if time < 1:
            raise ValueError(f"time is 1-based, got {time}")
        covered_mask = self.topology.mask_from_nodes(covered)
        self.check_reachable_mask(covered_mask)
        return self._completion(covered_mask, (0, covered_mask), time)

    def rank_colors(
        self,
        covered: Iterable[int],
        time: int,
        colors: Iterable[frozenset[int]],
    ) -> list[tuple[frozenset[int], int]]:
        """Evaluate candidate colours by ``M(W + C_i, t + 1)``.

        Returns ``(color, completion_time)`` pairs sorted by completion
        time, breaking ties in favour of larger coverage and then the
        lexicographically smallest colour (for determinism).
        """
        covered_mask, frontier, options = self._options(covered, colors)
        return self._rank(covered_mask, frontier, time, options)

    def select_color(
        self,
        covered: Iterable[int],
        time: int,
        colors: Iterable[frozenset[int]],
    ) -> tuple[frozenset[int], int]:
        """Pick the colour to launch now, per Eq. (5)-(8).

        In ``exact`` mode every candidate colour is evaluated independently
        with the memoised recursion (identical to :meth:`rank_colors`).  In
        ``beam`` mode a *single* shared beam search is run in which each
        state remembers the first colour it committed to; the first colour
        of the earliest-completing state wins.  This preserves the "judge a
        colour by the best schedule that starts with it" semantics of the
        time counter while doing the work of one search instead of
        ``λ(W)`` searches — the approximation documented in
        ``docs/architecture.md``.
        """
        covered_mask, frontier, options = self._options(covered, colors)
        if not options:
            raise ValueError("select_color needs at least one candidate colour")
        if len(options) == 1:
            color, reach, _ = options[0]
            new_covered = covered_mask | reach
            self.check_reachable_mask(new_covered)
            return color, self._completion(new_covered, (frontier, reach), time + 1)
        if self.config.mode == "exact":
            return self._rank(covered_mask, frontier, time, options)[0]
        if self.schedule is None:
            return self._select_color_beam_sync(covered_mask, frontier, time, options)
        return self._select_color_beam_duty(covered_mask, frontier, time, options)

    def best_color(
        self, covered: Iterable[int], time: int
    ) -> tuple[frozenset[int], int] | None:
        """The colour minimising ``M`` at ``(W, t)`` and its completion time.

        Returns ``None`` when no colour is available at ``time`` (duty-cycle
        slot with no awake frontier node, or ``W`` already complete).
        """
        covered = frozenset(covered)
        covered_mask = self.topology.mask_from_nodes(covered)
        pool = covered_mask
        if self.schedule is not None:
            pool &= self.schedule.awake_mask(time)
        candidates = relay_candidates(self.topology, covered_mask, pool)
        colors = self.color_scheme.color_masks(self.topology, candidates)
        if not colors:
            return None
        nodes = self.topology.nodes_from_mask
        return self.select_color(covered, time, [nodes(color) for color, _ in colors])

    def clear_cache(self) -> None:
        """Drop memoised values (e.g. after switching deployments)."""
        self._sync_memo.clear()
        self._duty_memo.clear()
        self._hop_bounds.clear()
        self.stats.reset()

    def check_reachable(self, covered: Collection[int]) -> None:
        """Raise :class:`UnreachableNodes` if some uncovered node can never be reached."""
        self.check_reachable_mask(self.topology.mask_from_nodes(covered))

    def check_reachable_mask(self, covered: int) -> None:
        """:meth:`check_reachable` for a covered set given as a mask."""
        if covered == self._full:
            return
        distances = self._distances_from(covered)
        unreachable = np.flatnonzero(distances == _UNREACHABLE)
        if unreachable.size:
            ids = self.topology.node_ids
            raise UnreachableNodes(
                f"{unreachable.size} nodes can never receive the message "
                f"(e.g. {[ids[i] for i in unreachable[:5]]}); the topology is disconnected"
            )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _options(
        self, covered: Iterable[int], colors: Iterable[frozenset[int]]
    ) -> tuple[int, int, list[tuple[frozenset[int], int, tuple[int, ...]]]]:
        """``W``, its frontier and each colour as (colour, receivers, sorted ids)."""
        topology = self.topology
        covered_mask = topology.mask_from_nodes(covered)
        uncovered = self._full & ~covered_mask
        options = []
        for color in colors:
            color = frozenset(color)
            reach = receivers_mask(topology, color, uncovered)
            options.append((color, reach, tuple(sorted(color))))
        return covered_mask, self._frontier(covered_mask, (0, covered_mask)), options

    def _rank(
        self,
        covered: int,
        frontier: int,
        time: int,
        options: list[tuple[frozenset[int], int, tuple[int, ...]]],
    ) -> list[tuple[frozenset[int], int]]:
        ranked: list[tuple[frozenset[int], int]] = []
        for color, reach, _ in options:
            new_covered = covered | reach
            self.check_reachable_mask(new_covered)
            ranked.append((color, self._completion(new_covered, (frontier, reach), time + 1)))
        ranked.sort(key=lambda item: (item[1], -len(item[0]), tuple(sorted(item[0]))))
        return ranked

    def _completion(self, covered: int, front: tuple[int, int], time: int) -> int:
        if self.schedule is None:
            return time - 1 + self._remaining_sync(covered, front)
        return self._completion_duty(covered, front, time)

    def _frontier(self, covered: int, front: tuple[int, int]) -> int:
        """The frontier of ``W`` (covered nodes with an uncovered neighbour).

        ``front`` is ``(frontier of W - reach, reach)``.  Only the nodes of
        ``reach`` and the old frontier nodes next to them can change status.
        """
        neighbors = self._neighbors
        base, suspects = front
        if base:
            near = 0
            rest = suspects
            while rest:
                low = rest & -rest
                rest ^= low
                near |= neighbors[low.bit_length() - 1]
            suspects |= base & near
        frontier = base & ~suspects
        uncovered = self._full & ~covered
        while suspects:
            low = suspects & -suspects
            suspects ^= low
            if neighbors[low.bit_length() - 1] & uncovered:
                frontier |= low
        return frontier

    def _colors(self, covered: int, pool: int) -> list[tuple[int, int]]:
        """The colours of the relay candidates in ``pool``, as mask pairs."""
        candidates = relay_candidates(self.topology, covered, pool)
        return self.color_scheme.color_masks(self.topology, candidates)

    def _sync_colors(
        self, covered: int, front: tuple[int, int]
    ) -> tuple[int, list[tuple[int, int]]]:
        """The frontier of ``W`` and its colours, for the synchronous system.

        Every frontier node may relay, so the relay candidates of the front
        are the frontier itself.
        """
        base, reach = front
        candidates = relay_candidates(self.topology, covered, base | reach)
        frontier = 0
        for bit, _ in candidates:
            frontier |= bit
        return frontier, self.color_scheme.color_masks(self.topology, candidates)

    def _distances_from(self, covered: int) -> np.ndarray:
        """Hop distance from ``W`` to every node (``_UNREACHABLE`` if none)."""
        if not covered:
            return np.full(self.topology.num_nodes, _UNREACHABLE, dtype=np.uint32)
        rows = np.unpackbits(
            np.frombuffer(covered.to_bytes(self._bytes, "little"), dtype=np.uint8),
            count=self.topology.num_nodes,
            bitorder="little",
        ).view(bool)
        return self._hops[rows].min(axis=0)

    def _hop_lower_bound(self, covered: int) -> int:
        """Largest hop distance from ``W`` to an uncovered node (admissible).

        Memoised per state: successive decisions of one broadcast rank
        many of the same states.
        """
        bound = self._hop_bounds.get(covered)
        if bound is None:
            bound = 0
            if covered != self._full:
                distances = self._distances_from(covered)
                bound = int(distances[distances != _UNREACHABLE].max(initial=0))
            self._hop_bounds[covered] = bound
        return bound

    def _duty_schedule(self) -> WakeupSchedule:
        if self.schedule is None:
            raise RuntimeError("the duty-cycle search needs a wake-up schedule")
        return self.schedule

    def _duty_horizon(self, time: int) -> int:
        # The horizon must cover the sleepiest node's cycle, not the base rate.
        rate = self._duty_schedule().max_rate
        # d+2 measured from scratch is a safe over-estimate of the remaining
        # depth for any intermediate W.
        try:
            depth = self.topology.diameter()
        except ValueError:  # pragma: no cover - disconnected handled earlier
            depth = self.topology.num_nodes
        return time + int(self.config.max_slots * 2 * rate * (depth + 2)) + 2 * rate

    # ------------------------------------------------------------------
    # Synchronous system
    # ------------------------------------------------------------------
    def _remaining_sync(self, covered: int, front: tuple[int, int]) -> int:
        if self.config.mode == "exact":
            return self._remaining_sync_exact(covered, front)
        return self._remaining_sync_beam(covered, front)

    def _remaining_sync_exact(self, covered: int, front: tuple[int, int]) -> int:
        if covered == self._full:
            return 0
        cached = self._sync_memo.get(covered)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        if self.stats.expansions >= self.config.max_states:
            raise SearchBudgetExceeded(
                f"exact M search exceeded {self.config.max_states} expansions; "
                "use SearchConfig(mode='beam') for deployments of this size"
            )
        self.stats.expansions += 1
        frontier, colors = self._sync_colors(covered, front)
        if not colors:
            raise UnreachableNodes(
                "no admissible colour although uncovered nodes remain"
            )
        best = math.inf
        # Exploring large-coverage colours first makes the memo fill with
        # near-final states early, which prunes later branches quickly.
        expansions = sorted((reach for _, reach in colors), key=lambda r: -r.bit_count())
        seen_coverages: set[int] = set()
        for reach in expansions:
            new_covered = covered | reach
            if new_covered in seen_coverages:
                continue
            seen_coverages.add(new_covered)
            best = min(best, 1 + self._remaining_sync_exact(new_covered, (frontier, reach)))
        result = int(best)
        self._sync_memo[covered] = result
        self.stats.states = len(self._sync_memo)
        return result

    def _remaining_sync_beam(self, covered: int, front: tuple[int, int]) -> int:
        full = self._full
        if covered == full:
            return 0
        width = self.topology.num_nodes
        beam: list[tuple[int, tuple[int, int]]] = [(covered, front)]
        rounds = 0
        visited: set[int] = {covered}
        while beam:
            rounds += 1
            successors: dict[int, tuple[int, int]] = {}
            for state, state_front in beam:
                self.stats.expansions += 1
                frontier, colors = self._sync_colors(state, state_front)
                if not colors:
                    raise UnreachableNodes(
                        "no admissible colour although uncovered nodes remain"
                    )
                for _, reach in colors:
                    successors.setdefault(state | reach, (frontier, reach))
            if full in successors:
                return rounds
            fresh = [s for s in successors if s not in visited]
            if not fresh:
                # Every successor was already explored with fewer rounds; the
                # remaining beam cannot improve, fall back to the best
                # successor anyway to guarantee progress.
                fresh = list(successors)
            fresh.sort(
                key=lambda s: (self._hop_lower_bound(s), -s.bit_count(), _id_order_key(s, width))
            )
            beam = [(s, successors[s]) for s in fresh[: self.config.beam_width]]
            visited.update(s for s, _ in beam)
            self.stats.states += len(beam)
            if rounds > width + 2:
                raise RuntimeError(
                    "beam search failed to converge; this indicates a bug in "
                    "the colour provider (coverage must grow every round)"
                )
        raise UnreachableNodes("beam search exhausted without completing coverage")

    # ------------------------------------------------------------------
    # Duty-cycle system
    # ------------------------------------------------------------------
    def _completion_duty(self, covered: int, front: tuple[int, int], slot: int) -> int:
        if self.config.mode == "exact":
            return self._completion_duty_exact(covered, front, slot)
        return self._completion_duty_beam(covered, front, slot)

    def _next_decision_slot(self, frontier: int, slot: int) -> int:
        """Earliest slot >= ``slot`` at which some ``frontier`` node may send."""
        if not frontier:
            raise UnreachableNodes(
                "no frontier node exists although uncovered nodes remain"
            )
        awake_mask = self._duty_schedule().awake_mask
        while not awake_mask(slot) & frontier:
            slot += 1
        return slot

    def _completion_duty_exact(self, covered: int, front: tuple[int, int], slot: int) -> int:
        if covered == self._full:
            return slot - 1
        horizon = self._duty_horizon(slot)
        key = (covered, slot)
        cached = self._duty_memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        if self.stats.expansions >= self.config.max_states:
            raise SearchBudgetExceeded(
                f"exact M search exceeded {self.config.max_states} expansions; "
                "use SearchConfig(mode='beam') for deployments of this size"
            )
        frontier = self._frontier(covered, front)
        decision_slot = self._next_decision_slot(frontier, slot)
        if decision_slot > horizon:
            raise RuntimeError(
                "duty-cycle search exceeded its slot horizon; the wake-up "
                "schedule does not give frontier nodes sending opportunities"
            )
        self.stats.expansions += 1
        awake = self._duty_schedule().awake_mask(decision_slot)
        colors = self._colors(covered, frontier & awake)
        # ``decision_slot`` guarantees at least one awake frontier node.
        best = math.inf
        seen_coverages: set[int] = set()
        expansions = sorted((reach for _, reach in colors), key=lambda r: -r.bit_count())
        for reach in expansions:
            new_covered = covered | reach
            if new_covered in seen_coverages:
                continue
            seen_coverages.add(new_covered)
            best = min(
                best,
                self._completion_duty_exact(new_covered, (frontier, reach), decision_slot + 1),
            )
        result = int(best)
        self._duty_memo[key] = result
        self.stats.states = len(self._duty_memo)
        return result

    # ------------------------------------------------------------------
    # Shared-beam colour selection (beam mode decision making)
    # ------------------------------------------------------------------
    @staticmethod
    def _ordered(
        options: list[tuple[frozenset[int], int, tuple[int, ...]]],
    ) -> list[tuple[frozenset[int], int, tuple[int, ...]]]:
        """Colours by (most receivers, lexicographically smallest ids) first."""
        return sorted(options, key=lambda o: (-o[1].bit_count(), o[2]))

    def _prune_states(
        self,
        states: list[tuple[int, tuple[int, int], int]],
        first_ids: list[tuple[int, ...]],
    ) -> list[tuple[int, tuple[int, int], int]]:
        """Keep the ``beam_width`` most promising (coverage, front, first-colour) states.

        States are first ordered by covered-set size (cheap), then the top
        ``3 * beam_width`` are re-ranked with the admissible hop lower bound
        (a minimum over hop-matrix rows each, so only computed for the short
        list).  ``first_ids[i]`` is the sorted id tuple of first colour ``i``.
        """
        width = self.config.beam_width
        if len(states) <= width:
            return states
        states.sort(key=lambda item: (-item[0].bit_count(), first_ids[item[2]]))
        shortlist = states[: 3 * width]
        shortlist.sort(
            key=lambda item: (
                self._hop_lower_bound(item[0]),
                -item[0].bit_count(),
                first_ids[item[2]],
            )
        )
        return shortlist[:width]

    def _select_color_beam_sync(
        self,
        covered: int,
        frontier: int,
        time: int,
        options: list[tuple[frozenset[int], int, tuple[int, ...]]],
    ) -> tuple[frozenset[int], int]:
        full = self._full
        ordered = self._ordered(options)
        first_ids = [ids for _, _, ids in ordered]
        # states: (covered mask, front, index of the first colour committed to)
        beam: list[tuple[int, tuple[int, int], int]] = []
        seen: set[int] = set()
        for index, (color, reach, _) in enumerate(ordered):
            new_covered = covered | reach
            if new_covered == full:
                return color, time
            if new_covered not in seen:
                seen.add(new_covered)
                beam.append((new_covered, (frontier, reach), index))
        beam = self._prune_states(beam, first_ids)

        rounds = 1
        while beam:
            rounds += 1
            if rounds > self.topology.num_nodes + 2:
                raise RuntimeError(
                    "beam colour selection failed to converge; the colour "
                    "provider stopped making progress"
                )
            successors: dict[int, tuple[tuple[int, int], int]] = {}
            completed: list[int] = []
            for state, state_front, first in beam:
                self.stats.expansions += 1
                state_frontier, next_colors = self._sync_colors(state, state_front)
                for _, reach in next_colors:
                    new_covered = state | reach
                    if new_covered == full:
                        completed.append(first)
                        continue
                    if new_covered not in successors:
                        successors[new_covered] = ((state_frontier, reach), first)
            if completed:
                # All completions happen at the same round; tie-break by the
                # first colour's own quality (its place in ``ordered``).
                return ordered[min(completed)][0], time + rounds - 1
            beam = self._prune_states(
                [(s, f, first) for s, (f, first) in successors.items()], first_ids
            )
            self.stats.states += len(beam)
        raise UnreachableNodes("beam colour selection exhausted without completing")

    def _select_color_beam_duty(
        self,
        covered: int,
        frontier: int,
        time: int,
        options: list[tuple[frozenset[int], int, tuple[int, ...]]],
    ) -> tuple[frozenset[int], int]:
        awake_mask = self._duty_schedule().awake_mask
        full = self._full
        horizon = self._duty_horizon(time)
        ordered = self._ordered(options)
        first_ids = [ids for _, _, ids in ordered]
        # states: (covered mask, front, slot of next decision, first colour)
        beam: list[tuple[int, tuple[int, int], int, int]] = []
        best_completion = math.inf
        best_first: int | None = None
        seen: set[int] = set()
        for index, (_, reach, _) in enumerate(ordered):
            new_covered = covered | reach
            if new_covered == full:
                if time < best_completion:
                    best_completion = time
                    best_first = index
                continue
            if new_covered not in seen:
                seen.add(new_covered)
                beam.append((new_covered, (frontier, reach), time + 1, index))
        if best_first is not None:
            return ordered[best_first][0], int(best_completion)

        iterations = 0
        while beam:
            iterations += 1
            if iterations > 4 * self.topology.num_nodes + 8:
                break
            successors: dict[int, tuple[int, tuple[int, int], int]] = {}
            for state, state_front, slot, first in beam:
                if slot >= best_completion:
                    continue
                state_frontier = self._frontier(state, state_front)
                decision_slot = self._next_decision_slot(state_frontier, slot)
                if decision_slot > horizon or decision_slot >= best_completion:
                    continue
                self.stats.expansions += 1
                awake = awake_mask(decision_slot)
                for _, reach in self._colors(state, state_frontier & awake):
                    new_covered = state | reach
                    if new_covered == full:
                        if decision_slot < best_completion:
                            best_completion = decision_slot
                            best_first = first
                        continue
                    previous = successors.get(new_covered)
                    if previous is None or decision_slot + 1 < previous[0]:
                        successors[new_covered] = (
                            decision_slot + 1,
                            (state_frontier, reach),
                            first,
                        )
            candidates = [
                (state, state_front, slot, first)
                for state, (slot, state_front, first) in successors.items()
                if slot < best_completion
            ]
            candidates.sort(
                key=lambda item: (
                    item[2] + self._hop_lower_bound(item[0]),
                    -item[0].bit_count(),
                    first_ids[item[3]],
                )
            )
            beam = candidates[: self.config.beam_width]
            self.stats.states += len(beam)
        if best_first is None:
            # No completion found inside the horizon: fall back to the colour
            # with the largest immediate coverage (still a valid relay).
            return ordered[0][0], int(horizon)
        return ordered[best_first][0], int(best_completion)

    def _completion_duty_beam(self, covered: int, front: tuple[int, int], slot: int) -> int:
        awake_mask = self._duty_schedule().awake_mask
        full = self._full
        if covered == full:
            return slot - 1
        width = self.topology.num_nodes
        horizon = self._duty_horizon(slot)
        beam: list[tuple[int, tuple[int, int], int]] = [(covered, front, slot)]
        best_completion = math.inf
        iterations = 0
        while beam:
            iterations += 1
            if iterations > 4 * width + 8:
                break
            successors: dict[int, tuple[int, tuple[int, int]]] = {}
            for state, state_front, state_slot in beam:
                if state_slot >= best_completion:
                    continue
                frontier = self._frontier(state, state_front)
                decision_slot = self._next_decision_slot(frontier, state_slot)
                if decision_slot > horizon:
                    continue
                self.stats.expansions += 1
                for _, reach in self._colors(state, frontier & awake_mask(decision_slot)):
                    new_covered = state | reach
                    new_slot = decision_slot + 1
                    if new_covered == full:
                        best_completion = min(best_completion, decision_slot)
                        continue
                    previous = successors.get(new_covered)
                    if previous is None or new_slot < previous[0]:
                        successors[new_covered] = (new_slot, (frontier, reach))
            candidates = [
                (state, state_front, state_slot)
                for state, (state_slot, state_front) in successors.items()
                if state_slot < best_completion
            ]
            candidates.sort(
                key=lambda item: (
                    item[2] + self._hop_lower_bound(item[0]),
                    -item[0].bit_count(),
                    _id_order_key(item[0], width),
                )
            )
            beam = candidates[: self.config.beam_width]
            self.stats.states += len(beam)
        if math.isinf(best_completion):
            raise RuntimeError(
                "duty-cycle beam search found no completing schedule within "
                "its horizon; increase SearchConfig.max_slots"
            )
        return int(best_completion)
