"""The lightweight estimation 4-tuple ``E`` (Section IV-E, Algorithm 2).

Each node ``u`` carries ``E_i(u)`` for the four quadrants ``Q_i(u)``: an
estimate of the remaining relay work (hop distance, or cycle-waiting time in
the duty-cycle system) from ``u`` to the *edge of the network* in that
quadrant.  The E-model scheduler (Eq. 10) then selects, among the greedy
colour classes, the colour containing the node with the **largest** relevant
estimate — "the longer the path in expectation, the earlier the relay must
be selected and initiated in the pipeline process".

Construction (Algorithm 2)
--------------------------
1.  Identify the network edge (convex hull + boundary construction; see
    :mod:`repro.network.boundary` for the documented substitution).
2.  Each edge node with no neighbour in quadrant ``i`` seeds ``E_i = 0``;
    every other entry starts at infinity.
3.  Relax ``E_i(u) = w(u, v) + min_{v ∈ Q_i(u) ∩ N(u)} E_i(v)`` until the
    fixpoint (Eq. 9 with ``w = 1`` in the synchronous system, Eq. 11 with
    the cycle-waiting-time weight in the duty-cycle system).
4.  Local-minimum repair: any node still at infinity whose quadrant ``i`` is
    empty becomes a zero seed, and the relaxation runs once more.

Because the quadrant successor relation is strictly monotone in one
coordinate (``Q_1`` neighbours have strictly larger x, ``Q_2`` strictly
larger y, ...), each relaxation is a single sweep over the nodes in sorted
coordinate order — O(n log n + m) per quadrant, and O(1) information
exchanges per node as Theorem 3 requires.  The quadrant members come from
the topology's :func:`~repro.network.quadrant.quadrant_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Mapping

import numpy as np

from repro.dutycycle.cwt import expected_cwt
from repro.dutycycle.schedule import WakeupSchedule
from repro.network.boundary import boundary_nodes
from repro.network.quadrant import QUADRANTS, quadrant_table
from repro.network.topology import WSNTopology

__all__ = ["EdgeEstimate", "build_edge_estimate"]


#: Sweep key per quadrant — (coordinate, sign) — guaranteeing that every
#: quadrant-i neighbour of a node is processed before the node itself (see
#: module docstring): descending x, descending y, ascending x, ascending y.
_SWEEP_ORDER: dict[int, tuple[int, float]] = {1: (0, -1.0), 2: (1, -1.0), 3: (0, 1.0), 4: (1, 1.0)}


@dataclass(frozen=True)
class EdgeEstimate:
    """The computed 4-tuples ``E_i(u)`` plus bookkeeping for Eq. (10).

    Attributes
    ----------
    values:
        ``values[u][i-1]`` is ``E_i(u)``; entries are floats (hop counts in
        the synchronous system, expected slots in the duty-cycle system).
    mode:
        ``"sync"`` or ``"duty"`` (which weight was used).
    update_count:
        Total number of value updates performed during construction — the
        quantity Theorem 3 bounds by ``4 |N|``.
    """

    values: Mapping[int, tuple[float, float, float, float]]
    mode: Literal["sync", "duty"]
    update_count: int

    def value(self, node_id: int, quadrant: int) -> float:
        """``E_quadrant(node_id)``."""
        if quadrant not in QUADRANTS:
            raise ValueError(f"quadrant must be in {QUADRANTS}, got {quadrant}")
        return self.values[node_id][quadrant - 1]

    def node_score(
        self,
        topology: WSNTopology,
        node_id: int,
        covered: frozenset[int] | set[int],
    ) -> float:
        """Largest estimate over quadrants where ``node_id`` still has work.

        Eq. (10) only compares estimates for quadrants containing uncovered
        neighbours (``N(u) ∩ Q_k(u) ∩ W̄ ≠ ∅``); with no such quadrant the
        node contributes ``-inf`` (it cannot be the bottleneck).
        """
        return self.color_score(topology, (node_id,), covered)

    def color_score(
        self,
        topology: WSNTopology,
        color: Iterable[int],
        covered: frozenset[int] | set[int],
    ) -> float:
        """The colour's Eq.-(10) score: the max node score over its members."""
        uncovered = topology.full_mask & ~topology.mask_from_nodes(covered)
        return self.color_score_mask(topology, topology.mask_from_nodes(color), uncovered)

    def color_score_mask(self, topology: WSNTopology, color: int, uncovered: int) -> float:
        """:meth:`color_score` for a colour and an uncovered set given as masks."""
        quadrants = quadrant_table(topology).masks
        ids = topology.node_ids
        best = -math.inf
        while color:
            low = color & -color
            color ^= low
            index = low.bit_length() - 1
            for members, value in zip(quadrants[index], self.values[ids[index]]):
                if members & uncovered and value > best:
                    best = value
        return best


def _edge_weight(
    schedule: WakeupSchedule | None,
    weight: Literal["expected", "unit"],
) -> float:
    if schedule is None or weight == "unit":
        return 1.0
    return expected_cwt(schedule.rate)


def build_edge_estimate(
    topology: WSNTopology,
    schedule: WakeupSchedule | None = None,
    *,
    weight: Literal["expected", "unit"] = "expected",
    boundary: Iterable[int] | None = None,
) -> EdgeEstimate:
    """Run Algorithm 2 and return the resulting :class:`EdgeEstimate`.

    Parameters
    ----------
    topology:
        The network.
    schedule:
        When given, the duty-cycle weights of Eq. (11) are used (the
        per-hop cost becomes the expected cycle waiting time); otherwise
        the synchronous Eq. (9) applies.
    weight:
        ``"expected"`` uses the analytic expectation ``(r + 1) / 2`` as the
        proactive CWT weight; ``"unit"`` forces hop counting even in the
        duty-cycle system (used by the weight-choice ablation).
    boundary:
        Override the network-edge node set (defaults to
        :func:`repro.network.boundary.boundary_nodes`).
    """
    mode: Literal["sync", "duty"] = "duty" if schedule is not None else "sync"
    step = _edge_weight(schedule, weight)
    edge_nodes = frozenset(boundary) if boundary is not None else boundary_nodes(topology)

    estimates: dict[int, list[float]] = {
        u: [math.inf] * 4 for u in topology.node_ids
    }
    neighbors = quadrant_table(topology).members
    ids = topology.node_ids
    positions = topology.positions.reshape(len(ids), 2)
    # Stable sorts, so ties keep node-id order.
    sweeps = {
        quadrant: [ids[i] for i in np.argsort(sign * positions[:, axis], kind="stable")]
        for quadrant, (axis, sign) in _SWEEP_ORDER.items()
    }
    updates = 0

    def seed(eligible: Callable[[int], bool]) -> int:
        count = 0
        for u in ids:
            for quadrant in QUADRANTS:
                if math.isinf(estimates[u][quadrant - 1]) and eligible(u):
                    if not neighbors[u][quadrant - 1]:
                        estimates[u][quadrant - 1] = 0.0
                        count += 1
        return count

    def relax() -> int:
        count = 0
        for quadrant in QUADRANTS:
            for u in sweeps[quadrant]:
                if not math.isinf(estimates[u][quadrant - 1]):
                    continue
                members = neighbors[u][quadrant - 1]
                if not members:
                    continue
                best = min(estimates[v][quadrant - 1] for v in members)
                if not math.isinf(best):
                    estimates[u][quadrant - 1] = step + best
                    count += 1
        return count

    # Phase 1: seeds restricted to the network edge, then one full sweep.
    updates += seed(lambda u: u in edge_nodes)
    updates += relax()
    # Phase 2 (local-minimum repair): interior nodes with an empty quadrant
    # become seeds, then one more sweep resolves the remaining entries.
    updates += seed(lambda u: True)
    updates += relax()

    values = {u: tuple(vals) for u, vals in estimates.items()}
    return EdgeEstimate(values=values, mode=mode, update_count=updates)
