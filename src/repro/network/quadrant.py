"""Quadrant partition ``Q_i(u)`` used by the E-model (Section IV-E).

The paper's lightweight estimation attaches a 4-tuple ``E_1(u)..E_4(u)`` to
every node, one entry per quadrant with ``u`` as the origin.  The partition
convention used here is the usual counter-clockwise quadrant numbering with
half-open boundaries so that every neighbour falls in exactly one quadrant:

* ``Q_1(u)``: ``dx > 0  and dy >= 0``   (east to north, excluding north)
* ``Q_2(u)``: ``dx <= 0 and dy > 0``    (north to west, excluding west)
* ``Q_3(u)``: ``dx < 0  and dy <= 0``   (west to south, excluding south)
* ``Q_4(u)``: ``dx >= 0 and dy < 0``    (south to east, excluding east)

A node exactly at ``u``'s position would not belong to any quadrant; the
deployment generator guarantees distinct positions and the example graphs are
constructed accordingly, so this case is rejected loudly.

:func:`quadrant_table` computes ``N(u) ∩ Q_i(u)`` for every node and quadrant
in one vectorised pass over the neighbour offsets and caches it per
topology; every other query here reads that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable
from weakref import WeakKeyDictionary

import numpy as np

from repro.network.interference import neighbor_masks
from repro.network.topology import WSNTopology

__all__ = [
    "QUADRANTS",
    "QuadrantTable",
    "quadrant_index",
    "quadrant_neighbors",
    "quadrant_partition",
    "quadrant_table",
]

#: The four quadrant labels, in the order used by the 4-tuple ``E``.
QUADRANTS: tuple[int, int, int, int] = (1, 2, 3, 4)


def quadrant_index(origin: tuple[float, float], point: tuple[float, float]) -> int:
    """Return the quadrant (1-4) of ``point`` relative to ``origin``.

    Raises
    ------
    ValueError
        If ``point`` coincides with ``origin`` (no quadrant is defined).
    """
    dx = point[0] - origin[0]
    dy = point[1] - origin[1]
    if dx == 0.0 and dy == 0.0:
        raise ValueError("point coincides with origin; quadrant undefined")
    if dx > 0 and dy >= 0:
        return 1
    if dx <= 0 and dy > 0:
        return 2
    if dx < 0 and dy <= 0:
        return 3
    return 4


@dataclass(frozen=True)
class QuadrantTable:
    """``N(u) ∩ Q_i(u)`` for every node ``u`` and quadrant ``i`` of a topology.

    Attributes
    ----------
    members:
        ``members[u][i - 1]``: the neighbours of node ``u`` in quadrant ``i``.
    masks:
        The same sets as bitmasks, indexed by bit (``node_ids`` order).
    offsets:
        ``offsets[u]``: a ``(degree, 2)`` array with the ``(dx, dy)`` offset
        of every neighbour of ``u``.
    """

    members: dict[int, tuple[frozenset[int], ...]]
    masks: tuple[tuple[int, ...], ...]
    offsets: dict[int, np.ndarray]


_QUADRANT_TABLES: WeakKeyDictionary[WSNTopology, QuadrantTable] = WeakKeyDictionary()


def quadrant_table(topology: WSNTopology) -> QuadrantTable:
    """The topology's :class:`QuadrantTable`, built once and cached weakly.

    Raises ``ValueError`` when two neighbours share a position (no quadrant
    is defined, exactly as in :func:`quadrant_index`).
    """
    table = _QUADRANT_TABLES.get(topology)
    if table is None:
        table = _QUADRANT_TABLES[topology] = _build_quadrant_table(topology)
    return table


def _build_quadrant_table(topology: WSNTopology) -> QuadrantTable:
    ids = topology.node_ids
    n = len(ids)
    if not n:
        return QuadrantTable(members={}, masks=(), offsets={})
    width = (n + 7) // 8
    # Every (node, neighbour) pair, grouped by node, from the neighbour masks.
    packed = b"".join(mask.to_bytes(width, "little") for mask in neighbor_masks(topology))
    adjacency = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(n, width),
        axis=1,
        count=n,
        bitorder="little",
    ).view(bool)
    source, target = np.nonzero(adjacency)
    positions = topology.positions.reshape(n, 2)
    offsets = positions[target] - positions[source]
    dx, dy = offsets[:, 0], offsets[:, 1]
    if np.any((dx == 0.0) & (dy == 0.0)):
        raise ValueError("point coincides with origin; quadrant undefined")
    # quadrant_index's half-open boundaries, as quadrant number - 1: the
    # first three quadrants exclude each other, and the rest is Q_4.
    first = (dx > 0) & (dy >= 0)
    second = (dx <= 0) & (dy > 0)
    third = (dx < 0) & (dy <= 0)
    quadrant = 3 - 3 * first.astype(np.intp) - 2 * second - third
    inside = np.zeros((n, len(QUADRANTS), n), dtype=bool)
    inside[source, quadrant, target] = True
    rows = np.packbits(inside, axis=2, bitorder="little").tobytes()
    flat_masks = [
        int.from_bytes(rows[start : start + width], "little")
        for start in range(0, len(rows), width)
    ]
    masks = tuple(tuple(flat_masks[4 * i : 4 * i + 4]) for i in range(n))
    # Neighbour ids grouped by (node, quadrant), one slice per group.
    group = source * len(QUADRANTS) + quadrant
    grouped_ids = np.asarray(ids)[target[np.argsort(group, kind="stable")]].tolist()
    ends = np.cumsum(np.bincount(group, minlength=n * len(QUADRANTS))).tolist()
    sets = [frozenset(grouped_ids[a:b]) for a, b in zip([0, *ends[:-1]], ends)]
    members = {u: tuple(sets[4 * i : 4 * i + 4]) for i, u in enumerate(ids)}
    ends = np.cumsum(np.bincount(source, minlength=n)).tolist()
    per_node = {u: offsets[a:b] for u, a, b in zip(ids, [0, *ends[:-1]], ends)}
    return QuadrantTable(members=members, masks=masks, offsets=per_node)


def quadrant_neighbors(
    topology: WSNTopology, node_id: int, quadrant: int
) -> frozenset[int]:
    """``N(u) ∩ Q_i(u)``: neighbours of ``node_id`` lying in ``quadrant``."""
    if quadrant not in QUADRANTS:
        raise ValueError(f"quadrant must be one of {QUADRANTS}, got {quadrant}")
    return quadrant_table(topology).members[node_id][quadrant - 1]


def quadrant_partition(
    topology: WSNTopology, node_id: int, candidates: Iterable[int] | None = None
) -> dict[int, frozenset[int]]:
    """Partition ``candidates`` (default: all neighbours) into the 4 quadrants.

    ``candidates`` must be neighbours of ``node_id``; anything else raises
    ``ValueError``.
    """
    members = quadrant_table(topology).members[node_id]
    if candidates is None:
        return dict(zip(QUADRANTS, members))
    pool = frozenset(candidates)
    strangers = pool - topology.neighbors(node_id)
    if strangers:
        raise ValueError(
            f"candidates {sorted(strangers)} are not neighbours of node {node_id}"
        )
    return {q: bucket & pool for q, bucket in zip(QUADRANTS, members)}
