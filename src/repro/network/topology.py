"""WSN topology under the unit-disc-graph (UDG) model.

The paper models a WSN as a graph ``G = (N, E)`` where ``N(u)`` is the set of
neighbours within the communication radius of node ``u`` (Section III).  The
:class:`WSNTopology` class below is the single source of truth used by every
other subsystem: colouring, the time counter ``M``, the E-model construction,
the baselines, and both simulators.

Two construction paths are supported:

* :meth:`WSNTopology.from_positions` — the UDG induced by node coordinates
  and a communication radius (the path used by random deployments); and
* :meth:`WSNTopology.from_edges` — an explicit edge list with coordinates
  attached, used for the paper's hand-drawn example topologies (Figures 1
  and 2) where the adjacency is dictated by the figure rather than a radius.

Neighbourhoods are precomputed into ``frozenset`` objects at construction so
the scheduling inner loops (which query ``N(u)`` millions of times) never pay
for recomputation, following the "compute once, reuse everywhere" guidance of
the HPC Python guides.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.network.geometry import pairwise_distances
from repro.utils.validation import check_positive

__all__ = ["Node", "WSNTopology"]

NodeId = int


@dataclass(frozen=True, order=True)
class Node:
    """A sensor node: an integer identifier and a planar position.

    Attributes
    ----------
    node_id:
        Integer identifier, unique within a topology.
    x, y:
        Position in the deployment area (the paper uses feet).
    """

    node_id: NodeId
    x: float
    y: float

    @property
    def position(self) -> tuple[float, float]:
        """The (x, y) position as a tuple."""
        return (self.x, self.y)


class WSNTopology:
    """An immutable WSN topology with precomputed neighbourhoods.

    Parameters
    ----------
    nodes:
        The sensor nodes.  Identifiers must be unique.
    adjacency:
        Mapping from node id to the set of neighbour ids.  Must be symmetric
        and irreflexive.
    radius:
        The communication radius used to build the adjacency, if any.  Kept
        for reporting; ``None`` for hand-specified topologies.
    """

    __slots__ = (
        "_nodes",
        "_adjacency",
        "_radius",
        "_node_ids",
        "_positions",
        "_id_to_index",
        "_neighbor_masks",
        "_full_mask",
        "_node_set",
        "_hops",
        # Weak-referenceable so derived data (e.g. the greedy colour-class
        # cache of repro.core.coloring) can be cached per topology without
        # keeping dead topologies alive.
        "__weakref__",
    )

    def __init__(
        self,
        nodes: Iterable[Node],
        adjacency: Mapping[NodeId, Iterable[NodeId]],
        radius: float | None = None,
    ) -> None:
        node_list = sorted(nodes, key=lambda n: n.node_id)
        ids = [n.node_id for n in node_list]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node identifiers in topology")
        self._nodes: dict[NodeId, Node] = {n.node_id: n for n in node_list}
        self._node_ids: tuple[NodeId, ...] = tuple(ids)
        self._node_set: frozenset[NodeId] = frozenset(ids)
        self._id_to_index: dict[NodeId, int] = {u: i for i, u in enumerate(ids)}
        self._positions = np.array([[n.x, n.y] for n in node_list], dtype=float)
        self._radius = radius

        frozen: dict[NodeId, frozenset[NodeId]] = {}
        for node_id in ids:
            neighbours = frozenset(adjacency.get(node_id, ()))
            if node_id in neighbours:
                raise ValueError(f"node {node_id} listed as its own neighbour")
            unknown = neighbours - self._nodes.keys()
            if unknown:
                raise ValueError(
                    f"node {node_id} has neighbours not in the topology: {sorted(unknown)}"
                )
            frozen[node_id] = neighbours
        for u, neighbours in frozen.items():
            for v in neighbours:
                if u not in frozen[v]:
                    raise ValueError(f"adjacency is not symmetric: {u}->{v}")
        self._adjacency = frozen

        # Bitmask fast path: node sets represented as Python integers with
        # bit ``i`` standing for ``node_ids[i]``.  The scheduling inner loops
        # (conflict tests, coverage unions, frontier extraction) operate on
        # these masks, which is orders of magnitude cheaper than frozenset
        # algebra at the paper's 300-node scale.
        self._neighbor_masks: dict[NodeId, int] = {}
        for u, neighbours in frozen.items():
            mask = 0
            for v in neighbours:
                mask |= 1 << self._id_to_index[v]
            self._neighbor_masks[u] = mask
        self._full_mask = (1 << len(ids)) - 1
        self._hops: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_positions(
        cls,
        positions: Sequence[tuple[float, float]] | np.ndarray,
        radius: float,
        node_ids: Sequence[NodeId] | None = None,
    ) -> "WSNTopology":
        """Build the unit-disc graph induced by ``positions`` and ``radius``.

        Two nodes are neighbours iff their Euclidean distance is at most
        ``radius`` (inclusive, matching the UDG convention).
        """
        check_positive("radius", radius)
        positions = np.asarray(positions, dtype=float)
        count = positions.shape[0]
        if node_ids is None:
            node_ids = list(range(count))
        if len(node_ids) != count:
            raise ValueError("node_ids length must match positions length")

        nodes = [
            Node(node_id=int(node_ids[i]), x=float(positions[i, 0]), y=float(positions[i, 1]))
            for i in range(count)
        ]
        distances = pairwise_distances(positions)
        within = distances <= radius + 1e-12
        np.fill_diagonal(within, False)
        adjacency = {
            int(node_ids[i]): {int(node_ids[j]) for j in np.flatnonzero(within[i])}
            for i in range(count)
        }
        return cls(nodes, adjacency, radius=radius)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[NodeId, NodeId]],
        positions: Mapping[NodeId, tuple[float, float]],
        radius: float | None = None,
    ) -> "WSNTopology":
        """Build a topology from an explicit undirected edge list.

        Used for the paper's example figures, where the adjacency is part of
        the figure.  Every endpoint must have a position in ``positions``.
        """
        adjacency: dict[NodeId, set[NodeId]] = {u: set() for u in positions}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u not in positions or v not in positions:
                raise ValueError(f"edge ({u}, {v}) references a node without a position")
            adjacency[u].add(v)
            adjacency[v].add(u)
        nodes = [Node(node_id=u, x=float(p[0]), y=float(p[1])) for u, p in positions.items()]
        return cls(nodes, adjacency, radius=radius)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def radius(self) -> float | None:
        """The communication radius used for construction (``None`` if n/a)."""
        return self._radius

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network, |N|."""
        return len(self._node_ids)

    @property
    def num_edges(self) -> int:
        """Number of undirected links."""
        return sum(len(v) for v in self._adjacency.values()) // 2

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        """All node identifiers in ascending order."""
        return self._node_ids

    @property
    def node_set(self) -> frozenset[NodeId]:
        """All node identifiers as a frozenset (the paper's ``N``).

        Precomputed at construction: the simulation loops compare against
        it once per round/slot.
        """
        return self._node_set

    def __len__(self) -> int:
        return self.num_nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._node_ids)

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._nodes

    def node(self, node_id: NodeId) -> Node:
        """Return the :class:`Node` for ``node_id``."""
        return self._nodes[node_id]

    def position(self, node_id: NodeId) -> tuple[float, float]:
        """Return the (x, y) position of ``node_id``."""
        return self._nodes[node_id].position

    @property
    def positions(self) -> np.ndarray:
        """A read-only (n, 2) array of positions, row order = ``node_ids``."""
        view = self._positions.view()
        view.setflags(write=False)
        return view

    def neighbors(self, node_id: NodeId) -> frozenset[NodeId]:
        """The 1-hop neighbourhood ``N(u)`` (excluding ``u`` itself)."""
        return self._adjacency[node_id]

    def closed_neighbors(self, node_id: NodeId) -> frozenset[NodeId]:
        """``N(u) ∪ {u}``."""
        return self._adjacency[node_id] | {node_id}

    def degree(self, node_id: NodeId) -> int:
        """The number of neighbours of ``node_id``."""
        return len(self._adjacency[node_id])

    def max_degree(self) -> int:
        """The maximum node degree of the network."""
        return max((len(v) for v in self._adjacency.values()), default=0)

    def average_degree(self) -> float:
        """The mean node degree of the network."""
        if not self._node_ids:
            return 0.0
        return sum(len(v) for v in self._adjacency.values()) / self.num_nodes

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True iff ``u`` and ``v`` are within communication range."""
        return v in self._adjacency[u]

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Iterate over each undirected link once, as (smaller, larger)."""
        for u in self._node_ids:
            for v in self._adjacency[u]:
                if u < v:
                    yield (u, v)

    def uncovered_neighbors(
        self, node_id: NodeId, covered: frozenset[NodeId] | set[NodeId]
    ) -> frozenset[NodeId]:
        """``N(u) ∩ W̄``: the neighbours of ``u`` still missing the message."""
        return self._adjacency[node_id] - covered

    # ------------------------------------------------------------------
    # Bitmask fast path (used by the scheduling inner loops)
    # ------------------------------------------------------------------
    @property
    def full_mask(self) -> int:
        """Bitmask with one bit set per node (the whole node set ``N``)."""
        return self._full_mask

    def index_of(self, node_id: NodeId) -> int:
        """Bit index of ``node_id`` in the mask representation."""
        return self._id_to_index[node_id]

    def neighbor_mask(self, node_id: NodeId) -> int:
        """``N(u)`` as a bitmask."""
        return self._neighbor_masks[node_id]

    def mask_from_nodes(self, nodes: Iterable[NodeId]) -> int:
        """Convert an iterable of node ids to a bitmask."""
        mask = 0
        index = self._id_to_index
        for u in nodes:
            mask |= 1 << index[u]
        return mask

    def nodes_from_mask(self, mask: int) -> frozenset[NodeId]:
        """Convert a bitmask back to a frozenset of node ids."""
        ids = self._node_ids
        result = []
        while mask:
            low = mask & -mask
            result.append(ids[low.bit_length() - 1])
            mask ^= low
        return frozenset(result)

    # ------------------------------------------------------------------
    # Graph-wide queries (BFS based)
    # ------------------------------------------------------------------
    def hop_distances(self, source: NodeId) -> dict[NodeId, int]:
        """Breadth-first hop distance from ``source`` to every reachable node."""
        if source not in self._nodes:
            raise KeyError(f"unknown source node {source}")
        distances = {source: 0}
        queue: deque[NodeId] = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if v not in distances:
                    distances[v] = distances[u] + 1
                    queue.append(v)
        return distances

    def bfs_layers(self, source: NodeId) -> list[frozenset[NodeId]]:
        """Nodes grouped by hop distance: layer 0 is ``{source}``."""
        distances = self.hop_distances(source)
        if not distances:
            return []
        depth = max(distances.values())
        layers: list[set[NodeId]] = [set() for _ in range(depth + 1)]
        for node_id, dist in distances.items():
            layers[dist].add(node_id)
        return [frozenset(layer) for layer in layers]

    @property
    def hop_matrix(self) -> np.ndarray:
        """All-pairs hop distances as a read-only ``(n, n)`` int32 array.

        Entry ``(i, j)`` is the hop distance from ``node_ids[i]`` to
        ``node_ids[j]``; ``-1`` marks an unreachable pair.  The topology
        never changes, so the matrix is built once, on first use, by one
        level-synchronous BFS from every source at once (bit-parallel over
        sources, one vectorised step per BFS layer), and every hop-distance
        query (eccentricity, diameter, source vetting, the time counter's
        bounds) reads it instead of running its own BFS.
        """
        if self._hops is None:
            self._hops = self._build_hop_matrix()
        return self._hops

    def _build_hop_matrix(self) -> np.ndarray:
        n = self.num_nodes
        index = self._id_to_index
        hops = np.full((n, n), -1, dtype=np.int32)
        np.fill_diagonal(hops, 0)
        # Row i of ``reached`` is a packed bitset of the sources whose BFS has
        # reached node i.  Each layer, a node hears the union of its
        # neighbours' rows; the bits it did not have yet are the sources at
        # exactly ``depth`` hops.  Edges are grouped by listening node so the
        # union is one ``reduceat`` over all nodes with a neighbour.
        senders = [[index[v] for v in self._adjacency[u]] for u in self._node_ids]
        degree = np.array([len(row) for row in senders], dtype=np.intp)
        listeners = np.flatnonzero(degree)
        flat = np.array([v for row in senders for v in row], dtype=np.intp)
        starts = (np.cumsum(degree) - degree)[listeners]
        reached = np.packbits(np.eye(n, dtype=bool), axis=1, bitorder="little")
        depth = 0
        while flat.size:
            depth += 1
            heard = np.bitwise_or.reduceat(reached[flat], starts, axis=0)
            new = heard & ~reached[listeners]
            nodes, sources = np.nonzero(
                np.unpackbits(new, axis=1, count=n, bitorder="little")
            )
            if not nodes.size:
                break
            reached[listeners] |= new
            hops[sources, listeners[nodes]] = depth
        hops.setflags(write=False)
        return hops

    def eccentricity(self, source: NodeId) -> int:
        """Hop distance from ``source`` to the farthest *reachable* node.

        This is the quantity ``d`` of Theorem 1.  Raises if the network is
        disconnected from ``source`` (the broadcast could never finish).
        """
        if source not in self._nodes:
            raise KeyError(f"unknown source node {source}")
        row = self.hop_matrix[self._id_to_index[source]]
        missing = int(np.count_nonzero(row < 0))
        if missing:
            raise ValueError(
                f"network is disconnected: {missing} nodes unreachable from {source}"
            )
        return int(row.max())

    def diameter(self) -> int:
        """The largest eccentricity over all nodes (hop diameter).

        Raises ``ValueError`` for an empty or a disconnected network.
        """
        if not self._node_ids:
            raise ValueError("the diameter of an empty network is undefined")
        hops = self.hop_matrix
        if hops.min() < 0:
            # Every node of a disconnected network misses some node; report
            # the first one exactly as eccentricity() does.
            self.eccentricity(self._node_ids[0])
        return int(hops.max())

    def is_connected(self) -> bool:
        """True iff every node is reachable from every other node."""
        if self.num_nodes == 0:
            return True
        start = self._node_ids[0]
        return len(self.hop_distances(start)) == self.num_nodes

    # ------------------------------------------------------------------
    # Interop / reporting
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Return an equivalent :class:`networkx.Graph` (for cross-checks)."""
        import networkx as nx

        graph = nx.Graph()
        for node_id in self._node_ids:
            node = self._nodes[node_id]
            graph.add_node(node_id, pos=(node.x, node.y))
        graph.add_edges_from(self.edges())
        return graph

    def density(self, area: float | None = None) -> float:
        """Nodes per unit area.

        ``area`` defaults to the bounding-box area of the deployment, which
        matches the paper's "nodes per Sq. Ft. over a 50 x 50 Sq. Ft. area"
        when the deployment spans the full area.
        """
        if area is None:
            if self.num_nodes < 2:
                return 0.0
            mins = self._positions.min(axis=0)
            maxs = self._positions.max(axis=0)
            area = float(np.prod(np.maximum(maxs - mins, 1e-9)))
        return self.num_nodes / area

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WSNTopology(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"radius={self._radius})"
        )
