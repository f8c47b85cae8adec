"""Colour schemes over the broadcast frontier (Section IV-A, Algorithm 1).

A *colour* of the current coverage ``W`` is a set of relay candidates that
can transmit concurrently without interfering at any uncovered node
(Eq. 1).  Two colour providers are implemented:

* :func:`greedy_color_classes` — the extended greedy colour scheme of
  Algorithm 1 / Eq. (2): candidates are sorted by the number of uncovered
  receivers and packed greedily into colour classes ``C_1 .. C_λ``.  Unlike
  the classical per-BFS-layer colouring, the candidate pool is the *whole*
  frontier of ``W`` (every covered node with an uncovered neighbour), which
  is what enables the pipeline behaviour the paper exploits.
* :func:`enumerate_color_classes` — every *maximal* admissible colour
  (maximal independent sets of the conflict graph), used by the OPT target
  of Eq. (1)/(5).  Exponential in the worst case; a cap keeps the OPT
  policy usable on the paper-scale deployments (documented in
  ``docs/architecture.md``).

The duty-cycle variants (Eq. 3) are obtained by passing the set of nodes
awake at the current slot via ``awake``.

Both providers run on bitmasks (bit ``i`` stands for
``topology.node_ids[i]``): :func:`relay_candidates` computes the uncovered
mask once per state, and each colour comes out as a ``(colour, receivers)``
mask pair, the receivers being the advance ``A(W, t)`` of that colour.  The
functions taking node sets convert to and from that core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence
from weakref import WeakKeyDictionary

from repro.network.interference import neighbor_masks
from repro.network.topology import WSNTopology

__all__ = [
    "frontier_candidates",
    "greedy_color_classes",
    "cached_greedy_color_classes",
    "enumerate_color_classes",
    "ColorScheme",
    "conflict_graph",
    "relay_candidates",
    "greedy_colors",
    "exhaustive_colors",
    "cached_greedy_color_masks",
]

#: A colour on masks: (transmitters, uncovered nodes they reach).
ColorMasks = tuple[int, int]


def _pool_mask(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None,
) -> tuple[int, int]:
    """``(W, W ∩ awake)`` as masks (the pool is ``W`` when ``awake`` is None)."""
    covered_mask = topology.mask_from_nodes(covered)
    if awake is None:
        return covered_mask, covered_mask
    return covered_mask, topology.mask_from_nodes(frozenset(covered).intersection(awake))


def _as_sets(topology: WSNTopology, colors: list[ColorMasks]) -> list[frozenset[int]]:
    return [topology.nodes_from_mask(color) for color, _ in colors]


def relay_candidates(
    topology: WSNTopology, covered_mask: int, pool_mask: int
) -> list[ColorMasks]:
    """Relay candidates in ``pool_mask`` as ``(bit, receivers)`` pairs.

    A candidate is a pool node with an uncovered neighbour (constraints 1-2
    of Eq. 1; the pool is ``W``, or ``W`` ∩ awake for Eq. 3).  The order is
    step 3 of Algorithm 1: descending number of uncovered receivers, then
    ascending node id as a deterministic tie-break.
    """
    masks = neighbor_masks(topology)
    uncovered = topology.full_mask & ~covered_mask
    weighted = []
    while pool_mask:
        low = pool_mask & -pool_mask
        pool_mask ^= low
        reach = masks[low.bit_length() - 1] & uncovered
        if reach:
            weighted.append((-reach.bit_count(), low, reach))
    weighted.sort()
    return [(low, reach) for _, low, reach in weighted]


def frontier_candidates(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None = None,
) -> list[int]:
    """Relay candidates: covered (and awake) nodes with uncovered neighbours.

    These are the nodes satisfying constraints 1-2 of Eq. (1) (and the
    availability constraint of Eq. (3) when ``awake`` is given).  The result
    is sorted by (descending number of uncovered receivers, ascending node
    id) — the order step 3 of Algorithm 1 prescribes, with the id as a
    deterministic tie-break.
    """
    ids = topology.node_ids
    candidates = relay_candidates(topology, *_pool_mask(topology, covered, awake))
    return [ids[bit.bit_length() - 1] for bit, _ in candidates]


def _conflict_sets(vertices: Sequence[int], reaches: Sequence[int]) -> dict[int, set[int]]:
    """Conflict adjacency: ``u - v`` iff their receiver masks intersect."""
    adjacency: dict[int, set[int]] = {u: set() for u in vertices}
    for i, u in enumerate(vertices):
        reach_u = reaches[i]
        for j in range(i + 1, len(vertices)):
            if reach_u & reaches[j]:
                v = vertices[j]
                adjacency[u].add(v)
                adjacency[v].add(u)
    return adjacency


def conflict_graph(
    topology: WSNTopology,
    candidates: Sequence[int],
    covered: frozenset[int] | set[int],
) -> dict[int, set[int]]:
    """Adjacency of the conflict graph among ``candidates``.

    Edge ``u - v`` iff the two candidates share an uncovered neighbour
    (constraint 3 of Eq. 1 violated when transmitting together).
    """
    uncovered = topology.full_mask & ~topology.mask_from_nodes(covered)
    reaches = [topology.neighbor_mask(u) & uncovered for u in candidates]
    return _conflict_sets(list(candidates), reaches)


def greedy_colors(candidates: list[ColorMasks]) -> list[ColorMasks]:
    """Algorithm 1 over :func:`relay_candidates`: ``(colour, receivers)`` pairs.

    A candidate conflicts with a class iff its receivers meet the class's
    receivers, so the class's receiver union is the whole conflict test.
    """
    classes: list[ColorMasks] = []
    while candidates:
        color = reached = 0
        deferred: list[ColorMasks] = []
        for bit, reach in candidates:
            if reach & reached:
                deferred.append((bit, reach))
            else:
                color |= bit
                reached |= reach
        classes.append((color, reached))
        candidates = deferred
    return classes


def greedy_color_classes(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None = None,
) -> list[frozenset[int]]:
    """Algorithm 1: the extended greedy colour scheme.

    Returns the colour classes ``[C_1, ..., C_λ]`` in label order.  Every
    candidate appears in exactly one class; members of one class are
    pairwise interference-free with respect to the *current* ``W``; and a
    candidate is pushed to a later class only because it conflicts with an
    earlier one (the construction of Eq. 2).

    Returns an empty list when no candidate exists (either ``W`` already
    covers every node, or — in the duty-cycle system — no frontier node is
    awake at this slot).
    """
    candidates = relay_candidates(topology, *_pool_mask(topology, covered, awake))
    return _as_sets(topology, greedy_colors(candidates))


# Greedy classes keyed on (covered, awake) masks per topology: broadcasts that
# share a topology (the policies of one sweep cell, repeated decision states
# along one trajectory) reach identical (W, awake) states, and the classes
# depend on nothing else.  An entry is ``[mask pairs, node sets]``, the node
# sets built on the first request for them.  The WeakKeyDictionary drops a
# topology's entries with the topology itself; the per-topology cap bounds
# the worst case (every slot a distinct awake set) without evicting the hot
# single-topology reuse.
_GREEDY_CLASS_CACHE: WeakKeyDictionary[WSNTopology, dict] = WeakKeyDictionary()
_GREEDY_CLASS_CACHE_CAP = 4096


def _greedy_cache_entry(topology: WSNTopology, covered_mask: int, pool_mask: int) -> list:
    per_topology = _GREEDY_CLASS_CACHE.get(topology)
    if per_topology is None:
        per_topology = _GREEDY_CLASS_CACHE[topology] = {}
    key = (covered_mask, pool_mask)
    entry = per_topology.get(key)
    if entry is None:
        classes = greedy_colors(relay_candidates(topology, covered_mask, pool_mask))
        if len(per_topology) >= _GREEDY_CLASS_CACHE_CAP:
            per_topology.clear()
        entry = per_topology[key] = [classes, None]
    return entry


def cached_greedy_color_masks(
    topology: WSNTopology, covered_mask: int, pool_mask: int
) -> list[ColorMasks]:
    """Memoized greedy colours of ``(W, W ∩ awake)`` (see :func:`greedy_colors`).

    The decision-level colourings of the time-counter and E-model policies
    are pure in ``(topology, W, W ∩ awake)``; caching them lets broadcasts
    that share a topology reuse each other's colourings (and a single
    broadcast reuse the colouring of a slot it revisits after idle slots).
    Callers must treat the returned list as immutable.
    """
    return _greedy_cache_entry(topology, covered_mask, pool_mask)[0]


def cached_greedy_color_classes(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None = None,
) -> list[frozenset[int]]:
    """Memoized :func:`greedy_color_classes`, sharing the cache of
    :func:`cached_greedy_color_masks`.  Callers must treat the returned list
    as immutable.
    """
    entry = _greedy_cache_entry(topology, *_pool_mask(topology, covered, awake))
    if entry[1] is None:
        entry[1] = _as_sets(topology, entry[0])
    return entry[1]


def _bron_kerbosch_independent_sets(
    vertices: Sequence[int],
    conflicts: dict[int, set[int]],
    limit: int | None,
) -> list[frozenset[int]]:
    """All maximal independent sets of the conflict graph (maximal cliques of
    its complement), via Bron-Kerbosch with pivoting on the complement graph.

    This stays on Python sets: the pivot is the first maximum in set
    iteration order, and under an enumeration ``limit`` a different pivot on
    ties would change which colours are found.
    """
    vertex_set = set(vertices)
    complement = {
        u: (vertex_set - conflicts[u] - {u}) for u in vertices
    }
    results: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> bool:
        """Returns False when the enumeration limit is reached."""
        if not p and not x:
            results.append(frozenset(r))
            return limit is None or len(results) < limit
        pivot_pool = p | x
        pivot = max(pivot_pool, key=lambda u: len(complement[u] & p))
        for v in sorted(p - complement[pivot]):
            if not expand(r | {v}, p & complement[v], x & complement[v]):
                return False
            p = p - {v}
            x = x | {v}
        return True

    expand(set(), set(vertices), set())
    return results


def _maximal_colors(
    topology: WSNTopology,
    candidates: list[ColorMasks],
    max_classes: int | None,
) -> list[tuple[frozenset[int], int, int]]:
    """The maximal colours as ``(node set, colour, receivers)``, in canonical order."""
    if not candidates:
        return []
    ids = topology.node_ids
    vertices = [ids[bit.bit_length() - 1] for bit, _ in candidates]
    members = dict(zip(vertices, candidates))
    conflicts = _conflict_sets(vertices, [reach for _, reach in candidates])
    colors: list[tuple[frozenset[int], int, int]] = []
    for found in _bron_kerbosch_independent_sets(vertices, conflicts, max_classes):
        color = reached = 0
        for u in found:
            bit, reach = members[u]
            color |= bit
            reached |= reach
        colors.append((found, color, reached))
    if max_classes is not None:
        enumerated = {color for _, color, _ in colors}
        for color, reached in greedy_colors(candidates):
            if color not in enumerated:
                colors.append((topology.nodes_from_mask(color), color, reached))
    # Deterministic order: larger classes (more parallel relays) first.
    colors.sort(key=lambda c: (-len(c[0]), tuple(sorted(c[0]))))
    return colors


def exhaustive_colors(
    topology: WSNTopology,
    candidates: list[ColorMasks],
    max_classes: int | None = None,
) -> list[ColorMasks]:
    """:func:`enumerate_color_classes` over :func:`relay_candidates`, on masks."""
    return [
        (color, reached)
        for _, color, reached in _maximal_colors(topology, candidates, max_classes)
    ]


def enumerate_color_classes(
    topology: WSNTopology,
    covered: frozenset[int] | set[int],
    awake: Iterable[int] | None = None,
    *,
    max_classes: int | None = None,
) -> list[frozenset[int]]:
    """Every maximal admissible colour of ``W`` (Eq. 1), for the OPT target.

    A colour here is a maximal set of frontier candidates that is pairwise
    interference-free; maximality loses no generality because adding a
    non-conflicting transmitter never hurts (coverage is monotone).  When
    ``max_classes`` is given, enumeration stops after that many sets and the
    greedy classes are merged in (so the greedy answer is always among the
    candidates) — this is the documented cap that keeps OPT tractable on
    300-node deployments.
    """
    candidates = relay_candidates(topology, *_pool_mask(topology, covered, awake))
    return [found for found, _, _ in _maximal_colors(topology, candidates, max_classes)]


@dataclass(frozen=True)
class ColorScheme:
    """A configurable colour provider shared by the policies and the counter.

    Attributes
    ----------
    mode:
        ``"greedy"`` — Algorithm 1 classes (Eq. 2/3);
        ``"exhaustive"`` — all maximal admissible colours (Eq. 1).
    max_classes:
        Enumeration cap for the exhaustive mode (``None`` = unlimited).
    """

    mode: Literal["greedy", "exhaustive"] = "greedy"
    max_classes: int | None = None

    def color_masks(
        self, topology: WSNTopology, candidates: list[ColorMasks]
    ) -> list[ColorMasks]:
        """The candidate colours over :func:`relay_candidates`, as mask pairs."""
        if self.mode == "greedy":
            return greedy_colors(candidates)
        if self.mode == "exhaustive":
            return exhaustive_colors(topology, candidates, self.max_classes)
        raise ValueError(f"unknown colour scheme mode {self.mode!r}")

    def color_classes(
        self,
        topology: WSNTopology,
        covered: frozenset[int] | set[int],
        awake: Iterable[int] | None = None,
    ) -> list[frozenset[int]]:
        """Return the candidate colours for the current state."""
        candidates = relay_candidates(topology, *_pool_mask(topology, covered, awake))
        return _as_sets(topology, self.color_masks(topology, candidates))
