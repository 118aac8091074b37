"""Ribbon graphs as signed rotation systems.

A ribbon graph is stored as one cyclic half-edge sequence per vertex disc
plus, per edge, its two half-edges and a twist sign.  Boundary components of
spanning ribbon subgraphs are traced over int arrays on the two endpoints of
each half-edge segment, four ends per edge.  The quasi-tree delta-matroid is
binary (Bouchet, "Maps and delta-matroids", 1989): twisted by a spanning tree
T it is D(A), and A is forced by the O(m^2) edge sets T XOR x with |x| <= 2,
one boundary walk each.  It is limited to the order D(A) is built for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .core import DeltaMatroid, GroundSet, ImproperSystemError, Mask
from .gf2 import D_OF_A_MAX_ORDER, delta_matroid_from_symmetric, forced_matrix


@dataclass(frozen=True)
class RibbonEdge:
    label: str
    ends: tuple[str, str]
    twisted: bool


@dataclass(frozen=True)
class BoundaryTrace:
    """Boundary walks of a spanning ribbon subgraph.

    Each walk is a sequence of (half-edge, segment-end) pairs; isolated
    vertex discs contribute an empty walk.
    """

    components: int
    walks: tuple[tuple[tuple[str, str], ...], ...]


class _EndArrays(NamedTuple):
    """Int-array view of a rotation system.  Half-edge k of edge i (its
    ends[k]) is 2i+k, and half-edge h has the segment ends 2h ('a') and
    2h+1 ('b'), so edge i owns the ends 4i..4i+3."""

    side: tuple[int, ...]  # the end across the edge's free side, per end
    rotations: tuple[tuple[tuple[int, Mask], ...], ...]  # (half-edge, its edge bit) per vertex


@dataclass(frozen=True)
class RibbonGraph:
    vertices: tuple[tuple[str, ...], ...]
    edges: tuple[RibbonEdge, ...]

    def __post_init__(self):
        at_vertices = [h for rot in self.vertices for h in rot]
        if len(set(at_vertices)) != len(at_vertices):
            raise ValueError("a half-edge appears more than once in the rotations")
        at_edges = [h for e in self.edges for h in e.ends]
        if len(set(at_edges)) != len(at_edges):
            raise ValueError("a half-edge appears more than once in the edges")
        if set(at_vertices) != set(at_edges):
            raise ValueError("rotations and edges disagree on the half-edge set")
        labels = [e.label for e in self.edges]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate edge labels")

    @property
    def edge_labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.edges)

    @property
    def full_mask(self) -> Mask:
        return (1 << len(self.edges)) - 1

    @cached_property
    def _vertex_of(self) -> dict[str, int]:
        return {h: vi for vi, rot in enumerate(self.vertices) for h in rot}

    def _edge_set(self, a: Optional[Mask]) -> Mask:
        if a is None:
            return self.full_mask
        if a & ~self.full_mask:
            raise ValueError("edge mask has bits outside the edge set")
        return a

    # -- boundary tracing -------------------------------------------------------

    @cached_property
    def _ends(self) -> _EndArrays:
        index = {h: 2 * i + k for i, e in enumerate(self.edges) for k, h in enumerate(e.ends)}
        return _EndArrays(
            # untwisted: 4i+1 (h1 b) to 4i+2 (h2 a) and 4i+3 (h2 b) to 4i (h1 a);
            # twisted: a to a and b to b
            tuple(x ^ (2 if self.edges[x >> 2].twisted else 3) for x in range(4 * len(self.edges))),
            tuple(tuple((index[h], 1 << (index[h] >> 1)) for h in rot) for rot in self.vertices),
        )

    def _walk_ends(self, a: Optional[Mask]) -> list[tuple[int, ...]]:
        """Boundary walks as end indices: one empty walk per bare vertex disc,
        then one alternating side/arc cycle from each end not yet walked,
        taken vertex by vertex in rotation order, a before b.  Arcs join b of
        one kept half-edge to a of the next around the vertex circle."""
        a = self._edge_set(a)
        side = self._ends.side
        arc = [0] * len(side)
        kept_at = []
        for rot in self._ends.rotations:
            kept = [h for h, bit in rot if a & bit]
            if kept:
                prev = kept[-1]
                for h in kept:
                    arc[2 * prev + 1] = 2 * h
                    arc[2 * h] = 2 * prev + 1
                    prev = h
            kept_at.append(kept)
        walks: list[tuple[int, ...]] = [() for kept in kept_at if not kept]
        seen = bytearray(len(side))
        for kept in kept_at:
            for h in kept:
                for start in (2 * h, 2 * h + 1):
                    if seen[start]:
                        continue
                    walk = []
                    cur = start
                    while True:
                        nxt = side[cur]
                        walk += (cur, nxt)
                        seen[cur] = seen[nxt] = 1
                        cur = arc[nxt]
                        if cur == start:
                            break
                    walks.append(tuple(walk))
        return walks

    def boundary_trace(self, a: Optional[Mask] = None) -> BoundaryTrace:
        """Trace the boundary of the spanning subgraph with edge set a.

        Each included half-edge segment has two endpoints on its vertex
        circle, 'a' (start, in rotation order) and 'b' (end).  Vertex-circle
        arcs join b of one segment to a of the next; the two free sides of an
        untwisted edge join b/a across the edge, a twisted edge joins a-a and
        b-b.  Every endpoint then lies on exactly one arc and one side, and
        the boundary components are the alternating cycles.  Bare vertex
        discs come first as empty walks; each cycle is then walked, side
        first, from its first endpoint in vertex and rotation order.
        """
        names = [(h, ab) for e in self.edges for h in e.ends for ab in ("a", "b")]
        walks = tuple(tuple(names[x] for x in walk) for walk in self._walk_ends(a))
        return BoundaryTrace(len(walks), walks)

    def boundary_components(self, a: Optional[Mask] = None) -> int:
        return len(self._walk_ends(a))

    # -- derived structures -----------------------------------------------------

    def _signed_components(self, negative: Mask) -> tuple[int, bool, Mask]:
        """Components of the underlying graph with the edges in `negative`
        signed negative, whether the signed graph is balanced (every cycle, a
        loop included, has an even number of negative edges), and the edges
        that first reach each vertex: a spanning forest."""
        v_of = self._vertex_of
        incident: list[list[tuple[int, int, Mask]]] = [[] for _ in self.vertices]
        for i, e in enumerate(self.edges):
            u, v = v_of[e.ends[0]], v_of[e.ends[1]]
            sign = (negative >> i) & 1
            incident[u].append((v, sign, 1 << i))
            incident[v].append((u, sign, 1 << i))
        side: dict[int, int] = {}
        components = 0
        balanced = True
        forest = 0
        for root in range(len(self.vertices)):
            if root in side:
                continue
            components += 1
            side[root] = 0
            stack = [root]
            while stack:
                u = stack.pop()
                for v, sign, bit in incident[u]:
                    want = side[u] ^ sign
                    if v not in side:
                        side[v] = want
                        forest |= bit
                        stack.append(v)
                    elif side[v] != want:
                        balanced = False
        return components, balanced, forest

    def is_connected(self) -> bool:
        return self._signed_components(0)[0] <= 1

    def delta_matroid(self) -> DeltaMatroid:
        """Feasible sets are the quasi-trees: spanning ribbon subgraphs with a
        single boundary component.

        A spanning tree T is a quasi-tree, and the quasi-trees twisted by T
        are D(A) for the A forced by the sets of size <= 2 (Bouchet, "Maps
        and delta-matroids", 1989; Chun, Moffatt, Noble & Rueckriemen, JCTA
        2019), so m(m+1)/2 + 1 boundary walks and one D(A) suffice."""
        components, _, tree = self._signed_components(0)
        if components > 1:
            raise ValueError("delta-matroid extraction requires a connected ribbon graph")
        if len(self.edges) > D_OF_A_MAX_ORDER:
            raise ValueError("delta-matroid extraction is limited to %d edges" % D_OF_A_MAX_ORDER)
        if not components:
            # with no vertex disc no spanning subgraph has a boundary
            raise ImproperSystemError("delta-matroid family may not be empty")
        a = forced_matrix(len(self.edges), lambda x: self.boundary_components(tree ^ x) == 1)
        return delta_matroid_from_symmetric(a, GroundSet(self.edge_labels)).twist(tree)

    def petrial(self, a: Optional[Mask] = None) -> "RibbonGraph":
        """Flip the twist sign of every edge in a (default: all edges)."""
        a = self._edge_set(a)
        edges = tuple(
            RibbonEdge(e.label, e.ends, e.twisted ^ bool((a >> i) & 1))
            for i, e in enumerate(self.edges)
        )
        return RibbonGraph(self.vertices, edges)

    def is_orientable(self) -> bool:
        """The twist signs form a balanced signed graph, i.e. they are
        switching-equivalent to all-untwisted."""
        twisted = sum(1 << i for i, e in enumerate(self.edges) if e.twisted)
        return self._signed_components(twisted)[1]

    def underlying_bipartite(self) -> bool:
        """2-colorability of the underlying multigraph: balance with every
        edge negative, so a loop is an odd cycle."""
        return self._signed_components(self.full_mask)[1]

    def underlying_eulerian(self) -> bool:
        """All vertex degrees even; loops count twice, connectivity not required."""
        return all(len(rot) % 2 == 0 for rot in self.vertices)
