"""Ribbon graphs as signed rotation systems.

A ribbon graph is stored as one cyclic half-edge sequence per vertex disc
plus, per edge, its two half-edges and a twist sign.  Boundary components of
spanning ribbon subgraphs are traced on the two endpoints of each half-edge
segment, which is enough to extract the quasi-tree delta-matroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import DeltaMatroid, GroundSet, Mask


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

    def boundary_trace(self, a: Optional[Mask] = None) -> BoundaryTrace:
        """Trace the boundary of the spanning subgraph with edge set a.

        Each included half-edge segment has two endpoints on its vertex
        circle, 'a' (start, in rotation order) and 'b' (end).  Vertex-circle
        arcs join b of one segment to a of the next; the two free sides of an
        untwisted edge join b/a across the edge, a twisted edge joins a-a and
        b-b.  Every endpoint then lies on exactly one arc and one side, and
        the boundary components are the alternating cycles.
        """
        a = self._edge_set(a)
        included = {h for i, e in enumerate(self.edges) if (a >> i) & 1 for h in e.ends}

        walks: list[tuple[tuple[str, str], ...]] = []
        arc: dict[tuple[str, str], tuple[str, str]] = {}
        side: dict[tuple[str, str], tuple[str, str]] = {}
        order: list[tuple[str, str]] = []

        for rot in self.vertices:
            kept = [h for h in rot if h in included]
            if not kept:
                walks.append(())
                continue
            k = len(kept)
            for i, h in enumerate(kept):
                nxt = kept[(i + 1) % k]
                arc[(h, "b")] = (nxt, "a")
                arc[(nxt, "a")] = (h, "b")
                order.append((h, "a"))
                order.append((h, "b"))
        for i, e in enumerate(self.edges):
            if not (a >> i) & 1:
                continue
            h1, h2 = e.ends
            if e.twisted:
                side[(h1, "a")] = (h2, "a")
                side[(h2, "a")] = (h1, "a")
                side[(h1, "b")] = (h2, "b")
                side[(h2, "b")] = (h1, "b")
            else:
                side[(h1, "b")] = (h2, "a")
                side[(h2, "a")] = (h1, "b")
                side[(h2, "b")] = (h1, "a")
                side[(h1, "a")] = (h2, "b")

        seen: set[tuple[str, str]] = set()
        for start in order:
            if start in seen:
                continue
            walk = []
            cur = start
            use_side = True
            while True:
                walk.append(cur)
                seen.add(cur)
                cur = side[cur] if use_side else arc[cur]
                use_side = not use_side
                if cur == start and use_side:
                    break
            walks.append(tuple(walk))
        return BoundaryTrace(len(walks), tuple(walks))

    def boundary_components(self, a: Optional[Mask] = None) -> int:
        return self.boundary_trace(a).components

    # -- derived structures -----------------------------------------------------

    def _signed_components(self, negative: Mask) -> tuple[int, bool]:
        """Components of the underlying graph with the edges in `negative`
        signed negative, and whether the signed graph is balanced: every
        cycle, a loop included, has an even number of negative edges."""
        v_of = self._vertex_of
        incident: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for i, e in enumerate(self.edges):
            u, v = v_of[e.ends[0]], v_of[e.ends[1]]
            sign = (negative >> i) & 1
            incident[u].append((v, sign))
            incident[v].append((u, sign))
        side: dict[int, int] = {}
        components = 0
        balanced = True
        for root in range(len(self.vertices)):
            if root in side:
                continue
            components += 1
            side[root] = 0
            stack = [root]
            while stack:
                u = stack.pop()
                for v, sign in incident[u]:
                    want = side[u] ^ sign
                    if v not in side:
                        side[v] = want
                        stack.append(v)
                    elif side[v] != want:
                        balanced = False
        return components, balanced

    def is_connected(self) -> bool:
        return self._signed_components(0)[0] <= 1

    def delta_matroid(self) -> DeltaMatroid:
        """Feasible sets are the quasi-trees: spanning ribbon subgraphs with a
        single boundary component."""
        if not self.is_connected():
            raise ValueError("delta-matroid extraction requires a connected ribbon graph")
        if len(self.edges) > 16:
            raise ValueError("delta-matroid extraction is limited to 16 edges")
        ground = GroundSet(self.edge_labels)
        fam = tuple(
            a for a in range(1 << len(self.edges)) if self.boundary_components(a) == 1
        )
        return DeltaMatroid(ground, fam)

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
