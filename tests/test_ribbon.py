import random

import pytest

from dmx.core import ImproperSystemError, canonical_sorted, exchange_violation_masks
from dmx.ribbon import BoundaryTrace, RibbonEdge, RibbonGraph
from dmx.verify import ribbon_corpus


def edge(label, twisted=False):
    return RibbonEdge(label, (label + "a", label + "b"), twisted)


def loop(twisted=False):
    return RibbonGraph((("1a", "1b"),), (edge("1", twisted),))


def test_structure_validation():
    with pytest.raises(ValueError):
        RibbonGraph((("1a", "1a"),), (edge("1"),))
    with pytest.raises(ValueError):
        RibbonGraph((("1a", "1b"),), (RibbonEdge("1", ("1a", "1a"), False),))
    with pytest.raises(ValueError):
        RibbonGraph((("1a",),), (edge("1"),))  # 1b missing from rotations
    with pytest.raises(ValueError):
        RibbonGraph(
            (("1a", "1b", "2a", "2b"),),
            (edge("1"), RibbonEdge("1", ("2a", "2b"), False)),
        )


def test_boundary_counts_of_loops():
    assert loop(False).boundary_components() == 2  # annulus
    assert loop(True).boundary_components() == 1  # Moebius band
    assert loop(False).boundary_components(0) == 1  # bare vertex disc


def test_torus_bouquet_boundary():
    g = RibbonGraph((("1a", "2a", "1b", "2b"),), (edge("1"), edge("2")))
    assert g.boundary_components(0b11) == 1  # torus with one face
    assert g.boundary_components(0b01) == 2
    assert g.boundary_components(0) == 1


def test_plane_bouquet_boundary():
    g = RibbonGraph((("1a", "1b", "2a", "2b"),), (edge("1"), edge("2")))
    assert g.boundary_components(0b11) == 3


def test_boundary_walk_structure():
    t = loop(False).boundary_trace()
    assert t.components == 2
    covered = {p for walk in t.walks for p in walk}
    assert covered == {("1a", "a"), ("1a", "b"), ("1b", "a"), ("1b", "b")}


def test_isolated_vertices_count_as_boundaries():
    g = RibbonGraph((("1a",), ("1b",)), (edge("1"),))
    assert g.boundary_components(0) == 2  # two bare discs
    assert g.boundary_components(0b1) == 1


def test_delta_matroid_torus_bouquet():
    g = RibbonGraph((("1a", "2a", "1b", "2b"),), (edge("1"), edge("2")))
    d = g.delta_matroid()
    assert d.ground.labels == ("1", "2")
    assert d.family == (0b00, 0b11)
    assert exchange_violation_masks(d.family) is None


def test_delta_matroid_plane_theta_is_spanning_trees():
    g = RibbonGraph(
        (("1a", "2a", "3a"), ("3b", "2b", "1b")),
        (edge("1"), edge("2"), edge("3")),
    )
    assert g.delta_matroid().family == (0b001, 0b010, 0b100)


def test_delta_matroid_requires_connected():
    g = RibbonGraph((("1a", "1b"), ()), (edge("1"),))
    with pytest.raises(ValueError):
        g.delta_matroid()
    # no vertex disc: no spanning subgraph has a boundary
    with pytest.raises(ImproperSystemError, match="may not be empty"):
        RibbonGraph((), ()).delta_matroid()


def test_orientability():
    assert loop(False).is_orientable()
    assert not loop(True).is_orientable()
    # a twisted edge in a tree is just a switching, still orientable
    tree = RibbonGraph((("1a",), ("1b",)), (edge("1", True),))
    assert tree.is_orientable()
    # digon with exactly one twisted edge: unbalanced cycle
    digon = RibbonGraph((("1a", "2a"), ("2b", "1b")), (edge("1"), edge("2", True)))
    assert not digon.is_orientable()
    both = RibbonGraph((("1a", "2a"), ("2b", "1b")), (edge("1", True), edge("2", True)))
    assert both.is_orientable()


def test_petrial():
    g = loop(False)
    assert g.petrial().edges[0].twisted
    assert g.petrial().petrial() == g
    digon = RibbonGraph((("1a", "2a"), ("2b", "1b")), (edge("1"), edge("2")))
    partial = digon.petrial(0b10)
    assert [e.twisted for e in partial.edges] == [False, True]


def test_underlying_graph_predicates():
    digon = RibbonGraph((("1a", "2a"), ("2b", "1b")), (edge("1"), edge("2")))
    assert digon.underlying_bipartite()
    assert digon.underlying_eulerian()
    assert not loop(False).underlying_bipartite()
    assert loop(False).underlying_eulerian()
    path = RibbonGraph((("1a",), ("1b", "2a"), ("2b",)), (edge("1"), edge("2")))
    assert path.underlying_bipartite()
    assert not path.underlying_eulerian()


def test_connectivity():
    assert loop(False).is_connected()
    g = RibbonGraph((("1a", "1b"), ()), (edge("1"),))
    assert not g.is_connected()


def random_rotation_system(rng):
    """A seeded random signed rotation system: endpoints drawn independently,
    so loops, multi-edges, isolated vertices and no edges all occur."""
    n_vertices = rng.randint(1, 5)
    rotations = [[] for _ in range(n_vertices)]
    edges = []
    for i in range(rng.randint(0, 6)):
        e = edge(str(i + 1), rng.random() < 0.5)
        for h in e.ends:
            rotations[rng.randrange(n_vertices)].append(h)
        edges.append(e)
    for rot in rotations:
        rng.shuffle(rot)
    return RibbonGraph(tuple(tuple(rot) for rot in rotations), tuple(edges))


def test_signed_traversal_matches_reference_oracles():
    import itertools
    import random

    import networkx as nx

    rng = random.Random("dmx-ribbon-differential")
    seen = set()
    for _ in range(2000):
        g = random_rotation_system(rng)
        v_of = {h: vi for vi, rot in enumerate(g.vertices) for h in rot}
        ends = [(v_of[e.ends[0]], v_of[e.ends[1]], e.twisted) for e in g.edges]
        multigraph = nx.MultiGraph()
        multigraph.add_nodes_from(range(len(g.vertices)))
        multigraph.add_edges_from((u, v) for u, v, _ in ends)
        # orientable iff switching at some vertex set untwists every edge
        orientable = any(
            not any(t ^ (u in s) ^ (v in s) for u, v, t in ends)
            for k in range(len(g.vertices) + 1)
            for s in map(set, itertools.combinations(range(len(g.vertices)), k))
        )
        assert g.is_connected() == nx.is_connected(multigraph)
        assert g.underlying_bipartite() == nx.is_bipartite(multigraph)
        assert g.is_orientable() == orientable
        if not ends:
            seen.add("no edges")
        if any(u == v for u, v, _ in ends):
            seen.add("loop")
        if len({frozenset((u, v)) for u, v, _ in ends}) < len(ends):
            seen.add("multi-edge")
        if not nx.is_connected(multigraph):
            seen.add("disconnected")
    assert seen == {"no edges", "loop", "multi-edge", "disconnected"}


def random_connected_rotation_system(rng, n_edges):
    """A seeded connected signed rotation system: the first edges join each
    new vertex to an earlier one, the rest have random endpoints."""
    n_vertices = rng.randint(1, min(5, n_edges + 1))
    rotations = [[] for _ in range(n_vertices)]
    edges = []
    for i in range(n_edges):
        e = edge(str(i + 1), rng.random() < 0.5)
        if i + 1 < n_vertices:
            ends = (rng.randrange(i + 1), i + 1)
        else:
            ends = (rng.randrange(n_vertices), rng.randrange(n_vertices))
        for h, v in zip(e.ends, ends):
            rotations[v].append(h)
        edges.append(e)
    for rot in rotations:
        rng.shuffle(rot)
    return RibbonGraph(tuple(tuple(rot) for rot in rotations), tuple(edges))


def _boundary_trace_reference(g, a):
    """Boundary walks built from labelled (half-edge, end) tuples, one dict
    lookup per step: the reference for the int-array kernels."""
    included = {h for i, e in enumerate(g.edges) if (a >> i) & 1 for h in e.ends}
    walks = []
    arc = {}
    side = {}
    order = []
    for rot in g.vertices:
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
    for i, e in enumerate(g.edges):
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
    seen = set()
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


def _differential_graphs():
    rng = random.Random("dmx-ribbon-differential")
    graphs = [g for _, g in ribbon_corpus()]
    graphs += [random_rotation_system(rng) for _ in range(2000)]
    rng = random.Random("dmx-ribbon-kernels")
    graphs += [random_connected_rotation_system(rng, m) for m in (8, 8, 9, 9, 10, 10)]
    return graphs


def test_boundary_kernels_match_reference():
    """Trace and component count against the tuple walk on every subset of
    the corpus, 2000 random and six 8-10 edge graphs; the delta-matroid of
    each connected one against its quasi-trees found by that walk."""
    subsets = quasi_trees = graphs = 0
    for g in _differential_graphs():
        single = []
        for a in range(1 << len(g.edges)):
            ref = _boundary_trace_reference(g, a)
            assert g.boundary_trace(a) == ref, (g, a)
            assert g.boundary_components(a) == ref.components, (g, a)
            if ref.components == 1:
                single.append(a)
        if g.vertices and g.is_connected():
            assert g.delta_matroid().family == tuple(canonical_sorted(single, len(g.edges))), g
            graphs += 1
        subsets += 1 << len(g.edges)
        quasi_trees += len(single)
    assert subsets > 20000 and quasi_trees > 2000 and graphs > 500


def test_delta_matroid_of_large_graphs_matches_definition():
    """Seeded connected graphs with 11-13 edges, orientable and not: the
    delta-matroid against a scan of every edge subset for one boundary."""
    rng = random.Random("dmx-ribbon-large")
    orientable = []
    for m in (11, 12, 13):
        g = random_connected_rotation_system(rng, m)
        untwisted = g.petrial(sum(1 << i for i, e in enumerate(g.edges) if e.twisted))
        for h in (untwisted, g):
            scan = [a for a in range(1 << m) if h.boundary_components(a) == 1]
            assert h.delta_matroid().family == tuple(canonical_sorted(scan, m)), h
            orientable.append(h.is_orientable())
    assert orientable == [True, False] * 3
