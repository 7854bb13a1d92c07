from __future__ import annotations

import itertools

import pytest

from lcmlat.errors import BadParameter, NoEdges
from lcmlat.graphs import (
    GRAPH_FIXTURES,
    Graph,
    check_graph_theorems,
    complemented_via_independent_sets,
    complete,
    connected_class_masks,
    connected_graph_masks,
    cycle,
    edge_ideal,
    edge_ideal_lattice,
    graph_fixture,
    graph_from_mask,
    graph_lattice_report,
    graph_side_verdicts,
    has_clique_with_unique_attachment,
    has_no_disjoint_edges,
    has_universal_edge,
    is_gap_free,
    is_star,
    linearly_presented,
    min_degree,
    path,
    star,
)
from lcmlat.ideals import lcm_lattice
from lcmlat.lattice import is_complemented


def test_families():
    assert path(2).edges == ((0, 1),)
    assert cycle(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert complete(3).edges == ((0, 1), (0, 2), (1, 2))
    assert star(4).edges == ((0, 1), (0, 2), (0, 3))
    with pytest.raises(BadParameter):
        cycle(2)
    with pytest.raises(BadParameter):
        star(1)
    with pytest.raises(BadParameter):
        Graph(2, ((0, 0),))


def test_edge_ideal_examples():
    assert [str(g) for g in edge_ideal(star(3)).gens] == ["x1*x2", "x1*x3"]
    assert [str(g) for g in edge_ideal(complete(3)).gens] == [
        "x1*x2", "x1*x3", "x2*x3",
    ]
    assert [str(g) for g in edge_ideal(graph_fixture("bipartite-cm")).gens] == [
        "x1*x4", "x1*x6", "x2*x5", "x2*x6", "x3*x6",
    ]
    with pytest.raises(NoEdges):
        edge_ideal(Graph(3, ()))


def test_induced_subgraph_predicates():
    assert not is_gap_free(path(5))
    assert is_gap_free(cycle(5))
    assert has_no_disjoint_edges(complete(3))
    assert has_no_disjoint_edges(star(6))
    assert not has_no_disjoint_edges(path(4))
    assert has_universal_edge(path(4))
    assert not has_universal_edge(path(5))
    assert min_degree(cycle(6)) == 2
    assert min_degree(Graph(0, ())) == min_degree(Graph(3, ())) == 0
    assert is_star(path(2)) and is_star(star(5)) and not is_star(path(4))


def _complement_is_c4_free(G):
    """No induced 4-cycle in the complement of G, read off the complement's
    edge set: an independent check of the 2K2 scan in is_gap_free."""
    co = {
        (u, v) for u, v in itertools.combinations(range(G.n), 2)
        if not G.adjacency[u] >> v & 1
    }
    for quad in itertools.combinations(range(G.n), 4):
        es = [e for e in itertools.combinations(quad, 2) if e in co]
        if len(es) == 4 and all(sum(v in e for e in es) == 2 for v in quad):
            return False
    return True


def test_gap_free_equals_complement_c4_free():
    assert not _complement_is_c4_free(Graph(4, ((0, 2), (1, 3))))
    assert _complement_is_c4_free(complete(4))
    for n in range(2, 6):
        for mask in connected_graph_masks(n):
            G = graph_from_mask(n, mask)
            assert is_gap_free(G) == _complement_is_c4_free(G)


def test_clique_with_unique_attachment():
    assert has_clique_with_unique_attachment(path(4))
    assert has_clique_with_unique_attachment(complete(5))
    assert has_clique_with_unique_attachment(star(6))
    # complete graph with pendants (the generic lower-semimodular shape)
    K4_pendants = Graph(7, complete(4).edges + ((0, 4), (0, 5), (2, 6)))
    assert has_clique_with_unique_attachment(K4_pendants)
    assert not has_clique_with_unique_attachment(cycle(5))
    assert not has_clique_with_unique_attachment(graph_fixture("fig5"))
    assert not has_clique_with_unique_attachment(path(5))


def _clique_with_pendants_nx(G):
    """Some clique of ``nx.enumerate_all_cliques`` whose outside vertices all
    have degree 1 and their neighbour inside it."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(G.n))
    g.add_edges_from(G.edges)
    return any(
        all(g.degree(v) == 1 and set(g[v]) <= set(H) for v in g if v not in H)
        for H in nx.enumerate_all_cliques(g)
    )


def test_clique_with_unique_attachment_against_networkx():
    graphs = [
        graph_from_mask(n, mask)
        for n in range(2, 6)
        for mask in connected_graph_masks(n)
    ]
    graphs += [
        graph_from_mask(n, mask) for n in (6, 7) for mask in connected_class_masks(n)
    ]
    verdicts = [has_clique_with_unique_attachment(G) for G in graphs]
    assert verdicts == [_clique_with_pendants_nx(G) for G in graphs]
    assert (len(graphs), sum(verdicts)) == (1736, 234)


def _all_labeled_graphs(max_n):
    """Every labeled graph on 0..max_n vertices, disconnected ones included."""
    for n in range(max_n + 1):
        for mask in range(1 << (n * (n - 1) // 2)):
            yield graph_from_mask(n, mask)


def _clique_with_pendants_brute(G):
    """Some non-empty vertex set H, all pairs adjacent, such that every
    vertex outside H has exactly one edge, and that edge ends in H."""
    edges = set(G.edges)
    for k in range(1, G.n + 1):
        for H in itertools.combinations(range(G.n), k):
            if not all(pair in edges for pair in itertools.combinations(H, 2)):
                continue
            outside = set(range(G.n)) - set(H)
            if all(
                len(inc := [e for e in G.edges if v in e]) == 1 and set(inc[0]) & set(H)
                for v in outside
            ):
                return True
    return False


def _complemented_brute(G):
    """For every union A of a set of edges (the empty set included), the
    vertices outside A whose neighbours all lie in A, if there are any, are
    each adjacent to some vertex of one independent set X inside A."""
    unions = {frozenset()}
    for e in G.edges:
        unions |= {u | set(e) for u in unions}
    nbrs = {v: {u for e in G.edges if v in e for u in e if u != v} for v in range(G.n)}
    for A in unions:
        trapped = [v for v in range(G.n) if v not in A and nbrs[v] and nbrs[v] <= A]
        if trapped and not any(
            all(not nbrs[x] & set(X) for x in X)
            and all(nbrs[t] & set(X) for t in trapped)
            for k in range(len(A) + 1)
            for X in itertools.combinations(sorted(A), k)
        ):
            return False
    return True


def test_graph_side_predicates_match_their_definitions_on_all_small_graphs():
    # disconnected graphs included: the sweep checks connected ones only
    graphs = list(_all_labeled_graphs(5))
    # every verdict is defined, on the 0-vertex graph too
    assert all(len(graph_side_verdicts(G)) == 10 for G in graphs)
    clique = [has_clique_with_unique_attachment(G) for G in graphs]
    assert clique == [_clique_with_pendants_brute(G) for G in graphs]
    complemented = [complemented_via_independent_sets(G) for G in graphs]
    assert complemented == [_complemented_brute(G) for G in graphs]
    disconnected = [c for G, c in zip(graphs, complemented) if not G.is_connected()]
    assert (len(graphs), sum(clique), sum(complemented)) == (1100, 211, 788)
    assert (len(disconnected), sum(disconnected)) == (327, 267)
    # the degree counts against pairwise edge-set scans
    no_disjoint = [has_no_disjoint_edges(G) for G in graphs]
    assert no_disjoint == [
        all(set(e) & set(f) for e, f in itertools.combinations(G.edges, 2))
        for G in graphs
    ]
    universal = [has_universal_edge(G) for G in graphs]
    assert universal == [
        any(all(set(e) & set(f) for f in G.edges) for e in G.edges) for G in graphs
    ]
    stars = [is_star(G) for G in graphs]
    assert stars == [
        bool(G.edges) and any(all(v in e for e in G.edges) for v in range(G.n))
        for G in graphs
    ]
    assert (sum(no_disjoint), sum(universal), sum(stars)) == (115, 509, 94)


def _sets_without_isolated_vertices(G):
    """Vertex sets whose induced subgraph has no isolated vertex, read off
    the edge list alone; the empty set included."""
    out = set()
    for k in range(G.n + 1):
        for S in itertools.combinations(range(G.n), k):
            if all(any(v in e and set(e) <= set(S) for e in G.edges) for v in S):
                out.add(frozenset(S))
    return out


def test_edge_ideal_lattice_is_the_induced_subgraphs_without_isolated_vertices():
    graphs = [
        graph_from_mask(n, mask)
        for n in range(2, 6)
        for mask in connected_graph_masks(n)
    ]
    for G in graphs + [graph_fixture("fig5"), graph_fixture("fig6")]:
        L = edge_ideal_lattice(G)
        assert all(label.is_squarefree for label in L.labels)
        supports = [frozenset(label.support()) for label in L.labels]
        assert len(set(supports)) == L.n
        assert set(supports) == _sets_without_isolated_vertices(G)
        for i, a in enumerate(supports):
            for j, b in enumerate(supports):
                assert L.leq(i, j) == (a <= b), (G.edges, a, b)


def test_edge_ideal_lattice_is_the_lcm_lattice_of_the_edge_ideal():
    # the graph route skips edge_ideal; it must give lcm_lattice's lattice,
    # element order and labels included, isolated vertices (1, 2, 4) too
    graphs = [
        graph_from_mask(n, mask)
        for n in range(2, 6)
        for mask in connected_graph_masks(n)
    ]
    graphs += [*GRAPH_FIXTURES.values(), Graph(7, ((0, 3), (3, 5), (5, 6)))]
    for G in graphs:
        L, M = edge_ideal_lattice(G), lcm_lattice(edge_ideal(G))
        assert (L.below, L.above, L.meet, L.join, L.bottom, L.top, L.labels) == (
            M.below, M.above, M.meet, M.join, M.bottom, M.top, M.labels
        ), G.edges
    assert edge_ideal_lattice(graphs[-1]).labels[-1].exps == (1, 0, 0, 1, 0, 1, 1)
    with pytest.raises(NoEdges):
        edge_ideal_lattice(Graph(3, ()))


def test_complemented_criterion_families():
    for n in range(3, 7):
        assert complemented_via_independent_sets(cycle(n))
    assert complemented_via_independent_sets(path(6))
    assert not complemented_via_independent_sets(path(7))
    assert complemented_via_independent_sets(path(2))
    for n in (2, 3, 5):
        assert complemented_via_independent_sets(complete(n))


def test_complemented_criterion_matches_lattice():
    for n in range(2, 6):
        for mask in connected_graph_masks(n):
            G = graph_from_mask(n, mask)
            assert (
                complemented_via_independent_sets(G)
                == is_complemented(edge_ideal_lattice(G))[0]
            )


def test_graph_lattice_report_examples():
    rep = graph_lattice_report(star(5))
    assert rep.lattice_report.verdict("boolean")
    assert rep.graph_verdicts["boolean"]

    rep = graph_lattice_report(complete(3))
    assert rep.lattice_report.verdict("modular")
    assert not rep.lattice_report.verdict("boolean")

    # hub edge with leaves on both ends and shared neighbors: supersolvable
    # but not modular
    G = Graph(5, ((0, 1), (0, 2), (1, 3), (0, 4), (1, 4)))
    rep = graph_lattice_report(G)
    assert rep.lattice_report.verdict("supersolvable")
    assert not rep.lattice_report.verdict("modular")
    assert rep.rank_formula_holds and rep.linearly_presented


def test_check_graph_theorems_clean_on_samples():
    for G in (path(6), cycle(6), complete(5), graph_fixture("fig5"),
              graph_fixture("fig6"), graph_fixture("bipartite-cm")):
        _, violations = check_graph_theorems(G)
        assert violations == []


def _comparability_connected(L):
    """linearly_presented by its definition: for every m of degree at least
    4, the open interval (0, m) is connected in the comparability graph;
    an empty interval counts as connected."""
    from lcmlat.lattice import _reach

    comparable = [b | a for b, a in zip(L.below, L.above)]
    for m, mask in enumerate(L.sets):
        if m != L.bottom and mask.bit_count() >= 4:
            members = L.above[L.bottom] & L.below[m] & ~(1 << L.bottom | 1 << m)
            if _reach(comparable, members & -members, members) != members:
                return False
    return True


def test_linear_presentation_matches_the_comparability_definition():
    from lcmlat.verify import _seeded

    lattices = [
        edge_ideal_lattice(graph_from_mask(n, mask))
        for n in range(2, 6)
        for mask in connected_graph_masks(n)
    ]
    assert len(lattices) == 771
    lattices += [edge_ideal_lattice(graph_fixture(name)) for name in GRAPH_FIXTURES]
    seeded = [lcm_lattice(ideal) for _, ideal in _seeded(25, 300, (5, 5, 4))]
    # an atom of degree 4 or more: its only lower cover is the bottom
    assert any(
        L.sets[a].bit_count() >= 4 and L.lower_cover_masks[a] == 1 << L.bottom
        for L in seeded
        for a in range(L.n)
    )
    verdicts = [linearly_presented(L) for L in lattices + seeded]
    assert verdicts == [_comparability_connected(L) for L in lattices + seeded]
    assert {True, False} <= set(verdicts[:771]) and {True, False} <= set(verdicts[771:])


def test_enumeration_counts():
    # OEIS A001187; n = 7 has 21 edges, more than one block of 16
    counts = [sum(1 for _ in connected_graph_masks(n)) for n in range(8)]
    assert counts == [0, 0, 1, 4, 38, 728, 26_704, 1_866_256]


def test_connected_graph_masks_match_the_per_mask_definition():
    from lcmlat.lattice import _reach

    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        full = (1 << n) - 1
        expected = []
        for mask in range(1, 1 << len(pairs)):
            adj = [0] * n
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            if _reach(adj, 1, full) == full:
                expected.append(mask)
        assert list(connected_graph_masks(n)) == expected, n


def test_connected_graph_masks_are_pinned_and_lazy():
    import hashlib
    import tracemalloc

    # the labeled sweep order, and so the sample of the 6-vertex benchmark
    masks = list(connected_graph_masks(6))
    digest = hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()
    assert digest == "e5df01a9797de944ecddf4951aad66fb13cb3ca6931ef3ca9114b78c27428c50"
    # 66 edges: the first block of 2**16 masks only, not 2**66 bits
    tracemalloc.start()
    try:
        first = next(connected_graph_masks(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == 2047  # the star at vertex 0
    assert peak < 2_000_000


def test_graph_from_mask_refuses_bits_outside_the_edges():
    assert graph_from_mask(3, 0b111) == complete(3)
    assert graph_from_mask(0, 0) == Graph(0, ())
    for n, mask in ((3, 0b1000), (3, 0b1001), (3, -1), (0, 1), (1, 1)):
        with pytest.raises(BadParameter):
            graph_from_mask(n, mask)


def test_connectivity_matches_networkx_on_all_small_graphs():
    # every labeled graph on 1-5 vertices, edgeless and disconnected ones
    # included, through both bitmask-search callers
    import networkx as nx

    for n in range(1, 6):
        connected = []
        for mask in range(1 << len(list(itertools.combinations(range(n), 2)))):
            G = graph_from_mask(n, mask)
            g = nx.Graph(list(G.edges))
            g.add_nodes_from(range(n))
            assert G.is_connected() == nx.is_connected(g), (n, mask)
            if mask and nx.is_connected(g):
                connected.append(mask)
        assert list(connected_graph_masks(n)) == connected, n


def test_connected_classes_match_graph_atlas():
    import networkx as nx

    atlas = nx.graph_atlas_g()
    for n in range(2, 8):
        classes = [graph_from_mask(n, mask) for mask in connected_class_masks(n)]
        expected = sum(
            1 for g in atlas if g.number_of_nodes() == n and nx.is_connected(g)
        )
        assert len(classes) == expected, n
        assert all(G.is_connected() for G in classes)
        # no two classes are isomorphic; only equal degree sequences can be
        by_degrees = {}
        for G in classes:
            degrees = tuple(sorted(G.degree(v) for v in range(n)))
            by_degrees.setdefault(degrees, []).append(nx.Graph(list(G.edges)))
        for same in by_degrees.values():
            for g, h in itertools.combinations(same, 2):
                assert not nx.is_isomorphic(g, h), (n, g.edges, h.edges)
