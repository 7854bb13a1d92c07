from __future__ import annotations

import itertools

import pytest

from lcmlat.errors import BadParameter, NoEdges
from lcmlat.graphs import (
    Graph,
    check_graph_theorems,
    complemented_via_independent_sets,
    complement_is_c4_free,
    complete,
    connected_graph_masks,
    connected_nonisomorphic_graphs,
    cycle,
    edge_ideal,
    edge_ideal_lattice,
    graph_fixture,
    graph_from_mask,
    graph_lattice_report,
    has_clique_with_unique_attachment,
    has_no_disjoint_edges,
    has_universal_edge,
    is_c4_free,
    is_diamond_free,
    is_gap_free,
    is_star,
    min_degree,
    path,
    star,
)
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
    assert is_diamond_free(cycle(5))
    diamond = Graph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
    assert not is_diamond_free(diamond)
    assert not is_c4_free(cycle(4))
    assert is_c4_free(complete(4))
    assert has_no_disjoint_edges(complete(3))
    assert has_no_disjoint_edges(star(6))
    assert not has_no_disjoint_edges(path(4))
    assert has_universal_edge(path(4))
    assert not has_universal_edge(path(5))
    assert min_degree(cycle(6)) == 2
    assert is_star(path(2)) and is_star(star(5)) and not is_star(path(4))


def test_gap_free_equals_complement_c4_free():
    for n in range(2, 6):
        for mask in connected_graph_masks(n):
            G = graph_from_mask(n, mask)
            assert is_gap_free(G) == complement_is_c4_free(G)


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


def test_enumeration_counts():
    assert sum(1 for _ in connected_graph_masks(4)) == 38
    assert sum(1 for _ in connected_graph_masks(5)) == 728
    assert sum(1 for _ in connected_nonisomorphic_graphs(4)) == 6
    assert sum(1 for _ in connected_nonisomorphic_graphs(5)) == 21
