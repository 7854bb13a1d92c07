"""Independent re-derivations of the core predicates and Betti values.

Each check here computes the same fact as the library by a different route:
lattice laws instead of rank identities, exhaustive chain enumeration instead
of the modular-element search, and closed-form Betti numbers for families
whose resolutions are classical.
"""

from __future__ import annotations

from math import comb

from lcmlat.fields import FieldSpec
from lcmlat.graphs import (
    complete,
    connected_graph_masks,
    cycle,
    edge_ideal,
    edge_ideal_lattice,
    graph_from_mask,
    star,
)
from lcmlat.ideals import lcm_lattice
from lcmlat.lattice import (
    is_graded,
    is_lower_semimodular,
    is_modular,
    is_supersolvable,
    is_upper_semimodular,
    mobius,
)
from lcmlat.resolutions import betti_table, lattice_betti_table
from lcmlat.taylor import taylor_betti


def _law_modular(L):
    """x <= z implies x v (y ^ z) == (x v y) ^ z, with no rank function."""
    for x in range(L.n):
        for z in range(L.n):
            if not L.leq(x, z):
                continue
            for y in range(L.n):
                if L.join_of(x, L.meet_of(y, z)) != L.meet_of(L.join_of(x, y), z):
                    return False
    return True


def _cover_usm(L):
    """Both cover x ^ y implies x v y covers both."""
    ups = L.upper_cover_masks
    for x in range(L.n):
        for y in range(L.n):
            m = L.meet_of(x, y)
            if (ups[m] >> x) & 1 and (ups[m] >> y) & 1:
                j = L.join_of(x, y)
                if not ((ups[x] >> j) & 1 and (ups[y] >> j) & 1):
                    return False
    return True


def _cover_lsm(L):
    downs = L.lower_cover_masks
    for x in range(L.n):
        for y in range(L.n):
            j = L.join_of(x, y)
            if (downs[j] >> x) & 1 and (downs[j] >> y) & 1:
                m = L.meet_of(x, y)
                if not ((downs[x] >> m) & 1 and (downs[y] >> m) & 1):
                    return False
    return True


def _brute_supersolvable(L):
    """Enumerate every maximal chain and test the rank identity directly."""
    ok, _ = is_graded(L)
    if not ok:
        return False
    rk = L.chain_ranks

    def element_modular(m):
        return all(
            rk[x] + rk[m] == rk[L.meet_of(x, m)] + rk[L.join_of(x, m)]
            for x in range(L.n)
        )

    good = [element_modular(m) for m in range(L.n)]
    stack = [L.bottom]

    def dfs(v):
        if not good[v]:
            return False
        if v == L.top:
            return True
        mask = L.upper_cover_masks[v]
        while mask:
            low = mask & -mask
            if dfs(low.bit_length() - 1):
                return True
            mask ^= low
        return False

    return dfs(L.bottom)


def _small_graph_lattices():
    for n in range(2, 6):
        for mask in connected_graph_masks(n):
            yield edge_ideal_lattice(graph_from_mask(n, mask))


def test_rank_modularity_agrees_with_the_modular_law(lattice_pool):
    for name, L in lattice_pool.items():
        assert is_modular(L)[0] == _law_modular(L), name


def test_rank_modularity_agrees_on_all_small_graphs():
    for L in _small_graph_lattices():
        assert is_modular(L)[0] == _law_modular(L)


def test_semimodularity_agrees_with_cover_conditions(lattice_pool):
    for name, L in lattice_pool.items():
        assert is_upper_semimodular(L)[0] == _cover_usm(L), name
        assert is_lower_semimodular(L)[0] == _cover_lsm(L), name
    for L in _small_graph_lattices():
        assert is_upper_semimodular(L)[0] == _cover_usm(L)
        assert is_lower_semimodular(L)[0] == _cover_lsm(L)


def test_supersolvable_agrees_with_chain_enumeration(lattice_pool):
    for name, L in lattice_pool.items():
        assert is_supersolvable(L)[0] == _brute_supersolvable(L), name
    for L in _small_graph_lattices():
        assert is_supersolvable(L)[0] == _brute_supersolvable(L)


def test_complete_graph_betti_closed_form():
    # the edge ideal of a complete graph resolves linearly with
    # beta_{i+1, i+2}(S/I) = (i+1) * C(n, i+2)
    for n in range(3, 7):
        t = lattice_betti_table(edge_ideal_lattice(complete(n)), FieldSpec(32003))
        expected = {(0, 0): 1}
        for i in range(n - 1):
            expected[(i + 1, i + 2)] = (i + 1) * comb(n, i + 2)
        assert t.graded == expected, n


def test_star_graph_betti_is_binomial():
    # star edge ideals have Boolean lattices and minimal Taylor resolutions:
    # any i generators share the hub variable, so their lcm has degree i+1
    # and beta_{i, i+1}(S/I) = C(n-1, i)
    for n in range(3, 8):
        t = lattice_betti_table(edge_ideal_lattice(star(n)), FieldSpec(32003))
        expected = {(i, i + 1): comb(n - 1, i) for i in range(1, n)}
        expected[(0, 0)] = 1
        assert t.graded == expected, n


def test_cycle8_betti_matches_taylor_and_moebius():
    # L(C8) has 90 elements: the largest intervals tier-1 reduces.  Both
    # Betti routes must agree entry for entry, and every multidegree's
    # alternating sum is the reduced Euler characteristic of its interval,
    # which is mu(bottom, m) by Hall's theorem.
    I = edge_ideal(cycle(8))
    table = betti_table(I)
    assert table.multigraded == taylor_betti(I, FieldSpec(32003))
    L = lcm_lattice(I)
    assert L.n == 90
    for m in range(L.n):
        euler = sum(
            (-1) ** i * r
            for (i, label), r in table.multigraded.items()
            if label == L.labels[m]
        )
        assert euler == mobius(L, L.bottom, m), L.labels[m]


def test_isomorphism_against_networkx_digraph_matcher(lattice_pool):
    # poset isomorphism is cover-digraph isomorphism; networkx provides an
    # independent matcher to compare against
    import itertools
    import random

    import networkx as nx

    from lcmlat.lattice import FiniteLattice, is_isomorphic

    def digraph(L):
        g = nx.DiGraph()
        g.add_nodes_from(range(L.n))
        g.add_edges_from(L.cover_pairs)
        return g

    names = ["B2", "M3", "M5", "chain3", "fano", "S(3,2)", "L(P4)", "L(P5)",
             "L(C4)", "L(C5)", "graphic-matroid"]
    graphs = {n: digraph(lattice_pool[n]) for n in names}
    for a, b in itertools.combinations(names, 2):
        expected = nx.is_isomorphic(graphs[a], graphs[b])
        assert is_isomorphic(lattice_pool[a], lattice_pool[b]) == expected, (a, b)

    rng = random.Random(23)
    for name in ("fano", "L(C5)", "L(P5)"):
        L = lattice_pool[name]
        perm = list(range(L.n))
        rng.shuffle(perm)
        shuffled = [0] * L.n
        for j in range(L.n):
            m = 0
            mask = L.below[j]
            while mask:
                low = mask & -mask
                m |= 1 << perm[low.bit_length() - 1]
                mask ^= low
            shuffled[perm[j]] = m
        assert is_isomorphic(FiniteLattice.from_below_masks(shuffled), L)


def test_permutation_equality_against_networkx_bipartite_matcher():
    # two squarefree ideals agree up to a variable permutation exactly when
    # their variable-generator incidence graphs are isomorphic with the
    # sides kept apart
    import random

    import networkx as nx

    from lcmlat.ideals import Monomial, MonomialIdeal, ideals_permutation_equal, minimalize

    def incidence(I):
        g = nx.Graph()
        g.add_nodes_from((("x", v) for v in range(I.nvars)), side=0)
        g.add_nodes_from((("g", j) for j in range(I.ngens)), side=1)
        g.add_edges_from(
            (("x", v), ("g", j)) for j, m in enumerate(I.gens) for v in m.support()
        )
        return g

    def random_squarefree(rng, nvars):
        gens = []
        for _ in range(rng.randint(1, 6)):
            support = rng.sample(range(nvars), rng.randint(1, nvars))
            gens.append(Monomial(tuple(int(v in support) for v in range(nvars))))
        return minimalize(gens, nvars)

    def relabeled(I, rng):
        perm = rng.sample(range(I.nvars), I.nvars)
        return MonomialIdeal(I.nvars, tuple(
            Monomial(tuple(m.exps[perm[v]] for v in range(I.nvars))) for m in I.gens
        ))

    side = nx.algorithms.isomorphism.categorical_node_match("side", None)
    rng = random.Random(31)
    agree = 0
    for _ in range(150):
        nvars = rng.randint(2, 6)
        a = random_squarefree(rng, nvars)
        for b in (relabeled(a, rng), random_squarefree(rng, nvars)):
            expected = nx.is_isomorphic(incidence(a), incidence(b), node_match=side)
            assert ideals_permutation_equal(a, b) == expected, (str(a), str(b))
            agree += expected
    assert 150 < agree < 300  # both verdicts occur


def test_canonical_form_against_networkx_isomorphism():
    import itertools
    import random

    import networkx as nx

    from lcmlat.graphs import Graph, canonical_form

    def nx_graph(G):
        g = nx.Graph()
        g.add_nodes_from(range(G.n))
        g.add_edges_from(G.edges)
        return g

    pairs = list(itertools.combinations(range(7), 2))
    rng = random.Random(41)
    for _ in range(40):
        G = Graph(7, tuple(p for p in pairs if rng.random() < 0.5))
        perm = rng.sample(range(7), 7)
        H = Graph(7, tuple((perm[u], perm[v]) for u, v in G.edges))
        assert canonical_form(H) == canonical_form(G), G.edges
    same = 0
    for _ in range(200):
        # equal edge counts, so the verdict is not settled by size alone
        G = Graph(7, tuple(p for p in pairs if rng.random() < 0.5))
        H = Graph(7, tuple(rng.sample(pairs, len(G.edges))))
        expected = nx.is_isomorphic(nx_graph(G), nx_graph(H))
        assert (canonical_form(G) == canonical_form(H)) == expected, (G.edges, H.edges)
        same += expected
    assert same > 0


def test_from_below_masks_rejects_broken_relations():
    import pytest

    from lcmlat.errors import NotALattice
    from lcmlat.lattice import FiniteLattice

    # missing reflexivity
    with pytest.raises(NotALattice):
        FiniteLattice.from_below_masks([0b00, 0b11])
    # antisymmetry violation: two elements below each other
    with pytest.raises(NotALattice):
        FiniteLattice.from_below_masks([0b011, 0b011, 0b111])
    # transitivity violation
    with pytest.raises(NotALattice):
        FiniteLattice.from_below_masks([0b0001, 0b0011, 0b0110, 0b1101])


def test_top_betti_of_geometric_lattices_is_moebius(lattice_pool):
    # for a geometric lattice the homology of the proper part concentrates
    # in top dimension with rank |mu(bottom, top)|
    from lcmlat.ideals import lcm_lattice, phan_ideal
    from lcmlat.lattice import height, is_geometric, mobius

    for name in ("fano", "graphic-matroid", "M3", "M5", "S(3,2)"):
        L = lattice_pool[name]
        assert is_geometric(L)[0], name
        I = phan_ideal(L)
        LL = lcm_lattice(I)
        table = lattice_betti_table(LL, FieldSpec(32003))
        r = height(L)
        top_entry = table.multigraded[(r, LL.labels[LL.top])]
        assert top_entry == abs(mobius(L, L.bottom, L.top)), name
        assert table.pd == r, name
