"""Independent re-derivations of the core predicates and Betti values.

Each check here computes the same fact as the library by a different route:
lattice laws instead of rank identities, exhaustive chain enumeration instead
of the modular-element search, and closed-form Betti numbers for families
whose resolutions are classical.
"""

from __future__ import annotations

import ast
import random
from itertools import combinations, product
from math import comb
from pathlib import Path

import lcmlat.taylor
from lcmlat.fields import FieldSpec
from lcmlat.homology import SparseColumns, reduced_homology_ranks, sparse_rank
from lcmlat.graphs import (
    complete,
    connected_class_masks,
    connected_graph_masks,
    cycle,
    edge_ideal,
    edge_ideal_lattice,
    graph_from_mask,
    star,
)
from lcmlat.ideals import Monomial, MonomialIdeal, lcm_lattice
from lcmlat.lattice import (
    atoms,
    coatoms,
    crosscut_complex,
    dual,
    is_atomic,
    is_coatomic,
    is_complemented,
    is_distributive,
    is_graded,
    is_lower_semimodular,
    is_modular,
    is_strongly_complemented,
    is_supersolvable,
    is_uniquely_complemented,
    is_upper_semimodular,
    lattice_from_covers,
    mobius,
    open_interval_order_complex,
)
from lcmlat.resolutions import betti_table, lattice_betti_table
from lcmlat.taylor import taylor_betti
from lcmlat.verify import random_ideal

from complexes import euler_characteristic


def _law_modular(L):
    """x <= z implies x v (y ^ z) == (x v y) ^ z, with no rank function."""
    for x in range(L.n):
        for z in range(L.n):
            if not L.leq(x, z):
                continue
            for y in range(L.n):
                if L.join[x][L.meet[y][z]] != L.meet[L.join[x][y]][z]:
                    return False
    return True


def _cover_usm(L):
    """Both cover x ^ y implies x v y covers both."""
    ups = L.upper_cover_masks
    for x in range(L.n):
        for y in range(L.n):
            m = L.meet[x][y]
            if (ups[m] >> x) & 1 and (ups[m] >> y) & 1:
                j = L.join[x][y]
                if not ((ups[x] >> j) & 1 and (ups[y] >> j) & 1):
                    return False
    return True


def _cover_lsm(L):
    downs = L.lower_cover_masks
    for x in range(L.n):
        for y in range(L.n):
            j = L.join[x][y]
            if (downs[j] >> x) & 1 and (downs[j] >> y) & 1:
                m = L.meet[x][y]
                if not ((downs[x] >> m) & 1 and (downs[y] >> m) & 1):
                    return False
    return True


def _modular_element(L, m):
    """The rank identity rk(x) + rk(m) == rk(x ^ m) + rk(x v m) for every x."""
    rk = L.chain_ranks
    return all(
        rk[x] + rk[m] == rk[L.meet[x][m]] + rk[L.join[x][m]] for x in range(L.n)
    )


def _brute_supersolvable(L):
    """Enumerate every maximal chain and test the rank identity directly."""
    ok, _ = is_graded(L)
    if not ok:
        return False
    good = [_modular_element(L, m) for m in range(L.n)]
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


def _covers(L, a, b):
    """a < b with nothing strictly between them, from leq alone."""
    return (
        a != b and L.leq(a, b)
        and not any(L.leq(a, c) and L.leq(c, b) for c in range(L.n) if c not in (a, b))
    )


def test_supersolvable_witness_is_a_maximal_chain_of_modular_elements(
    lattice_pool, relabelled_pool
):
    lattices = [
        *lattice_pool.items(),
        *((f"{name} relabelled", L) for name, L in relabelled_pool.items()),
        *((f"graph {i}", L) for i, L in enumerate(_small_graph_lattices())),
    ]
    chains = 0
    for name, L in lattices:
        ok, chain = is_supersolvable(L)
        if not ok:
            continue
        chains += 1
        assert (chain[0], chain[-1]) == (L.bottom, L.top), name
        assert all(_covers(L, a, b) for a, b in zip(chain, chain[1:])), name
        assert all(_modular_element(L, m) for m in chain), name
    assert chains == 19 + 19 + 264


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



def test_dense_six_vertex_graphs_agree_on_both_routes():
    # the 9 connected 6-vertex classes with 12-15 edges, K6 included: the
    # largest Taylor complexes (up to 2^15 subsets) tier-1 builds, over
    # GF(2) and GF(32003), and K6 over QQ as well
    classes = [graph_from_mask(6, mask) for mask in connected_class_masks(6)]
    dense = [G for G in classes if len(G.edges) >= 12]
    assert len(dense) == 9 and max(len(G.edges) for G in dense) == 15
    for G in dense:
        I = edge_ideal(G)
        L = lcm_lattice(I)
        for char in (2, 32003) + ((0,) if len(G.edges) == 15 else ()):
            interval = lattice_betti_table(L, FieldSpec(char)).multigraded
            assert interval == taylor_betti(I, FieldSpec(char)), (G.edges, char)


def _taylor_reference(ideal, field):
    """The Taylor complex as written: subsets are sorted tuples, each
    multidegree keeps the subsets with that lcm, every boundary column is
    reduced and none is skipped, and the ranks come from
    ``homology.sparse_rank``, not from the oracle's own elimination."""
    lcm_of = {
        sigma: tuple(
            max((ideal.gens[g].exps[v] for g in sigma), default=0)
            for v in range(ideal.nvars)
        )
        for size in range(ideal.ngens + 1)
        for sigma in combinations(range(ideal.ngens), size)
    }
    out = {}
    for exps in set(lcm_of.values()):
        by_size = {}
        for sigma, m in lcm_of.items():
            if m == exps:
                by_size.setdefault(len(sigma), []).append(sigma)
        rank = {}
        for size, cols in by_size.items():
            rows = {tau: k for k, tau in enumerate(by_size.get(size - 1, []))}
            columns = [
                {rows[tau]: (-1) ** k for k in range(size)
                 if (tau := sigma[:k] + sigma[k + 1:]) in rows}
                for sigma in cols
            ]
            rank[size] = sparse_rank(SparseColumns(len(rows), columns), field)
        for size, cols in by_size.items():
            if betti := len(cols) - rank[size] - rank.get(size + 1, 0):
                out[(size, Monomial(exps))] = betti
    return out


def test_clearing_matches_the_taylor_complex_reduced_in_full():
    rng = random.Random(17)
    for k in range(60):
        I = random_ideal(rng, 5, 8, 3)
        for char in (2, 3, 0):
            field = FieldSpec(char)
            assert taylor_betti(I, field) == _taylor_reference(I, field), (k, char, str(I))


def test_critical_cells_match_the_taylor_complex_reduced_in_full():
    # 9-11 distinct monomials of one degree (so an antichain) in 3-5
    # variables, with exponents up to 4 and in random generator order.  The
    # oracle keeps, per multidegree m, the subsets that hold the lowest
    # generator g dividing m and lose m without it.  Some subset of lcm m
    # must lack g, so that g is not just each subset's own lowest generator
    rng = random.Random(23)
    g_missing = 0
    for k in range(12):
        nvars, degree = 3 + k % 3, 4 - k % 2
        pool = [e for e in product(range(degree + 1), repeat=nvars) if sum(e) == degree]
        gens = tuple(Monomial(e) for e in rng.sample(pool, 9 + k % 3))
        I = MonomialIdeal(nvars, gens)
        assert not I.is_squarefree
        for size in range(2, I.ngens + 1):
            for sigma in combinations(range(I.ngens), size):
                m = gens[sigma[0]]
                for t in sigma[1:]:
                    m = m.lcm(gens[t])
                g = next(t for t, gen in enumerate(gens) if gen.divides(m))
                g_missing += g < sigma[0]
        for char in (2, 32003, 0):
            field = FieldSpec(char)
            assert taylor_betti(I, field) == _taylor_reference(I, field), (k, char, str(I))
    assert g_missing


def test_taylor_oracle_imports_only_errors_fields_and_ideals():
    # the oracle shares the field conventions and the ideal type, and no
    # code of the lattice or homology route
    tree = ast.parse(Path(lcmlat.taylor.__file__).read_text())
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:
                internal |= {alias.name for alias in node.names}
            elif node.level or node.module.split(".")[0] == "lcmlat":
                internal.add(node.module.removeprefix("lcmlat."))
        elif isinstance(node, ast.Import):
            internal |= {
                alias.name.removeprefix("lcmlat.")
                for alias in node.names if alias.name.split(".")[0] == "lcmlat"
            }
    assert internal == {"errors", "fields", "ideals"}


def _longest_chains(L):
    """Length of the longest chain from the bottom to each element, found by
    walking every chain bottom < x1 < x2 < ... of the strict order."""
    best = [0] * L.n
    stack = [(L.bottom, 0)]
    while stack:
        x, length = stack.pop()
        best[x] = max(best[x], length)
        stack.extend((y, length + 1) for y in range(L.n) if y != x and L.leq(x, y))
    return tuple(best)


def test_covers_and_chain_ranks_match_their_definitions(lattice_pool, relabelled_pool):
    lattices = [
        *lattice_pool.items(),
        *((f"{name} relabelled", L) for name, L in relabelled_pool.items()),
    ]
    for name, L in lattices:
        less = [[L.leq(x, y) and x != y for y in range(L.n)] for x in range(L.n)]
        ups = tuple(
            sum(
                1 << y for y in range(L.n)
                if less[x][y] and not any(less[x][z] and less[z][y] for z in range(L.n))
            )
            for x in range(L.n)
        )
        downs = tuple(sum(1 << x for x in range(L.n) if ups[x] >> y & 1) for y in range(L.n))
        assert L.upper_cover_masks == ups, name
        assert L.lower_cover_masks == downs, name
        assert L.chain_ranks == _longest_chains(L), name
    # a 1200-element chain numbered at random: position k is covered by
    # position k + 1 only, and its longest chain has length k
    pos = random.Random(7).sample(range(1200), 1200)
    C = lattice_from_covers(1200, [(pos[k], pos[k + 1]) for k in range(1199)])
    ups, downs, ranks = [0] * 1200, [0] * 1200, [0] * 1200
    for k, x in enumerate(pos):
        ranks[x] = k
        if k < 1199:
            ups[x] = 1 << pos[k + 1]
            downs[pos[k + 1]] = 1 << x
    assert C.upper_cover_masks == tuple(ups)
    assert C.lower_cover_masks == tuple(downs)
    assert C.chain_ranks == tuple(ranks)

def _nonzero_homology(K):
    return {d: r for d, r in reduced_homology_ranks(K, FieldSpec(0)).items() if r}


def test_crosscut_homology_matches_the_order_complex(lattice_pool, relabelled_pool):
    # crosscut theorem: the crosscut complex of [bottom, m] is homotopy
    # equivalent to the open interval (bottom, m), so the homology agrees
    # and the reduced Euler characteristic is mu(bottom, m)
    lattices = [
        *lattice_pool.items(),
        *((f"{name} relabelled", L) for name, L in relabelled_pool.items()),
        ("L(C8)", lcm_lattice(edge_ideal(cycle(8)))),
    ]
    for name, L in lattices:
        for m in range(L.n):
            if m == L.bottom:
                continue
            K = crosscut_complex(L, m)
            K.validate()
            order = open_interval_order_complex(L, L.bottom, m)
            assert _nonzero_homology(K) == _nonzero_homology(order), (name, m)
            assert euler_characteristic(K) == mobius(L, L.bottom, m), (name, m)


def test_crosscut_complex_takes_the_side_with_fewer_vertices():
    # atoms 1, 2, 3; coatoms 3 and 4 = 1 v 2.  The open interval is the
    # component {1, 2, 4} and the point 3, so reduced H_0 has rank 1.
    L = lattice_from_covers(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
    D = dual(L)
    assert len(coatoms(L)) < len(atoms(L)) and len(atoms(D)) < len(coatoms(D))
    for M, side in ((L, coatoms(L)), (D, atoms(D))):
        K = crosscut_complex(M, M.top)
        assert K.vertices == tuple(side)
        assert K.faces_by_dim == {-1: [0], 0: [0b01, 0b10]}
        assert _nonzero_homology(K) == {0: 1}


def _complements(L, x):
    """Every y with x ^ y = bottom and x v y = top."""
    return [
        y for y in range(L.n)
        if L.meet[x][y] == L.bottom and L.join[x][y] == L.top
    ]


def _subset_bounds(L, gens, start, table):
    """Bitmask of the folds through ``table`` (meet or join), from start, of
    every subset of gens: each generator in turn is added to, or left out
    of, every fold so far."""
    folds = {start}
    for g in gens:
        folds |= {table[v][g] for v in folds}
    return sum(1 << v for v in folds)


def _first_bad(items, holds):
    """(False, the first item where holds fails), or (True, None): the
    library's verdict and witness."""
    bad = next((item for item in items if not holds(*item)), None)
    return (True, None) if bad is None else (False, bad)


def _generated(x, gens, start, table, below):
    """Whether x is the fold through ``table``, from start, of the gens below
    it."""
    acc = start
    for g in gens:
        if below(g, x):
            acc = table[acc][g]
    return acc == x


def _predicate_lattices(lattice_pool, relabelled_pool):
    yield from lattice_pool.items()
    yield from ((f"{name} relabelled", L) for name, L in relabelled_pool.items())
    for n in range(2, 6):
        for mask in connected_graph_masks(n):
            yield f"graph {n}:{mask}", edge_ideal_lattice(graph_from_mask(n, mask))


def test_complement_and_generation_predicates_match_definitions(
    lattice_pool, relabelled_pool
):
    # verdicts and witnesses of the bitset predicates against their
    # definitions, written with the meet and join tables only
    for name, L in _predicate_lattices(lattice_pool, relabelled_pool):
        elems = range(L.n)
        singles = [(x,) for x in elems]
        comps = [_complements(L, x) for x in elems]
        at, co = atoms(L), coatoms(L)
        joins = _subset_bounds(L, at, L.bottom, L.join)
        meets = _subset_bounds(L, co, L.top, L.meet)
        assert L.join_closure_of_atoms == joins, name
        assert L.meet_closure_of_coatoms == meets, name

        assert is_complemented(L) == _first_bad(singles, lambda x: comps[x]), name
        x = next((x for x in elems if len(comps[x]) != 1), None)
        assert is_uniquely_complemented(L) == (
            (True, None) if x is None else (False, (x, *comps[x][:2]))
        ), name
        assert is_strongly_complemented(L) == _first_bad(
            singles,
            lambda x: any((joins >> y) & 1 for y in comps[x])
            and any((meets >> y) & 1 for y in comps[x]),
        ), name

        assert is_atomic(L) == _first_bad(
            singles, lambda x: _generated(x, at, L.bottom, L.join, L.leq)
        ), name
        assert is_coatomic(L) == _first_bad(
            singles,
            lambda x: _generated(x, co, L.top, L.meet, lambda g, x: L.leq(x, g)),
        ), name
        assert is_distributive(L) == _first_bad(
            ((x, y, z) for x in elems for y in elems for z in elems),
            lambda x, y, z: L.meet[x][L.join[y][z]]
            == L.join[L.meet[x][y]][L.meet[x][z]],
        ), name


def test_generation_predicates_swap_under_duality(lattice_pool, relabelled_pool):
    # the dual keeps element ids, so atoms become coatoms, joins become
    # meets, and every verdict and witness carries over exactly
    for name, L in _predicate_lattices(lattice_pool, relabelled_pool):
        D = dual(L)
        assert is_coatomic(D) == is_atomic(L), name
        assert is_atomic(D) == is_coatomic(L), name
        assert is_strongly_complemented(D) == is_strongly_complemented(L), name
        assert D.meet_closure_of_coatoms == L.join_closure_of_atoms, name
        assert D.join_closure_of_atoms == L.meet_closure_of_coatoms, name


def test_complement_masks_match_the_definition(lattice_pool, relabelled_pool):
    for name, L in _predicate_lattices(lattice_pool, relabelled_pool):
        expected = tuple(sum(1 << y for y in _complements(L, x)) for x in range(L.n))
        assert L.complement_masks == expected, name


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


def test_minimal_ideal_against_phan_and_networkx_bipartite_matcher(lattice_pool):
    # the definition itself: squarefree, and equal up to a renaming of the
    # variables to the Phan ideal of its own LCM lattice, which holds when the
    # variable-generator incidence graphs are isomorphic with the sides kept
    # apart
    import networkx as nx

    from lcmlat.ideals import (
        MonomialIdeal,
        is_minimal_ideal,
        minimalize,
        phan_ideal,
        polarize,
    )
    from lcmlat.lattice import is_atomic
    from lcmlat.verify import random_ideal

    def incidence(I):
        g = nx.Graph()
        g.add_nodes_from((("x", v) for v in range(I.nvars)), side=0)
        g.add_nodes_from((("g", j) for j in range(I.ngens)), side=1)
        g.add_edges_from(
            (("x", v), ("g", j)) for j, m in enumerate(I.gens) for v in m.support()
        )
        return g

    side = nx.algorithms.isomorphism.categorical_node_match("side", None)

    def reference(I):
        if not I.is_squarefree:
            return False
        P = phan_ideal(lcm_lattice(I))
        return nx.is_isomorphic(incidence(I), incidence(P), node_match=side)

    def from_columns(cols, rows):
        """The ideal whose generator j has exponent cols[v][j] in variable v,
        generators taken in the order rows."""
        return MonomialIdeal(len(cols), tuple(
            Monomial(tuple(c[j] for c in cols)) for j in rows
        ))

    def variants(I, rng):
        """I with its variables and generators shuffled, and that again with
        an idle variable and with a twin of one variable."""
        cols = [[g.exps[v] for g in I.gens] for v in range(I.nvars)]
        cols = rng.sample(cols, len(cols))
        rows = rng.sample(range(I.ngens), I.ngens)
        twin = rng.choice(cols)
        return [from_columns(c, rows) for c in (cols, cols + [[0] * I.ngens],
                                                 cols + [twin])]

    def clutter(rng, nvars):
        gens = []
        for _ in range(rng.randint(1, 6)):
            support = rng.sample(range(nvars), rng.randint(1, nvars))
            gens.append(Monomial(tuple(int(v in support) for v in range(nvars))))
        return minimalize(gens, nvars)

    rng = random.Random(37)
    pool = [random_ideal(rng, 5, 5, 3) for _ in range(150)]
    pool += [polarize(I) for I in pool]
    pool += [clutter(rng, rng.randint(2, 6)) for _ in range(150)]
    for L in lattice_pool.values():
        if L.n > 1 and is_atomic(L)[0]:
            P = phan_ideal(L)
            pool += [P, *variants(P, rng)]
    pool.append(MonomialIdeal(1200, (Monomial((1,) * 1200),)))
    minimal = 0
    for I in pool:
        expected = reference(I)
        assert is_minimal_ideal(I) == expected, str(I)
        minimal += expected
    assert 0 < minimal < len(pool)  # both verdicts occur


def test_find_isomorphism_on_graphs_against_networkx():
    import itertools
    import random

    import networkx as nx

    from lcmlat.graphs import Graph
    from lcmlat.lattice import find_isomorphism

    def nx_graph(G):
        g = nx.Graph()
        g.add_nodes_from(range(G.n))
        g.add_edges_from(G.edges)
        return g

    def search(G, H):
        """find_isomorphism's map from G onto H, checked when there is one."""
        image = find_isomorphism(
            G.adjacency, H.adjacency,
            [G.degree(v) for v in range(G.n)], [H.degree(v) for v in range(H.n)],
        )
        if image is not None:
            mapped = {tuple(sorted((image[u], image[v]))) for u, v in G.edges}
            assert mapped == set(H.edges), (G.edges, H.edges, image)
        return image

    pairs = list(itertools.combinations(range(7), 2))
    rng = random.Random(41)
    for _ in range(40):
        G = Graph(7, tuple(p for p in pairs if rng.random() < 0.5))
        perm = rng.sample(range(7), 7)
        H = Graph(7, tuple((perm[u], perm[v]) for u, v in G.edges))
        assert nx.is_isomorphic(nx_graph(G), nx_graph(H))
        assert search(G, H) is not None, G.edges
    same = 0
    for _ in range(200):
        # equal edge counts, so the verdict is not settled by size alone
        G = Graph(7, tuple(p for p in pairs if rng.random() < 0.5))
        H = Graph(7, tuple(rng.sample(pairs, len(G.edges))))
        expected = nx.is_isomorphic(nx_graph(G), nx_graph(H))
        assert (search(G, H) is not None) == expected, (G.edges, H.edges)
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



def _brute_bound(n, x, y, leq):
    """The bound z of x and y (leq(z, x) and leq(z, y)) that every other
    such bound is leq to; None when there is no unique one.  With leq the
    order this is the meet, with leq reversed the join."""
    bounds = [z for z in range(n) if leq(z, x) and leq(z, y)]
    best = [z for z in bounds if all(leq(w, z) for w in bounds)]
    return best[0] if len(best) == 1 else None


def test_meet_and_join_tables_match_brute_force_from_leq(lattice_pool, relabelled_pool):
    lattices = [*lattice_pool.values(), *relabelled_pool.values()]
    for n in range(2, 6):
        lattices += [edge_ideal_lattice(graph_from_mask(n, m)) for m in connected_graph_masks(n)]
    for L in lattices:
        geq = lambda a, b: L.leq(b, a)  # noqa: E731
        for x in range(L.n):
            for y in range(x + 1):
                assert L.meet[x][y] == L.meet[y][x] == _brute_bound(L.n, x, y, L.leq)
                assert L.join[x][y] == L.join[y][x] == _brute_bound(L.n, x, y, geq)
        assert all(L.leq(L.bottom, z) and L.leq(z, L.top) for z in range(L.n))


def test_not_a_lattice_names_a_pair_without_that_bound():
    # bounded posets from random covers between a fixed bottom and top,
    # numbered at random; the order is closed here, not by the library
    import random
    import re

    import pytest

    from lcmlat.errors import NotALattice
    from lcmlat.lattice import lattice_from_covers

    rng = random.Random(13)
    named = 0
    for _ in range(600):
        n = rng.randint(5, 10)
        covers = {(0, i) for i in range(1, n - 1)} | {(i, n - 1) for i in range(1, n - 1)}
        covers |= {(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1) if rng.random() < 0.5}
        perm = rng.sample(range(n), n)
        covers = [(perm[i], perm[j]) for i, j in sorted(covers)]
        reach = [[i == j for j in range(n)] for i in range(n)]
        for i, j in covers:
            reach[i][j] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        leq = lambda a, b: reach[a][b]  # noqa: E731
        geq = lambda a, b: reach[b][a]  # noqa: E731
        lattice = all(
            _brute_bound(n, x, y, leq) is not None and _brute_bound(n, x, y, geq) is not None
            for x in range(n) for y in range(n)
        )
        if lattice:
            lattice_from_covers(n, covers)
            continue
        with pytest.raises(NotALattice) as err:
            lattice_from_covers(n, covers)
        x, y, kind = re.fullmatch(
            r"elements (\d+) and (\d+) have no unique (meet|join)", str(err.value)
        ).groups()
        assert _brute_bound(n, int(x), int(y), leq if kind == "meet" else geq) is None
        named += 1
    assert named > 40
