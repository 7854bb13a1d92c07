from __future__ import annotations

import itertools
import random
from functools import reduce

import pytest

from lcmlat.errors import EmptyGeneratorSet, NotAtomic, UnitGenerator
from lcmlat.ideals import (
    Monomial,
    MonomialIdeal,
    ideal_height,
    ideals_permutation_equal,
    is_minimal_ideal,
    lcm_lattice,
    minimalize,
    phan_ideal,
    polarize,
)
from lcmlat.constructions import (
    fano_lattice,
    graphic_matroid_ideal,
    mn_lattice,
)
from lcmlat.graphs import Graph, cycle, edge_ideal, graph_fixture, star
from lcmlat.lattice import atoms, is_atomic, is_isomorphic, lattice_from_covers


def mono(*exps):
    return Monomial(tuple(exps))


def ideal(*gens):
    return minimalize([mono(*g) for g in gens])


def test_minimalize_keeps_minimal_generators():
    assert ideal((1, 0), (1, 1)).gens == (mono(1, 0),)
    assert ideal((1, 1, 0), (0, 1, 1)).ngens == 2
    assert ideal((2, 0), (2, 1), (0, 3)).gens == (mono(2, 0), mono(0, 3))


def test_minimalize_errors():
    with pytest.raises(UnitGenerator):
        minimalize([mono(0, 0)])
    with pytest.raises(EmptyGeneratorSet):
        minimalize([])
    with pytest.raises(UnitGenerator):
        MonomialIdeal(2, (mono(0, 0),))


def test_lcm_lattice_small():
    L = lcm_lattice(ideal((1,)))
    assert L.n == 2
    L2 = lcm_lattice(ideal((1, 1, 0), (1, 0, 1)))  # star graph ideal
    assert L2.n == 4
    assert is_isomorphic(L2, lattice_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))


def test_lcm_lattice_is_atomic_with_generator_atoms(lattice_pool):
    i1 = ideal((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2), (2, 0, 0, 1))
    L = lcm_lattice(i1)
    assert is_atomic(L)[0]
    assert {L.labels[a] for a in atoms(L)} == set(i1.gens)
    assert L.labels[L.top] == i1.lcm_of_all()
    assert L.labels[L.bottom].is_unit


def test_fano_ideal_lattice_roundtrip():
    F = fano_lattice()
    I = phan_ideal(F)
    assert [str(g) for g in I.gens] == [
        "x2*x4*x5*x7",
        "x2*x3*x5*x6",
        "x3*x4*x6*x7",
        "x1*x2*x6*x7",
        "x1*x4*x5*x6",
        "x1*x3*x5*x7",
        "x1*x2*x3*x4",
    ]
    assert is_isomorphic(lcm_lattice(I), F)


def test_phan_examples():
    M3 = mn_lattice(3)
    assert [str(g) for g in phan_ideal(M3).gens] == ["x2*x3", "x1*x3", "x1*x2"]
    B2 = lattice_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert [str(g) for g in phan_ideal(B2).gens] == ["x2", "x1"]
    M5 = mn_lattice(5)
    assert all(g.degree == 4 for g in phan_ideal(M5).gens)
    assert phan_ideal(M5).ngens == 5


def test_phan_requires_atoms():
    with pytest.raises(NotAtomic):
        phan_ideal(lattice_from_covers(1, []))
    with pytest.raises(NotAtomic):
        phan_ideal(lattice_from_covers(3, [(0, 1), (1, 2)]))


def test_polarize():
    sq = ideal((1, 1, 0), (0, 1, 1))
    assert polarize(sq).gens == sq.gens
    assert [str(g) for g in polarize(ideal((2,))).gens] == ["x1*x2"]
    I = ideal((2, 0), (1, 1))
    P = polarize(I)
    assert P.is_squarefree
    assert sorted(str(g) for g in P.gens) == ["x1*x2", "x1*x3"]
    assert is_isomorphic(lcm_lattice(I), lcm_lattice(P))


def test_polarize_preserves_lattice_with_high_powers():
    I = ideal((3, 1, 0), (1, 2, 1), (0, 0, 3))
    assert is_isomorphic(lcm_lattice(I), lcm_lattice(polarize(I)))


def test_lcm_lattice_matches_brute_force_subset_lcms():
    """Labels in (degree, exponent vector) order and divisibility down-sets
    of non-squarefree ideals, against every subset lcm taken with
    Monomial.lcm."""
    rng = random.Random(5)
    checked = 0
    while checked < 300:
        nvars = rng.randint(1, 4)
        monos = [
            Monomial(tuple(rng.randint(0, 4) for _ in range(nvars)))
            for _ in range(rng.randint(1, 6))
        ]
        monos = [m for m in monos if not m.is_unit]
        if not monos:
            continue
        I = minimalize(monos, nvars)
        if I.is_squarefree:
            continue
        lcms = {
            reduce(Monomial.lcm, sub, Monomial((0,) * nvars))
            for k in range(I.ngens + 1)
            for sub in itertools.combinations(I.gens, k)
        }
        expected = sorted(lcms, key=lambda m: (m.degree, m.exps))
        L = lcm_lattice(I)
        assert list(L.labels) == expected, str(I)
        for j, b in enumerate(expected):
            down = sum(1 << i for i, a in enumerate(expected) if a.divides(b))
            assert L.below[j] == down, (str(I), j)
        checked += 1


def _brute_height(I):
    nv = I.nvars
    for k in range(nv + 1):
        for S in itertools.combinations(range(nv), k):
            if all(set(g.support()) & set(S) for g in I.gens):
                return k
    return nv


def test_ideal_height_examples():
    assert ideal_height(ideal((1, 1, 0), (0, 1, 1))) == 1
    assert ideal_height(phan_ideal(fano_lattice())) == 3
    assert ideal_height(graphic_matroid_ideal()) == 2


def test_ideal_height_matches_exhaustive_search():
    import random

    from lcmlat.verify import random_ideal

    rng = random.Random(5)
    for _ in range(60):
        I = random_ideal(rng, 6, 6, 3)
        assert ideal_height(I) == _brute_height(I)


def test_is_minimal_ideal():
    assert is_minimal_ideal(phan_ideal(fano_lattice()))
    assert is_minimal_ideal(edge_ideal(graph_fixture("bipartite-cm")))
    assert is_minimal_ideal(graphic_matroid_ideal())
    # a fresh variable multiplied into every generator breaks minimality
    padded = ideal((1, 1, 1, 0, 1), (1, 1, 0, 1, 1))
    assert not is_minimal_ideal(padded)
    assert not is_minimal_ideal(ideal((2, 0), (0, 1)))  # not squarefree


def test_permutation_equality():
    a = edge_ideal(star(4))
    b = minimalize(
        [mono(0, 1, 0, 1), mono(0, 0, 1, 1), mono(1, 0, 0, 1)]
    )  # star centered at the last variable
    assert ideals_permutation_equal(a, b)
    assert not ideals_permutation_equal(a, edge_ideal(star(5)))
    # biregular incidence graphs, which colour refinement cannot separate:
    # the edges of a hexagon against two triangles, and the vertex stars of
    # K4 against those of a 3-regular multigraph on four vertices
    hexagon = edge_ideal(cycle(6))
    triangles = edge_ideal(Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))))
    assert ideals_permutation_equal(hexagon, hexagon)
    assert not ideals_permutation_equal(hexagon, triangles)
    k4 = ideal((1, 1, 1, 0, 0, 0), (1, 0, 0, 1, 1, 0), (0, 1, 0, 1, 0, 1),
               (0, 0, 1, 0, 1, 1))
    multigraph = ideal((1, 1, 0, 0, 1, 0), (1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 1, 0),
                       (0, 0, 1, 1, 0, 1))
    assert ideals_permutation_equal(k4, k4)
    assert not ideals_permutation_equal(k4, multigraph)
    # one variable per search level, past the default recursion limit
    big = MonomialIdeal(1200, (Monomial((1,) * 1200),))
    assert ideals_permutation_equal(big, big)
