from __future__ import annotations

import pytest

from lcmlat.errors import BadParameter
from lcmlat.constructions import (
    fano_lattice,
    graphic_matroid_ideal,
    graphic_matroid_lattice,
    mn_lattice,
    subspace_count,
    subspace_lattice,
)
from lcmlat.ideals import ideal_height, lcm_lattice, phan_ideal
from lcmlat.lattice import (
    atoms,
    coatoms,
    height,
    is_graded,
    is_isomorphic,
    mobius,
    property_report,
)


def test_subspace_lattice_small():
    assert subspace_lattice(2, 1).n == 2
    assert is_isomorphic(subspace_lattice(2, 2), mn_lattice(3))
    S = subspace_lattice(2, 3)
    assert S.n == 16
    assert is_isomorphic(S, fano_lattice())
    with pytest.raises(BadParameter):
        subspace_lattice(4, 2)
    with pytest.raises(BadParameter):
        subspace_lattice(2, 0)


def test_subspace_counts_and_grading():
    for q, r in ((2, 2), (3, 2), (5, 2), (2, 3)):
        L = subspace_lattice(q, r)
        assert L.n == subspace_count(q, r)
        expected_atoms = (q**r - 1) // (q - 1)
        assert len(atoms(L)) == len(coatoms(L)) == expected_atoms
        ok, _ = is_graded(L)
        assert ok and height(L) == r


def test_subspace_lattices_are_modular_geometric_coatomic():
    for q, r in ((2, 2), (3, 2), (5, 2), (2, 3)):
        rep = property_report(subspace_lattice(q, r))
        for prop in ("atomic", "coatomic", "modular", "geometric"):
            assert rep.verdict(prop), (q, r, prop)


def test_mn_lattice():
    assert mn_lattice(1).n == 3
    assert height(mn_lattice(1)) == 2
    M3 = mn_lattice(3)
    rep = property_report(M3)
    assert rep.verdict("modular") and not rep.verdict("distributive")
    with pytest.raises(BadParameter):
        mn_lattice(0)


def test_fano_lattice_fixture():
    F = fano_lattice()
    rep = property_report(F)
    assert rep.verdict("modular")
    assert mobius(F, F.bottom, F.top) == -8
    assert F.labels is not None
    # labels are consistent with the order: label of join = lcm of labels
    for x in range(F.n):
        for y in range(F.n):
            j = F.join[x][y]
            assert F.labels[j] == F.labels[x].lcm(F.labels[y])


def test_graphic_matroid_fixture():
    L = graphic_matroid_lattice()
    assert L.n == 13
    assert height(L) == 3
    rep = property_report(L)
    assert rep.verdict("geometric")
    assert rep.verdict("supersolvable")
    assert rep.verdict("complemented")
    assert not rep.verdict("modular")
    I = graphic_matroid_ideal()
    assert is_isomorphic(lcm_lattice(I), L)
    assert ideal_height(I) == 2


def test_phan_of_mn_is_all_but_one_products():
    for n in (3, 5, 8):
        I = phan_ideal(mn_lattice(n))
        assert I.ngens == n and I.nvars == n
        assert all(g.degree == n - 1 for g in I.gens)


def test_capacity_guard():
    from lcmlat.errors import TooLarge

    assert subspace_count(2, 3) == 16
    with pytest.raises(TooLarge):
        subspace_lattice(2, 25)
    # the size is checked before primality, so a q that is not prime gets
    # TooLarge when the space is over the cap
    with pytest.raises(TooLarge):
        subspace_lattice(4, 14)
