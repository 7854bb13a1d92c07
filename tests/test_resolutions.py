from __future__ import annotations

import random

import pytest

from lcmlat.errors import ResourceLimit
from lcmlat.fields import FieldSpec
from lcmlat.ideals import Monomial, minimalize, phan_ideal
from lcmlat.constructions import fano_lattice, graphic_matroid_ideal, subspace_lattice
from lcmlat.graphs import complete, edge_ideal, graph_fixture, path, star
from lcmlat.resolutions import (
    betti_table,
    boolean_equivalence_report,
    is_cohen_macaulay,
    is_pure,
    pd_vs_height_report,
    projective_dimension,
    taylor_is_minimal,
    unique_variable_power_criterion,
)
from lcmlat.taylor import taylor_betti
from lcmlat.verify import random_ideal


def mono(*exps):
    return Monomial(tuple(exps))


def ideal(*gens):
    return minimalize([mono(*g) for g in gens])


FANO_IDEAL = phan_ideal(fano_lattice())


def test_fano_betti_table():
    t = betti_table(FANO_IDEAL, FieldSpec(0))
    assert t.graded == {(0, 0): 1, (1, 4): 7, (2, 6): 14, (3, 7): 8}
    assert t.pd == 3
    assert is_cohen_macaulay(FANO_IDEAL)
    assert is_pure(FANO_IDEAL) == (True, (0, 4, 6, 7))


def test_betti_row_one_per_generator():
    I = ideal((1, 1, 0, 2), (0, 1, 1, 0), (2, 0, 1, 0))
    t = betti_table(I)
    for g in I.gens:
        assert t.multigraded[(1, g)] == 1
    assert t.multigraded[(0, mono(0, 0, 0, 0))] == 1


def test_two_generator_overlap():
    t = betti_table(ideal((1, 1, 0), (0, 1, 1)))
    assert t.multigraded[(2, mono(1, 1, 1))] == 1


def test_pd_examples():
    assert projective_dimension(ideal((1,))) == 1
    assert projective_dimension(edge_ideal(path(5))) == 3
    assert projective_dimension(edge_ideal(graph_fixture("fig5"))) == 4


def test_cm_examples():
    assert is_cohen_macaulay(edge_ideal(graph_fixture("bipartite-cm")))
    assert not is_cohen_macaulay(graphic_matroid_ideal())


def test_taylor_minimality():
    assert taylor_is_minimal(edge_ideal(star(3))).is_minimal
    rep = taylor_is_minimal(edge_ideal(complete(3)))
    assert not rep.is_minimal
    assert rep.witness[0] == (0, 1, 2)
    assert taylor_is_minimal(ideal((3, 1))).is_minimal


def test_unique_variable_power():
    assert unique_variable_power_criterion(ideal((2, 0), (1, 2)))
    assert not unique_variable_power_criterion(edge_ideal(complete(3)))


def test_boolean_equivalence_cases():
    for gens, verdict in [
        ((((1, 1, 0), (1, 0, 1))), True),
        ((((1, 1, 0), (0, 1, 1), (1, 0, 1))), False),
        ((((2, 0), (0, 3))), True),
    ]:
        rep = boolean_equivalence_report(ideal(*gens))
        assert rep.all_agree()
        assert rep.lattice_is_boolean is verdict


def test_purity_examples():
    assert is_pure(phan_ideal(subspace_lattice(2, 2))) == (True, (0, 2, 3))
    assert is_pure(phan_ideal(subspace_lattice(3, 2))) == (True, (0, 3, 4))
    ok, _ = is_pure(edge_ideal(path(5)))
    assert not ok


def test_pd_vs_height_reports():
    fano = pd_vs_height_report(FANO_IDEAL)
    assert fano.pd == fano.lattice_height == 3 and fano.lattice_geometric
    p5 = pd_vs_height_report(edge_ideal(path(5)))
    assert p5.pd == 3 and p5.lattice_height == 4
    assert not p5.equal and p5.lattice_strongly_complemented
    k4 = pd_vs_height_report(edge_ideal(complete(4)))
    assert k4.lattice_lsm_coatomic and k4.equal


def test_taylor_oracle_small_agreement():
    rng = random.Random(3)
    for _ in range(40):
        I = random_ideal(rng, 4, 5, 3)
        t = betti_table(I, FieldSpec(32003))
        assert taylor_betti(I, FieldSpec(32003)) == t.multigraded


def test_taylor_oracle_generator_cap():
    big = minimalize([mono(*[1 if i == j else 0 for i in range(17)]) for j in range(17)])
    with pytest.raises(ResourceLimit):
        taylor_betti(big, FieldSpec(2))


def test_betti_respects_variable_permutation():
    I = ideal((1, 2, 0), (0, 1, 1), (2, 0, 1))
    perm = (2, 0, 1)
    permuted = minimalize(
        [mono(*[g.exps[perm[i]] for i in range(3)]) for g in I.gens]
    )
    t1 = betti_table(I, FieldSpec(32003))
    t2 = betti_table(permuted, FieldSpec(32003))
    remapped = {
        (i, mono(*[m.exps[perm[k]] for k in range(3)])): r
        for (i, m), r in t1.multigraded.items()
    }
    assert remapped == t2.multigraded


def test_render_text_matches_expected_layout():
    text = betti_table(FANO_IDEAL).render_text()
    lines = text.splitlines()
    assert lines[1].split() == ["0:", "1", "-", "-", "-"]
    assert lines[-1].split() == ["4:", "-", "-", "14", "8"]

