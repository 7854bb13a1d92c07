from __future__ import annotations

import random

import pytest

import lcmlat.resolutions as res
from lcmlat.errors import ContractViolation, LcmLatError, MissingLabels, ResourceLimit
from lcmlat.fields import FieldSpec
from lcmlat.ideals import Monomial, lcm_lattice, minimalize, phan_ideal
from lcmlat.constructions import fano_lattice, graphic_matroid_ideal, subspace_lattice
from lcmlat.graphs import (
    complete,
    connected_graph_masks,
    cycle,
    edge_ideal,
    graph_fixture,
    graph_from_mask,
    path,
    star,
)
from lcmlat.lattice import (
    is_atomic,
    is_complemented,
    is_strongly_complemented,
    lattice_from_covers,
    mobius,
)
from lcmlat.resolutions import (
    _vanishing_bounds,
    betti_table,
    boolean_equivalence,
    is_cohen_macaulay,
    is_pure,
    lattice_betti_table,
    lattice_pd,
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


#: The default route and the three fields the pinned tables are read over.
PINNED_FIELDS = (None, FieldSpec(2), FieldSpec(3), FieldSpec(0))


def _pinned_lattices() -> list:
    return [
        lcm_lattice(edge_ideal(cycle(8))),
        lcm_lattice(edge_ideal(path(10))),
        lcm_lattice(edge_ideal(complete(7))),
        lcm_lattice(edge_ideal(graph_fixture("fig6"))),
        lcm_lattice(FANO_IDEAL),
        lcm_lattice(phan_ideal(subspace_lattice(2, 3))),
    ]


def test_multigraded_betti_tables_are_pinned():
    # sha256 over every multigraded table below, each entry as
    # ((i, exponents), rank) in sorted order, on the default route and over
    # GF(2), GF(3) and QQ
    import hashlib

    tables = [
        sorted(
            ((i, m.exps), r)
            for (i, m), r in lattice_betti_table(L, field).multigraded.items()
        )
        for L in _pinned_lattices()
        for field in PINNED_FIELDS
    ]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "dfb90bc9809884c07e4c8cf175cefd513dc096ffcac0ce679d4599b7347d0bfe"
    )


def test_nonzero_interval_homology_needs_a_complemented_interval():
    # Bjorner (JCTA 30, 1981): the proper part of a finite lattice that is
    # not complemented is contractible, so (bottom, m) has homology only if
    # [bottom, m] is complemented.  And if the lower covers of m meet above
    # the bottom, every set of them is a face of the coatom crosscut, a full
    # simplex, which is acyclic.
    from functools import reduce

    for L in _pinned_lattices():
        for m in range(L.n):
            if m == L.bottom or not any(
                any(res._interval_ranks(L, m, field).values())
                for field in PINNED_FIELDS
            ):
                continue
            interval = [x for x in range(L.n) if L.leq(x, m)]
            for x in interval:
                assert any(
                    L.meet[x][y] == L.bottom and L.join[x][y] == m
                    for y in interval
                ), (L.labels[m], L.labels[x])
            lower = [x for x in interval if L.lower_cover_masks[m] >> x & 1]
            meet = reduce(lambda x, y: L.meet[x][y], lower)
            assert meet == L.bottom, L.labels[m]


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
        I = ideal(*gens)
        L = lcm_lattice(I)
        rep = boolean_equivalence(I, L, lattice_pd(L))
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


def test_complemented_clutter_is_not_strongly_complemented(complemented_clutter):
    L = lcm_lattice(complemented_clutter)
    assert L.n == 9
    assert is_complemented(L) == (True, None)
    assert is_strongly_complemented(L) == (False, (7,))
    assert mobius(L, L.bottom, L.top) == 0
    rep = pd_vs_height_report(complemented_clutter)
    assert (rep.pd, rep.lattice_height, rep.equal) == (2, 3, False)
    assert not rep.lattice_strongly_complemented


def test_pd_vs_height_second_route_reads_the_top_group(monkeypatch):
    # pd = height h exactly when the top interval has nonzero reduced
    # homology in dimension h - 2: C5 (17 elements, pd 3 < height 4) has
    # none there, K4 (pd = height = 3) has some.  The pd visit of P4
    # (7 elements, pd 2 < height 3) stops before the top, so the report
    # computes the top interval itself.
    cases = {
        "C5": edge_ideal(cycle(5)),
        "K4": edge_ideal(complete(4)),
        "P4": edge_ideal(path(4)),
    }
    reports = {}
    for name, I in cases.items():
        L = lcm_lattice(I)
        top = res._interval_ranks(L, L.top, None).get(L.chain_ranks[L.top] - 2, 0)
        reports[name] = pd_vs_height_report(I)
        assert (top > 0) == reports[name].equal == (name == "K4"), name
    assert lcm_lattice(cases["C5"]).n == 17
    assert (reports["C5"].pd, reports["C5"].lattice_height) == (3, 4)
    P4 = lcm_lattice(cases["P4"])
    assert P4.n == 7 and res._pd_visit(P4, None)[1] is None
    assert (reports["P4"].pd, reports["P4"].lattice_height) == (2, 3)

    # P7 (pd 4, height 6): the visit computes the top and then x2...x7.  A
    # group in dimension h - 2 below x2...x7 raises the pd to the height, and
    # the top, which has none there, then disagrees with it; below an
    # element the visit never reaches, the same lie changes nothing.
    P7 = edge_ideal(path(7))
    real = res._interval_ranks

    def lying_below(label):
        def ranks(L, m, field):
            out = real(L, m, field)
            return {**out, 4: 1} if str(L.labels[m]) == label else out

        return ranks

    monkeypatch.setattr(res, "_interval_ranks", lying_below("x2*x3*x4*x5*x6*x7"))
    with pytest.raises(ContractViolation, match="dimension 4 has rank 0"):
        pd_vs_height_report(P7)
    assert "x1*x2" in map(str, lcm_lattice(P7).labels)
    monkeypatch.setattr(res, "_interval_ranks", lying_below("x1*x2"))
    assert pd_vs_height_report(P7).pd == 4


def test_pd_vs_height_builds_the_top_complex_once(monkeypatch):
    # the second route reuses the top interval of the pd visit, and computes
    # it only when the visit stopped before the top, as for P4
    real = res.crosscut_complex
    tops = []

    def spy(L, lo, hi):
        tops.append((lo, hi) == (L.bottom, L.top))
        return real(L, lo, hi)

    monkeypatch.setattr(res, "crosscut_complex", spy)
    for G in (complete(4), cycle(5), path(4)):
        tops.clear()
        pd_vs_height_report(edge_ideal(G))
        assert tops.count(True) == 1, G


#: random_ideal shapes (max variables, max generators, max degree) of the
#: seeded pools below.
PD_POOL_SHAPES = ((5, 5, 3), (6, 6, 4), (4, 8, 3), (6, 8, 2))


@pytest.fixture(scope="module")
def pd_lattices(lattice_pool):
    """LCM lattices of seeded ideals of each pool shape, of the Phan ideals
    of the atomic pool lattices, and of the edge ideals of every connected
    graph on 2-5 vertices."""
    out = []
    for shape in PD_POOL_SHAPES:
        rng = random.Random(11)
        out += [lcm_lattice(random_ideal(rng, *shape)) for _ in range(50)]
    for L in lattice_pool.values():
        if L.n > 1 and is_atomic(L)[0]:
            out.append(lcm_lattice(phan_ideal(L)))
    for n in range(2, 6):
        for mask in connected_graph_masks(n):
            out.append(lcm_lattice(edge_ideal(graph_from_mask(n, mask))))
    return out


@pytest.mark.parametrize("char", [2, 32003, None])
def test_lattice_pd_equals_the_table_pd(pd_lattices, char):
    field = None if char is None else FieldSpec(char)
    for L in pd_lattices:
        assert lattice_pd(L, field) == lattice_betti_table(L, field).pd, L.labels[L.top]
    # refused inside the package's error contract, and still a ValueError
    # for callers that catch one
    unlabeled = lattice_from_covers(2, [(0, 1)])
    for route in (lattice_pd, lattice_betti_table):
        with pytest.raises(MissingLabels, match="labels") as caught:
            route(unlabeled)
        assert isinstance(caught.value, LcmLatError)
        assert isinstance(caught.value, ValueError)


def test_lattice_pd_leaves_the_labels_undecoded():
    I = minimalize([Monomial((2, 1, 0)), Monomial((0, 1, 3)), Monomial((1, 0, 1))])
    L = lcm_lattice(I)
    pd = lattice_pd(L)
    assert "labels" not in vars(L) and L.has_labels
    assert pd == lattice_betti_table(L).pd
    assert L.labels[L.top] == I.lcm_of_all()


def test_betti_entries_vanish_above_the_bound(pd_lattices):
    # beta_{i,m} = 0 for i > min(atoms of [0, m], lower covers of m, rank m)
    for L in pd_lattices:
        bound = dict(zip(L.labels, _vanishing_bounds(L)))
        table = lattice_betti_table(L, FieldSpec(32003))
        assert all(i <= bound[m] for (i, m), r in table.multigraded.items() if r)


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

