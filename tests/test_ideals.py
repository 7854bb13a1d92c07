from __future__ import annotations

import itertools
import random
import tracemalloc
from functools import reduce

import pytest

from lcmlat.errors import (
    ArityMismatch,
    EmptyGeneratorSet,
    LcmLatError,
    NotALattice,
    NotAtomic,
    NotMinimal,
    TooLarge,
    UnitGenerator,
)
from lcmlat.ideals import (
    Monomial,
    MonomialIdeal,
    ideal_height,
    is_minimal_ideal,
    lcm_lattice,
    minimalize,
    phan_ideal,
    polarize,
    validate_labels,
)
from lcmlat.constructions import (
    fano_lattice,
    graphic_matroid_ideal,
    mn_lattice,
)
from lcmlat.graphs import Graph, edge_ideal, graph_fixture
from lcmlat.lattice import atoms, is_atomic, is_isomorphic, lattice_from_covers


def mono(*exps):
    return Monomial(tuple(exps))


def ideal(*gens):
    return minimalize([mono(*g) for g in gens])


@pytest.mark.parametrize("exps", [(1.9, 0.5), ("2", 1), (1, -1)])
def test_monomial_rejects_non_integer_and_negative_exponents(exps):
    # never truncated or coerced: (1.9, 0.5) is not x1, ("2", 1) is not x1^2*x2
    with pytest.raises(ValueError) as err:
        Monomial(exps)
    assert isinstance(err.value, LcmLatError)


def test_minimalize_keeps_minimal_generators():
    assert ideal((1, 0), (1, 1)).gens == (mono(1, 0),)
    assert ideal((1, 1, 0), (0, 1, 1)).ngens == 2
    assert ideal((2, 0), (2, 1), (0, 3)).gens == (mono(2, 0), mono(0, 3))


def test_minimalize_matches_the_pairwise_definition():
    # the distinct monomials no other one divides, by (degree, exponents);
    # shorter monomials are padded with zeros to the longest
    rng = random.Random(41)
    for _ in range(400):
        nvars = rng.randint(1, 5)
        monos = [
            mono(*(rng.randint(0, 3) for _ in range(rng.randint(1, nvars))))
            for _ in range(rng.randint(1, 14))
        ]
        monos = [m for m in monos if not m.is_unit] or [mono(*[1] * nvars)]
        width = max(m.nvars for m in monos)
        padded = {Monomial(m.exps + (0,) * (width - m.nvars)) for m in monos}
        expected = sorted(
            (m for m in padded if not any(k != m and k.divides(m) for k in padded)),
            key=lambda m: (m.degree, m.exps),
        )
        assert minimalize(monos).gens == tuple(expected), monos


def test_minimalize_errors():
    with pytest.raises(UnitGenerator):
        minimalize([mono(0, 0)])
    with pytest.raises(UnitGenerator, match="^1 is not allowed as a generator$"):
        minimalize([mono(0, 0), mono(1, 0)])
    with pytest.raises(EmptyGeneratorSet):
        minimalize([])
    with pytest.raises(UnitGenerator):
        MonomialIdeal(2, (mono(0, 0),))
    # refused inside the package's error contract, and still a ValueError
    # for callers that catch one
    for build, error in [
        (lambda: minimalize([mono(1, 0, 0)], nvars=2), ArityMismatch),
        (lambda: MonomialIdeal(2, (mono(1, 0), mono(0, 1, 0))), ArityMismatch),
        (lambda: MonomialIdeal(2, (mono(1, 0), mono(2, 1))), NotMinimal),
    ]:
        with pytest.raises(error) as caught:
            build()
        assert isinstance(caught.value, LcmLatError)
        assert isinstance(caught.value, ValueError)


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


def test_lcm_lattice_cap_stops_the_build_early():
    # one variable per generator: the first frontier round alone makes
    # 179,700 lcms, so the cap must act within the round
    n = 600
    many = MonomialIdeal(
        n, tuple(Monomial(tuple(int(i == j) for j in range(n))) for i in range(n))
    )
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            lcm_lattice(many)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


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


def test_ideal_pd_polarizes_twice(capsys, monkeypatch, tmp_path):
    # minimalize and the minimality check polarize; lcm_lattice and
    # polarize reuse the check's masks, which eq, hash and repr leave out
    import lcmlat.ideals as ideals_module
    from lcmlat import cli

    calls = []

    def counted(gens):
        calls.append(len(gens))
        return polarization(gens)

    polarization = ideals_module._polarization
    monkeypatch.setattr(ideals_module, "_polarization", counted)
    f = tmp_path / "wide.ideal"
    f.write_text("x1^3*x2\nx2^2*x3\nx1*x3^4\nx1^3*x2^2\n")
    assert cli.main(["ideal", "pd", str(f)]) == 0
    assert capsys.readouterr().out == "3\n"
    assert calls == [4, 3]
    I = ideal((3, 1, 0), (0, 2, 1), (1, 0, 4))
    del calls[:]
    assert polarize(I).is_squarefree and calls == [3]  # the check on its result
    masks, offsets = polarization(I.gens)
    assert I._polarized == (tuple(masks), tuple(offsets))
    J = MonomialIdeal(3, I.gens)
    assert J == I and hash(J) == hash(I) and "_polarized" not in repr(I)


def test_polarize_preserves_lattice_with_high_powers():
    I = ideal((3, 1, 0), (1, 2, 1), (0, 0, 3))
    assert is_isomorphic(lcm_lattice(I), lcm_lattice(polarize(I)))


def _assert_subset_lcm_order(I):
    """Labels in (degree, exponent vector) order and divisibility down-sets,
    against every subset lcm taken with Monomial.lcm."""
    lcms = {
        reduce(Monomial.lcm, sub, Monomial((0,) * I.nvars))
        for k in range(I.ngens + 1)
        for sub in itertools.combinations(I.gens, k)
    }
    expected = sorted(lcms, key=lambda m: (m.degree, m.exps))
    L = lcm_lattice(I)
    assert list(L.labels) == expected, str(I)
    for j, b in enumerate(expected):
        down = sum(1 << i for i, a in enumerate(expected) if a.divides(b))
        assert L.below[j] == down, (str(I), j)


def test_lcm_lattice_matches_brute_force_subset_lcms():
    """Non-squarefree ideals on 1-4 variables, exponents 0-4."""
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
        _assert_subset_lcm_order(I)
        checked += 1


@pytest.mark.parametrize("top_exponent", [1, 4])
def test_lcm_lattice_order_with_idle_variables(top_exponent):
    """Squarefree ideals (exponents 0-1) and non-squarefree ones (0-4), on
    2-6 variables of which at least one divides no generator: its
    polarization block has width 0."""
    rng = random.Random(11 + top_exponent)
    checked = 0
    while checked < 200:
        nvars = rng.randint(2, 6)
        idle = set(rng.sample(range(nvars), rng.randint(1, nvars - 1)))
        monos = [
            Monomial(tuple(
                0 if v in idle else rng.randint(0, top_exponent) for v in range(nvars)
            ))
            for _ in range(rng.randint(1, 6))
        ]
        monos = [m for m in monos if not m.is_unit]
        if not monos:
            continue
        I = minimalize(monos, nvars)
        if I.is_squarefree != (top_exponent == 1):
            continue
        _assert_subset_lcm_order(I)
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
    # 40 disjoint edges: the disjoint-support bound prunes the 2^40 branches
    matching = Graph(80, tuple((2 * k, 2 * k + 1) for k in range(40)))
    assert ideal_height(edge_ideal(matching)) == 40
    # deeper than the default recursion limit: the search keeps its own stack
    matching = Graph(2200, tuple((2 * k, 2 * k + 1) for k in range(1100)))
    assert ideal_height(edge_ideal(matching)) == 1100


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


def _pairwise_label_check(L):
    """The message of the first pair (x, y), in row order, whose labels
    disagree with leq or whose join label is not the lcm, checked pair by
    pair on the monomials; None when every pair agrees."""
    labs = L.labels
    for x in range(L.n):
        for y in range(L.n):
            if L.leq(x, y) != labs[x].divides(labs[y]):
                return f"labels of {x} and {y} disagree with the order"
            if labs[L.join[x][y]] != labs[x].lcm(labs[y]):
                return f"label of join({x}, {y}) is not the lcm of the labels"
    return None


def _label_check(L):
    try:
        validate_labels(L)
    except NotALattice as exc:
        return str(exc)
    return None


def test_label_check_matches_the_pairwise_definition(lattice_pool):
    from lcmlat.lattice import FiniteLattice
    from lcmlat.verify import random_ideal

    rng = random.Random(41)
    labeled = [L for L in lattice_pool.values() if L.labels is not None]
    labeled += [lcm_lattice(random_ideal(rng, 5, 5, 3)) for _ in range(80)]
    labeled = [L for L in labeled if L.n > 1]
    for L in labeled:
        assert _label_check(L) is None
    mislabeled, kinds = 0, set()
    while mislabeled < 1000:
        L = rng.choice(labeled)
        labs = list(L.labels)
        i, j = rng.sample(range(L.n), 2)
        if rng.random() < 0.5:
            labs[i], labs[j] = labs[j], labs[i]
        else:
            exps = list(labs[i].exps)
            v = rng.randrange(len(exps))
            exps[v] = max(0, exps[v] + rng.choice((-2, -1, 1, 2)))
            labs[i] = Monomial(tuple(exps))
        M = FiniteLattice(L.below, L.above, L.meet, L.join, L.bottom, L.top, labs)
        expected = _pairwise_label_check(M)
        assert _label_check(M) == expected, (L.labels, labs)
        mislabeled += expected is not None
        kinds.add(expected and expected.split()[0])
    # both messages, and perturbations that leave the labels valid
    assert kinds == {"labels", "label", None}


def test_label_check_keeps_wide_exponents_narrow():
    # a chain labeled x1^8192, ..., x300^8192 fails at its first pair; as
    # plain polarization masks its labels would take 46 MB
    chain = lattice_from_covers(300, [(i, i + 1) for i in range(299)], [
        Monomial((0,) * k + (8192,) + (0,) * (299 - k)) for k in range(300)
    ])
    tracemalloc.start()
    try:
        with pytest.raises(NotALattice, match="labels of 0 and 1 disagree"):
            validate_labels(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
