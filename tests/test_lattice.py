from __future__ import annotations

from functools import reduce
from operator import or_

import numpy as np
import pytest

from lcmlat.errors import (
    CyclicCovers,
    LcmLatError,
    NotALattice,
    NotBounded,
    NotComparable,
)
from lcmlat.lattice import (
    atoms,
    coatoms,
    dual,
    height,
    is_graded,
    is_isomorphic,
    is_lower_semimodular,
    is_upper_semimodular,
    lattice_from_covers,
    meet_irreducibles,
    mi_width,
    mobius,
    open_interval_order_complex,
    product,
    property_report,
)
from lcmlat.constructions import fano_lattice, mn_lattice, subspace_lattice
from lcmlat.graphs import edge_ideal_lattice, path, star

B2_COVERS = [(0, 1), (0, 2), (1, 3), (2, 3)]


def b2():
    return lattice_from_covers(4, B2_COVERS)


def test_one_point_lattice():
    L = lattice_from_covers(1, [])
    assert L.bottom == L.top == 0
    assert height(L) == 0
    rep = property_report(L)
    assert all(v.verdict for v in rep.entries.values())


def test_b2_structure():
    L = b2()
    assert L.bottom == 0 and L.top == 3
    assert atoms(L) == [1, 2]
    assert coatoms(L) == [1, 2]
    assert meet_irreducibles(L) == [1, 2]
    ok, _ = is_graded(L)
    assert ok and L.chain_ranks == (0, 1, 1, 2) and height(L) == 2
    assert mi_width(L) == 2


def test_b2_all_properties_true():
    rep = property_report(b2())
    assert all(v.verdict for v in rep.entries.values())


def test_two_maximal_elements_rejected():
    with pytest.raises(NotBounded):
        lattice_from_covers(4, [(0, 1), (1, 2), (0, 3)])


def test_element_cap_fails_before_any_table(monkeypatch):
    import lcmlat.lattice as lattice_module
    from lcmlat.errors import TooLarge
    from lcmlat.formats import parse_ideal
    from lcmlat.ideals import lcm_lattice
    from lcmlat.lattice import MAX_ELEMENTS, FiniteLattice

    chain91 = lattice_from_covers(91, [(i, i + 1) for i in range(90)])
    boolean14 = parse_ideal("".join(f"x{i}\n" for i in range(1, 15)))
    assert 91 * 91 > MAX_ELEMENTS and 1 << 14 > MAX_ELEMENTS

    # a build over the cap can only take the dict path, which transposes its
    # down-sets before it fills the meet and join tables, so a call here
    # means a build got past the cap
    def no_build(out):
        raise AssertionError("a lattice build started")

    monkeypatch.setattr(lattice_module, "_transpose", no_build)
    with pytest.raises(NotBounded):
        lattice_from_covers(MAX_ELEMENTS + 1, [])
    with pytest.raises(NotBounded):
        FiniteLattice.from_below_masks([1] * (MAX_ELEMENTS + 1))
    with pytest.raises(NotBounded):
        product(chain91, chain91)
    with pytest.raises(TooLarge):
        lcm_lattice(boolean14)


def test_cyclic_covers_rejected():
    with pytest.raises(CyclicCovers):
        lattice_from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_no_unique_meet_rejected():
    # 0 < a,b < c,d < 1: the pair (c, d) has no unique meet
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    with pytest.raises(NotALattice):
        lattice_from_covers(6, covers)


def test_unsorted_cover_input_is_supported():
    # bottom gets the largest index; results must match the sorted copy
    L = lattice_from_covers(4, [(3, 1), (3, 2), (1, 0), (2, 0)])
    assert L.bottom == 3 and L.top == 0
    assert sorted(atoms(L)) == [1, 2]
    assert is_isomorphic(L, b2())
    # the chain 0 < 3 < 2 < 1, numbered against its order
    C = lattice_from_covers(4, [(0, 3), (3, 2), (2, 1)])
    assert C.bottom == 0 and C.top == 1
    assert mobius(C, C.bottom, C.top) == 0
    assert mobius(C, 3, 1) == 0 and mobius(C, 2, 1) == -1


def test_mn_lattice_properties():
    M3 = mn_lattice(3)
    assert meet_irreducibles(M3) == atoms(M3)
    assert mi_width(M3) == 3
    rep = property_report(M3)
    assert rep.verdict("modular")
    assert not rep.verdict("distributive")
    assert not rep.verdict("uniquely_complemented")
    x, c1, c2 = rep["uniquely_complemented"].witness
    assert c1 != c2


def test_fano_lattice_counts():
    F = fano_lattice()
    assert F.n == 16
    assert len(atoms(F)) == len(coatoms(F)) == 7
    assert meet_irreducibles(F) == coatoms(F)
    assert height(F) == 3
    assert mi_width(F) == 7
    assert is_graded(F)[0]


def _fence_lattice(m):
    """bottom < x_i < x_i' < y_i, y_{i+1} < top for i = 1..m, and
    bottom < z < y_1.  The meet-irreducibles are the x_i, the y_i and z; the
    y_i are a widest antichain among them, so mi_width is m + 1.  Ids are
    x_m, ..., x_1, z, y_1, ..., y_{m+1}: the matching search gives each x_i
    its y_i, and then z needs an augmenting path through all of them."""
    x = {i: m - i for i in range(1, m + 1)}
    y = {i: m + i for i in range(1, m + 2)}
    xs = {i: 2 * m + 1 + i for i in range(1, m + 1)}
    z, bottom, top = m, 3 * m + 2, 3 * m + 3
    covers = [(bottom, z), (z, y[1])] + [(bottom, x[i]) for i in x]
    covers += [(x[i], xs[i]) for i in x] + [(y[i], top) for i in y]
    covers += [(xs[i], y[i + d]) for i in x for d in (0, 1)]
    return lattice_from_covers(3 * m + 4, covers)


def test_mi_width_on_a_long_augmenting_path():
    assert mi_width(_fence_lattice(5)) == 6
    # longer than the default recursion limit: the search keeps its own stack
    assert mi_width(_fence_lattice(1000)) == 1001


def test_heights():
    assert height(lattice_from_covers(1, [])) == 0
    assert height(edge_ideal_lattice(path(5))) == 4
    assert height(fano_lattice()) == 3


def test_graded_examples():
    P5 = edge_ideal_lattice(path(5))
    ok, (i, j) = is_graded(P5)
    assert not ok
    # the witness is a cover on which the longest-chain rank skips
    assert (i, j) in P5.cover_pairs and P5.chain_ranks[j] != P5.chain_ranks[i] + 1
    F = fano_lattice()
    ok, _ = is_graded(F)
    assert ok and height(F) == 3


def test_mobius_values():
    L = b2()
    assert mobius(L, 1, 1) == 1
    assert mobius(L, L.bottom, L.top) == 1
    F = fano_lattice()
    assert abs(mobius(F, F.bottom, F.top)) == 8
    with pytest.raises(NotComparable):
        mobius(L, 1, 2)


def test_mobius_row_sums_vanish(lattice_pool, relabelled_pool):
    for L in [*lattice_pool.values(), *relabelled_pool.values()]:
        for y in range(L.n):
            for x in range(L.n):
                if x != y and L.leq(x, y):
                    total = sum(
                        mobius(L, x, z)
                        for z in range(L.n)
                        if L.leq(x, z) and L.leq(z, y)
                    )
                    assert total == 0


def test_open_interval_complexes():
    L = b2()
    K = open_interval_order_complex(L, L.bottom, 1)
    assert K.faces_by_dim == {-1: [()]}
    K2 = open_interval_order_complex(L, L.bottom, L.top)
    assert K2.n_faces(0) == 2 and K2.n_faces(1) == 0
    F = fano_lattice()
    KF = open_interval_order_complex(F, F.bottom, F.top)
    assert KF.n_faces(0) == 14 and KF.n_faces(1) == 21
    assert KF.dim == 1
    KF.validate()
    with pytest.raises(NotComparable):
        open_interval_order_complex(L, 1, 1)
    with pytest.raises(NotComparable):
        open_interval_order_complex(L, 1, 2)


def test_order_complex_faces_are_sorted_on_relabelled_lattices(relabelled_pool):
    # element ids need not follow the order; the chains must still come out
    # as increasing tuples, listed in sorted order
    for L in relabelled_pool.values():
        if L.n >= 3:
            open_interval_order_complex(L, L.bottom, L.top).validate()


def test_dual_is_involutive(lattice_pool):
    for L in lattice_pool.values():
        assert is_isomorphic(dual(dual(L)), L)


def test_graded_and_semimodularity_dualities(lattice_pool):
    for L in lattice_pool.values():
        D = dual(L)
        assert is_graded(L)[0] == is_graded(D)[0]
        assert is_upper_semimodular(L)[0] == is_lower_semimodular(D)[0]
        assert is_lower_semimodular(L)[0] == is_upper_semimodular(D)[0]


def test_products():
    B2 = b2()
    P = product(B2, B2)
    assert P.n == 16
    assert is_isomorphic(P, edge_ideal_lattice(star(5)))  # Boolean on 4 atoms
    one = lattice_from_covers(1, [])
    assert is_isomorphic(product(mn_lattice(3), one), mn_lattice(3))


def test_isomorphism_basics():
    B2 = b2()
    assert is_isomorphic(B2, B2)
    assert not is_isomorphic(B2, mn_lattice(3))
    assert is_isomorphic(subspace_lattice(2, 3), fano_lattice())
    # same size, same degree data, different order: M3 vs chain of 5
    C5 = lattice_from_covers(5, [(i, i + 1) for i in range(4)])
    assert not is_isomorphic(C5, mn_lattice(3))
    # bottom, six points, six two-point lines, top: colour refinement cannot
    # tell a hexagon from two triangles, only the search's edge checks can
    hexagon, triangles = (
        lattice_from_covers(
            14,
            [(0, p) for p in range(1, 7)]
            + [(1 + p, 7 + e) for e, line in enumerate(lines) for p in line]
            + [(e, 13) for e in range(7, 13)],
        )
        for lines in (
            ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)),
            ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)),
        )
    )
    assert is_isomorphic(hexagon, hexagon)
    assert not is_isomorphic(hexagon, triangles)
    # longer than the default recursion limit: the search keeps its own stack
    C1200 = lattice_from_covers(1200, [(i, i + 1) for i in range(1199)])
    assert is_isomorphic(C1200, C1200)


def test_meet_join_algebra(lattice_pool):
    for L in lattice_pool.values():
        if L.n > 64:
            continue
        m = np.array([list(row) for row in L.meet])
        j = np.array([list(row) for row in L.join])
        assert (m == m.T).all() and (j == j.T).all()
        # absorption: x ^ (x v y) == x == x v (x ^ y)
        idx = np.arange(L.n)[:, None]
        assert (m[idx, j] == idx).all()
        assert (j[idx, m] == idx).all()
        # associativity: (x ^ y) ^ z == x ^ (y ^ z), same for joins
        for x in range(L.n):
            assert (m[m[x], :] == m[x, m]).all()
            assert (j[j[x], :] == j[x, j]).all()


def test_implication_diagram(lattice_pool):
    for name, L in lattice_pool.items():
        rep = property_report(L)
        v = rep.verdict
        assert not v("boolean") or v("distributive"), name
        assert not v("distributive") or v("modular"), name
        assert not v("modular") or (
            v("upper_semimodular") and v("lower_semimodular") and v("supersolvable")
        ), name
        for p in ("modular", "upper_semimodular", "lower_semimodular",
                  "supersolvable"):
            assert not v(p) or v("graded"), (name, p)
        assert v("geometric") == (v("atomic") and v("upper_semimodular")), name
        assert not v("geometric") or (v("complemented") and v("coatomic")), name
        assert not v("boolean") or v("uniquely_complemented"), name
        assert not v("uniquely_complemented") or v("complemented"), name
        assert not v("strongly_complemented") or v("complemented"), name


def test_supersolvable_witness_is_modular_chain():
    F = fano_lattice()
    verdict = property_report(F)["supersolvable"]
    assert verdict.verdict
    chain = verdict.witness
    assert chain[0] == F.bottom and chain[-1] == F.top
    ranks = F.chain_ranks
    assert [ranks[c] for c in chain] == list(range(len(chain)))


def test_witnesses_violate_definitions():
    L = edge_ideal_lattice(path(5))
    rep = property_report(L)
    assert rep["modular"].witness == "not graded"
    M3 = mn_lattice(3)
    x, y, z = property_report(M3)["distributive"].witness
    meet, join = M3.meet, M3.join
    assert meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]


def test_from_below_masks_handles_shuffled_indices(lattice_pool):
    import random

    from lcmlat.lattice import FiniteLattice

    rng = random.Random(17)
    for name in ("B2", "M5", "fano", "L(P5)", "L(C4)"):
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
        R = FiniteLattice.from_below_masks(shuffled)
        assert R.bottom == perm[L.bottom] and R.top == perm[L.top]
        assert is_isomorphic(R, L), name
        for x in range(L.n):
            for y in range(L.n):
                assert R.meet[perm[x]][perm[y]] == perm[L.meet[x][y]]
                assert R.join[perm[x]][perm[y]] == perm[L.join[x][y]]


def test_false_witnesses_violate_definitions_exactly(lattice_pool):
    from lcmlat.lattice import (
        is_complemented,
        is_modular,
        is_upper_semimodular,
    )

    for name, L in lattice_pool.items():
        ok, _ = is_graded(L)
        if ok:
            rk = L.chain_ranks
            verdict, w = is_modular(L)
            if not verdict:
                x, y = w
                assert rk[x] + rk[y] != rk[L.meet[x][y]] + rk[L.join[x][y]]
            verdict, w = is_upper_semimodular(L)
            if not verdict:
                x, y = w
                assert rk[x] + rk[y] < rk[L.meet[x][y]] + rk[L.join[x][y]]
            verdict, w = is_lower_semimodular(L)
            if not verdict:
                x, y = w
                assert rk[x] + rk[y] > rk[L.meet[x][y]] + rk[L.join[x][y]]
        verdict, w = is_complemented(L)
        if not verdict:
            (x,) = w
            assert all(
                L.meet[x][y] != L.bottom or L.join[x][y] != L.top
                for y in range(L.n)
            )


def _inclusion_down_sets(masks):
    """below[i] of the inclusion order on masks, pair by pair."""
    return [sum(1 << j for j, a in enumerate(masks) if a & ~b == 0) for b in masks]


def _built(build, arg):
    """The tables build(arg) gives, or the class and message it raises."""
    try:
        L = build(arg)
    except LcmLatError as exc:
        return type(exc), str(exc)
    return L.below, L.above, L.meet, L.join, L.bottom, L.top


def _complex_with_top(n):
    """n sets on 8 points, a lattice: the first n - 1 subsets of range(8) by
    (size, value), which are closed under taking subsets, and range(8)."""
    by_size = sorted(range(255), key=lambda s: (s.bit_count(), s))
    return by_size[: n - 1] + [255]


def _subspaces_of_gf2_cubed():
    """The 16 subspaces of GF(2)^3, as sets of the 8 vectors."""
    return [
        m for m in range(256)
        if m & 1 and all(m >> (a ^ b) & 1 for a in range(8) for b in range(8)
                         if m >> a & 1 and m >> b & 1)
    ]


def test_set_lattice_tables_match_from_below_masks():
    import random

    from lcmlat.lattice import FiniteLattice, lattice_of_sets

    rng = random.Random(18)
    subspaces = _subspaces_of_gf2_cubed()
    assert len(subspaces) == 16
    families = [
        [], [0], [5], [0b01, 0b10, 0b11], [0, 0b01, 0b10], [3, 3, 7],
        subspaces, list(range(256)), _complex_with_top(254),
        rng.sample(range(256), 254),
    ]
    for k in range(1, 9):
        for _ in range(30):
            size = rng.randint(1, min(1 << k, 40))
            distinct = rng.sample(range(1 << k), size)
            families.append(distinct)
            families.append([rng.randrange(1 << k) for _ in range(size)])
            # lattices: union-closed with the empty set, and down-closed
            # with the universe on top, whose joins are not unions
            closed = {0}
            for m in distinct[:4]:
                closed |= {c | m for c in closed}
            families.append(rng.sample(sorted(closed), len(closed)))
            down = {s for m in distinct[:3] for s in range(1 << k) if s & ~m == 0}
            down.add((1 << k) - 1)
            families.append(rng.sample(sorted(down), len(down)))
    outcomes = set()
    for masks in families:
        expected = _built(FiniteLattice.from_below_masks, _inclusion_down_sets(masks))
        assert _built(lattice_of_sets, masks) == expected, masks
        outcomes.add(expected[0] if len(expected) == 2 else "lattice")
        if len(expected) > 2:
            # complementing within the universe gives the order dual
            universe = reduce(or_, masks, 0)
            below, above, meet, join, bottom, top = expected
            dual = _built(lattice_of_sets, [universe ^ m for m in masks])
            assert dual == (above, below, join, meet, top, bottom), masks
    assert outcomes == {"lattice", NotALattice, NotBounded}
    assert is_isomorphic(lattice_of_sets(subspaces), subspace_lattice(2, 3))


@pytest.mark.parametrize("n", [15, 16, 17, 254, 255, 256])
def test_set_lattice_tables_on_eight_points(n):
    # around n * n = 2**8 and n = 255: meets are intersections here, and a
    # join is the union when that is a member, else the whole set
    import random

    from lcmlat.lattice import lattice_of_sets

    masks = _complex_with_top(n)
    random.Random(n).shuffle(masks)
    index = {m: i for i, m in enumerate(masks)}
    L = lattice_of_sets(masks)
    assert L.n == n and L.bottom == index[0] and L.top == index[255]
    assert L.below == tuple(_inclusion_down_sets(masks))
    for i, a in enumerate(masks):
        assert tuple(L.meet[i]) == tuple(index[a & b] for b in masks)
        assert tuple(L.join[i]) == tuple(index.get(a | b, index[255]) for b in masks)


@pytest.mark.parametrize("k", [4, 8, 9])
def test_table_rows_are_bytes_while_indices_fit_a_byte(k):
    # B_k shuffled: lattice_of_sets fills B4 by byte lanes and hands B8 and
    # B9 to from_below_masks; rows are bytes up to 256 elements, then tuples
    import random

    from lcmlat.lattice import FiniteLattice, lattice_of_sets

    masks = list(range(1 << k))
    random.Random(k).shuffle(masks)
    index = {m: i for i, m in enumerate(masks)}
    row_type = bytes if k <= 8 else tuple
    for L in (
        lattice_of_sets(masks),
        FiniteLattice.from_below_masks(_inclusion_down_sets(masks)),
    ):
        for i, a in enumerate(masks):
            assert type(L.meet[i]) is type(L.join[i]) is row_type
            assert tuple(L.meet[i]) == tuple(index[a & b] for b in masks)
            assert tuple(L.join[i]) == tuple(index[a | b] for b in masks)
