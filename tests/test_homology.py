from __future__ import annotations

import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import lcmlat.homology as hm
from lcmlat.errors import BadComplex, BadParameter
from lcmlat.fields import (
    PRIME_BASES,
    PSI_13,
    FieldSpec,
    _strong_probable_prime,
    is_prime,
)
from lcmlat.homology import (
    SimplicialComplexData,
    SparseColumns,
    boundary_matrix,
    reduced_homology_ranks,
    sparse_rank,
)
from lcmlat.lattice import open_interval_order_complex
from lcmlat.constructions import fano_lattice

from complexes import complex_from_facets, euler_characteristic

SRC = Path(__file__).resolve().parents[1] / "src"


def test_field_spec_validation():
    assert FieldSpec(0).characteristic == 0
    assert str(FieldSpec(2)) == "GF(2)"
    with pytest.raises(BadParameter):
        FieldSpec(4)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if is_prime(n)] == [
        n for n in range(200_000) if _is_prime_by_trial_division(n)
    ]


@pytest.mark.parametrize(
    "n, fooled",
    [
        # psi_k, the least composite that passes the Miller-Rabin round to
        # each of the first k prime bases, for each distinct psi_k below
        # psi_13 (OEIS A014233): it fails base k + 1, and only base 41
        # catches the last one
        (2_047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 8),
        (3_825_123_056_546_413_051, 11),
        (318_665_857_834_031_151_167_461, 12),
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n, fooled):
    assert all(_strong_probable_prime(n, a) for a in PRIME_BASES[:fooled])
    assert not _strong_probable_prime(n, PRIME_BASES[fooled])
    assert not is_prime(n)


def test_is_prime_refuses_to_guess_at_or_above_psi_13():
    assert is_prime(2**61 - 1) and is_prime(10_000_000_000_000_061)
    assert not is_prime(PSI_13 - 1)
    assert FieldSpec(2**61 - 1).characteristic == 2**61 - 1
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(BadParameter, match="primality"):
            FieldSpec(n)


def test_boundary_single_vertex():
    K = complex_from_facets((0,), [(0,)])
    B0 = boundary_matrix(K, 0)
    assert B0 == SparseColumns(1, [{0: 1}])
    assert B0.shape == (1, 1) and B0.nnz == 1


def test_boundary_edge_signs():
    K = complex_from_facets((0, 1), [(0, 1)])
    B1 = boundary_matrix(K, 1)
    assert B1.nrows == 2
    assert B1.columns[0] == {0: -1, 1: 1}


def test_hollow_triangle_rank():
    K = complex_from_facets(range(3), [(0, 1), (1, 2), (0, 2)])
    B1 = boundary_matrix(K, 1)
    assert sparse_rank(B1, FieldSpec(0)) == 2
    ranks = reduced_homology_ranks(K, FieldSpec(0))
    assert ranks == {-1: 0, 0: 0, 1: 1}


def test_empty_face_only_complex():
    K = SimplicialComplexData(vertices=(), faces_by_dim={-1: [0]})
    assert reduced_homology_ranks(K, FieldSpec(0)) == {-1: 1}


def test_two_isolated_vertices():
    K = complex_from_facets((0, 1), [(0,), (1,)])
    assert reduced_homology_ranks(K, FieldSpec(0)) == {-1: 0, 0: 1}


@pytest.mark.parametrize("char", [2, 3, 32003, 0, None])
def test_augmentation_rank_is_read_off_the_vertices(char):
    # the augmentation is never reduced: its rank is 1 exactly when there is
    # a vertex, over every field
    field = None if char is None else FieldSpec(char)
    cases = [
        (SimplicialComplexData(vertices=()), {-1: 1}),
        (complex_from_facets((0,), [(0,)]), {-1: 0, 0: 0}),
        (complex_from_facets((0, 1), [(0,), (1,)]), {-1: 0, 0: 1}),
    ]
    for K, expected in cases:
        K.validate()
        assert reduced_homology_ranks(K, field) == expected, K.faces_by_dim


def test_fano_interval_homology():
    F = fano_lattice()
    K = open_interval_order_complex(F, F.bottom, F.top)
    for char in (0, 2, 32003):
        ranks = reduced_homology_ranks(K, FieldSpec(char))
        assert ranks[0] == 0 and ranks[1] == 8


def _compose(A: SparseColumns, B: SparseColumns) -> list:
    """Columns of the product A B, each with its zero entries dropped."""
    assert A.shape[1] == B.nrows
    product = []
    for col in B.columns:
        acc = {}
        for r, v in col.items():
            for s, w in A.columns[r].items():
                acc[s] = acc.get(s, 0) + v * w
        product.append({s: x for s, x in acc.items() if x})
    return product


def test_boundary_squared_is_zero(lattice_pool):
    for L in lattice_pool.values():
        if L.n == 1:
            continue
        K = open_interval_order_complex(L, L.bottom, L.top)
        for d in range(1, K.dim + 1):
            prod = _compose(boundary_matrix(K, d - 1), boundary_matrix(K, d))
            assert not any(prod)


def test_euler_characteristic(lattice_pool):
    for L in lattice_pool.values():
        if L.n == 1:
            continue
        K = open_interval_order_complex(L, L.bottom, L.top)
        ranks = reduced_homology_ranks(K, FieldSpec(32003))
        assert euler_characteristic(K) == sum(
            (-1) ** d * r for d, r in ranks.items()
        )


def test_homology_vanishes_above_chain_bound(lattice_pool):
    from lcmlat.lattice import height

    for L in lattice_pool.values():
        if L.n == 1:
            continue
        K = open_interval_order_complex(L, L.bottom, L.top)
        ranks = reduced_homology_ranks(K, FieldSpec(32003))
        bound = height(L) - 2
        assert all(r == 0 for d, r in ranks.items() if d > bound)


def test_full_simplex_is_acyclic(monkeypatch):
    # every d-face without vertex 0 is the face with 0 added minus its least
    # vertex, so it is cleared: the rank sees the C(k - 1, d) d-faces that
    # hold vertex 0, with a row for every (d-1)-face; the augmentation,
    # d = 0, is never reduced
    seen = []
    real = hm.sparse_rank

    def spy(mat, field):
        seen.append(mat.shape)
        return real(mat, field)

    monkeypatch.setattr(hm, "sparse_rank", spy)
    for k in range(1, 7):
        seen.clear()
        K = complex_from_facets(range(k), [range(k)])
        ranks = reduced_homology_ranks(K, FieldSpec(2))
        assert all(r == 0 for r in ranks.values()), k
        assert seen == [(comb(k, d), comb(k - 1, d)) for d in range(1, k)], k


def _uncleared_ranks(K, field):
    """Reduced homology ranks from every column of every boundary matrix."""
    rank = [0] + [
        sparse_rank(boundary_matrix(K, d), field) for d in range(K.dim + 1)
    ] + [0]
    return {d: K.n_faces(d) - rank[d + 1] - rank[d + 2] for d in range(-1, K.dim + 1)}


def test_clearing_keeps_every_rank():
    # seeded random complexes and every crosscut complex of L(C8): the
    # cleared ranks equal the ranks of the full boundary matrices
    from lcmlat.graphs import cycle, edge_ideal
    from lcmlat.ideals import lcm_lattice
    from lcmlat.lattice import crosscut_complex

    rng = random.Random(5)
    complexes = []
    for _ in range(80):
        n = rng.randint(1, 9)
        facets = [
            rng.sample(range(n), rng.randint(1, min(n, 4)))
            for _ in range(rng.randint(1, 12))
        ]
        complexes.append(complex_from_facets(range(n), facets))
    rp2 = [[v - 1 for v in f] for f in RP2_FACETS]
    complexes.append(complex_from_facets(range(6), rp2))
    L = lcm_lattice(edge_ideal(cycle(8)))
    complexes += [crosscut_complex(L, m) for m in range(L.n) if m != L.bottom]
    for K in complexes:
        K.validate()
        for char in (2, 3, 32003, 0):
            field = FieldSpec(char)
            assert reduced_homology_ranks(K, field) == _uncleared_ranks(K, field), (
                char, K.faces_by_dim,
            )


def test_sparse_rank_matches_numpy():
    # random sparse integer matrices of every shape, with zero, repeated and
    # dependent columns and entries that vanish mod p, against independent
    # ranks: numpy's over QQ, the Taylor oracle's own elimination over GF(p).
    # That elimination is checked too: over QQ against numpy, and over GF(2)
    # against its XOR path, which pivots at the top bit; with the rows
    # reversed both pivot at the first row, so both give the leading rows
    # of the column space in echelon form.
    from lcmlat.taylor import _pivot_rows, _xor_pivot_rows

    rng = np.random.default_rng(11)
    for trial in range(300):
        nrows, ncols = rng.integers(0, 11, size=2)
        a = rng.integers(-6, 7, size=(nrows, ncols))
        a = a * (rng.random((nrows, ncols)) < rng.random())
        if ncols > 2:
            j, k, l = rng.integers(ncols, size=3)
            a[:, j] = 0
            a[:, k] = a[:, l]
            j, k, l = rng.integers(ncols, size=3)
            a[:, j] = rng.integers(-3, 4) * a[:, k] + rng.integers(-3, 4) * a[:, l]
        if trial % 3 == 0:
            a = a * rng.choice([2, 3, 32003])
        mat = SparseColumns(
            int(nrows),
            [{r: int(a[r, j]) for r in np.flatnonzero(a[:, j]).tolist()}
             for j in range(ncols)],
        )
        expected = np.linalg.matrix_rank(a.astype(float)) if a.size else 0
        assert sparse_rank(mat, FieldSpec(0)) == expected, a
        assert len(_pivot_rows(mat.columns, FieldSpec(0))) == expected, a
        bitsets = [
            sum(1 << (mat.nrows - 1 - r) for r, v in col.items() if v % 2)
            for col in mat.columns
        ]
        xor_rows = {mat.nrows - 1 - t for t in _xor_pivot_rows(bitsets)}
        assert xor_rows == _pivot_rows(mat.columns, FieldSpec(2)), a
        for p in (2, 3, 32003):
            expected = len(_pivot_rows(mat.columns, FieldSpec(p)))
            assert sparse_rank(mat, FieldSpec(p)) == expected, (p, a)


#: The 6-vertex real projective plane, vertices 1..6.
RP2_FACETS = [(1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6)]


def test_projective_plane_homology_depends_on_the_field():
    # the 6-vertex real projective plane: H_1 = Z/2 and H_2 = 0 integrally,
    # so both reduced ranks are 1 over GF(2) and 0 over any other field
    K = complex_from_facets(range(6), [[v - 1 for v in f] for f in RP2_FACETS])
    assert (K.n_faces(0), K.n_faces(1), K.n_faces(2)) == (6, 15, 10)
    assert reduced_homology_ranks(K, FieldSpec(2)) == {-1: 0, 0: 0, 1: 1, 2: 1}
    zero = {-1: 0, 0: 0, 1: 0, 2: 0}
    for char in (0, 3, 32003):
        assert reduced_homology_ranks(K, FieldSpec(char)) == zero, char
    assert reduced_homology_ranks(K) == zero


def test_projective_plane_torsion_in_both_betti_routes():
    # Its Stanley-Reisner ideal is the 10 missing triangles as cubics (every
    # edge is a face).  By Hochster's formula beta_{i, x1...x6} is the rank of
    # reduced H_{5-i} of RP^2, so beta_3 = beta_4 = 1 there over GF(2) and
    # nothing there over any other field.  Both routes must see it, so the
    # Taylor oracle's clearing runs where the field changes the answer.
    from itertools import combinations

    from lcmlat.ideals import Monomial, MonomialIdeal, lcm_lattice
    from lcmlat.resolutions import lattice_betti_table, lattice_pd
    from lcmlat.taylor import taylor_betti

    missing = [t for t in combinations(range(1, 7), 3) if t not in RP2_FACETS]
    I = MonomialIdeal(6, tuple(
        Monomial(tuple(int(v in t) for v in range(1, 7))) for t in missing
    ))
    assert I.ngens == 10
    L = lcm_lattice(I)
    top = Monomial((1,) * 6)
    for char in (2, 3, 32003, 0):
        taylor = taylor_betti(I, FieldSpec(char))
        at_top = {i: r for (i, m), r in taylor.items() if m == top}
        assert at_top == ({3: 1, 4: 1} if char == 2 else {}), char
        table = lattice_betti_table(L, FieldSpec(char))
        assert taylor == table.multigraded, char
        assert lattice_pd(L, FieldSpec(char)) == table.pd, char

def test_default_field_confirms_char0(monkeypatch):
    F = fano_lattice()
    K = open_interval_order_complex(F, F.bottom, F.top)
    assert reduced_homology_ranks(K)[1] == 8

    calls = []
    real = hm._homology_ranks

    def spy(K, field):
        calls.append(field.characteristic)
        return real(K, field)

    monkeypatch.setattr(hm, "_homology_ranks", spy)
    reduced_homology_ranks(K)
    assert set(calls) == {hm.DEFAULT_PRIME, 0}


def test_char_discrepancy_warns_and_prefers_rationals(monkeypatch):
    K = complex_from_facets((0, 1, 2), [(0, 1), (1, 2), (0, 2)])
    real = hm._homology_ranks

    def lying_fast_path(K, field):
        ranks = real(K, field)
        if field.characteristic:
            ranks = dict(ranks)
            ranks[1] += 1
        return ranks

    monkeypatch.setattr(hm, "_homology_ranks", lying_fast_path)
    with pytest.warns(UserWarning, match="differ") as caught:
        ranks = reduced_homology_ranks(K)
    assert ranks[1] == 1
    # the warning points at the caller of reduced_homology_ranks
    assert [w.filename for w in caught] == [__file__]


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports lcmlat from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )


def test_validate_raises_without_asserts():
    # the edge {0, 1} without its facet {1}; the check must survive
    # python -O, which strips assert statements
    K = SimplicialComplexData((0, 1), {0: [0b01], 1: [0b11]})
    with pytest.raises(BadComplex, match="lacks its facet 0b10"):
        K.validate()
    code = (
        "from lcmlat.errors import BadComplex\n"
        "from lcmlat.homology import SimplicialComplexData as C\n"
        "K = C((0, 1), {0: [0b01], 1: [0b11]})\n"
        "try:\n"
        "    K.validate()\n"
        "except BadComplex:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    proc = _fresh_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr


def test_the_route_raises_bad_complex_on_a_missing_facet():
    # validate, boundary_matrix and reduced_homology_ranks share one facet
    # walk, so an edge without its vertex {1}, or a triangle over a skipped
    # dimension, fails in each with the same message
    edge = SimplicialComplexData((0, 1), {0: [0b01], 1: [0b11]})
    triangle = SimplicialComplexData((0, 1, 2), {0: [0b001, 0b010, 0b100], 2: [0b111]})
    for K, d, facet in ((edge, 1, "0b10"), (triangle, 2, "0b110")):
        for call in (K.validate, lambda: boundary_matrix(K, d), lambda: reduced_homology_ranks(K)):
            with pytest.raises(BadComplex, match=f"lacks its facet {facet}$"):
                call()


def test_building_a_complex_leaves_the_callers_dict_alone():
    faces = {0: [0b1]}
    K = SimplicialComplexData((0,), faces)
    assert faces == {0: [0b1]}
    assert K.faces_by_dim == {-1: [0], 0: [0b1]}
    # a dict that already holds the empty face is used as it is
    whole = {-1: [0], 0: [0b1]}
    assert SimplicialComplexData((0,), whole).faces_by_dim is whole


def test_import_loads_no_numpy_or_scipy():
    code = (
        "import sys, lcmlat\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0].startswith(('numpy', 'scipy'))))\n"
    )
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
