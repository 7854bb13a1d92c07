from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcmlat.homology as hm
from lcmlat.errors import BadParameter
from lcmlat.fields import FieldSpec
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
    K = SimplicialComplexData(vertices=(), faces_by_dim={-1: [()]})
    assert reduced_homology_ranks(K, FieldSpec(0)) == {-1: 1}


def test_two_isolated_vertices():
    K = complex_from_facets((0, 1), [(0,), (1,)])
    assert reduced_homology_ranks(K, FieldSpec(0)) == {-1: 0, 0: 1}


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


def test_full_simplex_is_acyclic():
    K = complex_from_facets(range(4), [range(4)])
    ranks = reduced_homology_ranks(K, FieldSpec(2))
    assert all(r == 0 for r in ranks.values())


def test_sparse_rank_matches_numpy():
    # random sparse integer matrices of every shape, with zero, repeated and
    # dependent columns and entries that vanish mod p, against independent
    # ranks: numpy's over QQ, the Taylor oracle's own elimination over GF(p)
    from lcmlat.taylor import _pivot_rows

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
    # an unsorted dimension; the check must survive python -O, which strips
    # assert statements
    K = SimplicialComplexData((0, 1), {0: [(1,), (0,)], 1: [(1, 0)]})
    with pytest.raises(ValueError, match="unsorted"):
        K.validate()
    code = (
        "from lcmlat.homology import SimplicialComplexData as C\n"
        "K = C((0, 1), {0: [(1,), (0,)], 1: [(1, 0)]})\n"
        "try:\n"
        "    K.validate()\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    proc = _fresh_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_numpy_or_scipy():
    code = (
        "import sys, lcmlat\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0].startswith(('numpy', 'scipy'))))\n"
    )
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
