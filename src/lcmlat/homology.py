"""Simplicial chain complexes and exact reduced-homology ranks.

Boundary matrices use the reduced convention: the empty face is a genuine
(-1)-dimensional face, so d = 0 carries the augmentation.  Ranks are computed
exactly, either over GF(p) or fraction-free over the rationals; the default
entry point runs GF(32003) and confirms small instances against the rational
answer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

import numpy as np
import scipy.sparse as sp

from .fields import DEFAULT_PRIME, FieldSpec

#: Confirm GF(p) ranks against characteristic 0 below this column count.
CHAR0_CONFIRM_COLUMNS = 5000


@dataclass(frozen=True)
class SimplicialComplexData:
    """Faces of an abstract simplicial complex, grouped by dimension.

    ``faces_by_dim[d]`` lists the d-faces as sorted tuples of vertex indices
    local to ``vertices``; dimension -1 always holds the empty face.
    """

    vertices: tuple
    faces_by_dim: dict = field(default_factory=dict)

    def __post_init__(self):
        if -1 not in self.faces_by_dim:
            self.faces_by_dim[-1] = [()]

    @property
    def dim(self) -> int:
        return max(self.faces_by_dim)

    def n_faces(self, d: int) -> int:
        return len(self.faces_by_dim.get(d, ()))

    def validate(self):
        """Check the closure-under-subsets and sortedness invariants."""
        for d, faces in self.faces_by_dim.items():
            assert faces == sorted(set(faces)), f"faces in dim {d} unsorted"
            for f in faces:
                assert len(f) == d + 1
                assert list(f) == sorted(f)
                if d >= 0:
                    lower = self.faces_by_dim.get(d - 1, ())
                    for k in range(len(f)):
                        assert f[:k] + f[k + 1 :] in lower, "not subset-closed"

    def to_json(self) -> dict:
        """Debug serialization: vertices plus face lists keyed by dimension."""
        return {
            "vertices": list(self.vertices),
            "faces": {
                str(d): [list(f) for f in faces]
                for d, faces in sorted(self.faces_by_dim.items())
            },
        }


def full_simplex_complex(vertices) -> SimplicialComplexData:
    """The full simplex on the given vertices (used in tests)."""
    import itertools

    verts = tuple(vertices)
    k = len(verts)
    faces = {-1: [()]}
    for d in range(k):
        faces[d] = sorted(itertools.combinations(range(k), d + 1))
    return SimplicialComplexData(vertices=verts, faces_by_dim=faces)


def complex_from_facets(vertices, facets) -> SimplicialComplexData:
    """Subset-closure of the given facets (used in tests and debugging)."""
    verts = tuple(vertices)
    seen = {()}
    for f in facets:
        f = tuple(sorted(f))
        stack = [f]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            for k in range(len(g)):
                stack.append(g[:k] + g[k + 1 :])
    faces = {}
    for f in seen:
        faces.setdefault(len(f) - 1, []).append(f)
    return SimplicialComplexData(
        vertices=verts, faces_by_dim={d: sorted(fs) for d, fs in faces.items()}
    )


def boundary_matrix(K: SimplicialComplexData, d: int) -> sp.csc_matrix:
    """Signed boundary map from d-faces to (d-1)-faces; d = 0 gives the
    augmentation onto the empty face."""
    if d < 0:
        raise ValueError("boundary matrices start at dimension 0")
    cols = K.faces_by_dim.get(d, [])
    rows = K.faces_by_dim.get(d - 1, [])
    row_index = {f: i for i, f in enumerate(rows)}
    # Every column has exactly d + 1 entries.  combinations(f, d) lists the
    # (d-1)-faces of f with vertex k dropped for k = d, ..., 0, which are the
    # column's rows in ascending order.
    indices = np.fromiter(
        (row_index[g] for f in cols for g in combinations(f, d)),
        dtype=np.int32,
        count=(d + 1) * len(cols),
    )
    data = np.tile([1 if k % 2 == 0 else -1 for k in range(d, -1, -1)], len(cols))
    indptr = np.arange(0, (d + 1) * len(cols) + 1, d + 1, dtype=np.int32)
    return sp.csc_matrix((data, indices, indptr), shape=(len(rows), len(cols)))


# -- exact sparse rank ---------------------------------------------------------


def sparse_rank(mat: sp.spmatrix, field: FieldSpec) -> int:
    """Exact rank of an integer matrix by column reduction.

    Columns are reduced left to right.  While a column is non-empty, its
    lowest row is looked up among the pivots of the columns already reduced:
    if no column owns that row, the column becomes its owner, otherwise the
    right multiple of the owner is subtracted.  The rank is the number of
    owners.  Over GF(p) entries are kept mod p and every owner is scaled to
    pivot 1; over the rationals the arithmetic stays in the integers, as
    ``b*col - a*owner`` followed by division by the content.
    """
    p = field.characteristic
    mat = mat.tocsc()
    indptr = mat.indptr.tolist()
    indices = mat.indices.tolist()
    data = (mat.data % p if p else mat.data).tolist()
    owner = {}
    for j in range(mat.shape[1]):
        lo, hi = indptr[j], indptr[j + 1]
        col = {r: v for r, v in zip(indices[lo:hi], data[lo:hi]) if v}
        while col:
            low = max(col)
            piv = owner.get(low)
            if piv is None:
                if p:
                    inv = pow(col[low], p - 2, p)
                    col = {r: v * inv % p for r, v in col.items()}
                owner[low] = col
                break
            a = col[low]
            if not p:
                b = piv[low]
                # the sign of b goes into g, so the scale b ends up positive
                # and, for boundary matrices, nearly always 1
                g = gcd(a, b) if b > 0 else -gcd(a, b)
                a, b = a // g, b // g
                if b != 1:
                    col = {r: b * v for r, v in col.items()}
            for r, v in piv.items():
                nv = col.get(r, 0) - a * v
                if p:
                    nv %= p
                if nv:
                    col[r] = nv
                else:
                    del col[r]
            if not p:
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
    return len(owner)


def reduced_homology_ranks(K: SimplicialComplexData, field: FieldSpec | None = None):
    """Ranks of reduced homology, as a dict {dimension: rank} for the
    dimensions -1 .. dim(K).

    With ``field=None`` the ranks are computed over GF(32003) and, while the
    boundary matrices stay small, confirmed over the rationals; a mismatch is
    reported as a warning and the rational answer wins.
    """
    if field is not None:
        return _homology_ranks(K, field)
    fast = _homology_ranks(K, FieldSpec(DEFAULT_PRIME))
    if max((K.n_faces(d) for d in K.faces_by_dim), default=0) >= CHAR0_CONFIRM_COLUMNS:
        return fast
    exact = _homology_ranks(K, FieldSpec(0))
    if exact != fast:
        warnings.warn(
            f"homology ranks differ between GF({DEFAULT_PRIME}) and char 0: "
            f"{fast} vs {exact}; using char 0",
            stacklevel=2,
        )
        return exact
    return fast


def _homology_ranks(K: SimplicialComplexData, field: FieldSpec):
    top = K.dim
    ranks = {}
    boundary_rank = {}
    for d in range(0, top + 1):
        boundary_rank[d] = sparse_rank(boundary_matrix(K, d), field)
    for d in range(-1, top + 1):
        ranks[d] = (
            K.n_faces(d) - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0)
        )
    return ranks


def euler_characteristic(K: SimplicialComplexData) -> int:
    """Reduced Euler characteristic: alternating face-count sum over
    dimensions >= -1."""
    return sum((-1) ** d * K.n_faces(d) for d in K.faces_by_dim)
