"""Simplicial chain complexes and exact reduced-homology ranks.

Boundary matrices use the reduced convention: the empty face is a genuine
(-1)-dimensional face, so d = 0 carries the augmentation.  Ranks are computed
exactly by column reduction, either over GF(p), with each owner column
stored unscaled, or fraction-free over the rationals; the default entry
point runs GF(32003) and confirms small instances against the rational
answer.  The homology ranks are read off boundary matrices with clearing
(Chen & Kerber, *Persistent homology computation with a twist*, 2011): a
d-face that is the last facet of a (d+1)-face gets no column, since its
boundary lies in the span of the columns kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .fields import DEFAULT_PRIME, FieldSpec

#: Confirm GF(p) ranks against characteristic 0 below this column count.
CHAR0_CONFIRM_COLUMNS = 5000

#: The two fields of the default route: the fast ranks, then the check.
_FAST_FIELD = FieldSpec(DEFAULT_PRIME)
_EXACT_FIELD = FieldSpec(0)


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
        """Check the closure-under-subsets and sortedness invariants; raise
        ``ValueError`` on the first violation."""
        for d, faces in self.faces_by_dim.items():
            if faces != sorted(set(faces)):
                raise ValueError(f"faces in dim {d} unsorted")
            for f in faces:
                if len(f) != d + 1:
                    raise ValueError(f"face {f} in dim {d} has {len(f)} vertices")
                if list(f) != sorted(f):
                    raise ValueError(f"face {f} in dim {d} unsorted")
                if d >= 0:
                    lower = self.faces_by_dim.get(d - 1, ())
                    for k in range(len(f)):
                        if f[:k] + f[k + 1 :] not in lower:
                            raise ValueError("not subset-closed")


class SparseColumns(NamedTuple):
    """An integer matrix with ``nrows`` rows, stored by column:
    ``columns[j]`` maps each row index to the non-zero entry of column j."""

    nrows: int
    columns: list

    @property
    def shape(self) -> tuple:
        return self.nrows, len(self.columns)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))


def boundary_matrix(K: SimplicialComplexData, d: int) -> SparseColumns:
    """Signed boundary map from d-faces to (d-1)-faces; d = 0 gives the
    augmentation onto the empty face."""
    if d < 0:
        raise ValueError("boundary matrices start at dimension 0")
    faces = K.faces_by_dim
    return _boundary_columns(faces.get(d - 1, []), faces.get(d, []), d)


def _boundary_columns(rows: list, faces: list, d: int) -> SparseColumns:
    """The boundary map from the given d-faces onto every (d-1)-face in
    ``rows``, one column per face."""
    row_index = {f: i for i, f in enumerate(rows)}
    # Every column has exactly d + 1 entries.  combinations(f, d) lists the
    # (d-1)-faces of f with its k-th vertex dropped for k = d, ..., 0, and
    # dropping the k-th vertex carries the sign (-1)^k.
    signs = [1 if k % 2 == 0 else -1 for k in range(d, -1, -1)]
    columns = [
        dict(zip(map(row_index.__getitem__, combinations(f, d)), signs))
        for f in faces
    ]
    return SparseColumns(len(rows), columns)


# -- exact sparse rank ---------------------------------------------------------


def sparse_rank(mat: SparseColumns, field: FieldSpec) -> int:
    """Exact rank of an integer matrix by column reduction.

    Columns are reduced left to right.  While a column is non-empty, its
    lowest row is looked up among the pivots of the columns already reduced:
    if no column owns that row, the column becomes its owner, otherwise the
    right multiple of the owner is subtracted.  The rank is the number of
    owners.  Over GF(p) entries are kept mod p and an owner is stored
    unscaled: the multiple, its pivot's inverse times the column's entry,
    is computed only when a column is reduced against it.  Over the
    rationals the arithmetic stays in the integers, as ``b*col - a*owner``
    followed by division by the content.
    """
    p = field.characteristic
    owner = {}
    for column in mat.columns:
        # work on a copy: the reduction rewrites col, and the input columns
        # are shared between the GF(p) and QQ passes
        col = {r: w for r, v in column.items() if (w := v % p if p else v)}
        while col:
            low = max(col)
            piv = owner.get(low)
            if piv is None:
                owner[low] = col
                break
            a = col[low]
            if p:
                a = a * pow(piv[low], -1, p) % p
            else:
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

    With ``field=None`` the ranks are computed over GF(32003) and, when every
    dimension of K has fewer than ``CHAR0_CONFIRM_COLUMNS`` faces, confirmed
    over the rationals; a mismatch is reported as a warning and the rational
    answer wins.

    Both fields reduce the same cleared matrices.  A d-face sigma that is
    the last facet tau[1:] of a (d+1)-face tau gets no column: since the
    boundary of the boundary of tau is 0, the boundary of sigma is, up to
    sign, the sum of the boundaries of the other facets of tau, and each of
    them is lexicographically smaller than sigma, as tau[0] < sigma[0].  By
    induction on that order every cleared column lies in the span of the
    kept ones, over every field, so no rank changes.
    """
    faces = K.faces_by_dim
    boundaries = []
    for d in range(K.dim + 1):
        cleared = {tau[1:] for tau in faces.get(d + 1, ())}
        kept = [f for f in faces[d] if f not in cleared]
        boundaries.append(_boundary_columns(faces[d - 1], kept, d))
    if field is not None:
        return _homology_ranks(boundaries, field)
    fast = _homology_ranks(boundaries, _FAST_FIELD)
    if max(K.n_faces(d) for d in K.faces_by_dim) >= CHAR0_CONFIRM_COLUMNS:
        return fast
    exact = _homology_ranks(boundaries, _EXACT_FIELD)
    if exact != fast:
        warnings.warn(
            f"homology ranks differ between GF({DEFAULT_PRIME}) and char 0: "
            f"{fast} vs {exact}; using char 0",
            stacklevel=2,
        )
        return exact
    return fast


def _homology_ranks(boundaries, field: FieldSpec):
    """Reduced homology ranks {d: rank} for d = -1 .. dim, from the cleared
    boundary matrices of the dimensions 0 .. dim."""
    # rank[d + 1] is the rank of the boundary map out of dimension d; the
    # maps out of dimensions -1 and dim + 1 are zero
    rank = [0] + [sparse_rank(mat, field) for mat in boundaries] + [0]
    # clearing drops columns, never rows, so the map out of dimension d has
    # a row per (d-1)-face; no top face is cleared, so the last map has a
    # column per top face
    faces = (
        [mat.nrows for mat in boundaries] + [boundaries[-1].shape[1]]
        if boundaries
        else [1]
    )
    return {
        d: faces[d + 1] - rank[d + 1] - rank[d + 2]
        for d in range(-1, len(boundaries))
    }
