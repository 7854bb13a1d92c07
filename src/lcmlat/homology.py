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
    rows = K.faces_by_dim.get(d - 1, [])
    row_index = {f: i for i, f in enumerate(rows)}
    # Every column has exactly d + 1 entries.  combinations(f, d) lists the
    # (d-1)-faces of f with its k-th vertex dropped for k = d, ..., 0, and
    # dropping the k-th vertex carries the sign (-1)^k.
    signs = [1 if k % 2 == 0 else -1 for k in range(d, -1, -1)]
    columns = [
        dict(zip(map(row_index.__getitem__, combinations(f, d)), signs))
        for f in K.faces_by_dim.get(d, [])
    ]
    return SparseColumns(len(rows), columns)


# -- exact sparse rank ---------------------------------------------------------


def sparse_rank(mat: SparseColumns, field: FieldSpec) -> int:
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
    owner = {}
    for column in mat.columns:
        # work on a copy: the reduction rewrites col, and the input columns
        # are shared between the GF(p) and QQ passes
        col = {r: w for r, v in column.items() if (w := v % p if p else v)}
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

    With ``field=None`` the ranks are computed over GF(32003) and, when every
    dimension of K has fewer than ``CHAR0_CONFIRM_COLUMNS`` faces, confirmed
    over the rationals; a mismatch is reported as a warning and the rational
    answer wins.
    """
    boundaries = [boundary_matrix(K, d) for d in range(K.dim + 1)]
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
    """Reduced homology ranks {d: rank} for d = -1 .. dim, from the boundary
    matrices of the dimensions 0 .. dim."""
    # rank[d + 1] is the rank of the boundary map out of dimension d; the
    # maps out of dimensions -1 and dim + 1 are zero
    rank = [0] + [sparse_rank(mat, field) for mat in boundaries] + [0]
    # one empty face, then the columns of each boundary matrix
    faces = [1] + [mat.shape[1] for mat in boundaries]
    return {
        d: faces[d + 1] - rank[d + 1] - rank[d + 2]
        for d in range(-1, len(boundaries))
    }
