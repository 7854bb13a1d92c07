"""Simplicial chain complexes and exact reduced-homology ranks.

A face is an int vertex mask, bit i for the i-th vertex, so a facet is the
face with one bit dropped, f ^ b.  Boundary matrices use the reduced
convention: the empty face 0 is a genuine (-1)-dimensional face, so d = 0
carries the augmentation.  Ranks are computed exactly by column reduction,
either over GF(p), with each owner column stored unscaled, or fraction-free
over the rationals; the default entry point runs GF(32003) and confirms
small instances against the rational answer.  The homology ranks are read
off boundary matrices with clearing (Chen & Kerber, *Persistent homology
computation with a twist*, 2011): a d-face that is a (d+1)-face tau without
its least vertex, tau & (tau - 1), gets no column, since its boundary lies
in the span of the columns kept.  The augmentation is never reduced: its
rank is 1 when the complex has a vertex and 0 otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from .errors import BadComplex
from .fields import DEFAULT_PRIME, FieldSpec

#: Confirm GF(p) ranks against characteristic 0 below this column count.
CHAR0_CONFIRM_COLUMNS = 5000

#: The two fields of the default route: the fast ranks, then the check.
_FAST_FIELD = FieldSpec(DEFAULT_PRIME)
_EXACT_FIELD = FieldSpec(0)


@dataclass(frozen=True)
class SimplicialComplexData:
    """Faces of an abstract simplicial complex, grouped by dimension.

    A face is an int vertex mask: bit i stands for ``vertices[i]``.
    ``faces_by_dim[d]`` lists the d-faces, the masks with d + 1 bits;
    dimension -1 always holds the empty face ``0``.
    """

    vertices: tuple
    faces_by_dim: dict = field(default_factory=dict)

    def __post_init__(self):
        if -1 not in self.faces_by_dim:
            self.faces_by_dim[-1] = [0]

    @property
    def dim(self) -> int:
        return max(self.faces_by_dim)

    def n_faces(self, d: int) -> int:
        return len(self.faces_by_dim.get(d, ()))

    def validate(self):
        """Check that the faces of each dimension d are distinct masks of
        d + 1 bits within ``vertices``, and that the faces are closed under
        subsets, empty face included; raise ``BadComplex`` on the first
        violation."""
        n = len(self.vertices)
        faces = self.faces_by_dim
        if faces.get(-1) != [0]:
            raise BadComplex("dimension -1 must hold the empty face 0 alone")
        for d, fs in faces.items():
            if len(set(fs)) != len(fs):
                raise BadComplex(f"repeated face in dim {d}")
            lower = set(faces.get(d - 1, ()))
            for f in fs:
                if not isinstance(f, int) or f < 0 or f >> n:
                    raise BadComplex(f"face {f!r} in dim {d} is not a mask of {n} bits")
                if f.bit_count() != d + 1:
                    raise BadComplex(f"face {f:#b} in dim {d} has {f.bit_count()} bits")
                rest = f
                while rest:
                    low = rest & -rest
                    if f ^ low not in lower:
                        raise BadComplex(f"face {f:#b} lacks its facet {f ^ low:#b}")
                    rest ^= low


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
        raise BadComplex("boundary matrices start at dimension 0")
    faces = K.faces_by_dim
    return _boundary_columns(faces.get(d - 1, []), faces.get(d, []))


def _boundary_columns(rows: list, faces: list) -> SparseColumns:
    """The boundary map from the given faces onto every face in ``rows``,
    one column per face."""
    row_index = {f: i for i, f in enumerate(rows)}
    # the facet f ^ b drops the bit b of f; dropping the k-th bit from the
    # low end carries the sign (-1)^k
    columns = []
    for f in faces:
        col = {}
        sign = 1
        rest = f
        while rest:
            low = rest & -rest
            col[row_index[f ^ low]] = sign
            sign = -sign
            rest ^= low
        columns.append(col)
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
    tau & (tau - 1), the (d+1)-face tau without its least vertex, gets no
    column: since the boundary of the boundary of tau is 0, the boundary of
    sigma is, up to sign, the sum of the boundaries of the other facets of
    tau.  Each of them holds tau's least vertex, which lies below sigma's
    least vertex, so by induction on the least vertex every cleared column
    lies in the span of the kept ones, over every field, and no rank
    changes.  The augmentation is never built: each of its columns is the
    single entry 1 on the empty face, a unit in every field, so its rank is
    1 when K has a vertex and 0 otherwise.
    """
    faces = K.faces_by_dim
    counts = [K.n_faces(d) for d in range(-1, K.dim + 1)]
    boundaries = []
    for d in range(1, K.dim + 1):
        cleared = {tau & (tau - 1) for tau in faces.get(d + 1, ())}
        kept = [f for f in faces[d] if f not in cleared]
        boundaries.append(_boundary_columns(faces[d - 1], kept))
    chain = counts, boundaries
    if field is not None:
        return _homology_ranks(chain, field)
    fast = _homology_ranks(chain, _FAST_FIELD)
    if max(counts) >= CHAR0_CONFIRM_COLUMNS:
        return fast
    exact = _homology_ranks(chain, _EXACT_FIELD)
    if exact != fast:
        warnings.warn(
            f"homology ranks differ between GF({DEFAULT_PRIME}) and char 0: "
            f"{fast} vs {exact}; using char 0",
            stacklevel=2,
        )
        return exact
    return fast


def _homology_ranks(chain, field: FieldSpec):
    """Reduced homology ranks {d: rank} for d = -1 .. dim, from the pair
    (face counts of the dimensions -1 .. dim, cleared boundary matrices of
    the dimensions 1 .. dim)."""
    counts, boundaries = chain
    # rank[d + 1] is the rank of the boundary map out of dimension d: the
    # maps out of dimensions -1 and dim + 1 are zero, and the augmentation
    # out of dimension 0 has rank 1 exactly when there is a vertex
    has_vertex = len(counts) > 1 and counts[1] > 0
    rank = [0, int(has_vertex)]
    rank += [sparse_rank(mat, field) for mat in boundaries] + [0]
    return {
        d: counts[d + 1] - rank[d + 1] - rank[d + 2]
        for d in range(-1, len(counts) - 1)
    }
