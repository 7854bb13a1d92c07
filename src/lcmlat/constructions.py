"""Builders for the modular-lattice fixtures: subspace lattices of finite
vector spaces, the projective-plane (Fano) incidence lattice, height-2
lattices, and one hard-coded graphic-matroid lattice of flats."""

from __future__ import annotations

import itertools
from operator import mul

from .errors import BadParameter, TooLarge
from .fields import is_prime
from .ideals import Monomial, MonomialIdeal
from .lattice import (
    MAX_ELEMENTS,
    FiniteLattice,
    lattice_from_covers,
    lattice_of_sets,
)


def _gaussian_binomials(q: int, r: int):
    """The number of k-dimensional subspaces of F_q^r, for k = 0..r."""
    for k in range(r + 1):
        num = den = 1
        for i in range(k):
            num *= q**r - q**i
            den *= q**k - q**i
        yield num // den


def subspace_lattice(q: int, r: int) -> FiniteLattice:
    """Lattice of subspaces of F_q^r under inclusion, graded by dimension.

    The size is checked first, then that q is prime; extension fields are
    out of scope.  Each subspace is enumerated once, from its reduced row echelon basis,
    as its points: its vectors with first nonzero coordinate 1, the
    combinations of the basis with first nonzero coefficient 1.  They are
    ordered by (dimension, sorted points), the order by (dimension, sorted
    vectors): of two subspaces of one dimension, the least vector in one
    and not the other is a point, as scaling it to a leading 1 gives a
    vector no larger in the one and not the other.
    """
    # F_q^r has (q**r - 1) / (q - 1) >= 2**r - 1 lines, more than the cap
    # from r = 14 on; below that, the count stops once it passes the cap.
    # The count divides by q**k - q**i, which is 0 for q < 2.
    if r >= 1 and q >= 2:
        counts = itertools.accumulate(_gaussian_binomials(q, r))
        if r >= MAX_ELEMENTS.bit_length() or any(c > MAX_ELEMENTS for c in counts):
            raise TooLarge(f"subspace lattice of F_{q}^{r} exceeds capacity")
    if r < 1 or not is_prime(q):
        raise BadParameter(f"need prime q and r >= 1, got q={q}, r={r}")
    spaces = []
    for k in range(r + 1):
        leading_ones = [
            (0,) * j + (1,) + rest
            for j in range(k)
            for rest in itertools.product(range(q), repeat=k - j - 1)
        ]
        for pivots in itertools.combinations(range(r), k):
            free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, r)]
            free = [(i, c) for i, c in free if c not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                basis = [[int(c == p) for c in range(r)] for p in pivots]
                for (i, c), x in zip(free, values):
                    basis[i][c] = x
                columns = list(zip(*basis))
                points = (
                    tuple(sum(map(mul, a, col)) % q for col in columns)
                    for a in leading_ones
                )
                spaces.append(tuple(sorted(points)))
    spaces.sort(key=lambda U: (len(U), U))
    # the whole space, last, holds every point
    bit = {p: 1 << i for i, p in enumerate(spaces[-1])}
    return lattice_of_sets([sum(map(bit.get, U)) for U in spaces])


def mn_lattice(n: int) -> FiniteLattice:
    """Height-2 lattice M_n: bottom, n pairwise-incomparable atoms, top."""
    if n < 1:
        raise BadParameter("mn_lattice needs n >= 1")
    if n + 2 > MAX_ELEMENTS:
        raise TooLarge(f"M_{n} has {n + 2} elements, over the capacity {MAX_ELEMENTS}")
    covers = [(0, i) for i in range(1, n + 1)] + [(i, n + 1) for i in range(1, n + 1)]
    return lattice_from_covers(n + 2, covers)


#: Lines of the order-2 projective plane through each point.  The k-th atom
#: gets the product of the variables of the lines NOT containing point k, so
#: the generator list below is the labeling of record for golden tests.
_FANO_LINES_THROUGH_POINT = (
    (1, 3, 6),
    (1, 4, 7),
    (1, 2, 5),
    (3, 4, 5),
    (2, 3, 7),
    (2, 4, 6),
    (5, 6, 7),
)


def fano_lattice() -> FiniteLattice:
    """The 16-element incidence lattice of the order-2 projective plane:
    bottom, 7 points (elements 1..7), 7 lines (elements 8..14), top.

    Labels are the canonical squarefree monomials: point p carries the
    product of the 4 line variables missing p, line l carries the product of
    all variables except its own.
    """
    covers = [(0, p) for p in range(1, 8)]
    for p, lines in enumerate(_FANO_LINES_THROUGH_POINT, start=1):
        covers.extend((p, 7 + l) for l in lines)
    covers.extend((7 + l, 15) for l in range(1, 8))
    labels = [Monomial((0,) * 7)]
    for lines in _FANO_LINES_THROUGH_POINT:
        labels.append(Monomial(tuple(0 if v in lines else 1 for v in range(1, 8))))
    for l in range(1, 8):
        labels.append(Monomial(tuple(0 if v == l else 1 for v in range(1, 8))))
    labels.append(Monomial((1,) * 7))
    return lattice_from_covers(16, covers, labels)


#: Rank-2 flats of the graphic matroid of the 4-vertex, 5-edge fixture graph
#: (a complete graph minus one edge), as sets of atom indices 1..5.
_GRAPHIC_MATROID_FLATS = ((1, 2, 3), (1, 4), (2, 4), (1, 5), (2, 5), (3, 4, 5))


def graphic_matroid_lattice() -> FiniteLattice:
    """Lattice of flats of the graphic matroid fixture: 13 elements
    (bottom, 5 edges, 6 rank-2 flats, top); geometric and supersolvable but
    its canonical ideal is not Cohen-Macaulay."""
    covers = [(0, a) for a in range(1, 6)]
    for f, flat in enumerate(_GRAPHIC_MATROID_FLATS, start=6):
        covers.extend((a, f) for a in flat)
    covers.extend((f, 12) for f in range(6, 12))
    return lattice_from_covers(13, covers)


def graphic_matroid_ideal() -> MonomialIdeal:
    """The canonical ideal of the graphic-matroid lattice, with the exact
    variable numbering used as the fixture of record."""
    gens = [(1, 3, 5), (3, 4, 6), (1, 2, 3, 4), (2, 4, 5), (1, 2, 6)]
    return MonomialIdeal(
        6,
        tuple(
            Monomial(tuple(1 if v in g else 0 for v in range(1, 7))) for g in gens
        ),
    )
