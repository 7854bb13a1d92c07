"""Builders for the modular-lattice fixtures: subspace lattices of finite
vector spaces, the projective-plane (Fano) incidence lattice, height-2
lattices, and one hard-coded graphic-matroid lattice of flats."""

from __future__ import annotations

import itertools

from .errors import BadParameter, TooLarge
from .fields import is_prime
from .ideals import Monomial, MonomialIdeal
from .lattice import (
    MAX_ELEMENTS,
    FiniteLattice,
    lattice_from_covers,
    lattice_of_sets,
)


def subspace_count(q: int, r: int) -> int:
    """Total number of subspaces of F_q^r (sum of Gaussian binomials)."""
    total = 0
    for k in range(r + 1):
        num = den = 1
        for i in range(k):
            num *= q**r - q**i
            den *= q**k - q**i
        total += num // den
    return total


def subspace_lattice(q: int, r: int) -> FiniteLattice:
    """Lattice of subspaces of F_q^r under inclusion, graded by dimension.

    Subspaces are enumerated as vector sets and ordered deterministically by
    (dimension, sorted vector codes).  q must be prime; extension fields are
    out of scope.
    """
    if r < 1 or not is_prime(q):
        raise BadParameter(f"need prime q and r >= 1, got q={q}, r={r}")
    if subspace_count(q, r) > MAX_ELEMENTS:
        raise TooLarge(f"subspace lattice of F_{q}^{r} exceeds capacity")
    vectors = list(itertools.product(range(q), repeat=r))

    def code(v):
        c = 0
        for x in v:
            c = c * q + x
        return c

    def add(u, v):
        return tuple((a + b) % q for a, b in zip(u, v))

    def scale(c, v):
        return tuple((c * a) % q for a in v)

    zero = (0,) * r
    spaces = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        new = []
        for U in frontier:
            for v in vectors:
                if v in U:
                    continue
                span = set(U)
                for c in range(1, q):
                    cv = scale(c, v)
                    span.update(add(u, cv) for u in U)
                W = frozenset(span)
                if W not in spaces:
                    spaces.add(W)
                    new.append(W)
        frontier = new
    elems = sorted(spaces, key=lambda U: (len(U), sorted(map(code, U))))
    return lattice_of_sets([sum(1 << code(v) for v in U) for U in elems])


def mn_lattice(n: int) -> FiniteLattice:
    """Height-2 lattice M_n: bottom, n pairwise-incomparable atoms, top."""
    if n < 1:
        raise BadParameter("mn_lattice needs n >= 1")
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
