"""Independent Betti-number oracle via the Taylor complex.

A subset of the q generators is a q-bit int S, and ``bits[S]`` lists its
single bits.  Each distinct lcm gets a small int id, and ``lcm[S]`` is the
id of the lcm of S, built for all 2^q subsets at once, one generator at a
time: the lcm of an id and a generator is computed from ``Monomial.exps``
once and then looked up, so the 2^q entries, the groups and the face tests
are all ints.  The Taylor complex restricted to one multidegree keeps the
subsets with that id and only the differential terms whose coefficient is a
unit: S maps to its faces S ^ b of the same id, signed alternately over the
bits b of S in increasing order, with rows indexed locally among the
multidegree's subsets one size down.  The ranks come from its own Gaussian
elimination, with clearing (Chen & Kerber, *Persistent homology computation
with a twist*): each multidegree's maps are reduced from the largest size
down, and a subset that was a pivot row of the map above is skipped as a
column, since its boundary lies in the span of the remaining columns.  Over
GF(2) a column is an int bitset, the signs vanish, and a column is reduced
by XOR at its top bit.  Over an odd prime and over QQ a new pivot column is
stored unscaled, and a column is scaled only when it is reduced against
one; nearly every column becomes a pivot at once.  K6 (15 generators) takes
about 0.04 s over GF(2) and 0.06 s over GF(32003) or QQ on one core of a
2-core x86 box; the cap stays at 16 generators.  Nothing here touches the
lattice or interval-homology machinery; only the field conventions are
shared, so the two Betti routes fail in uncorrelated ways.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ResourceLimit
from .fields import FieldSpec
from .ideals import Monomial, MonomialIdeal

MAX_GENERATORS = 16


def _pivot_rows(columns, field: FieldSpec) -> set:
    """Pivot rows of the matrix with the given {row: entry} columns, by
    Gaussian elimination: each column is cleared against the stored pivot
    columns, always at its first non-zero coordinate, and is stored
    unscaled as the pivot of that coordinate when no pivot owns it yet.
    The rank is the number of pivot rows.  Over GF(p) the entries are kept
    mod p; over QQ they stay ints until a reduction needs a Fraction."""
    p = field.characteristic
    pivots = {}
    for column in columns:
        col = {r: w for r, v in column.items() if (w := v % p if p else v)}
        while col:
            first = min(col)
            piv = pivots.get(first)
            if piv is None:
                pivots[first] = col
                break
            if p:
                f = col[first] * pow(piv[first], -1, p) % p
            else:
                f = Fraction(col[first], piv[first])
                if f.denominator == 1:
                    f = f.numerator
            for r, v in piv.items():
                w = col.get(r, 0) - f * v
                if p:
                    w %= p
                if w:
                    col[r] = w
                else:
                    del col[r]
    return set(pivots)


def _xor_pivot_rows(columns) -> set:
    """Pivot rows over GF(2) of the matrix whose columns are int bitsets,
    bit r for row r: each column is XORed with the pivot of its top bit
    until it vanishes or owns a new top bit.  The rank is the number of
    pivot rows."""
    pivots = {}
    for col in columns:
        while col:
            top = col.bit_length() - 1
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = col
                break
            col ^= piv
    return set(pivots)


def _bitset_columns(subsets, below, bits, skip):
    """Over GF(2), the column of each subset S not in ``skip`` (local
    indices), as the int bitset of the faces S ^ b found in ``below``."""
    one = {T: 1 << r for r, T in enumerate(below)}
    for r, S in enumerate(subsets):
        if r not in skip:
            col = 0
            for b in bits[S]:
                col |= one.get(S ^ b, 0)
            yield col


def _signed_columns(subsets, below, bits, skip):
    """The column {row: ±1} of each subset S not in ``skip``: its faces
    S ^ b found in ``below``, signed alternately over the bits b of S in
    increasing order."""
    index = {T: r for r, T in enumerate(below)}
    for r, S in enumerate(subsets):
        if r not in skip:
            col = {}
            sign = 1
            for b in bits[S]:
                row = index.get(S ^ b)
                if row is not None:
                    col[row] = sign
                sign = -sign
            yield col


def taylor_betti(ideal: MonomialIdeal, field: FieldSpec) -> dict:
    """Multigraded Betti numbers of S/I as {(i, monomial): rank}."""
    q = ideal.ngens
    if q > MAX_GENERATORS:
        raise ResourceLimit(f"Taylor oracle limited to {MAX_GENERATORS} generators")
    exps_of = [(0,) * ideal.nvars]
    ids = {exps_of[0]: 0}
    lcm = [0]
    bits = [()]
    for k, g in enumerate(ideal.gens):
        join = []
        for exps in exps_of[:]:
            m = tuple(map(max, exps, g.exps))
            if m not in ids:
                ids[m] = len(exps_of)
                exps_of.append(m)
            join.append(ids[m])
        lcm += [join[i] for i in lcm]
        b = 1 << k
        bits += [t + (b,) for t in bits]
    groups = [{} for _ in exps_of]
    for S, i in enumerate(lcm):
        groups[i].setdefault(len(bits[S]), []).append(S)
    if field.characteristic == 2:
        columns, rank = _bitset_columns, _xor_pivot_rows
    else:
        columns, rank = _signed_columns, lambda cols: _pivot_rows(cols, field)
    out = {}
    for i, by_size in enumerate(groups):
        cleared = set()
        for size in sorted(by_size, reverse=True):
            subsets = by_size[size]
            below = by_size.get(size - 1, ())
            pivots = rank(columns(subsets, below, bits, cleared))
            betti = len(subsets) - len(pivots) - len(cleared)
            if betti:
                out[(size, Monomial(exps_of[i]))] = betti
            cleared = pivots
    return out
