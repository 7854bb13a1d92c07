"""Independent Betti-number oracle via the Taylor complex.

A subset of the q generators is a q-bit int S.  Each distinct lcm gets a
small int id, and ``lcm[S]`` is the id of the lcm of S, built for all 2^q
subsets at once, one generator at a time: the lcm of an id and a generator
is computed from ``Monomial.exps`` once and then looked up, so the 2^q
entries, the groups and the face tests are all ints.  The Taylor complex
restricted to one multidegree m keeps the subsets T_m with lcm m and only
the differential terms whose coefficient is a unit: S maps to its faces
S ^ b in T_m, signed alternately over the bits b of S in increasing order.

Only the critical cells of one generator toggle are kept (Batzies & Welker,
*Discrete Morse theory for cellular resolutions*, 2002).  For m != 1 let g
be the lowest generator dividing m, and C the subsets S in T_m that hold g
and have lcm(S - g) != m.  C is a subcomplex: for b != g, lcm(S - b - g)
divides lcm(S - g) != m, so S - b stays in C, and S - g is not in T_m at
all.  The other subsets of T_m pair up as S <-> S + g with a unit
coefficient, so T_m / C is acyclic and H(T_m) = H(C) over every field.
Every generator in S divides m, so g lies in S only as S's lowest bit, and
the test is ``S & -S == low[m] and lcm[S ^ low[m]] != m``.  For m = 1, T_1 is
the empty set alone.  About a quarter of the subsets are kept: 25.7% on
the edge ideals of the benchmark's oracle workload.

The ranks come from the oracle's own Gaussian elimination, with clearing
(Chen & Kerber, *Persistent homology computation with a twist*): each
multidegree's maps are reduced from the largest size down, with rows
indexed locally among the kept subsets one size down, and a subset that was
a pivot row of the map above is skipped as a column, since its boundary
lies in the span of the remaining columns.  Over GF(2) a column is an int
bitset, the signs vanish, and a column is reduced by XOR at its top bit.
Over an odd prime and over QQ a new pivot column is stored unscaled, and a
column is scaled only when it is reduced against one.  K6 (15 generators)
takes about 0.008 s over GF(2) and 0.011 s over GF(32003) or QQ on one core
of a 2-core x86 box (medians, ``BENCH_taylor_toggle.json``); the cap stays
at 16 generators.  Nothing here touches the lattice or interval-homology
machinery; only the field conventions are shared, so the two Betti routes
fail in uncorrelated ways.
"""

from __future__ import annotations

from fractions import Fraction
from operator import le

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


def _bitset_columns(subsets, below, skip):
    """Over GF(2), the column of each subset S not in ``skip`` (local
    indices), as the int bitset of the faces S ^ b found in ``below``."""
    one = {T: 1 << r for r, T in enumerate(below)}
    for r, S in enumerate(subsets):
        if r not in skip:
            col = 0
            rest = S
            while rest:
                b = rest & -rest
                col |= one.get(S ^ b, 0)
                rest ^= b
            yield col


def _signed_columns(subsets, below, skip):
    """The column {row: ±1} of each subset S not in ``skip``: its faces
    S ^ b found in ``below``, signed alternately over the bits b of S in
    increasing order."""
    index = {T: r for r, T in enumerate(below)}
    for r, S in enumerate(subsets):
        if r not in skip:
            col = {}
            sign = 1
            rest = S
            while rest:
                b = rest & -rest
                row = index.get(S ^ b)
                if row is not None:
                    col[row] = sign
                sign = -sign
                rest ^= b
            yield col


def taylor_betti(ideal: MonomialIdeal, field: FieldSpec) -> dict:
    """Multigraded Betti numbers of S/I as {(i, monomial): rank}."""
    q = ideal.ngens
    if q > MAX_GENERATORS:
        raise ResourceLimit(f"Taylor oracle limited to {MAX_GENERATORS} generators")
    exps_of = [(0,) * ideal.nvars]
    ids = {exps_of[0]: 0}
    lcm = [0]
    for g in ideal.gens:
        join = []
        for exps in exps_of[:]:
            m = tuple(map(max, exps, g.exps))
            if m not in ids:
                ids[m] = len(exps_of)
                exps_of.append(m)
            join.append(ids[m])
        lcm += [join[i] for i in lcm]
    # the bit of the lowest generator dividing each lcm; none divides 1
    low = [
        next((1 << k for k, g in enumerate(ideal.gens) if all(map(le, g.exps, m))), 0)
        for m in exps_of
    ]
    groups = [{} for _ in exps_of]
    groups[0][0] = [0]
    for S in range(1, len(lcm)):
        i = lcm[S]
        b = S & -S
        if b == low[i] and lcm[S ^ b] != i:
            groups[i].setdefault(S.bit_count(), []).append(S)
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
            pivots = rank(columns(subsets, below, cleared))
            betti = len(subsets) - len(pivots) - len(cleared)
            if betti:
                out[(size, Monomial(exps_of[i]))] = betti
            cleared = pivots
    return out
