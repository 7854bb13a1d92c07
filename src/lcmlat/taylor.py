"""Independent Betti-number oracle via the Taylor complex.

Builds the full exterior-algebra complex on the generators, restricts to one
multidegree at a time (keeping only subsets whose lcm equals it, and only the
differential terms whose coefficient is a unit), and takes ranks of the tiny
sparse matrices by its own Gaussian elimination.  Nothing here touches the
lattice or interval-homology machinery; only the field conventions are
shared, so the two Betti routes fail in uncorrelated ways.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import ResourceLimit
from .fields import FieldSpec
from .ideals import Monomial, MonomialIdeal

MAX_GENERATORS = 16


def _rank(columns, field: FieldSpec) -> int:
    """Rank of the matrix with the given {row: entry} columns, by Gaussian
    elimination: each column is cleared against the stored pivot columns,
    always at its first non-zero coordinate, and is stored as the pivot of
    that coordinate (scaled to 1 there) when no pivot owns it yet.  Over
    GF(p) the entries are kept mod p, over QQ they are Fractions."""
    p = field.characteristic
    pivots = {}
    for column in columns:
        col = {r: w for r, v in column.items() if (w := v % p if p else Fraction(v))}
        while col:
            first = min(col)
            piv = pivots.get(first)
            if piv is None:
                inv = pow(col[first], p - 2, p) if p else 1 / col[first]
                pivots[first] = {
                    r: v * inv % p if p else v * inv for r, v in col.items()
                }
                break
            f = col[first]
            for r, v in piv.items():
                w = col.get(r, 0) - f * v
                if p:
                    w %= p
                if w:
                    col[r] = w
                else:
                    del col[r]
    return len(pivots)


def taylor_betti(ideal: MonomialIdeal, field: FieldSpec) -> dict:
    """Multigraded Betti numbers of S/I as {(i, monomial): rank}."""
    q = ideal.ngens
    if q > MAX_GENERATORS:
        raise ResourceLimit(f"Taylor oracle limited to {MAX_GENERATORS} generators")
    gens = ideal.gens
    nvars = ideal.nvars
    lcm_of = {(): (0,) * nvars}
    subsets_by_lcm = {}
    for size in range(q + 1):
        for sigma in combinations(range(q), size):
            if size:
                prev = lcm_of[sigma[:-1]]
                cur = tuple(map(max, prev, gens[sigma[-1]].exps))
                lcm_of[sigma] = cur
            subsets_by_lcm.setdefault(lcm_of[sigma], []).append(sigma)
    out = {}
    for exps, subsets in subsets_by_lcm.items():
        by_size = {}
        for sigma in subsets:
            by_size.setdefault(len(sigma), []).append(sigma)
        index = {
            sigma: k
            for size in by_size
            for k, sigma in enumerate(by_size[size])
        }
        ranks = {}
        for size, cols in by_size.items():
            columns = []
            for sigma in cols:
                col = {}
                for pos in range(size):
                    tau = sigma[:pos] + sigma[pos + 1 :]
                    if lcm_of[tau] == exps:
                        col[index[tau]] = 1 if pos % 2 == 0 else -1
                columns.append(col)
            ranks[size] = _rank(columns, field)
        for size, cols in by_size.items():
            betti = len(cols) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if betti:
                out[(size, Monomial(exps))] = betti
    return out
