"""Monomials, monomial ideals, LCM lattices, and the Phan construction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EmptyGeneratorSet, NotAtomic, UnitGenerator
from .lattice import FiniteLattice, atoms, find_isomorphism, meet_irreducibles


@dataclass(frozen=True)
class Monomial:
    """A monomial identified with its exponent vector."""

    exps: tuple

    def __post_init__(self):
        object.__setattr__(self, "exps", tuple(int(e) for e in self.exps))
        if any(e < 0 for e in self.exps):
            raise ValueError("exponents must be nonnegative")

    @property
    def nvars(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exps)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(max, self.exps, other.exps)))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(min, self.exps, other.exps)))

    def support(self) -> tuple:
        return tuple(i for i, e in enumerate(self.exps) if e)

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


def unit(nvars: int) -> Monomial:
    return Monomial((0,) * nvars)


def variable(i: int, nvars: int, power: int = 1) -> Monomial:
    exps = [0] * nvars
    exps[i] = power
    return Monomial(tuple(exps))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal stored by its minimal generators.

    The constructor insists on an already-minimal generator list; use
    :func:`minimalize` to build from an arbitrary monomial collection.
    """

    nvars: int
    gens: tuple

    def __post_init__(self):
        if not self.gens:
            raise EmptyGeneratorSet("an ideal needs at least one generator")
        for g in self.gens:
            if g.nvars != self.nvars:
                raise ValueError("generator arity mismatch")
            if g.is_unit:
                raise UnitGenerator("1 is not allowed as a generator")
        for a, b in itertools.permutations(self.gens, 2):
            if a.divides(b):
                raise ValueError(f"generators not minimal: {a} divides {b}")

    @property
    def ngens(self) -> int:
        return len(self.gens)

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def lcm_of_all(self) -> Monomial:
        out = unit(self.nvars)
        for g in self.gens:
            out = out.lcm(g)
        return out

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.gens)) + ")"


def minimalize(monomials, nvars=None) -> MonomialIdeal:
    """Keep exactly the divisibility-minimal monomials."""
    monomials = list(monomials)
    if not monomials:
        raise EmptyGeneratorSet("an ideal needs at least one generator")
    if nvars is None:
        nvars = max(m.nvars for m in monomials)
    monomials = [Monomial(m.exps + (0,) * (nvars - m.nvars)) for m in monomials]
    for m in monomials:
        if m.is_unit:
            raise UnitGenerator("1 is not allowed as a generator")
    monomials = sorted(set(monomials), key=lambda m: (m.degree, m.exps))
    kept = []
    for m in monomials:
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return MonomialIdeal(nvars, tuple(kept))


def lcm_lattice(ideal: MonomialIdeal) -> FiniteLattice:
    """LCM lattice: lcms of generator subsets ordered by divisibility, with
    monomial labels; the empty subset contributes 1 as the bottom."""
    from .errors import TooLarge
    from .lattice import MAX_ELEMENTS

    current = set(ideal.gens)
    frontier = list(ideal.gens)
    while frontier:
        new = []
        for m in frontier:
            for g in ideal.gens:
                u = m.lcm(g)
                if u not in current:
                    current.add(u)
                    new.append(u)
        if len(current) > MAX_ELEMENTS:
            raise TooLarge("LCM lattice exceeds the element capacity")
        frontier = new
    elems = [unit(ideal.nvars)] + sorted(current, key=lambda m: (m.degree, m.exps))
    below = [0] * len(elems)
    for j, mj in enumerate(elems):
        mask = 0
        for i, mi in enumerate(elems[: j + 1]):
            if mi.divides(mj):
                mask |= 1 << i
        below[j] = mask
    return FiniteLattice.from_below_masks(below, tuple(elems))


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Standard polarization: the e-th power of a variable spreads over its
    first e slots; the result is squarefree with an isomorphic LCM lattice."""
    maxdeg = [0] * ideal.nvars
    for g in ideal.gens:
        for i, e in enumerate(g.exps):
            maxdeg[i] = max(maxdeg[i], e)
    offsets = [0] * ideal.nvars
    total = 0
    for i, d in enumerate(maxdeg):
        offsets[i] = total
        total += d
    gens = []
    for g in ideal.gens:
        exps = [0] * total
        for i, e in enumerate(g.exps):
            for s in range(e):
                exps[offsets[i] + s] = 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(total, tuple(gens))


def phan_ideal(L: FiniteLattice) -> MonomialIdeal:
    """Canonical squarefree ideal of an atomic lattice: one variable per
    meet-irreducible element m (ascending element index), and for each atom b
    the generator  prod { x_m : b not below m }.  Its LCM lattice recovers L.
    """
    from .lattice import is_atomic

    ok, _ = is_atomic(L)
    if not ok or not atoms(L):
        raise NotAtomic("the Phan construction needs an atomic lattice with atoms")
    mi = meet_irreducibles(L)
    nvars = len(mi)
    gens = []
    for b in atoms(L):
        exps = [0] * nvars
        for v, m in enumerate(mi):
            if not L.leq(b, m):
                exps[v] = 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(nvars, tuple(gens))


def ideal_height(ideal: MonomialIdeal) -> int:
    """Height of the ideal: the minimum size of a variable set meeting the
    support of every generator (exact branch and bound)."""
    supports = sorted({frozenset(g.support()) for g in ideal.gens}, key=len)
    # prune supersets; only inclusion-minimal supports constrain the cover
    minimal = []
    for s in supports:
        if not any(t <= s for t in minimal):
            minimal.append(s)
    best = len(set().union(*minimal)) if minimal else 0

    def branch(idx, chosen, size):
        nonlocal best
        if size >= best:
            return
        while idx < len(minimal) and minimal[idx] & chosen:
            idx += 1
        if idx == len(minimal):
            best = size
            return
        for v in sorted(minimal[idx]):
            branch(idx + 1, chosen | {v}, size + 1)

    branch(0, frozenset(), 0)
    return best


def is_minimal_ideal(ideal: MonomialIdeal) -> bool:
    """True iff the ideal is squarefree and coincides, up to a permutation of
    the variables, with the canonical ideal of its own LCM lattice."""
    if not ideal.is_squarefree:
        return False
    used = set()
    for g in ideal.gens:
        used.update(g.support())
    if len(used) != ideal.nvars:
        # the canonical ideal never has idle variables
        return False
    other = phan_ideal(lcm_lattice(ideal))
    return ideals_permutation_equal(ideal, other)


def ideals_permutation_equal(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Whether some bijection of variables maps the generator set of ``a``
    onto that of ``b`` (both squarefree)."""
    if a.nvars != b.nvars or a.ngens != b.ngens:
        return False
    sides = [0] * a.nvars + [1] * a.ngens
    return find_isomorphism(_incidence(a), _incidence(b), sides, sides) is not None


def _incidence(ideal: MonomialIdeal) -> list:
    """Out-neighbour bitmasks of the digraph with an edge from each variable
    to each generator it divides; generator j is vertex nvars + j."""
    out = [0] * (ideal.nvars + ideal.ngens)
    for j, g in enumerate(ideal.gens):
        for v in g.support():
            out[v] |= 1 << (ideal.nvars + j)
    return out
