"""Monomials, monomial ideals, LCM lattices, and the Phan construction."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import EmptyGeneratorSet, NotAtomic, TooLarge, UnitGenerator
from .lattice import (
    MAX_ELEMENTS,
    FiniteLattice,
    atoms,
    find_isomorphism,
    is_atomic,
    lattice_of_sets,
    meet_irreducibles,
)


@dataclass(frozen=True)
class Monomial:
    """A monomial identified with its exponent vector."""

    exps: tuple

    def __post_init__(self):
        try:
            exps = tuple(map(operator.index, self.exps))
        except TypeError:
            raise ValueError(f"exponents must be integers, got {self.exps!r}") from None
        if exps and min(exps) < 0:
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exps", exps)

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
        masks, _ = _polarization(self.gens)
        for (a, ma), (b, mb) in itertools.permutations(zip(self.gens, masks), 2):
            if not ma & ~mb:
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
    # a divisor of m comes before it in this order
    masks, _ = _polarization(monomials)
    kept, kept_masks = [], []
    for m, mask in zip(monomials, masks):
        if all(k & ~mask for k in kept_masks):
            kept.append(m)
            kept_masks.append(mask)
    return MonomialIdeal(nvars, tuple(kept))


def _polarization(gens):
    """Monomials of one arity as polarization bitmasks: variable v, with
    largest exponent d_v among them, owns the d_v bits from offsets[v], and
    the exponent e sets the low e of them.  lcm is then ``|`` and
    divisibility ``a & ~b == 0``.  Returns the masks and offsets, whose last
    entry is the total bit count."""
    widths = [max(col) for col in zip(*(g.exps for g in gens))]
    offsets = list(itertools.accumulate(widths, initial=0))
    masks = [
        sum(((1 << e) - 1) << off for e, off in zip(g.exps, offsets))
        for g in gens
    ]
    return masks, offsets


def lcm_lattice(ideal: MonomialIdeal) -> FiniteLattice:
    """LCM lattice: lcms of generator subsets ordered by divisibility, with
    monomial labels; the empty subset contributes 1 as the bottom.  Elements
    are ordered by (degree, exponent vector)."""
    return _union_closure_lattice(*_polarization(ideal.gens))


def _union_closure_lattice(masks, offsets) -> FiniteLattice:
    """The LCM lattice of the monomials with these polarization bitmasks,
    where variable v owns the bits from offsets[v] to offsets[v + 1]: the
    closure of masks and the empty mask under ``|``, labelled by popcount
    per block and in lcm_lattice's element order."""
    current = {0, *masks}
    frontier = masks
    while frontier:
        new = []
        for m in frontier:
            # checked before each expansion, which adds at most one element
            # per generator, so the set never far outgrows the cap
            if len(current) > MAX_ELEMENTS:
                raise TooLarge("LCM lattice exceeds the element capacity")
            for g in masks:
                u = m | g
                if u not in current:
                    current.add(u)
                    new.append(u)
        frontier = new
    blocks = [(lo, (1 << (hi - lo)) - 1) for lo, hi in zip(offsets, offsets[1:])]
    labels = {
        m: Monomial(tuple(((m >> lo) & ones).bit_count() for lo, ones in blocks))
        for m in current
    }
    elems = sorted(current, key=lambda m: (m.bit_count(), labels[m].exps))
    return lattice_of_sets(elems, [labels[m] for m in elems])


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Standard polarization: the e-th power of a variable spreads over its
    first e slots; the result is squarefree with an isomorphic LCM lattice."""
    masks, offsets = _polarization(ideal.gens)
    total = offsets[-1]
    gens = [Monomial(tuple((m >> k) & 1 for k in range(total))) for m in masks]
    return MonomialIdeal(total, tuple(gens))


def phan_ideal(L: FiniteLattice) -> MonomialIdeal:
    """Canonical squarefree ideal of an atomic lattice: one variable per
    meet-irreducible element m (ascending element index), and for each atom b
    the generator  prod { x_m : b not below m }.  Its LCM lattice recovers L.
    """
    ats = atoms(L)
    if not is_atomic(L)[0] or not ats:
        raise NotAtomic("the Phan construction needs an atomic lattice with atoms")
    mi = meet_irreducibles(L)
    nvars = len(mi)
    gens = []
    for b in ats:
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
    # depth-first on an explicit stack; an entry (unmet, v, size) stands for
    # the supports in unmet that avoid the chosen variable v (None at the root)
    stack = [(minimal, None, 0)]
    while stack:
        unmet, v, size = stack.pop()
        if v is not None:
            unmet = [s for s in unmet if v not in s]
        if not unmet:
            best = min(best, size)
            continue
        # pairwise-disjoint supports each need a variable of their own
        bound, taken = size, set()
        for s in unmet:
            if not s & taken:
                taken |= s
                bound += 1
        if bound >= best:
            continue
        for v in sorted(unmet[0], reverse=True):
            stack.append((unmet, v, size + 1))
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
