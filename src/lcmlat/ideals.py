"""Monomials, monomial ideals, LCM lattices, and the Phan construction."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import partial

from .errors import (
    ArityMismatch,
    BadExponent,
    EmptyGeneratorSet,
    NotALattice,
    NotAtomic,
    NotMinimal,
    TooLarge,
    UnitGenerator,
)
from .lattice import (
    MAX_ELEMENTS,
    FiniteLattice,
    _subsets,
    atoms,
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
            raise BadExponent(f"exponents must be integers, got {self.exps!r}") from None
        if exps and min(exps) < 0:
            raise BadExponent("exponents must be nonnegative")
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
    :func:`minimalize` to build from an arbitrary monomial collection.  The
    polarization masks and offsets its minimality check computes are kept
    for ``lcm_lattice`` and ``polarize``, outside eq, hash and repr.
    """

    nvars: int
    gens: tuple
    _polarized: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.gens:
            raise EmptyGeneratorSet("an ideal needs at least one generator")
        for g in self.gens:
            if g.nvars != self.nvars:
                raise ArityMismatch("generator arity mismatch")
            if g.is_unit:
                raise UnitGenerator("1 is not allowed as a generator")
        masks, offsets = _polarization(self.gens)
        for (a, ma), (b, mb) in itertools.permutations(zip(self.gens, masks), 2):
            if not ma & ~mb:
                raise NotMinimal(f"generators not minimal: {a} divides {b}")
        object.__setattr__(self, "_polarized", (tuple(masks), tuple(offsets)))

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
    monomials = sorted(set(monomials), key=lambda m: (m.degree, m.exps))
    # a divisor of m comes before it in this order; a unit divides every
    # monomial, so it is kept alone and MonomialIdeal raises UnitGenerator
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
    are ordered by (degree, exponent vector).  The labels are decoded from
    the polarization masks, kept as ``L.sets``, the first time ``L.labels``
    is read."""
    return _union_closure_lattice(*ideal._polarized)


def _union_closure_lattice(masks, offsets) -> FiniteLattice:
    """The LCM lattice of the monomials with these polarization bitmasks,
    where variable v owns the bits from offsets[v] to offsets[v + 1]: the
    closure of masks and the empty mask under ``|``, labelled by popcount
    per block on first read, and in lcm_lattice's element order."""
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
    # every block is a thermometer code, so the degree is the popcount, and
    # the exponent vectors compare as the masks with their bits reversed
    spelled = f"0{offsets[-1]}b"
    elems = sorted(current, key=lambda m: format(m, spelled)[::-1])
    elems.sort(key=int.bit_count)
    return lattice_of_sets(elems, partial(_labels, elems, offsets))


def _labels(masks, offsets) -> tuple:
    """The monomials of these polarization masks: popcount per block."""
    blocks = [(lo, (1 << (hi - lo)) - 1) for lo, hi in zip(offsets, offsets[1:])]
    return tuple(
        Monomial(tuple(((m >> lo) & ones).bit_count() for lo, ones in blocks))
        for m in masks
    )


def validate_labels(L: FiniteLattice) -> None:
    """Check that monomial labels of one arity agree with the order: label
    divisibility must mirror leq, and the label of a join must be the lcm of
    the labels.  Raises NotALattice at the first failing pair in row order.
    Each exponent is replaced by its rank within its variable, which keeps
    divisibility and lcm and gives each variable fewer bits than labels."""
    if L.labels is None:
        return
    ranks = [sorted(set(col)) for col in zip(*(m.exps for m in L.labels))]
    ranked = [Monomial(tuple(map(list.index, ranks, m.exps))) for m in L.labels]
    masks, offsets = _polarization(ranked)
    inside = _subsets(masks, (1 << offsets[-1]) - 1)
    for x, y in itertools.product(range(L.n), repeat=2):
        if (inside[y] ^ L.below[y]) >> x & 1:
            raise NotALattice(f"labels of {x} and {y} disagree with the order")
        if masks[L.join[x][y]] != masks[x] | masks[y]:
            raise NotALattice(f"label of join({x}, {y}) is not the lcm of the labels")


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Standard polarization: the e-th power of a variable spreads over its
    first e slots; the result is squarefree with an isomorphic LCM lattice."""
    masks, offsets = ideal._polarized
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
    downs = [L.below[m] for m in meet_irreducibles(L)]
    gens = [Monomial(tuple(1 ^ (d >> b & 1) for d in downs)) for b in ats]
    return MonomialIdeal(len(downs), tuple(gens))


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
    the variables, with the canonical (Phan) ideal of its own LCM lattice L.

    Read off as: the sorted list of "generators lacking x_v", one entry per
    variable v, equals the sorted list of "generators below m", one entry
    per meet-irreducible m of L.  Phan's generator for atom b lacks x_m
    exactly when b is below m, so equal lists pair the variables with the
    meet-irreducibles under the natural generator-atom map.  Conversely, a
    variable bijection onto the Phan ideal induces an automorphism of L,
    which permutes the meet-irreducibles, so the lists are equal already
    under the natural map.  An idle variable (every generator lacks it, but
    only the top, never meet-irreducible, has every generator below it) and
    a twin variable (a repeated entry, but distinct elements of L have
    distinct generators below them) both make the lists differ.
    """
    if not ideal.is_squarefree:
        return False
    masks, offsets = ideal._polarized
    L = lcm_lattice(ideal)
    # squarefree: each variable in use owns one bit, an idle one none
    lacking = [(1 << ideal.ngens) - 1] * (ideal.nvars - offsets[-1])
    lacking += [
        sum(1 << j for j, g in enumerate(masks) if not g >> bit & 1)
        for bit in range(offsets[-1])
    ]
    below = [
        sum(1 << j for j, g in enumerate(masks) if not g & ~L.sets[m])
        for m in meet_irreducibles(L)
    ]
    return sorted(lacking) == sorted(below)
