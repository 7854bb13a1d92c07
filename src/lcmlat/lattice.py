"""Finite bounded lattices: representation, derived structure, predicates.

The order is stored as bitset rows (python ints): ``below[j]`` has bit ``i``
set exactly when ``i <= j``, and ``above`` is its transpose.  Element ids
are the caller's and need not follow the order.  The meet of a pair is the
element whose down-set is the intersection of theirs, the join likewise on
up-sets.  Meet and join tables are tuples of row tuples, ``L.meet[x][y]``;
the property checks loop over those rows and the bitsets, in plain Python.

The tables are filled on one of two paths, after the same order-axiom scan
and with the same checks and messages.  ``from_below_masks`` looks each pair
up, up to the diagonal, in a dict from down-sets (up-sets) to elements.
``lattice_of_sets`` fills a family of n sets on a universe of k ≤ 8 points
by byte lanes when n ≤ 254 and 2**k ≤ n*n: one 256-byte ``bytes.translate``
table maps each subset of the universe to the largest member inside it,
another to the smallest member containing it, and a whole row is one AND
(OR) of the masks packed one per byte, translated.  A mask must fit a byte,
hence 8 points; an index must be a byte other than the marker 255, hence
n ≤ 254; and the two translate tables take about 2**k Python steps against
about n*n lookups on the dict path, hence 2**k ≤ n*n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count, islice, zip_longest
from operator import add, and_, eq, gt, lt, ne, not_, or_
from typing import Sequence

from .errors import CyclicCovers, NotALattice, NotBounded, NotComparable
from .homology import SimplicialComplexData

#: Hard cap on element count.  The meet and join tables hold 2 * n**2 row
#: references, which a build fills row by row rather than failing at once.
#: On a 2-core x86 box with Python 3.11 the Boolean lattice B13, at this
#: cap, took 106 s to build with a 1.72 GB peak RSS; B12 took 13.8 s and
#: 444 MB.
MAX_ELEMENTS = 1 << 13


@dataclass(frozen=True)
class PropertyVerdict:
    verdict: bool
    witness: object = None


class PropertyReport:
    """Named boolean verdicts with witnesses, in a fixed property order."""

    def __init__(self, entries):
        self.entries = dict(entries)

    def __getitem__(self, name) -> PropertyVerdict:
        return self.entries[name]

    def verdict(self, name) -> bool:
        return self.entries[name].verdict

    def as_dict(self):
        return {
            name: {"verdict": v.verdict, "witness": _json_witness(v.witness)}
            for name, v in self.entries.items()
        }

    def render_text(self) -> str:
        width = max(len(n) for n in self.entries)
        lines = []
        for name, v in self.entries.items():
            line = f"{name:<{width}}  {str(v.verdict).lower()}"
            if v.witness is not None:
                line += f"  witness: {v.witness}"
            lines.append(line)
        return "\n".join(lines)


def _json_witness(w):
    if w is None or isinstance(w, (str, int)):
        return w
    return list(w)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _generated(gens: int, start: int, table, order) -> int:
    """Bitmask of the elements x whose fold through table (meet or join),
    from start, over the generators in gens & order[x] is x itself."""
    mask = 0
    for x, below_x in enumerate(order):
        acc = start
        for g in _bits(gens & below_x):
            acc = table[acc][g]
        if acc == x:
            mask |= 1 << x
    return mask


def _reach(rows, seed: int, within: int) -> int:
    """Bitmask of the vertices of ``within`` reachable from the vertices in
    ``seed`` along ``rows`` (rows[v] = neighbour bitmask of v), seed
    included: a breadth-first search, one frontier per round."""
    seen = frontier = seed
    while frontier:
        new = 0
        for v in _bits(frontier):
            new |= rows[v]
        frontier = new & within & ~seen
        seen |= frontier
    return seen


class FiniteLattice:
    """Immutable finite bounded lattice.

    Build through :func:`lattice_from_covers`, :meth:`from_below_masks`, or
    the constructors in :mod:`lcmlat.ideals`, :mod:`lcmlat.graphs` and
    :mod:`lcmlat.constructions`; the raw ``__init__`` trusts its arguments.
    """

    def __init__(self, below, above, meet, join, bottom, top, labels=None):
        self.n = len(below)
        self.below = below
        self.above = above
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top
        self.labels = labels

    @staticmethod
    def from_below_masks(below: Sequence[int], labels=None) -> "FiniteLattice":
        """Build and validate a lattice from down-set bitmasks.

        Checks the partial-order axioms, boundedness, and existence and
        uniqueness of every pairwise meet and join.
        """
        below = list(below)
        _check_order(below)
        above = _transpose(below)
        with_down_set = {m: i for i, m in enumerate(below)}.get
        with_up_set = {m: i for i, m in enumerate(above)}.get
        # both tables are symmetric: look up row i up to the diagonal, and
        # complete it from the columns of the rows below
        rows = (
            (
                [with_down_set(bi & m) for m in below[: i + 1]],
                [with_up_set(ai & m) for m in above[: i + 1]],
            )
            for i, (bi, ai) in enumerate(zip(below, above))
        )
        bottom = with_down_set(reduce(and_, below))
        top = with_up_set(reduce(and_, above))
        low_meet, low_join = _checked_tables(bottom, top, rows, None)
        return FiniteLattice(
            tuple(below), tuple(above), _symmetric(low_meet), _symmetric(low_join),
            bottom, top, tuple(labels) if labels is not None else None,
        )

    # -- basic queries ----------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool((self.below[y] >> x) & 1)

    @cached_property
    def strict_below(self) -> tuple:
        return tuple(m & ~(1 << i) for i, m in enumerate(self.below))

    @cached_property
    def strict_above(self) -> tuple:
        return tuple(m & ~(1 << i) for i, m in enumerate(self.above))

    @cached_property
    def comparable(self) -> tuple:
        """comparable[v] = bitmask of the elements comparable with v."""
        return tuple(b | a for b, a in zip(self.below, self.above))

    @cached_property
    def upper_cover_masks(self) -> tuple:
        """upper_cover_masks[i] = bitmask of the elements covering i: the
        minimal elements of its strict up-set.  Each surviving candidate
        strikes out everything strictly above it, so a struck candidate is
        never visited; what is above it is already struck."""
        sa = self.strict_above
        out = []
        for up in sa:
            cand = todo = up
            while todo:
                low = todo & -todo
                cand &= ~sa[low.bit_length() - 1]
                todo = (todo ^ low) & cand
            out.append(cand)
        return tuple(out)

    @cached_property
    def lower_cover_masks(self) -> tuple:
        return tuple(_transpose(self.upper_cover_masks))

    @cached_property
    def cover_pairs(self) -> tuple:
        return tuple(
            (i, j) for i in range(self.n) for j in _bits(self.upper_cover_masks[i])
        )

    @cached_property
    def chain_ranks(self) -> tuple:
        """Longest-chain length from the bottom to each element.  The last
        step of a longest chain is a cover, so only lower covers are read."""
        ranks = [0] * self.n
        order = sorted(range(self.n), key=lambda i: self.below[i].bit_count())
        downs = self.lower_cover_masks
        for i in order:
            r = 0
            for j in _bits(downs[i]):
                if ranks[j] >= r:
                    r = ranks[j] + 1
            ranks[i] = r
        return tuple(ranks)

    @cached_property
    def graded(self) -> tuple:
        """``is_graded``'s verdict and witness."""
        ranks = self.chain_ranks
        for i, j in self.cover_pairs:
            if ranks[j] != ranks[i] + 1:
                return False, (i, j)
        return True, None

    @cached_property
    def complement_masks(self) -> tuple:
        """complement_masks[x] = bitmask of the complements of x.  y meets x
        in the bottom exactly when no atom lies below both, and joins x to
        the top exactly when no coatom lies above both."""
        atom_mask = self.upper_cover_masks[self.bottom]
        coatom_mask = self.lower_cover_masks[self.top]
        full = (1 << self.n) - 1
        out = []
        for b, a in zip(self.below, self.above):
            shares = 0
            for g in _bits(b & atom_mask):
                shares |= self.above[g]
            for g in _bits(a & coatom_mask):
                shares |= self.below[g]
            out.append(full & ~shares)
        return tuple(out)

    @cached_property
    def join_irreducible_mask(self) -> int:
        """Bitmask of the elements with exactly one lower cover."""
        return _single_cover_mask(self.lower_cover_masks)

    @cached_property
    def meet_irreducible_mask(self) -> int:
        """Bitmask of the elements with exactly one upper cover."""
        return _single_cover_mask(self.upper_cover_masks)

    @cached_property
    def join_closure_of_atoms(self) -> int:
        """Bitmask of the joins of atom sets, the empty join (the bottom)
        included.  x is one exactly when it is the join of all atoms below
        it: an atom set joining to x lies below x, so the join of all atoms
        below x lies between x and that join.

        Every element is the join of the join-irreducibles below it, and a
        join-irreducible is a join of atoms only if it is an atom; so when
        every join-irreducible is an atom, every element is generated."""
        atom_mask = self.upper_cover_masks[self.bottom]
        if not self.join_irreducible_mask & ~atom_mask:
            return (1 << self.n) - 1
        return _generated(atom_mask, self.bottom, self.join, self.below)

    @cached_property
    def meet_closure_of_coatoms(self) -> int:
        """Bitmask of the meets of coatom sets, the empty meet (the top)
        included; dual to ``join_closure_of_atoms``."""
        coatom_mask = self.lower_cover_masks[self.top]
        if not self.meet_irreducible_mask & ~coatom_mask:
            return (1 << self.n) - 1
        return _generated(coatom_mask, self.top, self.meet, self.above)


def _single_cover_mask(covers) -> int:
    """Bitmask of the v with exactly one bit in covers[v]."""
    mask = 0
    for v, c in enumerate(covers):
        if c.bit_count() == 1:
            mask |= 1 << v
    return mask


def _check_order(below) -> None:
    """Raise unless the down-set bitmasks in below (a list) are those of a
    partial order on 1..MAX_ELEMENTS elements."""
    n = len(below)
    if n == 0 or n > MAX_ELEMENTS:
        raise NotBounded(f"element count {n} out of range 1..{MAX_ELEMENTS}")
    for i, m in enumerate(below):
        if not (m >> i) & 1:
            raise NotALattice(f"order not reflexive at element {i}")
        if m >> n:
            raise NotALattice(f"down-set mask of element {i} out of range")
        for j in _bits(m & ~(1 << i)):
            if below[j] & ~m:
                raise NotALattice(f"order not transitive at ({j}, {i})")
            if below[j] == m:
                raise NotALattice(f"order not antisymmetric at ({j}, {i})")


def _checked_tables(bottom, top, rows, missing):
    """The meet and join rows as two lists, where ``rows`` yields row i of
    each table, complete at least up to the diagonal, and ``missing`` marks
    a bound (a meet or join) that does not exist.  Raises at a missing
    bottom or top, then at the first row with a missing pair up to its
    diagonal, naming the lowest such pair."""
    if bottom == missing:
        raise NotBounded("no unique bottom element")
    if top == missing:
        raise NotBounded("no unique top element")
    meet, join = [], []
    for i, (down, up) in enumerate(rows):
        pair = down[: i + 1], up[: i + 1]
        if missing in pair[0] or missing in pair[1]:
            j = min(row.index(missing) for row in pair if missing in row)
            kind = "meet" if pair[0][j] == missing else "join"
            raise NotALattice(f"elements {i} and {j} have no unique {kind}")
        meet.append(down)
        join.append(up)
    return meet, join


def _symmetric(lower) -> tuple:
    """Rows of the symmetric table whose row i up to the diagonal is
    lower[i]; column i from the diagonal down is the transpose of lower."""
    return tuple(
        tuple(row[:i]) + col[i:]
        for i, (row, col) in enumerate(zip(lower, zip_longest(*lower)))
    )


# -- constructors -----------------------------------------------------------


def lattice_from_covers(n: int, covers, labels=None) -> FiniteLattice:
    """Lattice from Hasse-diagram edges (low, high); leq is the
    reflexive-transitive closure.  Element indices are preserved."""
    if n < 1 or n > MAX_ELEMENTS:
        raise NotBounded(f"element count {n} out of range 1..{MAX_ELEMENTS}")
    up = [[] for _ in range(n)]
    indeg = [0] * n
    for lo, hi in covers:
        if not (0 <= lo < n and 0 <= hi < n):
            raise NotALattice(f"cover ({lo}, {hi}) out of range")
        if lo == hi:
            raise CyclicCovers(f"self-cover at element {lo}")
        up[lo].append(hi)
        indeg[hi] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in up[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) < n:
        raise CyclicCovers("cover relation contains a cycle")
    below = [1 << i for i in range(n)]
    for v in order:
        for w in up[v]:
            below[w] |= below[v]
    return FiniteLattice.from_below_masks(below, labels)


#: The byte that ``_set_tables`` writes where a subset has no such member.
_NO_MEMBER = 255


def lattice_of_sets(masks, labels=None) -> FiniteLattice:
    """Distinct sets, given as bitmasks, ordered by inclusion.  Element i is
    masks[i], so the caller's order is kept.  The checks, their order and
    their messages are those of ``from_below_masks``.

    The meet of two sets is the largest member inside their intersection,
    and their join the smallest member containing their union, when these
    exist.  When the universe has k ≤ 8 points, there are n ≤ 254 sets and
    2**k ≤ n*n, both tables are filled by byte lanes, with no Python loop
    over pairs: ``_set_tables`` maps every subset of the universe to the
    largest member inside it and to the smallest member containing it, as
    two 256-byte ``bytes.translate`` tables, and row i is the masks, packed
    one per byte, ANDed (ORed) with n copies of masks[i] and translated.  A
    mask must fit a byte, so k ≤ 8.  An index must be a byte other than the
    marker 255, so n ≤ 254; the only families of 255 or more sets on 8
    points are B8 and B8 less one set, which the dict path builds.  The
    translate tables take about 2**k Python steps against about n*n dict
    lookups, so the byte path is taken only when 2**k ≤ n*n.  Those steps
    are dearer than lookups: measured whole builds break even nearer
    n*n = 5 * 2**k, and below that both paths take under a millisecond.
    Every other family is built by ``from_below_masks``."""
    universe = reduce(or_, masks, 0)
    # lacking[b]: the elements whose set lacks b; a set is inside m exactly
    # when it lacks every b outside m
    lacking = {
        b: sum(1 << i for i, m in enumerate(masks) if not (m >> b) & 1)
        for b in _bits(universe)
    }
    n, k = len(masks), universe.bit_length()
    full = (1 << n) - 1
    below = []
    for m in masks:
        down = full
        for b in _bits(universe & ~m):
            down &= lacking[b]
        below.append(down)
    if not (k <= 8 and n < _NO_MEMBER and 1 << k <= n * n):
        return FiniteLattice.from_below_masks(below, labels)
    _check_order(below)
    above = _transpose(below)
    down, up = _set_tables(masks, k)
    packed = int.from_bytes(bytes(masks), "little")
    ones = int.from_bytes(b"\x01" * n, "little")
    rows = (
        (
            (packed & r).to_bytes(n, "little").translate(down),
            (packed | r).to_bytes(n, "little").translate(up),
        )
        for r in map(ones.__mul__, masks)
    )
    bottom, top = down[reduce(and_, masks)], up[universe]
    meet, join = _checked_tables(bottom, top, rows, _NO_MEMBER)
    return FiniteLattice(
        tuple(below), tuple(above), tuple(map(tuple, meet)), tuple(map(tuple, join)),
        bottom, top, tuple(labels) if labels is not None else None,
    )


def _set_tables(masks, k: int) -> tuple:
    """Two ``bytes.translate`` tables over the subsets s of range(k), for
    distinct masks below 256: down[s] is the index of the largest member
    inside s and up[s] that of the smallest member containing s, _NO_MEMBER
    where there is none.  The largest member inside s exists exactly when
    the union U(s) of the members inside s is a member, and U(s) is s for
    a member, else the union of U(s - b) over the b in s; the smallest
    member containing s is dual, by intersection over the b outside s."""
    index = {m: i for i, m in enumerate(masks)}
    size = 1 << k
    full = size - 1
    union = [0] * size
    for s in range(size):
        if s in index:
            union[s] = s
            continue
        u, rest = 0, s
        while rest:
            low = rest & -rest
            u |= union[s ^ low]
            rest ^= low
        union[s] = u
    inter = [0] * size
    for s in reversed(range(size)):
        if s in index:
            inter[s] = s
            continue
        v, rest = full, full ^ s
        while rest:
            low = rest & -rest
            v &= inter[s | low]
            rest ^= low
        inter[s] = v
    pad = bytes([_NO_MEMBER]) * (256 - size)
    return (
        bytes(index.get(u, _NO_MEMBER) for u in union) + pad,
        bytes(index.get(v, _NO_MEMBER) for v in inter) + pad,
    )


# -- derived element sets ----------------------------------------------------


def atoms(L: FiniteLattice) -> list:
    return list(_bits(L.upper_cover_masks[L.bottom]))


def coatoms(L: FiniteLattice) -> list:
    return list(_bits(L.lower_cover_masks[L.top]))


def meet_irreducibles(L: FiniteLattice) -> list:
    """Elements with exactly one upper cover, ascending."""
    return list(_bits(L.meet_irreducible_mask))


def height(L: FiniteLattice) -> int:
    return L.chain_ranks[L.top]


def is_graded(L: FiniteLattice):
    """Whether longest-chain ranks step by 1 on every cover; the witness of
    a False verdict is the first cover (i, j) where they do not.  The ranks
    themselves are ``L.chain_ranks``; the verdict is computed once per
    lattice and kept as ``L.graded``."""
    return L.graded


# -- property predicates ------------------------------------------------------


def _first(flags, start: int = 0):
    """Index of the first true flag, counting from start; None if none."""
    return next(compress(count(start), flags), None)


def _all_of(L: FiniteLattice, mask: int):
    """Whether mask holds every element; if not, the lowest one it lacks."""
    x = (~mask & (mask + 1)).bit_length() - 1  # the lowest bit not set
    return (True, None) if x == L.n else (False, (x,))


def is_atomic(L: FiniteLattice):
    return _all_of(L, L.join_closure_of_atoms)


def is_coatomic(L: FiniteLattice):
    return _all_of(L, L.meet_closure_of_coatoms)


def _rank_identity(L: FiniteLattice, bad_when):
    """Compares rk(x) + rk(y) with rk(x ^ y) + rk(x v y) over all pairs; the
    witness of False is the first pair, in row order, where ``bad_when``
    holds."""
    if not L.graded[0]:
        return False, "not graded"
    rk = L.chain_ranks
    rank = rk.__getitem__
    for x, (mx, jx) in enumerate(zip(L.meet, L.join)):
        # the identity is symmetric, so the first bad pair of the first bad
        # row lies on or above the diagonal
        sums = map(add, map(rank, mx[x:]), map(rank, jx[x:]))
        y = _first(map(bad_when, map(rk[x].__add__, rk[x:]), sums), x)
        if y is not None:
            return False, (x, y)
    return True, None


def is_modular(L: FiniteLattice):
    return _rank_identity(L, ne)


def is_upper_semimodular(L: FiniteLattice):
    return _rank_identity(L, lt)


def is_lower_semimodular(L: FiniteLattice):
    return _rank_identity(L, gt)


def is_distributive(L: FiniteLattice):
    """Triple identity x ^ (y v z) == (x ^ y) v (x ^ z) over all triples;
    the witness of False is the first bad triple.

    The identity holds exactly when every join-irreducible below some x v y
    lies below x or below y (then x -> {join-irreducibles below x} embeds L
    in a power set), which takes pairs only; the triple scan runs when it
    fails, to find the witness.  That scan skips the triples that cannot
    be bad: both sides are x when x <= y, and the bottom when x is."""
    below, join = L.below, L.join
    irreducible = L.join_irreducible_mask
    if all(
        below[v] & irreducible == (bx | by) & irreducible
        for bx, jx in zip(below, join)
        for v, by in zip(jx, below)
    ):
        return True, None
    full = (1 << L.n) - 1
    for x, mx in enumerate(L.meet):
        if x == L.bottom:
            continue
        for y in _bits(full & ~L.above[x]):
            jy = join[y]
            # symmetric in y and z, so z runs from y on
            lhs = map(mx.__getitem__, jy[y:])
            rhs = map(join[mx[y]].__getitem__, mx[y:])
            z = _first(map(ne, lhs, rhs), y)
            if z is not None:
                return False, (x, y, z)
    return True, None


def is_complemented(L: FiniteLattice):
    x = _first(map(not_, L.complement_masks))
    return (True, None) if x is None else (False, (x,))


def is_uniquely_complemented(L: FiniteLattice):
    for x, comps in enumerate(L.complement_masks):
        if comps.bit_count() != 1:
            return False, (x, *islice(_bits(comps), 2))
    return True, None


def is_strongly_complemented(L: FiniteLattice):
    """Every x needs a complement that is a meet of coatoms and one that is
    a join of atoms."""
    meets, joins = L.meet_closure_of_coatoms, L.join_closure_of_atoms
    x = _first(not (comps & meets and comps & joins) for comps in L.complement_masks)
    return (True, None) if x is None else (False, (x,))


def is_boolean(L: FiniteLattice):
    """Distributive and complemented (complements are then unique)."""
    distributive = is_distributive(L)
    return is_complemented(L) if distributive[0] else distributive


def is_geometric(L: FiniteLattice):
    """Atomic and upper semimodular."""
    atomic = is_atomic(L)
    return is_upper_semimodular(L) if atomic[0] else atomic


def is_supersolvable(L: FiniteLattice):
    """Searches for a maximal chain of modular elements, m with
    rk(x) + rk(m) == rk(x ^ m) + rk(x v m) for every x; the witness of a
    True verdict is that chain.  Only the elements the search reaches are
    tested, each once; the bottom is always modular."""
    if not L.graded[0]:
        return False, "not graded"
    rk = L.chain_ranks
    rank = rk.__getitem__
    stack = [L.bottom]
    parent = {L.bottom: None}
    seen = 1 << L.bottom
    while stack:
        v = stack.pop()
        if v == L.top:
            chain = []
            while v is not None:
                chain.append(v)
                v = parent[v]
            return True, tuple(reversed(chain))
        for w in _bits(L.upper_cover_masks[v] & ~seen):
            seen |= 1 << w
            sums = map(add, map(rank, L.meet[w]), map(rank, L.join[w]))
            if all(map(eq, map(rk[w].__add__, rk), sums)):
                parent[w] = v
                stack.append(w)
    return False, None


def property_report(L: FiniteLattice) -> PropertyReport:
    """Every predicate once; boolean and geometric are read off their two
    components, with the first failing one's witness."""
    atomic, usm = is_atomic(L), is_upper_semimodular(L)
    distributive, complemented = is_distributive(L), is_complemented(L)
    entries = {
        "atomic": atomic,
        "coatomic": is_coatomic(L),
        "graded": L.graded,
        "modular": is_modular(L),
        "upper_semimodular": usm,
        "lower_semimodular": is_lower_semimodular(L),
        "supersolvable": is_supersolvable(L),
        "distributive": distributive,
        "boolean": complemented if distributive[0] else distributive,
        "geometric": usm if atomic[0] else atomic,
        "complemented": complemented,
        "strongly_complemented": is_strongly_complemented(L),
        "uniquely_complemented": is_uniquely_complemented(L),
    }
    return PropertyReport(
        (name, PropertyVerdict(*v)) for name, v in entries.items()
    )


def validate_labels(L: FiniteLattice) -> None:
    """Check that monomial labels are compatible with the order: label
    divisibility must mirror leq, and the label of a join must be the lcm of
    the labels.  Raises NotALattice otherwise."""
    if L.labels is None:
        return
    labs = L.labels
    for x in range(L.n):
        for y in range(L.n):
            if L.leq(x, y) != labs[x].divides(labs[y]):
                raise NotALattice(
                    f"labels of {x} and {y} disagree with the order"
                )
            if labs[L.join[x][y]] != labs[x].lcm(labs[y]):
                raise NotALattice(
                    f"label of join({x}, {y}) is not the lcm of the labels"
                )


# -- Moebius function ---------------------------------------------------------


def mobius(L: FiniteLattice, x: int, y: int) -> int:
    """Moebius value of the closed interval [x, y]."""
    if not L.leq(x, y):
        raise NotComparable(f"{x} is not below {y}")
    mu = {x: 1}
    # (x, y] by down-set size, so every z comes after the elements below it
    rest = L.strict_above[x] & L.below[y]
    for z in sorted(_bits(rest), key=lambda z: L.below[z].bit_count()):
        s = 0
        for w in _bits(L.below[z] & L.above[x] & ~(1 << z)):
            s += mu[w]
        mu[z] = -s
    return mu[y]


# -- interval complexes -------------------------------------------------------


def open_interval_order_complex(L: FiniteLattice, lo: int, hi: int):
    """Order complex of {z : lo < z < hi}: all chains, empty face included."""
    if lo == hi or not L.leq(lo, hi):
        raise NotComparable(f"need lo < hi, got {lo}, {hi}")
    # by down-set size, so every chain is an increasing tuple of local indices
    members = L.strict_above[lo] & L.strict_below[hi]
    elems = sorted(_bits(members), key=lambda z: L.below[z].bit_count())
    k = len(elems)
    index_of = {e: i for i, e in enumerate(elems)}
    local_above = []
    for e in elems:
        m = 0
        for f in _bits(L.strict_above[e] & members):
            m |= 1 << index_of[f]
        local_above.append(m)
    faces_by_dim = {-1: [()]}
    frontier = [((i,), local_above[i]) for i in range(k)]
    d = 0
    while frontier:
        faces_by_dim[d] = [c for c, _ in frontier]
        nxt = []
        for chain, ext in frontier:
            for j in _bits(ext):
                nxt.append((chain + (j,), ext & local_above[j]))
        frontier = nxt
        d += 1
    return SimplicialComplexData(vertices=tuple(elems), faces_by_dim=faces_by_dim)


def crosscut_complex(L: FiniteLattice, lo: int, hi: int):
    """Crosscut complex of [lo, hi], homotopy equivalent to the order complex
    of the open interval (lo, hi) by the crosscut theorem.

    Its vertices are the atoms of [lo, hi] (the upper covers of lo below hi)
    and its faces the sets of atoms whose join is not hi; or, when there are
    fewer coatoms, the coatoms (the lower covers of hi above lo) and the sets
    of them whose meet is not lo.  Faces are sorted tuples of indices into
    ``vertices``, listed in sorted order, empty face included.
    """
    if lo == hi or not L.leq(lo, hi):
        raise NotComparable(f"need lo < hi, got {lo}, {hi}")
    atom_mask = L.upper_cover_masks[lo] & L.below[hi]
    coatom_mask = L.lower_cover_masks[hi] & L.above[lo]
    if coatom_mask.bit_count() < atom_mask.bit_count():
        verts, table, start, stop = list(_bits(coatom_mask)), L.meet, hi, lo
    else:
        verts, table, start, stop = list(_bits(atom_mask)), L.join, lo, hi
    k = len(verts)
    faces_by_dim = {}
    # depth-first over increasing index tuples, each with the join (meet) of
    # its vertices; children are pushed last index first, so faces come off
    # the stack in lexicographic order
    stack = [((), start)]
    while stack:
        face, value = stack.pop()
        faces_by_dim.setdefault(len(face) - 1, []).append(face)
        row = table[value]
        for i in range(k - 1, face[-1] if face else -1, -1):
            w = row[verts[i]]
            if w != stop:
                stack.append((face + (i,), w))
    return SimplicialComplexData(vertices=tuple(verts), faces_by_dim=faces_by_dim)


def open_interval_is_connected(L: FiniteLattice, lo: int, hi: int) -> bool:
    """Comparability-connectedness of the open interval; an empty interval
    counts as connected."""
    members = L.strict_above[lo] & L.strict_below[hi]
    return _reach(L.comparable, members & -members, members) == members


# -- duality, products, isomorphism -------------------------------------------


def dual(L: FiniteLattice) -> FiniteLattice:
    """Order-reversed lattice on the same element ids; labels drop."""
    return FiniteLattice.from_below_masks(L.above)


def product(L1: FiniteLattice, L2: FiniteLattice) -> FiniteLattice:
    """Componentwise-ordered product; element (x, y) gets index x*n2 + y."""
    n1, n2 = L1.n, L2.n
    if n1 * n2 > MAX_ELEMENTS:
        raise NotBounded("product exceeds element capacity")
    below = [0] * (n1 * n2)
    for x in range(n1):
        bx = L1.below[x]
        for y in range(n2):
            m = 0
            b2 = L2.below[y]
            for u in _bits(bx):
                m |= b2 << (u * n2)
            below[x * n2 + y] = m
    return FiniteLattice.from_below_masks(below)


def _transpose(out) -> list:
    """In-neighbour bitmasks of a digraph given by out-neighbour bitmasks."""
    inn = [0] * len(out)
    for v, m in enumerate(out):
        for w in _bits(m):
            inn[w] |= 1 << v
    return inn


def refine(out, colors) -> list:
    """Stable colour refinement of a digraph given by out-neighbour bitmasks.

    Each round recolours a vertex by its colour and the sorted colours of its
    out- and of its in-neighbours.  A new colour is the rank of that key in
    sorted order, not a first-seen number, so it does not depend on the
    vertex order: colours are isomorphism-invariant, also across digraphs
    refined together as one disjoint union.
    """
    nbrs = [(tuple(_bits(o)), tuple(_bits(i))) for o, i in zip(out, _transpose(out))]
    classes = len(set(colors))
    while True:
        color = colors.__getitem__
        keys = [
            (c, tuple(sorted(map(color, o))), tuple(sorted(map(color, i))))
            for c, (o, i) in zip(colors, nbrs)
        ]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        colors = [rank[k] for k in keys]
        # a round never merges classes, so an unchanged count means stable
        if len(rank) == classes:
            return colors
        classes = len(rank)


def find_isomorphism(out1, out2, colors1, colors2):
    """A colour-preserving isomorphism between two loopless digraphs given
    by out-neighbour bitmasks, as a list mapping each vertex of the first to
    one of the second; None when there is none.

    Joint colour refinement only narrows the candidates.  The answer comes
    from an explicit-stack backtracking search that checks every assignment
    against all out- and in-edges to the vertices already mapped.
    """
    n = len(out1)
    if len(out2) != n:
        return None
    joint = refine(list(out1) + [m << n for m in out2], list(colors1) + list(colors2))
    c1, c2 = joint[:n], joint[n:]
    if sorted(c1) != sorted(c2):
        return None
    in1, in2 = _transpose(out1), _transpose(out2)
    pool = {}
    for w, c in enumerate(c2):
        pool[c] = pool.get(c, 0) | 1 << w
    order = sorted(range(n), key=lambda v: pool[c1[v]].bit_count())
    image = [0] * n
    done = used = 0  # vertices mapped so far, on each side
    frames = []  # per depth: [untried candidates, wanted out-image, wanted in-image]
    k = 0
    while 0 <= k < n:
        v = order[k]
        if k == len(frames):
            want_out = want_in = 0
            for u in _bits(out1[v] & done):
                want_out |= 1 << image[u]
            for u in _bits(in1[v] & done):
                want_in |= 1 << image[u]
            frames.append([pool[c1[v]] & ~used, want_out, want_in])
        else:  # back from a dead end: release this depth's choice
            done ^= 1 << v
            used ^= 1 << image[v]
        frame = frames[k]
        cand, want_out, want_in = frame
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            if out2[w] & used == want_out and in2[w] & used == want_in:
                break
        else:
            frames.pop()
            k -= 1
            continue
        frame[0] = cand
        image[v] = w
        done |= 1 << v
        used |= low
        k += 1
    return image if k == n else None


def is_isomorphic(L1: FiniteLattice, L2: FiniteLattice) -> bool:
    """Order isomorphism, as isomorphism of the cover digraphs coloured by
    chain rank."""
    return find_isomorphism(
        L1.upper_cover_masks, L2.upper_cover_masks, L1.chain_ranks, L2.chain_ranks
    ) is not None


# -- meet-irreducible width ----------------------------------------------------


def mi_width(L: FiniteLattice) -> int:
    """Maximum antichain size inside the meet-irreducible subposet
    (Dilworth via bipartite matching)."""
    mi = meet_irreducibles(L)
    k = len(mi)
    succ = [[b for b in range(k) if a != b and L.leq(mi[a], mi[b])] for a in range(k)]
    match_right = [-1] * k
    matching = 0
    for a in range(k):
        # depth-first search for an augmenting path from a, on an explicit
        # stack: path[d] is a left vertex, via[d] the right vertex tried from it
        seen = 0
        path, via, pos = [a], [], [0]
        while path:
            u = path[-1]
            if pos[-1] == len(succ[u]):
                path.pop()
                pos.pop()
                if via:
                    via.pop()
                continue
            b = succ[u][pos[-1]]
            pos[-1] += 1
            if (seen >> b) & 1:
                continue
            seen |= 1 << b
            via.append(b)
            if match_right[b] < 0:
                for u, b in zip(path, via):
                    match_right[b] = u
                matching += 1
                break
            path.append(match_right[b])
            pos.append(0)
    return k - matching
