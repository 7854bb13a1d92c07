"""Finite bounded lattices: representation, derived structure, predicates.

The order is stored as bitset rows (python ints): ``below[j]`` has bit ``i``
set exactly when ``i <= j``, and ``above`` is its transpose.  Element ids
are the caller's and need not follow the order.  The meet of a pair is the
element whose down-set is the intersection of theirs, the join likewise on
up-sets.  Meet and join tables are tuples of rows, ``L.meet[x][y]``: rows
are ``bytes`` when every index fits a byte (n ≤ 256), else tuples.  The
property checks loop over those rows and the bitsets, in plain Python.

The tables are filled on one of two paths, after the same order-axiom scan
and with the same checks and messages.  ``from_below_masks`` looks each pair
up, up to the diagonal, in a dict from down-sets (up-sets) to elements.
``lattice_of_sets`` fills the tables of a family of at most 254 sets on at
most 8 points by byte lanes, with no Python loop over pairs; its docstring
says how and when.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count, islice, repeat, zip_longest
from operator import add, and_, eq, gt, lt, ne, not_, or_
from typing import Sequence

from .errors import CyclicCovers, NotALattice, NotBounded, NotComparable
from .homology import SimplicialComplexData

#: Hard cap on element count.  Above 256 elements the meet and join tables
#: hold 2 * n**2 row references, which a build fills row by row rather than
#: failing at once.
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
    lower[i]; column i from the diagonal down is the transpose of lower.
    Rows are bytes when every index fits a byte, else tuples."""
    row_type = bytes if len(lower) <= 256 else tuple
    return tuple(
        row_type(row[:i]) + row_type(col[i:])
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


#: The byte that ``_byte_lanes`` writes where a subset has no largest member.
_NO_MEMBER = 255
#: Bytes 0 and 1 as the digits "0" and "1".
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def lattice_of_sets(masks, labels=None) -> FiniteLattice:
    """Distinct sets, given as bitmasks, ordered by inclusion.  Element i is
    masks[i], so the caller's order is kept.  The checks, their order and
    their messages are those of ``from_below_masks``.

    Complementing every set within the universe U (the union of the sets)
    reverses inclusion.  So the up-sets of the family are the down-sets of
    the complements, and the join of two sets, the smallest member
    containing their union, is the set whose complement is the largest
    complement inside the intersection of theirs: the join table of the
    family is the meet table of its complements, with the top element at
    the empty set.

    When U has k ≤ 8 points, there are n ≤ 254 sets and 2**k ≤ n*n, one DP
    over the 2**k subsets of range(k) per side gives everything else, with
    no Python loop over pairs.  ``_byte_lanes`` maps every subset t to the
    bitmask of the members inside t, so the down-set of member j is its
    entry at masks[j].  The largest member inside t is the one whose
    down-set is that entry, when there is one; as a 256-byte
    ``bytes.translate`` table, it turns row i, the masks packed one per
    byte and ANDed with n copies of masks[i], into row i of the meet table.
    The complements give the up-sets and the join table the same way.  A
    mask must fit a byte, so k ≤ 8.  An index must be a byte other than the
    marker 255, so n ≤ 254; the only families of 255 or more sets on 8
    points are B8 and B8 less one set, which the dict path builds.  Every
    other family is built by ``from_below_masks``, one dict lookup per
    pair.  On union-closed families, k = 3..8 (Python 3.11, 2-core x86),
    whole builds on the byte path take 0.63 to 0.89 times as long as on
    the dict path at n*n = 2**k, and break even between n*n = 0.4 * 2**k
    and 0.56 * 2**k; at n*n ≤ 2**k / 4 they take 1.2 to 3.1 times as long.
    The rule 2**k ≤ n*n is kept: a rule at 2**(k-1) would move 339 of the
    3,734 builds of a verify-pool benchmark pass to the byte path and save
    0.2 ms on them.
    """
    universe = reduce(or_, masks, 0)
    n, k = len(masks), universe.bit_length()
    if not (k <= 8 and n < _NO_MEMBER and 1 << k <= n * n):
        return FiniteLattice.from_below_masks(_subsets(masks, universe), labels)
    complements = [universe ^ m for m in masks]
    below, down, bottom = _byte_lanes(masks, k, reduce(and_, masks))
    above, up, top = _byte_lanes(complements, k, 0)
    _check_order(below)
    meet, join = _checked_tables(bottom, top, zip(down, up), _NO_MEMBER)
    return FiniteLattice(
        tuple(below), tuple(above), tuple(meet), tuple(join),
        bottom, top, tuple(labels) if labels is not None else None,
    )


def _subsets(masks, universe: int) -> list:
    """Inclusion down-sets of the sets in masks, all inside universe: bit i
    of entry j is set when masks[i] lacks every point of universe that
    masks[j] lacks, an AND over those points of the members lacking it."""
    lacking = {
        b: sum(1 << i for i, m in enumerate(masks) if not (m >> b) & 1)
        for b in _bits(universe)
    }
    full = (1 << len(masks)) - 1
    below = []
    for m in masks:
        down = full
        for b in _bits(universe & ~m):
            down &= lacking[b]
        below.append(down)
    return below


def _byte_lanes(masks, k: int, s: int) -> tuple:
    """For n ≤ 254 masks on range(k), k ≤ 8: their inclusion down-sets;
    the rows, as bytes, of the table whose entry (i, j) is the index of the
    largest member inside masks[i] & masks[j]; and the index of the largest
    member inside s.  _NO_MEMBER marks a subset with no largest member.

    One DP gives inside[t], for each subset t of range(k), the bitmask of
    the members inside t, a repeated mask included: the AND, over the
    points b outside t, of the members lacking b.  It adds one point b at
    a time to a list indexed by the subsets of the points below b: each
    entry ANDed with the members lacking b is the entry of that subset,
    and the entry unchanged is the entry of that subset plus b, which comes
    2**b places later.  The down-set of member j is inside[masks[j]], and
    the largest member inside t is the member whose down-set is inside[t],
    when there is one."""
    n = len(masks)
    packed = int.from_bytes(bytes(masks), "little")  # member i is byte i
    ones = int.from_bytes(b"\x01" * n, "little")
    inside = [(1 << n) - 1]
    for b in range(k):
        # read from the top byte down as binary digits, the lanes of point
        # b give its members bit by bit
        having = ((packed >> b) & ones).to_bytes(n, "big").translate(_DIGITS)
        inside = list(map(and_, inside, repeat(~int(having, 2)))) + inside
    down_sets = list(map(inside.__getitem__, masks))
    index = dict(zip(down_sets, count()))
    table = bytes(map(index.get, inside, repeat(_NO_MEMBER)))
    table = table.ljust(256, bytes([_NO_MEMBER]))
    rows = (
        (packed & r).to_bytes(n, "little").translate(table)
        for r in map(ones.__mul__, masks)
    )
    return down_sets, rows, table[s]


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
