"""Finite bounded lattices: representation, derived structure, predicates.

The order is stored as bitset rows (python ints): ``below[j]`` has bit ``i``
set exactly when ``i <= j``, and ``above`` is its transpose.  Element ids
are the caller's and need not follow the order.  The meet of a pair is the
element whose down-set is the intersection of theirs, the join likewise on
up-sets.  Meet and join tables are tuples of rows, ``L.meet[x][y]``: rows
are ``bytes`` when every index fits a byte (n ≤ 256), else tuples.  On
byte rows the property checks read whole tables at once: the rank identities
of modularity and semimodularity, and the modular elements, compare
``bytes.translate``d rank tables as 16-bit lanes of one integer, and the
complements are the lanes where the meet is the bottom and the join the top.
Gradedness reads one bitmask per rank.  On tuple rows the checks loop over
rows and bitsets in plain Python.

Every build checks its input once, in the way that fits its form, and
raises the same exceptions with the same messages on every path.
``from_below_masks`` alone checks the order axioms, with a per-element
scan that names the first element that breaks one; it then fills the
tables through ``_from_down_sets``, which looks each pair up, up to the
diagonal, in a dict from down-sets (up-sets) to elements, and raises for a
missing bound.  ``lattice_from_covers`` and ``product`` fill through
``_from_down_sets`` with no scan: the closure of an acyclic cover relation
is an order, and so is a product of orders.  ``dual`` swaps the tables it
is given.  ``lattice_of_sets`` runs no scan either: inclusion is reflexive
and transitive, so a family of sets can break only antisymmetry, and only
with a repeated set, which it looks for before any table work.  It fills
the tables of a family of at most 254 sets on at most 8 points by byte
lanes, with no Python loop over pairs, and those of any other family by
the same dict lookup; its docstring says how and when.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count, islice, repeat, zip_longest
from operator import add, and_, eq, gt, lt, ne, not_, or_
from typing import Sequence

from .errors import BadParameter, CyclicCovers, NotALattice, NotBounded, NotComparable
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

    Build through :func:`lattice_from_covers`, :meth:`from_below_masks`,
    :func:`lattice_of_sets`, :func:`product`, :func:`dual`, or the
    constructors in :mod:`lcmlat.ideals`, :mod:`lcmlat.graphs` and
    :mod:`lcmlat.constructions`; the raw ``__init__`` checks only the label count.

    ``labels`` is None, one label per element, or a function of no
    arguments that returns them: ``lcm_lattice`` passes one, so its
    ``Monomial`` labels are decoded the first time ``L.labels`` is read, and
    ``has_labels`` tells whether there are labels without decoding them.
    ``lattice_of_sets`` keeps its sets as ``L.sets``; other lattices have
    ``sets = None``.
    """

    sets = None

    def __init__(self, below, above, meet, join, bottom, top, labels=None):
        self.n = len(below)
        self.below = below
        self.above = above
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top
        if not (labels is None or callable(labels)):
            if len(labels := tuple(labels)) != self.n:
                raise BadParameter(f"{len(labels)} labels for {self.n} elements")
            self.labels = labels
        self._labels = labels

    @property
    def has_labels(self) -> bool:
        return self._labels is not None

    @cached_property
    def labels(self):
        # only reached when no sequence of labels was given
        return None if self._labels is None else self._labels()

    @staticmethod
    def from_below_masks(below: Sequence[int], labels=None) -> "FiniteLattice":
        """Build and validate a lattice from down-set bitmasks.

        Checks the partial-order axioms, boundedness, and existence and
        uniqueness of every pairwise meet and join.
        """
        below = list(below)
        _check_order(below)
        return _from_down_sets(below, labels)

    # -- basic queries ----------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool((self.below[y] >> x) & 1)

    @cached_property
    def upper_cover_masks(self) -> tuple:
        """upper_cover_masks[i] = bitmask of the elements covering i: the
        minimal elements of its strict up-set.  Each surviving candidate j
        strikes out its up-set without itself, ``above[j] ^ (1 << j)``, so a
        struck candidate is never visited; what is above it is already
        struck."""
        above = self.above
        out = []
        for i, up in enumerate(above):
            cand = todo = up ^ (1 << i)
            while todo:
                low = todo & -todo
                cand &= ~(above[low.bit_length() - 1] ^ low)
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
        """``is_graded``'s verdict and witness: the first cover (i, j), in
        ``cover_pairs`` order, that does not go up exactly one rank, read
        off one bitmask of the elements of each rank."""
        ranks = self.chain_ranks
        at_rank = [0] * (max(ranks) + 2)
        for i, r in enumerate(ranks):
            at_rank[r] |= 1 << i
        for i, (up, r) in enumerate(zip(self.upper_cover_masks, ranks)):
            if skips := up & ~at_rank[r + 1]:
                return False, (i, (skips & -skips).bit_length() - 1)
        return True, None

    @cached_property
    def complement_masks(self) -> tuple:
        """complement_masks[x] = bitmask of the complements of x, the y with
        x ^ y the bottom and x v y the top.  On byte rows both flattened
        tables go through ``bytes.translate`` to the digit "1" at the bottom
        (top) and "0" elsewhere; their AND, row by row and read backwards, is
        the bitmask in binary.  On tuple rows, y meets x in the bottom
        exactly when no atom lies below both, and joins x to the top exactly
        when no coatom lies above both."""
        n = self.n
        if isinstance(self.meet[0], bytes):
            both = _digits_at(self.meet, self.bottom) & _digits_at(self.join, self.top)
            digits = both.to_bytes(n * n, "big")
            return tuple(int(digits[i : i + n][::-1], 2) for i in range(0, n * n, n))
        atom_mask = self.upper_cover_masks[self.bottom]
        coatom_mask = self.lower_cover_masks[self.top]
        full = (1 << n) - 1
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
    def rank_lanes(self) -> tuple:
        """For a graded lattice with byte rows: the first pair (x, y), in
        row order, with rk(x) + rk(y) below rk(x ^ y) + rk(x v y), the
        first with it above (each None if there is none), and the bitmask
        of the modular elements, the rows where the two sides agree.

        Each side is one integer of 16-bit lanes, lane x*n + y for the pair
        (x, y): the flattened tables go through ``bytes.translate`` to
        ranks.  A guard bit on top of each lane of one side keeps the
        subtraction of the other inside the lane, and stays set exactly
        where the first side is not below the second.  The identity is
        symmetric, so the first bad lane has y >= x."""
        n, nn = self.n, self.n * self.n
        ranks = bytes(self.chain_ranks)
        rank_of = ranks.ljust(256, b"\0")
        sums = _lanes(b"".join(self.meet).translate(rank_of))
        sums += _lanes(b"".join(self.join).translate(rank_of))
        pairs = _lanes(ranks * n) + _lanes(b"".join([bytes((r,)) * n for r in ranks]))
        guards = int.from_bytes(b"\0\x80" * nn, "little")
        under = guards & ~((pairs | guards) - sums)  # lanes with pairs < sums
        over = guards & ~((sums | guards) - pairs)  # lanes with pairs > sums
        witnesses = []
        for bad in (under, over):
            lane = (bad & -bad).bit_length() // 16 - 1
            witnesses.append(divmod(lane, n) if bad else None)
        rows = (under | over).to_bytes(2 * nn, "little")
        zero = bytes(2 * n)
        modular = sum(
            1 << x for x in range(n) if rows[2 * n * x : 2 * n * (x + 1)] == zero
        )
        return (*witnesses, modular)

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


def _digits_at(rows, v: int) -> int:
    """The byte rows, flattened, with the digit "1" where the entry is v
    and "0" elsewhere, as one big-endian integer."""
    digits = bytearray(b"0" * 256)
    digits[v] = ord("1")
    return int.from_bytes(b"".join(rows).translate(digits), "big")


def _lanes(values: bytes) -> int:
    """The bytes as one integer of 16-bit lanes, lane i holding values[i]."""
    wide = bytearray(2 * len(values))
    wide[::2] = values
    return int.from_bytes(wide, "little")


def _single_cover_mask(covers) -> int:
    """Bitmask of the v with exactly one bit in covers[v]."""
    mask = 0
    for v, c in enumerate(covers):
        if c.bit_count() == 1:
            mask |= 1 << v
    return mask


def _check_count(n: int) -> None:
    if not 1 <= n <= MAX_ELEMENTS:
        raise NotBounded(f"element count {n} out of range 1..{MAX_ELEMENTS}")


def _check_order(below) -> None:
    """Raise unless the down-set bitmasks in below (a list) are those of a
    partial order on 1..MAX_ELEMENTS elements, at the first element that
    breaks an axiom."""
    n = len(below)
    _check_count(n)
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


def _from_down_sets(below: list, labels) -> FiniteLattice:
    """The lattice of the down-sets in below, those of a partial order: the
    meet and join tables, checked for a bottom, a top and every pairwise
    meet and join."""
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
        bottom, top, labels,
    )


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
    reflexive-transitive closure, an order once the edges have no cycle, so
    no order scan runs.  Element indices are preserved."""
    _check_count(n)
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
    return _from_down_sets(below, labels)


#: The byte that ``_byte_lanes`` writes where a subset has no largest member.
_NO_MEMBER = 255
#: Bytes 0 and 1 as the digits "0" and "1".
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def lattice_of_sets(masks, labels=None) -> FiniteLattice:
    """Distinct sets, given as bitmasks, ordered by inclusion.  Element i is
    masks[i], kept as ``L.sets``, so the caller's order is kept.

    The element count is checked first.  Inclusion is reflexive and
    transitive, so a family of sets can break an order axiom only through
    a repeated set, which raises what the order scan of
    ``from_below_masks`` raises on the inclusion down-sets: antisymmetry
    at (j, i), for the first member i that has a twin and its first twin
    j.  Both checks run before any table work; every message is
    ``from_below_masks``'s.

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
    The complements give the up-sets and the join table the same way.  The
    rows are accepted when neither flattened table holds the marker 255;
    otherwise ``_checked_tables`` runs on them only to name the first
    missing pair.  A mask must fit a byte, so k ≤ 8.  An index must be a
    byte other than the marker 255, so n ≤ 254; the only families of 255 or more sets on 8
    points are B8 and B8 less one set, which the dict path builds.  Every
    other family takes the dict path, one dict lookup per pair.  On
    union-closed families, k = 3..8 (Python 3.11, 2-core x86),
    whole builds on the byte path take 0.63 to 0.89 times as long as on
    the dict path at n*n = 2**k, and break even between n*n = 0.4 * 2**k
    and 0.56 * 2**k; at n*n ≤ 2**k / 4 they take 1.2 to 3.1 times as long.
    The rule 2**k ≤ n*n is kept: a rule at 2**(k-1) would move 339 of the
    3,734 builds of a verify-pool benchmark pass to the byte path and save
    0.2 ms on them.
    """
    n = len(masks)
    _check_count(n)
    if len(set(masks)) < n:
        twins = {}
        for i, m in enumerate(masks):
            twins.setdefault(m, []).append(i)
        i, j = min(ix[:2] for ix in twins.values() if len(ix) > 1)
        raise NotALattice(f"order not antisymmetric at ({j}, {i})")
    universe = reduce(or_, masks, 0)
    k = universe.bit_length()
    if not (k <= 8 and n < _NO_MEMBER and 1 << k <= n * n):
        L = _from_down_sets(_subsets(masks, universe), labels)
    else:
        complements = [universe ^ m for m in masks]
        below, down, bottom = _byte_lanes(masks, k, reduce(and_, masks))
        above, up, top = _byte_lanes(complements, k, 0)
        meet, join = tuple(down), tuple(up)
        if _NO_MEMBER in (bottom, top) or _NO_MEMBER in b"".join(meet + join):
            _checked_tables(bottom, top, zip(meet, join), _NO_MEMBER)  # raises
        L = FiniteLattice(tuple(below), tuple(above), meet, join, bottom, top, labels)
    L.sets = tuple(masks)
    return L


def _subsets(masks, universe: int) -> list:
    """Inclusion down-sets of the sets in masks, all inside universe: bit i
    of entry j is set when masks[i] is inside masks[j].  Refining universe
    by each member gives blocks of points held by the same members; entry j
    is the AND, over the blocks masks[j] lacks, of the members lacking it."""
    blocks = [(universe, 0)]
    for i, m in enumerate(masks):
        split = (((b & m, held | 1 << i), (b & ~m, held)) for b, held in blocks)
        blocks = [p for pair in split for p in pair if p[0]]
    full = (1 << len(masks)) - 1
    return [
        reduce(and_, [full ^ held for _, held in blocks if not held >> j & 1], full)
        for j in range(len(masks))
    ]


def _byte_lanes(masks, k: int, s: int) -> tuple:
    """For n ≤ 254 masks on range(k), k ≤ 8: their inclusion down-sets;
    the rows, as bytes, of the table whose entry (i, j) is the index of the
    largest member inside masks[i] & masks[j]; and the index of the largest
    member inside s.  _NO_MEMBER marks a subset with no largest member.

    One DP gives inside[t], for each subset t of range(k), the bitmask of
    the members inside t: the AND, over the
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
    (lt, gt or ne) holds.  Byte rows read it off ``L.rank_lanes``."""
    if not L.graded[0]:
        return False, "not graded"
    if isinstance(L.meet[0], bytes):
        under, over, _ = L.rank_lanes
        found = {lt: [under], gt: [over], ne: [under, over]}[bad_when]
        pair = min(filter(None, found), default=None)
        return (True, None) if pair is None else (False, pair)
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


def _is_modular_element(L: FiniteLattice, m: int) -> bool:
    """Whether rk(x) + rk(m) == rk(x ^ m) + rk(x v m) for every x, in a
    graded lattice; byte rows read it off ``L.rank_lanes``."""
    if isinstance(L.meet[0], bytes):
        return bool(L.rank_lanes[2] >> m & 1)
    rk = L.chain_ranks
    rank = rk.__getitem__
    sums = map(add, map(rank, L.meet[m]), map(rank, L.join[m]))
    return all(map(eq, map(rk[m].__add__, rk), sums))


def is_supersolvable(L: FiniteLattice):
    """Searches for a maximal chain of modular elements, m with
    rk(x) + rk(m) == rk(x ^ m) + rk(x v m) for every x; the witness of a
    True verdict is that chain.  Only the elements the search reaches are
    tested, each once; the bottom is always modular."""
    if not L.graded[0]:
        return False, "not graded"
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
            if _is_modular_element(L, w):
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


# -- Moebius function ---------------------------------------------------------


def mobius(L: FiniteLattice, x: int, y: int) -> int:
    """Moebius value of the closed interval [x, y]."""
    if not L.leq(x, y):
        raise NotComparable(f"{x} is not below {y}")
    mu = {x: 1}
    # (x, y] by down-set size, so every z comes after the elements below it
    rest = (L.above[x] ^ (1 << x)) & L.below[y]
    for z in sorted(_bits(rest), key=lambda z: L.below[z].bit_count()):
        s = 0
        for w in _bits(L.below[z] & L.above[x] & ~(1 << z)):
            s += mu[w]
        mu[z] = -s
    return mu[y]


# -- interval complexes -------------------------------------------------------


def open_interval_order_complex(L: FiniteLattice, lo: int, hi: int):
    """Order complex of {z : lo < z < hi}: all chains, empty face included.

    Its vertices are the elements of the open interval, by down-set size,
    and a chain is the int mask of its elements' indices into ``vertices``.
    """
    if lo == hi or not L.leq(lo, hi):
        raise NotComparable(f"need lo < hi, got {lo}, {hi}")
    # by down-set size, so a chain grows only by elements of larger index
    members = L.above[lo] & L.below[hi] & ~(1 << lo | 1 << hi)
    elems = sorted(_bits(members), key=lambda z: L.below[z].bit_count())
    k = len(elems)
    index_of = {e: i for i, e in enumerate(elems)}
    local_above = []
    for e in elems:
        m = 0
        for f in _bits((L.above[e] & members) ^ (1 << e)):
            m |= 1 << index_of[f]
        local_above.append(m)
    faces_by_dim = {-1: [0]}
    frontier = [(1 << i, local_above[i]) for i in range(k)]
    d = 0
    while frontier:
        faces_by_dim[d] = [c for c, _ in frontier]
        nxt = []
        for chain, ext in frontier:
            for j in _bits(ext):
                nxt.append((chain | 1 << j, ext & local_above[j]))
        frontier = nxt
        d += 1
    return SimplicialComplexData(vertices=tuple(elems), faces_by_dim=faces_by_dim)


def crosscut_complex(L: FiniteLattice, lo: int, hi: int):
    """Crosscut complex of [lo, hi], homotopy equivalent to the order complex
    of the open interval (lo, hi) by the crosscut theorem.

    Its vertices are the atoms of [lo, hi] (the upper covers of lo below hi)
    and its faces the sets of atoms whose join is not hi; or, when there are
    fewer coatoms, the coatoms (the lower covers of hi above lo) and the sets
    of them whose meet is not lo.  A face is the int mask of its vertices'
    indices into ``vertices``; each dimension lists its faces in
    lexicographic order of their sorted index tuples, empty face 0 included.
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
    # depth-first over (mask, join (meet) of its vertices, least index that
    # may still be added); children are pushed highest index first, so
    # faces come off the stack in lexicographic order
    stack = [(0, start, 0)]
    while stack:
        face, value, nxt = stack.pop()
        faces_by_dim.setdefault(face.bit_count() - 1, []).append(face)
        row = table[value]
        for i in range(k - 1, nxt - 1, -1):
            w = row[verts[i]]
            if w != stop:
                stack.append((face | 1 << i, w, i + 1))
    return SimplicialComplexData(vertices=tuple(verts), faces_by_dim=faces_by_dim)


# -- duality, products, isomorphism -------------------------------------------


def dual(L: FiniteLattice) -> FiniteLattice:
    """Order-reversed lattice on the same element ids: L's tables, swapped
    (down-sets with up-sets, meets with joins, bottom with top); labels
    drop."""
    return FiniteLattice(L.above, L.below, L.join, L.meet, L.top, L.bottom)


def product(L1: FiniteLattice, L2: FiniteLattice) -> FiniteLattice:
    """Componentwise-ordered product; element (x, y) gets index x*n2 + y."""
    n1, n2 = L1.n, L2.n
    if n1 * n2 > MAX_ELEMENTS:
        raise NotBounded("product exceeds element capacity")
    below = [
        sum(b2 << (u * n2) for u in _bits(b1)) for b1 in L1.below for b2 in L2.below
    ]
    return _from_down_sets(below, None)


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
