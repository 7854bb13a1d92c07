"""Finite bounded lattices: representation, derived structure, predicates.

The order is stored as bitset rows (python ints): ``below[j]`` has bit ``i``
set exactly when ``i <= j``.  Element indices are kept a linear extension
(``i < j`` whenever ``i`` is strictly below ``j``), which makes the meet of a
pair the highest set bit of the intersection of their down-sets.  Meet and
join tables are dense numpy arrays so that whole-lattice property checks
(distributivity, semimodularity, complements) can be vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CyclicCovers, NotALattice, NotBounded, NotComparable

#: Hard cap on element count; desk-scale fixtures stay far below it.
MAX_ELEMENTS = 1 << 20


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


def _popcount(x: int) -> int:
    return x.bit_count()


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

        # The msb trick for meets needs indices to form a linear extension.
        if all(not (m >> (i + 1)) for i, m in enumerate(below)):
            ext = None
            work = below
        else:
            ext = sorted(range(n), key=lambda i: _popcount(below[i]))
            pos = [0] * n
            for k, v in enumerate(ext):
                pos[v] = k
            work = [0] * n
            for j in range(n):
                m = 0
                for i in _bits(below[j]):
                    m |= 1 << pos[i]
                work[pos[j]] = m

        above = [0] * n
        for j, m in enumerate(work):
            for i in _bits(m):
                above[i] |= 1 << j
        full = (1 << n) - 1
        common = full
        for m in work:
            common &= m
        if _popcount(common) != 1:
            raise NotBounded("no unique bottom element")
        bottom = common.bit_length() - 1
        common = full
        for m in above:
            common &= m
        if _popcount(common) != 1:
            raise NotBounded("no unique top element")
        top = common.bit_length() - 1

        meet = np.empty((n, n), dtype=np.int32)
        join = np.empty((n, n), dtype=np.int32)
        for i in range(n):
            bi = work[i]
            ai = above[i]
            for j in range(i + 1):
                lo = bi & work[j]
                m = lo.bit_length() - 1
                if lo & ~work[m]:
                    raise NotALattice(_meet_err(i, j, ext))
                meet[i, j] = meet[j, i] = m
                hi = ai & above[j]
                u = (hi & -hi).bit_length() - 1
                if hi & ~above[u]:
                    raise NotALattice(_join_err(i, j, ext))
                join[i, j] = join[j, i] = u

        if ext is not None:
            # translate everything back to the caller's element ids
            earr = np.asarray(ext, dtype=np.int32)
            pos_arr = np.empty(n, dtype=np.int32)
            pos_arr[earr] = np.arange(n, dtype=np.int32)
            meet = earr[meet[np.ix_(pos_arr, pos_arr)]]
            join = earr[join[np.ix_(pos_arr, pos_arr)]]
            above_orig = [0] * n
            for j, m in enumerate(below):
                for i in _bits(m):
                    above_orig[i] |= 1 << j
            above = above_orig
            bottom = ext[bottom]
            top = ext[top]
            work = below
        meet.flags.writeable = False
        join.flags.writeable = False
        return FiniteLattice(
            tuple(work), tuple(above), meet, join, bottom, top,
            tuple(labels) if labels is not None else None,
        )

    # -- basic queries ----------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool((self.below[y] >> x) & 1)

    def meet_of(self, x: int, y: int) -> int:
        return int(self.meet[x, y])

    def join_of(self, x: int, y: int) -> int:
        return int(self.join[x, y])

    @cached_property
    def strict_below(self) -> tuple:
        return tuple(m & ~(1 << i) for i, m in enumerate(self.below))

    @cached_property
    def strict_above(self) -> tuple:
        return tuple(m & ~(1 << i) for i, m in enumerate(self.above))

    @cached_property
    def upper_cover_masks(self) -> tuple:
        """upper_cover_masks[i] = bitmask of the elements covering i."""
        sa, sb = self.strict_above, self.strict_below
        out = []
        for i in range(self.n):
            m = 0
            for j in _bits(sa[i]):
                if not sa[i] & sb[j]:
                    m |= 1 << j
            out.append(m)
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
        """Longest-chain length from the bottom to each element."""
        ranks = [0] * self.n
        order = sorted(range(self.n), key=lambda i: _popcount(self.below[i]))
        for i in order:
            r = 0
            for j in _bits(self.strict_below[i]):
                if ranks[j] >= r:
                    r = ranks[j] + 1
            ranks[i] = r
        return tuple(ranks)

    def interval_elements(self, lo: int, hi: int) -> list:
        """Elements strictly between lo and hi, ascending."""
        return list(_bits(self.strict_above[lo] & self.strict_below[hi]))


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


def lattice_of_sets(masks, labels=None) -> FiniteLattice:
    """Distinct sets, given as bitmasks, ordered by inclusion.  Element i is
    masks[i], so the caller's order is kept; ``from_below_masks`` checks
    that the inclusion order is a lattice."""
    universe = 0
    for m in masks:
        universe |= m
    # lacking[b]: the elements whose set lacks b; a set is inside m exactly
    # when it lacks every b outside m
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
    return FiniteLattice.from_below_masks(below, labels)


def _meet_err(i, j, ext):
    if ext is not None:
        i, j = ext[i], ext[j]
    return f"elements {i} and {j} have no unique meet"


def _join_err(i, j, ext):
    if ext is not None:
        i, j = ext[i], ext[j]
    return f"elements {i} and {j} have no unique join"


# -- derived element sets ----------------------------------------------------


def atoms(L: FiniteLattice) -> list:
    return list(_bits(L.upper_cover_masks[L.bottom]))


def coatoms(L: FiniteLattice) -> list:
    return list(_bits(L.lower_cover_masks[L.top]))


def meet_irreducibles(L: FiniteLattice) -> list:
    """Elements x != top with exactly one upper cover."""
    return [
        i
        for i in range(L.n)
        if i != L.top and _popcount(L.upper_cover_masks[i]) == 1
    ]


def height(L: FiniteLattice) -> int:
    return L.chain_ranks[L.top]


def is_graded(L: FiniteLattice):
    """Whether longest-chain ranks step by 1 on every cover; the witness of
    a False verdict is the first cover (i, j) where they do not.  The ranks
    themselves are ``L.chain_ranks``."""
    ranks = L.chain_ranks
    for i, j in L.cover_pairs:
        if ranks[j] != ranks[i] + 1:
            return False, (i, j)
    return True, None


# -- property predicates ------------------------------------------------------


def is_atomic(L: FiniteLattice):
    ats = atoms(L)
    for x in range(L.n):
        j = L.bottom
        for a in ats:
            if L.leq(a, x):
                j = L.join_of(j, a)
        if j != x:
            return False, (x,)
    return True, None


def is_coatomic(L: FiniteLattice):
    cts = coatoms(L)
    for x in range(L.n):
        m = L.top
        for c in cts:
            if L.leq(x, c):
                m = L.meet_of(m, c)
        if m != x:
            return False, (x,)
    return True, None


def _rank_array(L):
    if not is_graded(L)[0]:
        return None
    return np.asarray(L.chain_ranks, dtype=np.int64)


def _pair_witness(bad) -> tuple:
    xs, ys = np.nonzero(bad)
    return int(xs[0]), int(ys[0])


def is_modular(L: FiniteLattice):
    rk = _rank_array(L)
    if rk is None:
        return False, "not graded"
    bad = rk[:, None] + rk[None, :] != rk[L.meet] + rk[L.join]
    if bad.any():
        return False, _pair_witness(bad)
    return True, None


def is_upper_semimodular(L: FiniteLattice):
    rk = _rank_array(L)
    if rk is None:
        return False, "not graded"
    bad = rk[:, None] + rk[None, :] < rk[L.meet] + rk[L.join]
    if bad.any():
        return False, _pair_witness(bad)
    return True, None


def is_lower_semimodular(L: FiniteLattice):
    rk = _rank_array(L)
    if rk is None:
        return False, "not graded"
    bad = rk[:, None] + rk[None, :] > rk[L.meet] + rk[L.join]
    if bad.any():
        return False, _pair_witness(bad)
    return True, None


def is_distributive(L: FiniteLattice):
    """Triple identity x ^ (y v z) == (x ^ y) v (x ^ z) over all triples."""
    meet, join = L.meet, L.join
    for x in range(L.n):
        mx = meet[x]
        bad = mx[join] != join[mx[:, None], mx[None, :]]
        if bad.any():
            y, z = _pair_witness(bad)
            return False, (x, y, z)
    return True, None


def _complement_table(L) -> np.ndarray:
    return (L.meet == L.bottom) & (L.join == L.top)


def is_complemented(L: FiniteLattice):
    has = _complement_table(L).any(axis=1)
    if has.all():
        return True, None
    return False, (int(np.nonzero(~has)[0][0]),)


def is_uniquely_complemented(L: FiniteLattice):
    table = _complement_table(L)
    counts = table.sum(axis=1)
    bad = counts != 1
    if not bad.any():
        return True, None
    x = int(np.nonzero(bad)[0][0])
    comps = np.nonzero(table[x])[0]
    return False, (x, *map(int, comps[:2]))


def _closure_mask(L, start_mask: int, table: np.ndarray, seed: int) -> int:
    members = start_mask | (1 << seed)
    while True:
        idx = list(_bits(members))
        new = members
        for v in set(table[np.ix_(idx, idx)].ravel().tolist()):
            new |= 1 << v
        if new == members:
            return members
        members = new


def meet_closure_of_coatoms(L: FiniteLattice) -> int:
    """Bitmask of all meets of coatom subsets (empty meet = top)."""
    mask = 0
    for c in coatoms(L):
        mask |= 1 << c
    return _closure_mask(L, mask, L.meet, L.top)


def join_closure_of_atoms(L: FiniteLattice) -> int:
    """Bitmask of all joins of atom subsets (empty join = bottom)."""
    mask = 0
    for a in atoms(L):
        mask |= 1 << a
    return _closure_mask(L, mask, L.join, L.bottom)


def is_strongly_complemented(L: FiniteLattice):
    """Every x needs a complement that is a meet of coatoms and one that is
    a join of atoms."""
    mi_mask = meet_closure_of_coatoms(L)
    at_mask = join_closure_of_atoms(L)
    mi_side = np.fromiter(((mi_mask >> i) & 1 for i in range(L.n)), dtype=bool, count=L.n)
    at_side = np.fromiter(((at_mask >> i) & 1 for i in range(L.n)), dtype=bool, count=L.n)
    compl = _complement_table(L)
    ok = (compl & mi_side[None, :]).any(axis=1) & (compl & at_side[None, :]).any(axis=1)
    if ok.all():
        return True, None
    return False, (int(np.nonzero(~ok)[0][0]),)


def is_boolean(L: FiniteLattice):
    """Distributive and complemented (complements are then unique)."""
    ok, w = is_distributive(L)
    if not ok:
        return False, w
    return is_complemented(L)


def is_geometric(L: FiniteLattice):
    """Atomic and upper semimodular."""
    ok, w = is_atomic(L)
    if not ok:
        return False, w
    return is_upper_semimodular(L)


def modular_elements_mask(L: FiniteLattice) -> int:
    """Elements m with rk(x) + rk(m) == rk(x ^ m) + rk(x v m) for every x;
    the lattice must be graded."""
    rk = _rank_array(L)
    if rk is None:
        raise NotComparable("modular elements need a graded lattice")
    mask = 0
    for m in range(L.n):
        if (rk + rk[m] == rk[L.meet[m]] + rk[L.join[m]]).all():
            mask |= 1 << m
    return mask


def is_supersolvable(L: FiniteLattice):
    """Searches for a maximal chain of modular elements; the witness of a
    True verdict is that chain."""
    ok, _ = is_graded(L)
    if not ok:
        return False, "not graded"
    mod = modular_elements_mask(L)
    if not (mod >> L.bottom) & 1:
        return False, None
    stack = [L.bottom]
    parent = {L.bottom: None}
    while stack:
        v = stack.pop()
        if v == L.top:
            chain = []
            while v is not None:
                chain.append(v)
                v = parent[v]
            return True, tuple(reversed(chain))
        for w in _bits(L.upper_cover_masks[v] & mod):
            if w not in parent:
                parent[w] = v
                stack.append(w)
    return False, None


def property_report(L: FiniteLattice) -> PropertyReport:
    checks = {
        "atomic": is_atomic,
        "coatomic": is_coatomic,
        "graded": is_graded,
        "modular": is_modular,
        "upper_semimodular": is_upper_semimodular,
        "lower_semimodular": is_lower_semimodular,
        "supersolvable": is_supersolvable,
        "distributive": is_distributive,
        "boolean": is_boolean,
        "geometric": is_geometric,
        "complemented": is_complemented,
        "strongly_complemented": is_strongly_complemented,
        "uniquely_complemented": is_uniquely_complemented,
    }
    return PropertyReport(
        (name, PropertyVerdict(*fn(L))) for name, fn in checks.items()
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
            if labs[int(L.join[x, y])] != labs[x].lcm(labs[y]):
                raise NotALattice(
                    f"label of join({x}, {y}) is not the lcm of the labels"
                )


# -- Moebius function ---------------------------------------------------------


def mobius(L: FiniteLattice, x: int, y: int) -> int:
    """Moebius value of the closed interval [x, y]."""
    if not L.leq(x, y):
        raise NotComparable(f"{x} is not below {y}")
    mu = {x: 1}
    for z in L.interval_elements(x, y) + ([y] if y != x else []):
        s = 0
        for w in _bits(L.below[z] & L.above[x] & ~(1 << z)):
            s += mu[w]
        mu[z] = -s
    return mu[y]


# -- order complexes ----------------------------------------------------------


def open_interval_order_complex(L: FiniteLattice, lo: int, hi: int):
    """Order complex of {z : lo < z < hi}: all chains, empty face included."""
    from .homology import SimplicialComplexData

    if lo == hi or not L.leq(lo, hi):
        raise NotComparable(f"need lo < hi, got {lo}, {hi}")
    elems = L.interval_elements(lo, hi)
    k = len(elems)
    index_of = {e: i for i, e in enumerate(elems)}
    members = L.strict_above[lo] & L.strict_below[hi]
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


def open_interval_is_connected(L: FiniteLattice, lo: int, hi: int) -> bool:
    """Comparability-connectedness of the open interval; an empty interval
    counts as connected."""
    members = L.strict_above[lo] & L.strict_below[hi]
    if members == 0:
        return True
    seen = members & -members
    frontier = seen
    while frontier:
        new = 0
        for v in _bits(frontier):
            new |= (L.below[v] | L.above[v]) & members
        frontier = new & ~seen
        seen |= frontier
    return seen == members


# -- duality, products, isomorphism -------------------------------------------


def dual(L: FiniteLattice) -> FiniteLattice:
    """Order-reversed lattice; element i becomes n-1-i and labels drop."""
    n = L.n
    rev = [0] * n
    for j, m in enumerate(L.above):
        nm = 0
        for i in _bits(m):
            nm |= 1 << (n - 1 - i)
        rev[n - 1 - j] = nm
    return FiniteLattice.from_below_masks(rev)


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
    order = sorted(range(n), key=lambda v: _popcount(pool[c1[v]]))
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

    def augment(a, seen):
        for b in succ[a]:
            if not seen[b]:
                seen[b] = True
                if match_right[b] < 0 or augment(match_right[b], seen):
                    match_right[b] = a
                    return True
        return False

    matching = 0
    for a in range(k):
        if augment(a, [False] * k):
            matching += 1
    return k - matching
