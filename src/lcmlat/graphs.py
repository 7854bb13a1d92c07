"""Finite simple graphs, edge ideals, the induced-subgraph predicates, and
the graph-side characterizations of LCM-lattice properties."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import BadParameter, NoEdges, TheoremViolation, TooLarge
from .ideals import Monomial, MonomialIdeal, _union_closure_lattice
from .lattice import (
    MAX_ELEMENTS,
    FiniteLattice,
    PropertyReport,
    _bits,
    _reach,
    find_isomorphism,
    open_interval_is_connected,
    property_report,
    refine,
)


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..n-1 with normalized, sorted edge list."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise BadParameter(f"vertex count {self.n} is negative")
        _check_size(self.n, len(self.edges))
        norm = []
        for u, v in self.edges:
            if u == v:
                raise BadParameter(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise BadParameter(f"edge ({u}, {v}) out of range")
            norm.append((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(set(norm))))

    @property
    def nontrivial(self) -> bool:
        return bool(self.edges)

    @cached_property
    def adjacency(self) -> tuple:
        """adjacency[v] = bitmask of the neighbors of v."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self.n == 0 or _reach(self.adjacency, 1, full) == full


def _check_size(n: int, m: int) -> None:
    """Refuse more than MAX_ELEMENTS vertices or edges: each edge is an atom
    of the edge ideal's LCM lattice."""
    for what, k in (("vertex", n), ("edge", m)):
        if k > MAX_ELEMENTS:
            raise TooLarge(f"graph {what} count {k} above the capacity {MAX_ELEMENTS}")


# -- families and fixtures -----------------------------------------------------
#
# Each family checks its size before it lists its edges.


def path(n: int) -> Graph:
    if n < 1:
        raise BadParameter("path needs n >= 1")
    _check_size(n, n - 1)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParameter("cycle needs n >= 3")
    _check_size(n, n)
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParameter("complete graph needs n >= 1")
    _check_size(n, n * (n - 1) // 2)
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def star(n: int) -> Graph:
    """Star on n vertices: vertex 0 joined to every other vertex."""
    if n < 2:
        raise BadParameter("star needs n >= 2")
    _check_size(n, n - 1)
    return Graph(n, tuple((0, i) for i in range(1, n)))


#: Example graphs of record.  ``fig5`` is the two-triangle (bowtie) graph:
#: its lattice is not graded yet pd equals the lattice height.  ``fig6`` is a
#: diamond with two pendants: complemented but not strongly complemented.
#: ``bipartite-cm`` is Cohen-Macaulay with a non-graded lattice.
GRAPH_FIXTURES = {
    "fig5": Graph(5, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
    "fig6": Graph(6, ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5))),
    "bipartite-cm": Graph(6, ((0, 3), (0, 5), (1, 4), (1, 5), (2, 5))),
}


def graph_fixture(name: str) -> Graph:
    try:
        return GRAPH_FIXTURES[name]
    except KeyError:
        raise BadParameter(
            f"unknown graph fixture {name!r}; have {sorted(GRAPH_FIXTURES)}"
        ) from None


# -- edge ideals and their lattices -------------------------------------------


def _edges(G: Graph) -> tuple:
    """G's edges; raises NoEdges when there are none."""
    if not G.nontrivial:
        raise NoEdges("the graph has no edges")
    return G.edges


def edge_ideal(G: Graph) -> MonomialIdeal:
    """Squarefree quadratic ideal with one generator x_u x_v per edge."""
    gens = []
    for u, v in _edges(G):
        exps = [0] * G.n
        exps[u] = exps[v] = 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(G.n, tuple(gens))


def edge_ideal_lattice(G: Graph) -> FiniteLattice:
    """LCM lattice of the edge ideal: its elements are the induced subgraphs
    without isolated vertices, labelled by their vertex sets.  It is
    ``lcm_lattice(edge_ideal(G))``, built from the edges without the ideal:
    a vertex owns one polarization bit, an isolated one none."""
    offsets = list(itertools.accumulate((a != 0 for a in G.adjacency), initial=0))
    masks = [1 << offsets[u] | 1 << offsets[v] for u, v in _edges(G)]
    return _union_closure_lattice(masks, offsets)


# -- induced-subgraph predicates -----------------------------------------------


def is_gap_free(G: Graph) -> bool:
    """No induced pair of disjoint edges: for each edge ab, no edge joins two
    vertices outside the closed neighbourhood of a and b."""
    adj = G.adjacency
    full = (1 << G.n) - 1
    for a, b in G.edges:
        far = full & ~(1 << a | 1 << b | adj[a] | adj[b])
        if any(adj[c] & far for c in _bits(far)):
            return False
    return True


def _meets_every_edge(G: Graph) -> list:
    """For each edge ab, whether it shares a vertex with every edge: the
    edges that meet ab, ab included, number deg a + deg b - 1."""
    deg = [a.bit_count() for a in G.adjacency]
    return [deg[a] + deg[b] - 1 == len(G.edges) for a, b in G.edges]


def has_no_disjoint_edges(G: Graph) -> bool:
    return all(_meets_every_edge(G))


def has_universal_edge(G: Graph) -> bool:
    """Some edge shares a vertex with every other edge."""
    return any(_meets_every_edge(G))


def min_degree(G: Graph) -> int:
    """The least vertex degree; 0 on the 0-vertex graph, as on every
    edgeless graph."""
    return min((G.degree(v) for v in range(G.n)), default=0)


def is_star(G: Graph) -> bool:
    """Some vertex is incident to every edge."""
    return G.nontrivial and any(G.degree(v) == len(G.edges) for v in range(G.n))


def has_clique_with_unique_attachment(G: Graph) -> bool:
    """Some clique H such that every vertex outside H is a pendant attached
    to exactly one vertex of H.

    This is the structural class behind lower-semimodular LCM lattices: a
    complete graph with pendant vertices (trees of diameter <= 3 are the
    degenerate case where the clique is an edge or a single vertex).
    """
    adj = G.adjacency
    pendants = sum(1 << v for v, a in enumerate(adj) if a.bit_count() == 1)
    # every vertex outside H is a pendant, so H holds all the others
    core = ((1 << G.n) - 1) & ~pendants
    s = pendants
    while True:  # every submask of the pendants, down to 0
        h = core | s
        if h and all((adj[v] | 1 << v) & h == h for v in _bits(h)) and all(
            adj[v] & h for v in _bits(pendants & ~s)
        ):
            return True
        if s == 0:
            return False
        s = (s - 1) & pendants


def complemented_via_independent_sets(G: Graph) -> bool:
    """Graph-side complementation test: for every union of edges A, some
    independent set X inside A must dominate the vertices that only have
    neighbors in A."""
    adj = G.adjacency
    full = (1 << G.n) - 1
    # nbrs[s] = the union of the neighbourhoods of the vertices in s
    nbrs = [0]
    for a in adj:
        nbrs += [m | a for m in nbrs]
    for a_mask in range(1 << G.n):
        # a union of edges: every vertex has a neighbour inside
        if nbrs[a_mask] & a_mask != a_mask:
            continue
        trapped = 0
        for v in _bits(full & ~a_mask):
            if adj[v] and not adj[v] & ~a_mask:
                trapped |= 1 << v
        if not trapped:
            continue
        sub = a_mask
        while True:  # every submask of a_mask, down to 0
            # sub is independent and its neighbours cover the trapped vertices
            if not nbrs[sub] & sub and not trapped & ~nbrs[sub]:
                break
            if sub == 0:
                return False
            sub = (sub - 1) & a_mask
    return True


# -- the lattice <-> graph theorem pairing -------------------------------------


def linearly_presented(L: FiniteLattice) -> bool:
    """First syzygies concentrated in degree 3: for every lattice element of
    degree at least 4, the open interval below it is connected."""
    for m in range(L.n):
        if m != L.bottom and L.labels[m].degree >= 4:
            if not open_interval_is_connected(L, L.bottom, m):
                return False
    return True


def graph_side_verdicts(G: Graph) -> dict:
    """The graph-side characterization of each lattice property."""
    star_graph = is_star(G)
    no_disjoint = has_no_disjoint_edges(G)
    return {
        "graded": is_gap_free(G),
        "modular": no_disjoint,
        "upper_semimodular": no_disjoint,
        "geometric": no_disjoint,
        "boolean": star_graph,
        "distributive": star_graph,
        "supersolvable": has_universal_edge(G),
        "lower_semimodular": has_clique_with_unique_attachment(G),
        "coatomic": star_graph or min_degree(G) >= 2,
        "complemented": complemented_via_independent_sets(G),
    }


@dataclass(frozen=True)
class GraphLatticeReport:
    graph: Graph
    lattice: FiniteLattice
    lattice_report: PropertyReport
    graph_verdicts: dict
    rank_formula_holds: bool
    linearly_presented: bool

    def pairs(self) -> dict:
        return {
            name: (self.lattice_report.verdict(name), pred)
            for name, pred in self.graph_verdicts.items()
        }


def check_graph_theorems(G: Graph):
    """Evaluate both sides of every characterization on one graph.

    Returns (GraphLatticeReport, violations); each violation is a dict naming
    the property and the two verdicts.  ``graph_lattice_report`` raises on
    any violation instead.
    """
    L = edge_ideal_lattice(G)
    rep = property_report(L)
    preds = graph_side_verdicts(G)
    violations = []
    for name, pred in preds.items():
        if rep.verdict(name) != pred:
            violations.append(
                {
                    "property": name,
                    "lattice": rep.verdict(name),
                    "graph": pred,
                    "witness": rep[name].witness,
                }
            )
    graded_ok = rep.verdict("graded")
    rank_ok = True
    if graded_ok:
        ranks = L.chain_ranks
        for i in range(L.n):
            if i != L.bottom and ranks[i] != L.labels[i].degree - 1:
                rank_ok = False
                violations.append(
                    {"property": "rank_formula", "element": i, "rank": ranks[i]}
                )
                break
    linp = linearly_presented(L)
    if linp != graded_ok:
        violations.append(
            {"property": "linearly_presented", "lattice": graded_ok, "graph": linp}
        )
    report = GraphLatticeReport(G, L, rep, preds, rank_ok, linp)
    return report, violations


def graph_lattice_report(G: Graph) -> GraphLatticeReport:
    """Pair every lattice-side verdict with its graph-side characterization;
    any disagreement raises TheoremViolation with the witness.

    The characterizations are stated for connected nontrivial graphs
    (disjoint unions factor through lattice products instead).
    """
    if not G.nontrivial:
        raise NoEdges("the graph has no edges")
    if not G.is_connected():
        raise BadParameter("the characterizations need a connected graph")
    report, violations = check_graph_theorems(G)
    if violations:
        raise TheoremViolation(f"graph {G.edges}: {violations}")
    return report


def gray_area_violations(rep: PropertyReport) -> list:
    """The residual implications between property combinations that hold for
    edge-ideal lattices: supersolvable+coatomic and LSM+coatomic force
    complemented, and all three force modular."""
    ss = rep.verdict("supersolvable")
    co = rep.verdict("coatomic")
    lsm = rep.verdict("lower_semimodular")
    out = []
    if ss and co and not rep.verdict("complemented"):
        out.append("supersolvable+coatomic without complemented")
    if lsm and co and not rep.verdict("complemented"):
        out.append("lsm+coatomic without complemented")
    if ss and lsm and co and not rep.verdict("modular"):
        out.append("supersolvable+lsm+coatomic without modular")
    return out


# -- enumeration ----------------------------------------------------------------


def _edge_list(n: int):
    return list(itertools.combinations(range(n), 2))


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = _edge_list(n)
    return Graph(n, tuple(pairs[i] for i in range(len(pairs)) if (mask >> i) & 1))


def connected_graph_masks(n: int):
    """Edge-subset masks of all connected nontrivial labeled graphs on n
    vertices, ascending."""
    pairs = _edge_list(n)
    full = (1 << n) - 1
    for mask in range(1, 1 << len(pairs)):
        adj = [0] * n
        for i in _bits(mask):
            u, v = pairs[i]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if _reach(adj, 1, full) == full:
            yield mask


@cache
def _class_rows(k: int) -> tuple:
    """Adjacency rows of one graph per isomorphism class of connected graphs
    on k >= 2 vertices.  Every connected graph has a vertex that is not a cut
    vertex, so the candidates are the classes on k - 1 vertices plus a new
    vertex with each non-empty neighbourhood.  A candidate is filed under an
    isomorphism invariant of its colour refinement, and kept unless
    ``find_isomorphism`` maps it onto a graph already kept in its bucket."""
    if k == 2:
        return ((0b10, 0b01),)
    buckets = {}
    for parent in _class_rows(k - 1):
        for nb in range(1, 1 << (k - 1)):
            rows = (*(r | (nb >> v & 1) << (k - 1) for v, r in enumerate(parent)), nb)
            colors = refine(rows, [r.bit_count() for r in rows])
            key = tuple(sorted(
                (c, tuple(sorted(colors[u] for u in _bits(r))))
                for c, r in zip(colors, rows)
            ))
            kept = buckets.setdefault(key, [])
            if all(find_isomorphism(rows, o, colors, oc) is None for o, oc in kept):
                kept.append((rows, colors))
    return tuple(rows for kept in buckets.values() for rows, _ in kept)


def connected_nonisomorphic_graphs(n: int) -> list:
    """One graph per isomorphism class of connected nontrivial graphs on n
    vertices, sorted by edge mask.  Each level is built once per process, so
    listing n + 1 after n extends the level already built."""
    if n < 2:
        return []
    pos = {pair: i for i, pair in enumerate(_edge_list(n))}
    masks = [
        sum(1 << pos[u, v] for v, r in enumerate(rows) for u in _bits(r) if u < v)
        for rows in _class_rows(n)
    ]
    return [graph_from_mask(n, m) for m in sorted(masks)]
