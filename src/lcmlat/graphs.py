"""Finite simple graphs, edge ideals, the induced-subgraph predicates, and
the graph-side characterizations of LCM-lattice properties."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import BadParameter, NoEdges, TheoremViolation
from .ideals import Monomial, MonomialIdeal, lcm_lattice
from .lattice import (
    FiniteLattice,
    PropertyReport,
    _bits,
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

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency[u] >> v) & 1)

    def complement(self) -> "Graph":
        return Graph(
            self.n,
            tuple(
                (u, v)
                for u, v in itertools.combinations(range(self.n), 2)
                if not self.has_edge(u, v)
            ),
        )

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            new = 0
            for v in _bits(frontier):
                new |= self.adjacency[v]
            frontier = new & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


# -- families and fixtures -----------------------------------------------------


def path(n: int) -> Graph:
    if n < 1:
        raise BadParameter("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParameter("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParameter("complete graph needs n >= 1")
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def star(n: int) -> Graph:
    """Star on n vertices: vertex 0 joined to every other vertex."""
    if n < 2:
        raise BadParameter("star needs n >= 2")
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


def edge_ideal(G: Graph) -> MonomialIdeal:
    """Squarefree quadratic ideal with one generator x_u x_v per edge."""
    if not G.nontrivial:
        raise NoEdges("the graph has no edges")
    gens = []
    for u, v in G.edges:
        exps = [0] * G.n
        exps[u] = exps[v] = 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(G.n, tuple(gens))


def edge_ideal_lattice(G: Graph) -> FiniteLattice:
    """LCM lattice of the edge ideal: its elements are the induced subgraphs
    without isolated vertices, labelled by their vertex sets."""
    return lcm_lattice(edge_ideal(G))


# -- induced-subgraph predicates -----------------------------------------------


def _induced_edges(G: Graph, quad) -> list:
    return [
        (a, b) for a, b in itertools.combinations(sorted(quad), 2) if G.has_edge(a, b)
    ]


def is_gap_free(G: Graph) -> bool:
    """No induced pair of disjoint edges (4-subset scan)."""
    for quad in itertools.combinations(range(G.n), 4):
        es = _induced_edges(G, quad)
        if len(es) == 2 and not set(es[0]) & set(es[1]):
            return False
    return True


def is_c4_free(G: Graph) -> bool:
    for quad in itertools.combinations(range(G.n), 4):
        es = _induced_edges(G, quad)
        if len(es) == 4 and all(
            sum(v in e for e in es) == 2 for v in quad
        ):
            return False
    return True


def complement_is_c4_free(G: Graph) -> bool:
    return is_c4_free(G.complement())


def is_diamond_free(G: Graph) -> bool:
    """No induced complete-minus-one-edge on 4 vertices."""
    for quad in itertools.combinations(range(G.n), 4):
        if len(_induced_edges(G, quad)) == 5:
            return False
    return True


def has_no_disjoint_edges(G: Graph) -> bool:
    for e, f in itertools.combinations(G.edges, 2):
        if not set(e) & set(f):
            return False
    return True


def has_universal_edge(G: Graph) -> bool:
    """Some edge shares a vertex with every other edge."""
    for e in G.edges:
        if all(set(e) & set(f) for f in G.edges):
            return True
    return False


def min_degree(G: Graph) -> int:
    return min(G.degree(v) for v in range(G.n))


def is_star(G: Graph) -> bool:
    """Some vertex is incident to every edge."""
    if not G.nontrivial:
        return False
    return any(all(v in e for e in G.edges) for v in range(G.n))


def has_clique_with_unique_attachment(G: Graph) -> bool:
    """Some clique H such that every vertex outside H is a pendant attached
    to exactly one vertex of H.

    This is the structural class behind lower-semimodular LCM lattices: a
    complete graph with pendant vertices (trees of diameter <= 3 are the
    degenerate case where the clique is an edge or a single vertex).
    """
    verts = range(G.n)
    for h_mask in range(1, 1 << G.n):
        hs = [v for v in verts if (h_mask >> v) & 1]
        if any(not G.has_edge(a, b) for a, b in itertools.combinations(hs, 2)):
            continue
        ok = True
        for v in verts:
            if (h_mask >> v) & 1:
                continue
            nb = G.adjacency[v]
            if nb & ~h_mask or (nb & h_mask).bit_count() != 1:
                ok = False
                break
        if ok:
            return True
    return False


def complemented_via_independent_sets(G: Graph) -> bool:
    """Graph-side complementation test: for every union of edges A, some
    independent set X inside A must dominate the vertices that only have
    neighbors in A."""
    adj = G.adjacency
    full = (1 << G.n) - 1
    unions = []
    for mask in range(1 << G.n):
        if all(adj[v] & mask for v in _bits(mask)):
            unions.append(mask)
    for a_mask in unions:
        trapped = 0
        for v in _bits(full & ~a_mask):
            if adj[v] and not adj[v] & ~a_mask:
                trapped |= 1 << v
        if not trapped:
            continue
        found = False
        x = a_mask
        sub = a_mask
        while True:
            # iterate over all submasks of a_mask
            if _is_independent(G, sub):
                nx = 0
                for v in _bits(sub):
                    nx |= adj[v]
                if not trapped & ~nx:
                    found = True
                    break
            if sub == 0:
                break
            sub = (sub - 1) & a_mask
        if not found:
            return False
    return True


def _is_independent(G: Graph, mask: int) -> bool:
    for v in _bits(mask):
        if G.adjacency[v] & mask:
            return False
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
    for mask in range(1, 1 << len(pairs)):
        if _mask_connected(n, pairs, mask):
            yield mask


def _mask_connected(n: int, pairs, mask: int) -> bool:
    adj = [0] * n
    for i in _bits(mask):
        u, v = pairs[i]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = 1
    frontier = 1
    while frontier:
        new = 0
        for v in _bits(frontier):
            new |= adj[v]
        frontier = new & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def canonical_form(G: Graph) -> tuple:
    """Canonical edge set under vertex relabeling, for isomorphism dedup.
    Permutations run within colour-refinement classes only, taken in colour
    order."""
    colors = refine(G.adjacency, [G.degree(v) for v in range(G.n)])
    parts = [[v for v in range(G.n) if colors[v] == c] for c in sorted(set(colors))]
    best = None
    for perm_parts in itertools.product(
        *[itertools.permutations(p) for p in parts]
    ):
        order = [v for part in perm_parts for v in part]
        relabel = [0] * G.n
        for new, old in enumerate(order):
            relabel[old] = new
        edges = tuple(
            sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in G.edges)
        )
        if best is None or edges < best:
            best = edges
    return best


def is_canonical_representative(G: Graph) -> bool:
    """True when the graph's own edge list is its canonical form; each
    isomorphism class of labeled graphs has exactly one such member, so
    sharded enumeration can dedup without shared state."""
    return G.edges == canonical_form(G)


def connected_nonisomorphic_graphs(n: int):
    """One representative per isomorphism class of connected nontrivial
    graphs on n vertices (used for the opt-in n = 7 sweep)."""
    for mask in connected_graph_masks(n):
        G = graph_from_mask(n, mask)
        if is_canonical_representative(G):
            yield G
