"""Theorem-verification harness: every characterization the package
implements, machine-checked over exhaustive graph enumerations, seeded random
ideals, and the constructed lattice fixtures."""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass, field
from multiprocessing import Pool

from . import constructions as cons
from . import formats
from .errors import BadParameter, BadTheoremId, ContractViolation
from .fields import DEFAULT_PRIME, FieldSpec
from .graphs import (
    Graph,
    check_graph_theorems,
    complete,
    connected_class_masks,
    connected_graph_masks,
    cycle,
    edge_ideal,
    edge_ideal_lattice,
    graph_fixture,
    graph_from_mask,
    gray_area_violations,
    path,
    star,
)
from .ideals import (
    Monomial,
    ideal_height,
    is_minimal_ideal,
    lcm_lattice,
    minimalize,
    phan_ideal,
    polarize,
)
from .lattice import (
    FiniteLattice,
    height,
    is_atomic,
    is_complemented,
    is_graded,
    is_isomorphic,
    is_modular,
    lattice_from_covers,
    mi_width,
    product,
    property_report,
)
from .resolutions import (
    boolean_equivalence,
    lattice_betti_table,
    lattice_pd,
    pd_vs_height_report,
    projective_dimension,
)
from .taylor import taylor_betti

#: Which lattice<->graph pairings each exhaustive case owns.
_GRAPH_CASE_PROPERTIES = {
    "graded-graph": ("graded", "rank_formula", "linearly_presented"),
    "uss-modular": ("modular", "upper_semimodular", "geometric"),
    "boolean-edge": ("boolean", "distributive"),
    "supersolvable": ("supersolvable",),
    "lsm": ("lower_semimodular",),
    "coatomic": ("coatomic",),
    "complemented": ("complemented",),
}

GRAPH_CASES = tuple(_GRAPH_CASE_PROPERTIES) + ("gray-areas",)

#: The sweep checks every labeled graph up to this many vertices, since a
#: labeled sweep also catches variable-order bugs; beyond it, one graph per
#: isomorphism class.
_LABELED_MAX_N = 6

CATALOG = {
    "graded-graph": "lattice graded <=> graph gap-free; graded lattices "
    "satisfy rank(m) = deg(m) - 1 and gradedness <=> linear presentation",
    "uss-modular": "modular <=> upper semimodular <=> geometric <=> the "
    "graph has no two disjoint edges",
    "boolean-edge": "Boolean <=> distributive <=> the graph is a star",
    "supersolvable": "supersolvable <=> some edge meets every other edge",
    "lsm": "lower semimodular <=> the graph is a clique with pendant "
    "vertices attached to unique clique vertices",
    "coatomic": "coatomic <=> star graph or minimum degree >= 2",
    "complemented": "complemented <=> every union of edges has an "
    "independent subset dominating the vertices it traps",
    "gray-areas": "supersolvable+coatomic and lsm+coatomic force "
    "complemented; all three force modular",
    "special-families": "paths graded iff n <= 4 and complemented iff "
    "n != 1 mod 3; cycles graded iff n <= 5 and always complemented; "
    "complete graphs graded+complemented with pd = rank = n-1",
    "pd-height-bound": "pd(S/I) <= lattice height and <= meet-irreducible "
    "width on seeded random ideals",
    "boolean-equivalence": "Boolean lattice <=> unique variable power <=> "
    "minimal Taylor resolution <=> pd equals the generator count",
    "phan-roundtrip": "the LCM lattice of the canonical ideal of an atomic "
    "lattice is isomorphic to the lattice",
    "modular-cm": "canonical ideals of modular atomic lattices are "
    "Cohen-Macaulay",
    "geometric-pd": "pd_vs_height_report on the canonical ideals of "
    "geometric lattices, complete and star edge ideals and seeded ideals: "
    "pd <= lattice height, geometric or LSM+coatomic forces pd = height, "
    "and pd = height forces strong complementation",
    "strongly-complemented-necessary": "pd_vs_height_report, as in "
    "geometric-pd, on the edge ideals of connected graphs up to 5 vertices "
    "and the graph fixtures; geometric-pd checks the seeded ideals with the "
    "same function",
    "product-lemma": "each lattice property holds for a product iff it "
    "holds for both factors; disjoint unions of graphs give product "
    "lattices",
    "polarization-invariance": "polarization preserves the LCM lattice up "
    "to isomorphism",
}


@dataclass
class VerificationResult:
    id: str
    instances_checked: int
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def verdict(self) -> str:
        return "pass" if not self.counterexamples else "fail"

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        # elapsed is deliberately omitted: identical seeds and bounds must
        # give byte-identical output
        return {
            "id": self.id,
            "instances_checked": self.instances_checked,
            "counterexamples": self.counterexamples,
            "verdict": self.verdict,
        }

    def render_text(self) -> str:
        head = (
            f"{self.id}: {self.verdict} "
            f"({self.instances_checked} instances, {self.elapsed:.1f}s)"
        )
        if not self.counterexamples:
            return head
        lines = [head]
        for ce in self.counterexamples[:10]:
            lines.append(f"  counterexample: {formats.dumps_json(ce)}")
        if len(self.counterexamples) > 10:
            lines.append(f"  ... {len(self.counterexamples) - 10} more")
        return "\n".join(lines)


def random_ideal(rng: random.Random, max_vars: int, max_gens: int, max_deg: int):
    """Uniform generator multiset with bounded variables and degree, then
    minimalized."""
    nvars = rng.randint(1, max_vars)
    monos = []
    for _ in range(rng.randint(1, max_gens)):
        exps = [0] * nvars
        for _ in range(rng.randint(1, max_deg)):
            exps[rng.randrange(nvars)] += 1
        monos.append(Monomial(tuple(exps)))
    return minimalize(monos, nvars)


def _seeded(seed: int, count: int, shape: tuple) -> list:
    """``count`` (name, ideal) pairs ``seeded#k`` drawn in order from one
    ``random.Random(seed)``; ``shape`` is ``random_ideal``'s bounds."""
    rng = random.Random(seed)
    return [(f"seeded#{k}", random_ideal(rng, *shape)) for k in range(count)]


# -- exhaustive graph sweep -----------------------------------------------------


def _graph_violations(n: int, mask: int) -> list:
    """(case id, graph JSON, detail) for each theorem that fails on the graph
    ``graph_from_mask(n, mask)``; empty when every theorem holds."""
    G = graph_from_mask(n, mask)
    rep, violations = check_graph_theorems(G)
    out = []
    for v in violations:
        prop = v["property"]
        for case, props in _GRAPH_CASE_PROPERTIES.items():
            if prop in props:
                out.append((case, formats.graph_to_json(G), v))
                break
    for g in gray_area_violations(rep.lattice_report):
        out.append(("gray-areas", formats.graph_to_json(G), {"implication": g}))
    return out


def _sweep_graphs(max_n: int, jobs: int):
    """Every connected labeled graph on 2.._LABELED_MAX_N vertices, then one
    graph per isomorphism class up to max_n vertices, in (n, edge mask)
    order; the (n, mask) pairs are split into contiguous shards over the
    pool, and each worker builds its graphs."""
    graphs = []
    for n in range(2, max_n + 1):
        labeled = n <= _LABELED_MAX_N
        masks = connected_graph_masks(n) if labeled else connected_class_masks(n)
        graphs.extend((n, m) for m in masks)
    if jobs > 1:
        with Pool(jobs) as pool:
            shard = -(-len(graphs) // (16 * jobs))
            per_graph = pool.starmap(_graph_violations, graphs, chunksize=shard)
    else:
        per_graph = itertools.starmap(_graph_violations, graphs)
    return len(graphs), [v for found in per_graph for v in found]


# -- fixture pools ----------------------------------------------------------------


#: (q, r) of the subspace lattices S(q, r) in the fixture pool.
_SUBSPACE_PARAMS = ((2, 2), (3, 2), (5, 2), (2, 3))


def fixture_lattices() -> dict:
    """The constructed lattices every pool-based case, and the test suite,
    draws from."""
    pool = {
        "one-point": _chain(1),
        "chain2": _chain(2),
        "chain3": _chain(3),
        "B2": edge_ideal_lattice(star(3)),
        "B3": edge_ideal_lattice(star(4)),
        "fano": cons.fano_lattice(),
        "graphic-matroid": cons.graphic_matroid_lattice(),
        "L(P4)": edge_ideal_lattice(path(4)),
        "L(P5)": edge_ideal_lattice(path(5)),
        "L(C4)": edge_ideal_lattice(cycle(4)),
        "L(C5)": edge_ideal_lattice(cycle(5)),
        "L(K4)": edge_ideal_lattice(complete(4)),
        "L(St5)": edge_ideal_lattice(star(5)),
        "L(fig5)": edge_ideal_lattice(graph_fixture("fig5")),
        "L(fig6)": edge_ideal_lattice(graph_fixture("fig6")),
        "L(bipartite-cm)": edge_ideal_lattice(graph_fixture("bipartite-cm")),
    }
    for n in range(3, 9):
        pool[f"M{n}"] = cons.mn_lattice(n)
    for q, r in _SUBSPACE_PARAMS:
        pool[f"S({q},{r})"] = cons.subspace_lattice(q, r)
    return pool


def _chain(n: int) -> FiniteLattice:
    return lattice_from_covers(n, [(i, i + 1) for i in range(n - 1)])


def _ideal_ce(name, ideal, detail):
    return {"instance": name, "ideal": formats.ideal_to_json(ideal), "detail": detail}


def _bound_violations(name, ideal, pd, L):
    """pd <= lattice height and pd <= meet-irreducible width."""
    out = []
    if pd > height(L):
        out.append(_ideal_ce(name, ideal, f"pd {pd} > height {height(L)}"))
    if pd > mi_width(L):
        out.append(_ideal_ce(name, ideal, f"pd {pd} > mi width {mi_width(L)}"))
    return out


# -- individual cases ---------------------------------------------------------------
#
# Each runner takes (seed, count, field) and returns (instances checked,
# counterexamples); run_cases wraps that in a VerificationResult.


def _run_special_families(seed, count, field):
    checks = []  # (instance, got, expected)
    for n in range(2, 9):
        L = edge_ideal_lattice(path(n))
        checks.append((f"P{n} graded", is_graded(L)[0], n <= 4))
    for n in range(2, 10):
        L = edge_ideal_lattice(path(n))
        checks.append((f"P{n} complemented", is_complemented(L)[0], n % 3 != 1))
    for n in range(3, 9):
        L = edge_ideal_lattice(cycle(n))
        checks.append((f"C{n} graded", is_graded(L)[0], n <= 5))
        checks.append((f"C{n} complemented", is_complemented(L)[0], True))
    for n in range(2, 7):
        L = edge_ideal_lattice(complete(n))
        graded_ok = is_graded(L)[0]
        checks.append((f"K{n} graded", graded_ok, True))
        checks.append((f"K{n} complemented", is_complemented(L)[0], True))
        checks.append((f"K{n} pd", lattice_pd(L, field), n - 1))
        checks.append((f"K{n} rank", height(L) if graded_ok else None, n - 1))
    return len(checks), [
        {"instance": name, "detail": f"got {got}, expected {want}"}
        for name, got, want in checks
        if got != want
    ]


def _run_pd_height_bound(seed, count, field):
    pool = _seeded(seed, count or 200, (5, 5, 3))
    found = []
    for name, ideal in pool:
        L = lcm_lattice(ideal)
        found.extend(_bound_violations(name, ideal, lattice_pd(L, field), L))
    return len(pool), found


def _run_boolean_equivalence(seed, count, field):
    pool = _seeded(seed, count or 500, (6, 6, 4))
    found = []
    for name, ideal in pool:
        L = lcm_lattice(ideal)
        pd = lattice_pd(L, field)
        four = boolean_equivalence(ideal, L, pd)
        if not four.all_agree():
            found.append(_ideal_ce(name, ideal, str(four)))
        found.extend(_bound_violations(name, ideal, pd, L))
    return len(pool), found


def _run_phan_roundtrip(seed, count, field):
    seeded = _seeded(seed, count or 200, (5, 5, 3))
    pools = [(name, lcm_lattice(ideal)) for name, ideal in seeded]
    for name, L in fixture_lattices().items():
        if is_atomic(L)[0] and L.n > 1:
            pools.append((name, L))
    found = []
    for name, L in pools:
        ideal = phan_ideal(L)
        if not is_isomorphic(lcm_lattice(ideal), L):
            found.append(
                {"instance": name, "detail": "round trip lost the lattice",
                 "ideal": formats.ideal_to_json(ideal)}
            )
        elif not is_minimal_ideal(ideal):
            found.append({"instance": name, "detail": "canonical ideal not minimal"})
    return len(pools), found


def _run_modular_cm(seed, count, field):
    fixtures = fixture_lattices()
    names = [f"M{n}" for n in range(3, 9)]
    names += [f"S({q},{r})" for q, r in _SUBSPACE_PARAMS]
    pool = [(name, fixtures[name]) for name in names]
    pool += [
        ("M3 x M4", product(fixtures["M3"], fixtures["M4"])),
        ("M3 x S(2,3)", product(fixtures["M3"], fixtures["S(2,3)"])),
    ]
    found = []
    for name, L in pool:
        if not is_modular(L)[0]:
            found.append({"instance": name, "detail": "fixture not modular"})
            continue
        ideal = phan_ideal(L)
        pd = projective_dimension(ideal, field)
        ht = ideal_height(ideal)
        if pd != ht:
            found.append(
                _ideal_ce(name, ideal, f"not Cohen-Macaulay: pd {pd}, height {ht}")
            )
    return len(pool), found


def _pd_height_counterexamples(pool, field):
    """``pd_vs_height_report`` on each (name, ideal) of ``pool``; every
    implication it finds broken is a counterexample."""
    found = []
    for name, ideal in pool:
        try:
            pd_vs_height_report(ideal, field)
        except ContractViolation as exc:
            found.append(_ideal_ce(name, ideal, str(exc)))
    return len(pool), found


def _run_geometric_pd(seed, count, field):
    pool = [
        ("fano", phan_ideal(cons.fano_lattice())),
        ("graphic-matroid", cons.graphic_matroid_ideal()),
    ]
    for q, r in ((2, 2), (3, 2), (2, 3)):
        pool.append((f"S({q},{r})", phan_ideal(cons.subspace_lattice(q, r))))
    for n in range(3, 7):
        pool.append((f"M{n}", phan_ideal(cons.mn_lattice(n))))
    for n in range(2, 7):
        pool.append((f"K{n}", edge_ideal(complete(n))))
    for n in range(3, 7):
        pool.append((f"St{n}", edge_ideal(star(n))))
    pool += _seeded(seed, count or 100, (5, 5, 3))
    return _pd_height_counterexamples(pool, field)


def _run_strongly_complemented(seed, count, field):
    instances = []
    for n in range(2, 6):
        for mask in connected_graph_masks(n):
            G = graph_from_mask(n, mask)
            instances.append((f"graph n={n} mask={mask}", edge_ideal(G)))
    for name in ("fig5", "fig6", "bipartite-cm"):
        instances.append((name, edge_ideal(graph_fixture(name))))
    return _pd_height_counterexamples(instances, field)


_PRODUCT_PROPERTIES = (
    "boolean",
    "distributive",
    "graded",
    "modular",
    "geometric",
    "upper_semimodular",
    "lower_semimodular",
    "atomic",
    "coatomic",
    "complemented",
    "supersolvable",
)


def _run_product_lemma(seed, count, field):
    pool = fixture_lattices()
    names = [
        "one-point", "chain3", "B2", "M3", "M5", "fano", "S(3,2)",
        "L(P4)", "L(P5)", "L(C4)", "L(C5)", "L(K4)",
    ]
    pairs = list(itertools.combinations(names, 2))[: max(20, count or 20)]
    reports = {n: property_report(pool[n]) for n in names}
    found = []
    for a, b in pairs:
        prod_rep = property_report(product(pool[a], pool[b]))
        for prop in _PRODUCT_PROPERTIES:
            both = reports[a].verdict(prop) and reports[b].verdict(prop)
            if prod_rep.verdict(prop) != both:
                found.append(
                    {"instance": f"{a} x {b}", "property": prop,
                     "detail": f"product {prod_rep.verdict(prop)}, factors {both}"}
                )
    # disjoint unions of graphs give product lattices
    graph_pairs = [
        (path(3), path(4)), (path(2), cycle(3)), (cycle(4), path(3)),
        (star(4), path(4)), (cycle(3), cycle(3)),
    ]
    for G1, G2 in graph_pairs:
        shifted = tuple((u + G1.n, v + G1.n) for u, v in G2.edges)
        union = Graph(G1.n + G2.n, G1.edges + shifted)
        L = lcm_lattice(edge_ideal(union))
        P = product(edge_ideal_lattice(G1), edge_ideal_lattice(G2))
        if not is_isomorphic(L, P):
            found.append(
                {"instance": f"disjoint union {G1.edges} + {G2.edges}",
                 "detail": "lattice of union not isomorphic to product"}
            )
    return len(pairs) + len(graph_pairs), found


def _divisibility_lattice(ideal) -> FiniteLattice:
    """The LCM lattice of the ideal without polarization: its generators
    and 1 closed under ``Monomial.lcm`` and ordered by ``Monomial.divides``.
    ``lcm_lattice`` builds an ideal and its polarization from the same
    masks, so only this route can tell the two apart."""
    elems = {Monomial((0,) * ideal.nvars), *ideal.gens}
    frontier = ideal.gens
    while frontier:
        frontier = {m.lcm(g) for m in frontier for g in ideal.gens} - elems
        elems |= frontier
    elems = list(elems)
    return FiniteLattice.from_below_masks(
        [sum(1 << i for i, a in enumerate(elems) if a.divides(b)) for b in elems]
    )


def _run_polarization(seed, count, field):
    pool = _seeded(seed, count or 150, (4, 4, 4))
    found = []
    for name, ideal in pool:
        pol = polarize(ideal)
        if not pol.is_squarefree:
            found.append(_ideal_ce(name, ideal, "polarization not squarefree"))
        elif not is_isomorphic(_divisibility_lattice(ideal), lcm_lattice(pol)):
            found.append(_ideal_ce(name, ideal, "polarization changed the lattice"))
    return len(pool), found


_CASE_RUNNERS = {
    "special-families": _run_special_families,
    "pd-height-bound": _run_pd_height_bound,
    "boolean-equivalence": _run_boolean_equivalence,
    "phan-roundtrip": _run_phan_roundtrip,
    "modular-cm": _run_modular_cm,
    "geometric-pd": _run_geometric_pd,
    "strongly-complemented-necessary": _run_strongly_complemented,
    "product-lemma": _run_product_lemma,
    "polarization-invariance": _run_polarization,
}


def run_cases(ids, *, max_n=6, seed=0, char=None, jobs=1, count=None):
    """Run catalog cases, sharing one graph sweep across the exhaustive
    ones; results come back in the requested order.  Every option is
    checked before any work starts."""
    for i in ids:
        if i not in CATALOG:
            raise BadTheoremId(f"unknown case {i!r}; have {sorted(CATALOG)}")
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise BadParameter(f"jobs {jobs} out of range 1..{cpus}")
    if not 2 <= max_n <= 8:
        raise BadParameter(f"max_n {max_n} out of range 2..8")
    if count is not None and count < 1:
        raise BadParameter(f"count {count} must be at least 1")
    field = FieldSpec(DEFAULT_PRIME if char is None else char)
    graph_ids = [i for i in ids if i in GRAPH_CASES]
    results = {}
    if graph_ids:
        t0 = time.time()
        total, found = _sweep_graphs(max_n, jobs)
        elapsed = time.time() - t0
        for i in graph_ids:
            ces = [{"graph": g, "detail": d} for c, g, d in found if c == i]
            results[i] = VerificationResult(i, total, ces, elapsed)
    for i in ids:
        if i not in results:
            t0 = time.time()
            checked, ces = _CASE_RUNNERS[i](seed, count, field)
            results[i] = VerificationResult(i, checked, ces, time.time() - t0)
    return [results[i] for i in ids]


def betti_oracle_check(count=200, seed=0):
    """Compare the interval-homology Betti tables against the independent
    Taylor-complex oracle, entry for entry, and ``lattice_pd`` against the
    table's pd, over GF(2) and GF(DEFAULT_PRIME) on seeded random ideals;
    the pd bounds are checked along the way.  Not a catalog case: used by
    the acceptance suite."""
    res = VerificationResult("betti-oracle", count)
    fields = (FieldSpec(2), FieldSpec(DEFAULT_PRIME))
    for name, ideal in _seeded(seed, count, (5, 8, 3)):
        L = lcm_lattice(ideal)
        for fs in fields:
            mine = lattice_betti_table(L, fs)
            if mine.multigraded != taylor_betti(ideal, fs):
                res.counterexamples.append(
                    _ideal_ce(name, ideal, f"tables differ over {fs}")
                )
            pd = lattice_pd(L, fs)
            if pd != mine.pd:
                detail = f"lattice_pd {pd}, table pd {mine.pd} over {fs}"
                res.counterexamples.append(_ideal_ce(name, ideal, detail))
            res.counterexamples.extend(_bound_violations(name, ideal, mine.pd, L))
    return res
