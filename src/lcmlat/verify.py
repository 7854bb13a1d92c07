"""Theorem-verification harness: every characterization the package
implements, machine-checked over exhaustive graph enumerations, seeded random
ideals, and the constructed lattice fixtures."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from multiprocessing import Pool

from . import constructions as cons
from . import formats
from .errors import BadTheoremId, ContractViolation
from .fields import DEFAULT_PRIME, FieldSpec
from .graphs import (
    Graph,
    check_graph_theorems,
    complete,
    connected_graph_masks,
    cycle,
    edge_ideal,
    edge_ideal_lattice,
    graph_fixture,
    graph_from_mask,
    gray_area_violations,
    is_canonical_representative,
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
    is_graded,
    is_isomorphic,
    is_strongly_complemented,
    lattice_from_covers,
    mi_width,
    product,
    property_report,
)
from .resolutions import (
    boolean_equivalence,
    lattice_betti_table,
    pd_vs_height_report,
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
    "geometric-pd": "geometric, or LSM and coatomic, forces pd = lattice "
    "height",
    "strongly-complemented-necessary": "pd = lattice height forces a "
    "strongly complemented lattice",
    "product-lemma": "each lattice property holds for a product iff it "
    "holds for both factors; disjoint unions of graphs give product "
    "lattices",
    "polarization-invariance": "polarization preserves the LCM lattice up "
    "to isomorphism",
}


@dataclass(frozen=True)
class TheoremCase:
    id: str
    max_n: int = 6
    seed: int = 0
    char: int | None = None
    jobs: int = 1
    count: int | None = None

    def __post_init__(self):
        if self.id not in CATALOG:
            raise BadTheoremId(f"unknown case {self.id!r}; have {sorted(CATALOG)}")

    @property
    def field(self) -> FieldSpec:
        return FieldSpec(self.char if self.char is not None else DEFAULT_PRIME)


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


# -- exhaustive graph sweep -----------------------------------------------------


def _graph_violations(G: Graph) -> list:
    """(case id, detail) pairs for one graph; empty when every theorem holds."""
    rep, violations = check_graph_theorems(G)
    out = []
    for v in violations:
        prop = v["property"]
        for case, props in _GRAPH_CASE_PROPERTIES.items():
            if prop in props:
                out.append((case, v))
                break
    for g in gray_area_violations(rep.lattice_report):
        out.append(("gray-areas", {"implication": g}))
    return out


def _graph_worker(args):
    n, lo, hi = args
    count = 0
    found = []
    dedup = n >= 7  # labeled enumeration up to 6; one graph per class beyond
    for mask in range(lo, hi):
        G = graph_from_mask(n, mask)
        if not G.edges or not G.is_connected():
            continue
        if dedup and not is_canonical_representative(G):
            continue
        count += 1
        for case, detail in _graph_violations(G):
            found.append((case, formats.graph_to_json(G), detail))
    return count, found


def _sweep_graphs(max_n: int, jobs: int):
    """All connected nontrivial labeled graphs on 2..max_n vertices."""
    total = 0
    found = []
    shards = []
    for n in range(2, max_n + 1):
        nmasks = 1 << (n * (n - 1) // 2)
        step = max(512, nmasks // max(1, 16 * jobs))
        shards.extend((n, lo, min(lo + step, nmasks)) for lo in range(0, nmasks, step))
    if jobs > 1:
        with Pool(jobs) as pool:
            results = pool.map(_graph_worker, shards)
    else:
        results = [_graph_worker(s) for s in shards]
    for count, viol in results:
        total += count
        found.extend(viol)
    return total, found


def _run_graph_cases(ids, case: TheoremCase):
    total, found = _sweep_graphs(case.max_n, case.jobs)
    out = {i: VerificationResult(i, total) for i in ids}
    for case_id, graph_json, detail in found:
        if case_id in out:
            out[case_id].counterexamples.append(
                {"graph": graph_json, "detail": _plain(detail)}
            )
    return out


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


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


def modular_fixture_lattices() -> dict:
    pool = fixture_lattices()
    names = [f"M{n}" for n in range(3, 9)]
    names += [f"S({q},{r})" for q, r in _SUBSPACE_PARAMS]
    out = {name: pool[name] for name in names}
    out["M3 x M4"] = product(pool["M3"], pool["M4"])
    out["M3 x S(2,3)"] = product(pool["M3"], pool["S(2,3)"])
    return out


def _ideal_ce(name, ideal, detail):
    return {"instance": name, "ideal": formats.ideal_to_json(ideal), "detail": detail}


def _bound_violations(name, ideal, table, L=None):
    """pd <= lattice height and pd <= meet-irreducible width."""
    if L is None:
        L = lcm_lattice(ideal)
    out = []
    if table.pd > height(L):
        out.append(_ideal_ce(name, ideal, f"pd {table.pd} > height {height(L)}"))
    if table.pd > mi_width(L):
        out.append(_ideal_ce(name, ideal, f"pd {table.pd} > mi width {mi_width(L)}"))
    return out


# -- individual cases ---------------------------------------------------------------


def _run_special_families(case: TheoremCase) -> VerificationResult:
    res = VerificationResult(case.id, 0)

    def expect(name, got, want):
        res.instances_checked += 1
        if got != want:
            res.counterexamples.append(
                {"instance": name, "detail": f"got {got}, expected {want}"}
            )

    for n in range(2, 9):
        L = edge_ideal_lattice(path(n))
        expect(f"P{n} graded", is_graded(L)[0], n <= 4)
    for n in range(2, 10):
        L = edge_ideal_lattice(path(n))
        expect(f"P{n} complemented", property_report(L).verdict("complemented"),
               n % 3 != 1)
    for n in range(3, 9):
        L = edge_ideal_lattice(cycle(n))
        expect(f"C{n} graded", is_graded(L)[0], n <= 5)
        expect(f"C{n} complemented", property_report(L).verdict("complemented"), True)
    for n in range(2, 7):
        L = edge_ideal_lattice(complete(n))
        graded_ok = is_graded(L)[0]
        expect(f"K{n} graded", graded_ok, True)
        expect(f"K{n} complemented", property_report(L).verdict("complemented"), True)
        pd = lattice_betti_table(L, case.field).pd
        expect(f"K{n} pd", pd, n - 1)
        expect(f"K{n} rank", height(L) if graded_ok else None, n - 1)
    return res


def _run_pd_height_bound(case: TheoremCase) -> VerificationResult:
    rng = random.Random(case.seed)
    count = case.count or 200
    res = VerificationResult(case.id, count)
    for k in range(count):
        ideal = random_ideal(rng, 5, 5, 3)
        L = lcm_lattice(ideal)
        table = lattice_betti_table(L, case.field)
        res.counterexamples.extend(_bound_violations(f"seeded#{k}", ideal, table, L))
    return res


def _run_boolean_equivalence(case: TheoremCase) -> VerificationResult:
    rng = random.Random(case.seed)
    count = case.count or 500
    res = VerificationResult(case.id, count)
    for k in range(count):
        ideal = random_ideal(rng, 6, 6, 4)
        L = lcm_lattice(ideal)
        table = lattice_betti_table(L, case.field)
        four = boolean_equivalence(ideal, L, table)
        if not four.all_agree():
            res.counterexamples.append(_ideal_ce(f"seeded#{k}", ideal, str(four)))
        res.counterexamples.extend(_bound_violations(f"seeded#{k}", ideal, table, L))
    return res


def _run_phan_roundtrip(case: TheoremCase) -> VerificationResult:
    from .lattice import is_atomic

    rng = random.Random(case.seed)
    count = case.count or 200
    res = VerificationResult(case.id, 0)
    pools = []
    for k in range(count):
        ideal = random_ideal(rng, 5, 5, 3)
        pools.append((f"seeded#{k}", lcm_lattice(ideal)))
    for name, L in fixture_lattices().items():
        if is_atomic(L)[0] and L.n > 1:
            pools.append((name, L))
    for name, L in pools:
        res.instances_checked += 1
        ideal = phan_ideal(L)
        if not is_isomorphic(lcm_lattice(ideal), L):
            res.counterexamples.append(
                {"instance": name, "detail": "round trip lost the lattice",
                 "ideal": formats.ideal_to_json(ideal)}
            )
        elif not is_minimal_ideal(ideal):
            res.counterexamples.append(
                {"instance": name, "detail": "canonical ideal not minimal"}
            )
    return res


def _run_modular_cm(case: TheoremCase) -> VerificationResult:
    res = VerificationResult(case.id, 0)
    for name, L in modular_fixture_lattices().items():
        res.instances_checked += 1
        rep = property_report(L)
        if not rep.verdict("modular"):
            res.counterexamples.append(
                {"instance": name, "detail": "fixture not modular"}
            )
            continue
        ideal = phan_ideal(L)
        pd = lattice_betti_table(lcm_lattice(ideal), case.field).pd
        ht = ideal_height(ideal)
        if pd != ht:
            res.counterexamples.append(
                _ideal_ce(name, ideal, f"not Cohen-Macaulay: pd {pd}, height {ht}")
            )
    return res


def _geometric_pd_pool(case: TheoremCase):
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
    rng = random.Random(case.seed)
    for k in range(case.count or 100):
        pool.append((f"seeded#{k}", random_ideal(rng, 5, 5, 3)))
    return pool


def _run_geometric_pd(case: TheoremCase) -> VerificationResult:
    res = VerificationResult(case.id, 0)
    for name, ideal in _geometric_pd_pool(case):
        res.instances_checked += 1
        try:
            pd_vs_height_report(ideal, case.field)
        except ContractViolation as exc:
            res.counterexamples.append(_ideal_ce(name, ideal, str(exc)))
    return res


def _run_strongly_complemented(case: TheoremCase) -> VerificationResult:
    res = VerificationResult(case.id, 0)
    instances = []
    for n in range(2, 6):
        for mask in connected_graph_masks(n):
            G = graph_from_mask(n, mask)
            instances.append((f"graph n={n} mask={mask}", edge_ideal(G)))
    for name in ("fig5", "fig6", "bipartite-cm"):
        instances.append((name, edge_ideal(graph_fixture(name))))
    rng = random.Random(case.seed)
    for k in range(case.count or 100):
        instances.append((f"seeded#{k}", random_ideal(rng, 5, 5, 3)))
    for name, ideal in instances:
        res.instances_checked += 1
        L = lcm_lattice(ideal)
        pd = lattice_betti_table(L, case.field).pd
        if pd == height(L) and not is_strongly_complemented(L)[0]:
            res.counterexamples.append(
                _ideal_ce(name, ideal, "pd == height but not strongly complemented")
            )
    return res


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


def _run_product_lemma(case: TheoremCase) -> VerificationResult:
    import itertools

    res = VerificationResult(case.id, 0)
    pool = fixture_lattices()
    names = [
        "one-point", "chain3", "B2", "M3", "M5", "fano", "S(3,2)",
        "L(P4)", "L(P5)", "L(C4)", "L(C5)", "L(K4)",
    ]
    pairs = list(itertools.combinations(names, 2))[: max(20, case.count or 20)]
    reports = {n: property_report(pool[n]) for n in names}
    for a, b in pairs:
        res.instances_checked += 1
        prod_rep = property_report(product(pool[a], pool[b]))
        for prop in _PRODUCT_PROPERTIES:
            both = reports[a].verdict(prop) and reports[b].verdict(prop)
            if prod_rep.verdict(prop) != both:
                res.counterexamples.append(
                    {"instance": f"{a} x {b}", "property": prop,
                     "detail": f"product {prod_rep.verdict(prop)}, factors {both}"}
                )
    # disjoint unions of graphs give product lattices
    graph_pairs = [
        (path(3), path(4)), (path(2), cycle(3)), (cycle(4), path(3)),
        (star(4), path(4)), (cycle(3), cycle(3)),
    ]
    for G1, G2 in graph_pairs:
        res.instances_checked += 1
        shifted = tuple((u + G1.n, v + G1.n) for u, v in G2.edges)
        union = Graph(G1.n + G2.n, G1.edges + shifted)
        L = lcm_lattice(edge_ideal(union))
        P = product(edge_ideal_lattice(G1), edge_ideal_lattice(G2))
        if not is_isomorphic(L, P):
            res.counterexamples.append(
                {"instance": f"disjoint union {G1.edges} + {G2.edges}",
                 "detail": "lattice of union not isomorphic to product"}
            )
    return res


def _run_polarization(case: TheoremCase) -> VerificationResult:
    rng = random.Random(case.seed)
    count = case.count or 150
    res = VerificationResult(case.id, count)
    for k in range(count):
        ideal = random_ideal(rng, 4, 4, 4)
        pol = polarize(ideal)
        if not pol.is_squarefree:
            res.counterexamples.append(
                _ideal_ce(f"seeded#{k}", ideal, "polarization not squarefree")
            )
        elif not is_isomorphic(lcm_lattice(ideal), lcm_lattice(pol)):
            res.counterexamples.append(
                _ideal_ce(f"seeded#{k}", ideal, "polarization changed the lattice")
            )
    return res


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
    """Run several cases, sharing one graph sweep across the exhaustive
    ones; results come back in the requested order."""
    for i in ids:
        if i not in CATALOG:
            raise BadTheoremId(f"unknown case {i!r}; have {sorted(CATALOG)}")
    graph_ids = [i for i in ids if i in GRAPH_CASES]
    results = {}
    if graph_ids:
        t0 = time.time()
        case = TheoremCase(graph_ids[0], max_n=max_n, seed=seed, char=char,
                           jobs=jobs, count=count)
        swept = _run_graph_cases(graph_ids, case)
        elapsed = time.time() - t0
        for i, r in swept.items():
            r.elapsed = elapsed
            results[i] = r
    for i in ids:
        if i in results:
            continue
        case = TheoremCase(i, max_n=max_n, seed=seed, char=char, jobs=jobs,
                           count=count)
        t0 = time.time()
        r = _CASE_RUNNERS[i](case)
        r.elapsed = time.time() - t0
        results[i] = r
    return [results[i] for i in ids]


def verify(case: TheoremCase) -> VerificationResult:
    """Run a single catalog case."""
    return run_cases(
        [case.id], max_n=case.max_n, seed=case.seed, char=case.char,
        jobs=case.jobs, count=case.count,
    )[0]


def betti_oracle_check(count=200, seed=0, chars=(2, DEFAULT_PRIME),
                       max_vars=5, max_gens=8, max_deg=3):
    """Compare the interval-homology Betti tables against the independent
    Taylor-complex oracle, entry for entry, over seeded random ideals; the
    pd bounds are checked along the way.  Not a catalog case: used by the
    acceptance suite."""
    rng = random.Random(seed)
    res = VerificationResult("betti-oracle", count)
    for k in range(count):
        ideal = random_ideal(rng, max_vars, max_gens, max_deg)
        L = lcm_lattice(ideal)
        for c in chars:
            fs = FieldSpec(c)
            mine = lattice_betti_table(L, fs)
            oracle = taylor_betti(ideal, fs)
            if mine.multigraded != oracle:
                res.counterexamples.append(
                    _ideal_ce(f"seeded#{k}", ideal, f"tables differ over {fs}")
                )
            res.counterexamples.extend(
                _bound_violations(f"seeded#{k}", ideal, mine, L)
            )
    return res
