"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one item
through lcmlat's public functions (``run``) and checks that item's output
(``check``).  ``run.py`` times whole passes over the inputs; the checks run
after a pass, outside the timed region.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

# Traced functions are called through their lcmlat module attributes, which
# the tracer rebinds; a name imported here would bypass it.
import lcmlat
import lcmlat.resolutions
from lcmlat import FieldSpec, Graph, complete, cycle, edge_ideal, mobius, path
from lcmlat.graphs import (
    check_graph_theorems,
    connected_graph_masks,
    graph_from_mask,
    gray_area_violations,
)
from lcmlat.verify import CATALOG, GRAPH_CASES, run_cases


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line on why the workload is in the benchmark
    why: str
    #: seed -> [(item id, input)]
    setup: Callable[[int], list]
    #: input -> output
    run: Callable[[object], object]
    #: (input, output) -> whether the output is correct
    check: Callable[[object, object], bool]
    #: whether per-item latency percentiles mean anything (many alike items)
    per_item: bool = False


# -- betti-large ---------------------------------------------------------------

# Items stay at or under about a second: on a shared box whose speed swings
# within seconds, only short items get timed at their true cost (see
# run.py).  C8 (2.5 s) and K7 (4 s, the only graph whose top interval
# exceeds CHAR0_CONFIRM_COLUMNS) are too coarse for that.
_BETTI_GRAPHS = {"P8": path(8), "C7": cycle(7), "K6": complete(6)}
_BETTI_RELABELINGS = 2

#: Graded Betti tables {(i, j): beta_ij} of S/I(G); relabeling the vertices
#: does not change them.
_PINNED_GRADED = {
    "P8": {(0, 0): 1, (1, 2): 7, (2, 3): 6, (2, 4): 10, (3, 5): 16, (3, 6): 1,
           (4, 6): 6, (4, 7): 2, (5, 8): 1},
    "C7": {(0, 0): 1, (1, 2): 7, (2, 3): 7, (2, 4): 7, (3, 5): 14, (4, 6): 7,
           (5, 7): 1},
    "K6": {(0, 0): 1, (1, 2): 15, (2, 3): 40, (3, 4): 45, (4, 5): 24, (5, 6): 5},
}


def _relabeled(G: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(G.n), G.n)
    return Graph(G.n, tuple((perm[u], perm[v]) for u, v in G.edges))


def _betti_setup(seed: int) -> list:
    rng = random.Random(seed)
    return [
        (f"{name}#{k}", (name, edge_ideal(_relabeled(G, rng))))
        for k in range(_BETTI_RELABELINGS)
        for name, G in _BETTI_GRAPHS.items()
    ]


def _betti_run(x):
    _name, ideal = x
    return lcmlat.betti_table(ideal)


def _betti_check(x, table) -> bool:
    name, ideal = x
    graded = {k: v for k, v in table.graded.items() if v}
    if graded != _PINNED_GRADED[name]:
        return False
    if name == "K6" and any(
        graded.get((i, i + 1), 0) != i * comb(6, i + 1) for i in range(1, 6)
    ):
        return False
    # Euler characteristic of each interval against the Moebius function:
    # sum_i (-1)^i beta_{i,m} = mu(0, m) for every element m.
    L = lcmlat.lcm_lattice(ideal)
    alternating = {}
    for (i, m), r in table.multigraded.items():
        alternating[m] = alternating.get(m, 0) + (-1) ** i * r
    return all(
        alternating.get(L.labels[m], 0) == mobius(L, L.bottom, m) for m in range(L.n)
    )


# -- verify-pool ---------------------------------------------------------------


#: One 3.4 s call, too coarse to time steadily; pd-height-bound and
#: boolean-equivalence drive the same layers on tiny lattices.
_POOL_SKIPPED = ("strongly-complemented-necessary",)
#: Case seeds per workload seed; the random ideals' cost varies by about 10%
#: from seed to seed, and two seeds halve that variance.  More seeds make a
#: pass longer and leave fewer passes to find each item's fastest time.
_POOL_SEEDS_PER_CASE = 2


def _pool_setup(seed: int) -> list:
    first = seed * _POOL_SEEDS_PER_CASE
    return [
        (f"{case_id}@{case_seed}", (case_id, case_seed))
        for case_seed in range(first, first + _POOL_SEEDS_PER_CASE)
        for case_id in CATALOG
        if case_id not in GRAPH_CASES and case_id not in _POOL_SKIPPED
    ]


def _pool_run(x):
    case_id, seed = x
    return run_cases([case_id], seed=seed)[0]


def _pool_check(x, result) -> bool:
    return result.id == x[0] and result.passed and result.instances_checked > 0


# -- sweep6 ----------------------------------------------------------------------

#: Share of the 26,704 connected labeled 6-vertex graphs in one pass.
_SWEEP_SHARE = 20


def _sweep_setup(seed: int) -> list:
    masks = list(connected_graph_masks(6))
    sample = sorted(random.Random(seed).sample(masks, len(masks) // _SWEEP_SHARE))
    return [(f"mask{m}", graph_from_mask(6, m)) for m in sample]


def _sweep_run(G):
    report, violations = check_graph_theorems(G)
    return violations, gray_area_violations(report.lattice_report)


def _sweep_check(_G, out) -> bool:
    violations, gray = out
    return not violations and not gray


# -- oracle ----------------------------------------------------------------------

_ORACLE_FIELDS = (FieldSpec(2), FieldSpec(32003))
#: Graphs per edge count; stratifying keeps the pass cost steady across seeds.
_ORACLE_PER_EDGE_COUNT = 5


def _oracle_setup(seed: int) -> list:
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(6), 2))
    items = []
    for edges in range(8, 12):
        for k in range(_ORACLE_PER_EDGE_COUNT):
            G = Graph(6, tuple(rng.sample(pairs, edges)))
            items.append((f"e{edges}#{k}", edge_ideal(G)))
    return items


def _oracle_run(ideal):
    L = lcmlat.lcm_lattice(ideal)
    return [
        (
            lcmlat.resolutions.lattice_betti_table(L, field).multigraded,
            lcmlat.taylor_betti(ideal, field),
        )
        for field in _ORACLE_FIELDS
    ]


def _oracle_check(_ideal, out) -> bool:
    return all(interval == taylor for interval, taylor in out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "betti-large",
            "betti_table of relabeled P8, C7 and K6 edge ideals, GF(32003) plus "
            "the QQ check: nearly all time is sparse_rank on the larger interval "
            "matrices",
            _betti_setup, _betti_run, _betti_check,
        ),
        Workload(
            "verify-pool",
            "eight non-sweep verify cases, two seeds each: thousands of tiny "
            "interval complexes and lcm_lattice builds, so per-call rank and "
            "boundary overhead and is_isomorphic show",
            _pool_setup, _pool_run, _pool_check,
        ),
        Workload(
            "sweep6",
            "1/20 of the connected labeled 6-vertex graphs through the per-graph "
            "theorem checks: lattice build and property_report, never homology",
            _sweep_setup, _sweep_run, _sweep_check, per_item=True,
        ),
        Workload(
            "oracle",
            "20 edge ideals of 6-vertex graphs with 8-11 edges: interval route "
            "against taylor_betti over GF(2) and GF(32003); the only taylor and "
            "GF(2) user",
            _oracle_setup, _oracle_run, _oracle_check, per_item=True,
        ),
    )
}
