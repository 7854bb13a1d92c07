"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines on passing runs).  The exhaustive graph sweep is shared by the
criteria that quantify over all connected graphs on at most 6 vertices.
"""

from __future__ import annotations

import io
import os
import time

import pytest

from lcmlat import cli
from lcmlat.fields import FieldSpec
from lcmlat.constructions import (
    fano_lattice,
    graphic_matroid_ideal,
    mn_lattice,
    subspace_lattice,
)
from lcmlat.graphs import complete, cycle, edge_ideal, graph_fixture, path
from lcmlat.ideals import ideal_height, lcm_lattice, phan_ideal
from lcmlat.lattice import (
    height,
    is_graded,
    is_strongly_complemented,
    property_report,
)
from lcmlat.resolutions import betti_table, is_pure, lattice_betti_table
from lcmlat.verify import (
    GRAPH_CASES,
    betti_oracle_check,
    run_cases,
)

JOBS = min(4, os.cpu_count() or 1)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{tail}")
    assert ok, f"criterion {num} ({name}) failed {tail}"


@pytest.fixture(scope="module")
def graph_sweep():
    """One exhaustive pass over every connected labeled graph on <= 6
    vertices, evaluating all graph cases (criteria 3 and 4)."""
    t0 = time.time()
    results = run_cases(list(GRAPH_CASES), max_n=6, jobs=JOBS)
    elapsed = time.time() - t0
    return {r.id: r for r in results}, elapsed


@pytest.fixture(scope="module")
def boolean_equivalence_result():
    return run_cases(["boolean-equivalence"], seed=0, count=500)[0]


@pytest.fixture(scope="module")
def oracle_result():
    return betti_oracle_check(count=200, seed=0)


@pytest.fixture(scope="module")
def roundtrip_result():
    return run_cases(["phan-roundtrip"], seed=0, count=200)[0]


def _run_cli(monkeypatch, capsys, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_fano_pipeline(monkeypatch, capsys):
    t0 = time.time()
    code, lattice_json = _run_cli(monkeypatch, capsys, ["make", "fano"])
    assert code == 0
    code, gens = _run_cli(monkeypatch, capsys, ["lattice", "phan", "-"],
                          stdin=lattice_json)
    assert code == 0
    expected = [
        "x2*x4*x5*x7",
        "x2*x3*x5*x6",
        "x3*x4*x6*x7",
        "x1*x2*x6*x7",
        "x1*x4*x5*x6",
        "x1*x3*x5*x7",
        "x1*x2*x3*x4",
    ]
    ok = gens.splitlines() == expected
    I = phan_ideal(fano_lattice())
    table = betti_table(I)
    ok = ok and table.graded == {(0, 0): 1, (1, 4): 7, (2, 6): 14, (3, 7): 8}
    ok = ok and table.pd == 3 == ideal_height(I)
    ok = ok and is_pure(I) == (True, (0, 4, 6, 7))
    elapsed = time.time() - t0
    report(1, "fano pipeline", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_purity_of_subspace_lattices():
    t0 = time.time()
    expected = {(2, 2): (0, 2, 3), (3, 2): (0, 3, 4), (2, 3): (0, 4, 6, 7)}
    ok = True
    for (q, r), degs in expected.items():
        pure, got = is_pure(phan_ideal(subspace_lattice(q, r)))
        q_power_formula = tuple(
            sum(q ** (r - s) for s in range(1, i + 1)) for i in range(r + 1)
        )
        ok = ok and pure and got == degs == q_power_formula
    elapsed = time.time() - t0
    report(2, "subspace purity", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_03_graph_characterizations(graph_sweep):
    results, elapsed = graph_sweep
    iff_cases = [c for c in GRAPH_CASES if c != "gray-areas"]
    ok = all(results[c].passed for c in iff_cases)
    ok = ok and all(results[c].instances_checked == 27475 for c in iff_cases)
    detail = f"{results['graded-graph'].instances_checked} graphs, {elapsed:.0f}s"
    report(3, "lattice<->graph equivalences on <=6 vertices",
           ok and elapsed < 300, detail)


def test_criterion_04_gray_areas_and_product_lemma(graph_sweep):
    results, _ = graph_sweep
    ok = results["gray-areas"].passed
    t0 = time.time()
    prod = run_cases(["product-lemma"])[0]
    elapsed = time.time() - t0
    ok = ok and prod.passed and prod.instances_checked >= 20
    report(4, "gray areas and product lemma", ok and elapsed < 60,
           f"{prod.instances_checked} pairs, {elapsed:.1f}s")


def test_criterion_05_family_table():
    t0 = time.time()
    res = run_cases(["special-families"])[0]
    elapsed = time.time() - t0
    report(5, "path/cycle/complete family table",
           res.passed and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_06_boolean_equivalences(boolean_equivalence_result):
    res = boolean_equivalence_result
    ok = res.passed and res.instances_checked == 500
    report(6, "Taylor minimality equivalences on 500 seeded ideals",
           ok and res.elapsed < 120, f"{res.elapsed:.1f}s")


def test_criterion_07_betti_oracle_equivalence(oracle_result):
    res = oracle_result
    t_ok = res.passed and res.instances_checked == 200
    report(7, "interval homology equals Taylor oracle over GF(2), GF(32003)",
           t_ok, f"{res.instances_checked} ideals")


def test_criterion_08_phan_roundtrip(roundtrip_result):
    res = roundtrip_result
    ok = res.passed and res.instances_checked >= 200
    report(8, "canonical-ideal round trip",
           ok and res.elapsed < 120,
           f"{res.instances_checked} lattices, {res.elapsed:.1f}s")


def test_criterion_09_bipartite_fixture():
    I = edge_ideal(graph_fixture("bipartite-cm"))
    L = lcm_lattice(I)
    pd = lattice_betti_table(L).pd
    ok = pd == ideal_height(I) and not is_graded(L)[0]
    report(9, "bipartite fixture CM and not graded", ok)


def test_criterion_09_graphic_matroid_fixture():
    I = graphic_matroid_ideal()
    L = lcm_lattice(I)
    rep = property_report(L)
    pd = lattice_betti_table(L).pd
    ok = (
        pd == 3
        and ideal_height(I) == 2
        and rep.verdict("geometric")
        and rep.verdict("supersolvable")
        and rep.verdict("complemented")
    )
    report(9, "graphic-matroid fixture pd 3, height 2, not CM", ok)


def test_criterion_09_p5_fixture():
    I = edge_ideal(path(5))
    L = lcm_lattice(I)
    pd = lattice_betti_table(L).pd
    ok = pd == 3 and height(L) == 4 and is_strongly_complemented(L)[0]
    report(9, "P5 fixture pd 3 < height 4, strongly complemented", ok)


def test_criterion_09_fig5_fixture():
    I = edge_ideal(graph_fixture("fig5"))
    L = lcm_lattice(I)
    pd = lattice_betti_table(L).pd
    ok = pd == height(L) == 4 and not is_graded(L)[0]
    report(9, "fig5 fixture pd = height = 4, not graded", ok)


def test_criterion_09_fig6_fixture():
    I = edge_ideal(graph_fixture("fig6"))
    L = lcm_lattice(I)
    pd = lattice_betti_table(L).pd
    rep = property_report(L)
    ok = (
        pd == 4
        and height(L) == 5
        and rep.verdict("complemented")
        and not rep.verdict("strongly_complemented")
    )
    report(
        9,
        "fig6 fixture complemented, not strongly complemented, pd 4 < height 5",
        ok,
        "the strong-complement verdict is computed as "
        f"{rep.verdict('strongly_complemented')}; see the decisions ledger",
    )


FIXTURE_IDEALS = {
    "fano": phan_ideal(fano_lattice()),
    "graphic-matroid": graphic_matroid_ideal(),
    "S(2,2)": phan_ideal(subspace_lattice(2, 2)),
    "S(3,2)": phan_ideal(subspace_lattice(3, 2)),
    "M5": phan_ideal(mn_lattice(5)),
    "P5": edge_ideal(path(5)),
    "C5": edge_ideal(cycle(5)),
    "K4": edge_ideal(complete(4)),
    "fig5": edge_ideal(graph_fixture("fig5")),
    "fig6": edge_ideal(graph_fixture("fig6")),
    "bipartite-cm": edge_ideal(graph_fixture("bipartite-cm")),
}


def test_criterion_10_global_inequalities_and_char_independence(
    boolean_equivalence_result, oracle_result, roundtrip_result
):
    # the pd <= height and pd <= mi-width bounds ride along with every
    # seeded stream of criteria 6-8; any violation lands in counterexamples
    ok = (
        boolean_equivalence_result.passed
        and oracle_result.passed
        and roundtrip_result.passed
    )
    mismatched = []
    for name, I in FIXTURE_IDEALS.items():
        L = lcm_lattice(I)
        tables = [
            lattice_betti_table(L, FieldSpec(c)).multigraded for c in (0, 2, 32003)
        ]
        if not (tables[0] == tables[1] == tables[2]):
            mismatched.append(name)
    ok = ok and not mismatched
    report(10, "pd bounds and characteristic independence", ok,
           f"fixtures checked: {len(FIXTURE_IDEALS)}")
