from __future__ import annotations

import pytest

from lcmlat.errors import BadTheoremId
from lcmlat.formats import dumps_json, ideal_to_json
from lcmlat.graphs import connected_class_masks
from lcmlat.verify import (
    CATALOG,
    GRAPH_CASES,
    _graph_violations,
    _seeded,
    betti_oracle_check,
    random_ideal,
    run_cases,
)


def test_catalog_ids_are_closed():
    with pytest.raises(BadTheoremId):
        run_cases(["made-up"])
    assert len(CATALOG) == 17


def test_verify_all_json_is_pinned():
    # sha256 of what `lcmlat verify all --json --max-n 5` prints at seeds 0
    # and 1: every case, its instance count and its counterexamples
    import hashlib

    for seed in (0, 1):
        results = run_cases(list(CATALOG), max_n=5, seed=seed)
        text = dumps_json([r.to_json() for r in results])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e210bcbc4e6f621f7dae3147dc1c48b0fdcab4b171c2407970e4c48ec84265bc"
        ), seed


def test_random_ideal_is_deterministic():
    import random

    a = [random_ideal(random.Random(42), 5, 5, 3) for _ in range(10)]
    b = [random_ideal(random.Random(42), 5, 5, 3) for _ in range(10)]
    assert a == b


def test_seeded_pool_is_pinned():
    # every seeded case checks these instances; a change to random_ideal or
    # to the draw order must show here
    assert [(name, ideal_to_json(I)) for name, I in _seeded(0, 3, (5, 5, 3))] == [
        ("seeded#0", {"nvars": 4, "gens": [[0, 0, 1, 0]]}),
        ("seeded#1", {"nvars": 1, "gens": [[1]]}),
        ("seeded#2", {"nvars": 5, "gens": [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0]]}),
    ]


def test_every_seven_vertex_class_satisfies_the_characterizations():
    masks = connected_class_masks(7)
    assert len(masks) == 853
    for mask in masks:
        assert _graph_violations(7, mask) == [], mask


def test_graph_cases_small_bounds():
    results = run_cases(list(GRAPH_CASES), max_n=4)
    assert all(r.passed for r in results)
    assert all(r.instances_checked == 43 for r in results)


def test_single_case_api():
    res = run_cases(["uss-modular"], max_n=4)[0]
    assert res.passed and res.verdict == "pass"


def test_seeded_cases_pass_quickly():
    for case_id, count in [
        ("pd-height-bound", 30),
        ("boolean-equivalence", 30),
        ("phan-roundtrip", 20),
        ("polarization-invariance", 30),
    ]:
        res = run_cases([case_id], count=count, seed=3)[0]
        assert res.passed, (case_id, res.counterexamples[:2])


def test_fixture_cases_pass():
    for case_id in ("special-families", "modular-cm", "product-lemma"):
        res = run_cases([case_id])[0]
        assert res.passed, (case_id, res.counterexamples[:2])


def test_geometric_and_strong_cases():
    res = run_cases(["geometric-pd"], count=30)[0]
    assert res.passed
    res = run_cases(["strongly-complemented-necessary"], count=20)[0]
    # 771 connected graphs on 2-5 vertices and 3 fixtures; no seeded ideals
    assert res.passed and res.instances_checked == 774


def test_results_serialize_deterministically():
    r1 = run_cases(["boolean-edge"], max_n=4)[0]
    r2 = run_cases(["boolean-edge"], max_n=4)[0]
    assert dumps_json(r1.to_json()) == dumps_json(r2.to_json())
    assert "elapsed" not in r1.to_json()


def test_betti_oracle_check_small():
    res = betti_oracle_check(count=15, seed=9)
    assert res.passed


def test_betti_oracle_check_records_a_pd_route_mismatch(monkeypatch):
    import lcmlat.verify as verify

    monkeypatch.setattr(verify, "lattice_pd", lambda L, field=None: -1)
    res = betti_oracle_check(count=3, seed=9)
    assert len(res.counterexamples) == 6  # three ideals, two fields
    assert all("lattice_pd -1, table pd" in ce["detail"] for ce in res.counterexamples)


def test_jobs_parallel_matches_serial():
    serial = run_cases(["coatomic"], max_n=4, jobs=1)[0]
    parallel = run_cases(["coatomic"], max_n=4, jobs=2)[0]
    assert serial.instances_checked == parallel.instances_checked
    assert serial.counterexamples == parallel.counterexamples
