from __future__ import annotations

import io
import json
import os
import tracemalloc
import types

import pytest

from lcmlat import cli, verify
from lcmlat.errors import BadParameter, FormatError
from lcmlat.formats import (
    dumps_json,
    graph_to_json,
    ideal_to_json,
    lattice_to_json,
    parse_graph,
    parse_ideal,
    parse_lattice,
    render_ideal_text,
)
from lcmlat.constructions import fano_lattice
from lcmlat.graphs import graph_fixture
from lcmlat.ideals import Monomial, minimalize


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- formats ------------------------------------------------------------------


def test_ideal_text_roundtrip():
    text = "x2*x4 # a comment\nx1^2*x3\n\n# full comment line\nx4^3\n"
    I = parse_ideal(text)
    assert I.nvars == 4
    assert {str(g) for g in I.gens} == {"x2*x4", "x1^2*x3", "x4^3"}
    again = parse_ideal(render_ideal_text(I))
    assert again == I


def test_ideal_json_roundtrip():
    I = minimalize([Monomial((1, 0, 2)), Monomial((0, 1, 0))])
    assert parse_ideal(dumps_json(ideal_to_json(I))) == I


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_ideal("x1\nbogus*x2\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(FormatError):
        parse_ideal("{not json")


def test_lattice_json_roundtrip():
    F = fano_lattice()
    J = lattice_to_json(F)
    again = parse_lattice(dumps_json(J))
    assert again.n == F.n
    assert lattice_to_json(again) == J
    assert again.labels == F.labels


def test_graph_json_roundtrip():
    G = graph_fixture("fig6")
    assert parse_graph(dumps_json(graph_to_json(G))) == G
    with pytest.raises(BadParameter, match="negative"):
        parse_graph('{"n": -1, "edges": []}')


# -- CLI ----------------------------------------------------------------------


def test_make_fano_pipes_to_phan(capsys, monkeypatch):
    code, out, _ = run(capsys, ["make", "fano"])
    assert code == 0
    code, out, _ = run(capsys, ["lattice", "phan", "-"], stdin=out,
                       monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == [
        "x2*x4*x5*x7",
        "x2*x3*x5*x6",
        "x3*x4*x6*x7",
        "x1*x2*x6*x7",
        "x1*x4*x5*x6",
        "x1*x3*x5*x7",
        "x1*x2*x3*x4",
    ]


def test_make_outputs_feed_consumers(capsys, monkeypatch):
    for make_args, consumer in [
        (["make", "subspace", "--q", "2", "--r", "2"], ["lattice", "check", "-"]),
        (["make", "mn", "--n", "4"], ["lattice", "mobius", "-"]),
        (["make", "path", "--n", "4"], ["graph", "props", "-"]),
        (["make", "cycle", "--n", "5"], ["graph", "edge-ideal", "-"]),
        (["make", "star", "--n", "4"], ["graph", "props", "-"]),
        (["make", "complete", "--n", "3"], ["graph", "edge-ideal", "-"]),
        (["make", "fixture", "--id", "fig5"], ["graph", "props", "-"]),
        (["make", "fixture", "--id", "graphic-matroid"], ["lattice", "check", "-"]),
    ]:
        code, out, _ = run(capsys, make_args)
        assert code == 0
        code, out2, err = run(capsys, consumer, stdin=out, monkeypatch=monkeypatch)
        assert code == 0, (make_args, consumer, err)
        assert out2


def test_ideal_subcommands(capsys, monkeypatch, tmp_path):
    f = tmp_path / "fano.ideal"
    f.write_text(render_ideal_text(__import__("lcmlat").phan_ideal(fano_lattice())))
    for args, expect in [
        (["ideal", "pd", str(f)], "3"),
        (["ideal", "height", str(f)], "3"),
        (["ideal", "cm", str(f)], "true"),
        (["ideal", "minimal", str(f)], "true"),
        (["ideal", "taylor-minimal", str(f)], "false"),
    ]:
        code, out, _ = run(capsys, args)
        assert code == 0 and out.strip() == expect
    code, out, _ = run(capsys, ["ideal", "pure", str(f)])
    assert out.strip() == "true [0, 4, 6, 7]"
    code, out, _ = run(capsys, ["ideal", "betti", str(f), "--json"])
    entries = json.loads(out)["entries"]
    assert {(e["i"], e["j"]) for e in entries} == {(0, 0), (1, 4), (2, 6), (3, 7)}
    code, out, _ = run(capsys, ["ideal", "betti", str(f), "--char", "2"])
    assert out.splitlines()[-1].split() == ["4:", "-", "-", "14", "8"]


@pytest.mark.parametrize(
    "sub",
    ["lcm", "height", "taylor-minimal", "polarize", "minimal",
     "betti", "pd", "cm", "pure"],
)
def test_char_only_where_a_field_is_used(capsys, tmp_path, sub):
    f = tmp_path / "two.ideal"
    f.write_text("x1*x2\nx2*x3\n")
    code, out, err = run(capsys, ["ideal", sub, str(f), "--char", "4"])
    assert code == 1
    assert out == ""
    if sub in ("betti", "pd", "cm", "pure"):
        assert err == "lcmlat: error: field characteristic must be 0 or prime, got 4\n"
    else:
        assert err.endswith("lcmlat: error: unrecognized arguments: --char 4\n")


def test_ideal_polarize_and_lcm(capsys, monkeypatch, tmp_path):
    f = tmp_path / "i.ideal"
    f.write_text("x1^2\nx1*x2\n")
    code, out, _ = run(capsys, ["ideal", "polarize", str(f)])
    assert code == 0
    assert sorted(out.splitlines()) == ["x1*x2", "x1*x3"]
    code, out, _ = run(capsys, ["ideal", "lcm", str(f), "--json"])
    obj = json.loads(out)
    assert obj["lattice"]["n"] == 4
    assert obj["properties"]["boolean"]["verdict"] is True


def test_graph_fixture_and_json(capsys, monkeypatch):
    code, out, _ = run(capsys, ["graph", "props", "--fixture", "fig6", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["lattice_height"] == 5
    assert obj["properties"]["complemented"]["verdict"] is True
    assert obj["graph_side"]["complemented"] is True


def test_verify_cli_pass_and_json_determinism(capsys, monkeypatch):
    code, out1, _ = run(capsys, ["verify", "boolean-edge", "--max-n", "4", "--json"])
    assert code == 0
    code, out2, _ = run(capsys, ["verify", "boolean-edge", "--max-n", "4", "--json"])
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["seed"] == 0
    rec = obj["results"][0]
    assert rec["verdict"] == "pass" and rec["instances_checked"] == 43


def test_verify_cli_seeded_cases(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["verify", "pd-height-bound", "--count", "25", "--seed", "7", "--json"],
    )
    assert code == 0
    assert json.loads(out)["results"][0]["verdict"] == "pass"


def test_cli_usage_and_input_errors(capsys, monkeypatch, tmp_path):
    assert cli.main(["verify", "no-such-case"]) == 1
    capsys.readouterr()
    assert cli.main(["bogus"]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.ideal"
    bad.write_text("what*ever\n")
    assert cli.main(["ideal", "pd", str(bad)]) == 1
    _, err = capsys.readouterr().out, capsys.readouterr().err
    assert cli.main(["ideal", "pd", str(tmp_path / "missing.ideal")]) == 1
    capsys.readouterr()
    assert cli.main(["make", "fixture", "--id", "nope"]) == 1


def test_every_fixture_the_error_names_is_made(capsys):
    assert cli.main(["make", "fixture", "--id", "nope"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "; have " in err
    ids = err.rstrip("\n").split("; have ", 1)[1].split(", ")
    assert len(ids) == 6
    for name in ids:
        assert cli.main(["make", "fixture", "--id", name]) == 0, name
        out = capsys.readouterr().out
        assert json.loads(out), name


def test_ideal_lcm_over_the_element_cap_exits_1(capsys, tmp_path):
    f = tmp_path / "boolean14.ideal"
    f.write_text("".join(f"x{i}\n" for i in range(1, 15)))
    code, out, err = run(capsys, ["ideal", "lcm", str(f)])
    assert code == 1
    assert out == ""
    assert err.startswith("lcmlat: error: ") and err.count("\n") == 1


def test_lcmlat_verify_is_the_module():
    # the package attribute, which ``from lcmlat import verify`` reads
    assert isinstance(verify, types.ModuleType)


@pytest.fixture
def no_pool(monkeypatch):
    """A broken option guard must fail the test, not start worker processes
    or the graph sweep."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    monkeypatch.setattr(verify, "Pool", refuse)
    monkeypatch.setattr(verify, "_sweep_graphs", refuse)


@pytest.mark.parametrize(
    "args",
    [
        ["coatomic", "--max-n", "4", "--jobs", "0"],
        ["coatomic", "--max-n", "4", "--jobs", str((os.cpu_count() or 1) + 1)],
        ["coatomic", "--max-n", "4", "--jobs", "100000"],
        ["pd-height-bound", "--max-n", "1"],
        ["pd-height-bound", "--max-n", "9"],
        ["pd-height-bound", "--count", "0"],
        ["pd-height-bound", "--count", "-3"],
    ],
)
def test_verify_rejects_out_of_range_options(capsys, no_pool, args):
    code, out, err = run(capsys, ["verify", *args])
    assert code == 1
    assert out == ""
    option = args[-2].lstrip("-").replace("-", "_")
    assert err.startswith(f"lcmlat: error: {option} {args[-1]} ")


@pytest.mark.parametrize(
    "args", [["coatomic", "--max-n", "3", "--char", "4"], ["all", "--char", "4"]]
)
def test_verify_rejects_bad_char_before_any_work(capsys, no_pool, args):
    code, out, err = run(capsys, ["verify", *args])
    assert code == 1
    assert out == ""
    assert err == "lcmlat: error: field characteristic must be 0 or prime, got 4\n"


def test_verify_cli_counterexample_exit_code(capsys, monkeypatch):
    from lcmlat.verify import VerificationResult

    def fake_run_cases(ids, **kw):
        bad = VerificationResult("coatomic", 1)
        bad.counterexamples.append({"instance": "synthetic", "detail": "forced"})
        return [bad]

    monkeypatch.setattr(cli, "run_cases", fake_run_cases)
    assert cli.main(["verify", "coatomic"]) == 2
    out = capsys.readouterr().out
    assert "counterexample" in out and "synthetic" in out


@pytest.mark.parametrize(
    "exc, message",
    [
        (KeyboardInterrupt, "interrupted"),
        (MemoryError, "out of memory"),
        (RecursionError, "recursion too deep"),
    ],
)
def test_interrupt_and_memory_error_exit_cleanly(capsys, monkeypatch, tmp_path,
                                                 exc, message):
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "lattice_betti_table", raising)
    f = tmp_path / "two.ideal"
    f.write_text("x1*x2\nx2*x3\n")
    code, out, err = run(capsys, ["ideal", "betti", str(f)])
    assert code == 1
    assert out == ""
    assert err == f"lcmlat: error: {message}\n"


def test_betti_multigraded_text(capsys, monkeypatch, tmp_path):
    f = tmp_path / "two.ideal"
    f.write_text("x1*x2\nx2*x3\n")
    code, out, _ = run(capsys, ["ideal", "betti", str(f), "--multigraded"])
    assert code == 0
    assert "i=2 j=3 m=x1*x2*x3 rank=1" in out


@pytest.mark.parametrize(
    "lattice",
    [
        {"n": 2, "covers": [[0, 1]], "labels": ["1", "x0"]},
        {"n": 2, "covers": [[0, 1]], "labels": ["1", "x0*x3"]},
        {"n": 2, "covers": [[0, 1]], "labels": 5},
        {"n": 2, "covers": [[0, 1]], "labels": ["1", 3]},
        {"n": 0, "covers": [], "labels": []},
    ],
)
def test_lattice_check_rejects_bad_labels(capsys, monkeypatch, lattice):
    text = dumps_json(lattice)
    code, out, err = run(capsys, ["lattice", "check", "-"], text, monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("lcmlat: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, obj",
    [
        (["ideal", "betti", "-"], {"nvars": 2, "gens": [[1.9, 1], [True, "0"]]}),
        (["ideal", "betti", "-"], {"nvars": 2, "gens": [[1, 1], [True, 0]]}),
        (["lattice", "check", "-"], {"n": 2.7, "covers": [[0, 1.9]]}),
        (["lattice", "check", "-"], {"n": 2, "covers": [[0, True]]}),
        (["graph", "props", "-"], {"n": 2, "edges": [[0, 1.9]]}),
    ],
)
def test_json_parsers_accept_only_integers(capsys, monkeypatch, argv, obj):
    code, out, err = run(capsys, argv, dumps_json(obj), monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("lcmlat: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_make_mn_refuses_a_huge_n_before_building_covers(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["make", "mn", "--n", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("lcmlat: error: ") and "Traceback" not in err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        # 5 * 10**9 edges; complete(2000) alone takes seconds and 389 MB
        ["make", "complete", "--n", "100000"],
        ["make", "path", "--n", "100000000"],
    ],
)
def test_make_graph_refuses_a_huge_n_before_listing_edges(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("lcmlat: error: ") and "capacity 8192" in err
    assert peak < 1 << 20


def test_graph_props_refuses_a_huge_sparse_graph_without_building_it(
    capsys, monkeypatch
):
    # 20,000,000 vertices are above the capacity; nothing of size n is built
    text = dumps_json({"n": 20_000_000, "edges": [[0, 1]]})
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["graph", "props", "-"], text, monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err == (
        "lcmlat: error: graph vertex count 20000000 above the capacity 8192\n"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, text",
    [
        # 14 bytes naming variable 10**9: an exponent vector that long
        # would take about 24 GB
        (["ideal", "height", "-"], "x1000000000\n"),
        (["ideal", "height", "-"], "x1*x8193\n"),
        (["ideal", "height", "-"], "x" + "9" * 5000 + "\n"),
        (["ideal", "height", "-"], dumps_json({"nvars": 10**9, "gens": [[1]]})),
        (
            ["lattice", "check", "-"],
            dumps_json({"n": 2, "covers": [[0, 1]], "labels": ["1", "x1000000000"]}),
        ),
        # polarization turns exponent e into e variables: this one into a
        # mask of about 1.5 GB
        (["ideal", "height", "-"], "x1^1000000000\n"),
        (["ideal", "height", "-"], "x1^" + "9" * 5000 + "\n"),
        (["ideal", "height", "-"], dumps_json({"nvars": 1, "gens": [[10**9]]})),
        (["ideal", "height", "-"], '{"nvars": 1, "gens": [[' + "9" * 5000 + "]]}"),
        (["graph", "props", "-"], '{"n": ' + "9" * 5000 + ', "edges": []}'),
    ],
)
def test_variable_index_above_the_cap_is_refused_before_allocating(
    capsys, monkeypatch, argv, text
):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv, text, monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("lcmlat: error: ") and "capacity 8192" in err
    assert peak < 1 << 20


def test_variable_index_at_the_cap_is_accepted(capsys, monkeypatch):
    code, out, _ = run(capsys, ["ideal", "height", "-"], "x1*x8192\n", monkeypatch)
    assert (code, out) == (0, "1\n")


def test_exponent_at_the_cap_is_accepted(capsys, monkeypatch):
    code, out, _ = run(capsys, ["ideal", "height", "-"], "x1^8192\n", monkeypatch)
    assert (code, out) == (0, "1\n")


def test_lattice_json_label_validation():
    bad = {
        "n": 4,
        "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
        "labels": ["1", "x1", "x2", "x1*x2*x3"],
    }
    with pytest.raises(FormatError):
        parse_lattice(dumps_json(bad))
    good = dict(bad, labels=["1", "x1", "x2", "x1*x2"])
    assert parse_lattice(dumps_json(good)).labels is not None


def test_lattice_json_label_check_lets_other_errors_through(monkeypatch):
    # only a label that disagrees with the order is bad input; any other
    # error in the check (a bug, or MemoryError) must reach the caller
    import lcmlat.formats

    def broken(L):
        raise RuntimeError("bug in the label check")

    monkeypatch.setattr(lcmlat.formats, "validate_labels", broken)
    good = {"n": 2, "covers": [[0, 1]], "labels": ["1", "x1"]}
    with pytest.raises(RuntimeError, match="bug in the label check"):
        parse_lattice(dumps_json(good))
    monkeypatch.undo()
    with pytest.raises(FormatError, match="disagree with the order"):
        parse_lattice(dumps_json(dict(good, labels=["x1", "1"])))
