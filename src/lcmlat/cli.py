"""Command-line front end.

Exit codes: 0 success, 1 usage or input error, 2 a verification case found a
counterexample.  Machine-readable output sits behind --json and is byte-
deterministic for fixed seeds and bounds.
"""

from __future__ import annotations

import argparse
import sys

from . import constructions as cons
from . import formats
from .errors import BadParameter, LcmLatError
from .fields import FieldSpec
from .graphs import (
    GRAPH_FIXTURES,
    complete,
    cycle,
    edge_ideal,
    graph_fixture,
    graph_lattice_report,
    path,
    star,
)
from .ideals import (
    Monomial,
    ideal_height,
    is_minimal_ideal,
    lcm_lattice,
    phan_ideal,
    polarize,
)
from .lattice import height, mobius, property_report
from .resolutions import (
    is_cohen_macaulay,
    is_pure,
    lattice_betti_table,
    projective_dimension,
    taylor_is_minimal,
)
from .verify import CATALOG, run_cases


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    try:
        with open(arg, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise LcmLatError(f"cannot read {arg}: {exc}") from None


def _field(args) -> FieldSpec | None:
    return None if args.char is None else FieldSpec(args.char)


def _emit(args, obj, text: str):
    if getattr(args, "json", False):
        print(formats.dumps_json(obj))
    else:
        print(text)


def _emit_ideal(args, ideal):
    _emit(args, formats.ideal_to_json(ideal),
          formats.render_ideal_text(ideal).rstrip("\n"))


# -- ideal subcommands -----------------------------------------------------------


def _cmd_ideal(args) -> int:
    ideal = formats.parse_ideal(_read(args.file))
    sub = args.ideal_cmd
    if sub == "lcm":
        L = lcm_lattice(ideal)
        rep = property_report(L)
        obj = {"lattice": formats.lattice_to_json(L), "properties": rep.as_dict()}
        _emit(args, obj, formats.dumps_json(formats.lattice_to_json(L))
              + "\n" + rep.render_text())
    elif sub == "betti":
        table = lattice_betti_table(lcm_lattice(ideal), _field(args))
        obj = formats.betti_to_json(table)
        text = table.render_text()
        if args.multigraded:
            lines = [
                f"i={e['i']} j={e['j']} m={_mono_str(e['m'])} rank={e['rank']}"
                for e in obj["entries"]
            ]
            text += "\n" + "\n".join(lines)
        _emit(args, obj, text)
    elif sub == "pd":
        v = projective_dimension(ideal, _field(args))
        _emit(args, {"pd": v}, str(v))
    elif sub == "height":
        v = ideal_height(ideal)
        _emit(args, {"height": v}, str(v))
    elif sub == "cm":
        v = is_cohen_macaulay(ideal, _field(args))
        _emit(args, {"cohen_macaulay": v}, str(v).lower())
    elif sub == "taylor-minimal":
        rep = taylor_is_minimal(ideal)
        obj = {"minimal": rep.is_minimal}
        if rep.witness is not None:
            obj["witness"] = {"subset": list(rep.witness[0]),
                              "omitted": rep.witness[1]}
        _emit(args, obj, str(rep.is_minimal).lower())
    elif sub == "pure":
        ok, degs = is_pure(ideal, _field(args))
        obj = {"pure": ok, "degree_sequence": list(degs) if degs else None}
        _emit(args, obj, f"{str(ok).lower()}"
              + (f" {list(degs)}" if degs else ""))
    elif sub == "polarize":
        _emit_ideal(args, polarize(ideal))
    elif sub == "minimal":
        v = is_minimal_ideal(ideal)
        _emit(args, {"minimal": v}, str(v).lower())
    return 0


def _mono_str(exps) -> str:
    return str(Monomial(tuple(exps)))


# -- lattice subcommands -----------------------------------------------------------


def _cmd_lattice(args) -> int:
    L = formats.parse_lattice(_read(args.file))
    sub = args.lattice_cmd
    if sub == "check":
        rep = property_report(L)
        obj = {
            "n": L.n,
            "height": height(L),
            "properties": rep.as_dict(),
        }
        _emit(args, obj, f"n = {L.n}, height = {height(L)}\n" + rep.render_text())
    elif sub == "phan":
        _emit_ideal(args, phan_ideal(L))
    elif sub == "mobius":
        v = mobius(L, L.bottom, L.top)
        _emit(args, {"mobius_bottom_top": v}, str(v))
    return 0


# -- graph subcommands --------------------------------------------------------------


def _graph_from_args(args):
    if args.fixture is not None:
        return graph_fixture(args.fixture)
    if args.file is None:
        raise LcmLatError("need a graph file or --fixture")
    return formats.parse_graph(_read(args.file))


def _cmd_graph(args) -> int:
    G = _graph_from_args(args)
    if args.graph_cmd == "edge-ideal":
        _emit_ideal(args, edge_ideal(G))
        return 0
    report = graph_lattice_report(G)
    pairs = report.pairs()
    obj = {
        "graph": formats.graph_to_json(G),
        "lattice_n": report.lattice.n,
        "lattice_height": height(report.lattice),
        "properties": report.lattice_report.as_dict(),
        "graph_side": report.graph_verdicts,
        "rank_formula_holds": report.rank_formula_holds,
        "linearly_presented": report.linearly_presented,
    }
    width = max(len(k) for k in pairs)
    lines = [
        f"{name:<{width}}  lattice={str(lv).lower():<5}  graph={str(gv).lower()}"
        for name, (lv, gv) in pairs.items()
    ]
    lines.append(f"lattice size {report.lattice.n}, height "
                 f"{height(report.lattice)}, linearly presented "
                 f"{str(report.linearly_presented).lower()}")
    _emit(args, obj, "\n".join(lines))
    return 0


# -- make subcommands ----------------------------------------------------------------


def _cmd_make(args) -> int:
    target = args.make_cmd
    if target == "subspace":
        L = cons.subspace_lattice(args.q, args.r)
        print(formats.dumps_json(formats.lattice_to_json(L)))
    elif target == "mn":
        L = cons.mn_lattice(args.n)
        print(formats.dumps_json(formats.lattice_to_json(L)))
    elif target == "fano":
        print(formats.dumps_json(formats.lattice_to_json(cons.fano_lattice())))
    elif target in ("path", "cycle", "complete", "star"):
        G = {"path": path, "cycle": cycle, "complete": complete, "star": star}[
            target
        ](args.n)
        print(formats.dumps_json(formats.graph_to_json(G)))
    elif target == "fixture":
        print(formats.dumps_json(_fixture_json(args.id)))
    return 0


#: The ``make fixture`` ids besides those of GRAPH_FIXTURES.
_FIXTURES = {
    "fig3": (cons.fano_lattice, formats.lattice_to_json),
    "graphic-matroid": (cons.graphic_matroid_lattice, formats.lattice_to_json),
    "graphic-matroid-ideal": (cons.graphic_matroid_ideal, formats.ideal_to_json),
}


def _fixture_json(name: str):
    if name in GRAPH_FIXTURES:
        return formats.graph_to_json(GRAPH_FIXTURES[name])
    if name in _FIXTURES:
        make, to_json = _FIXTURES[name]
        return to_json(make())
    have = ", ".join(sorted([*GRAPH_FIXTURES, *_FIXTURES]))
    raise BadParameter(f"unknown fixture {name!r}; have {have}")


# -- verify ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    ids = list(CATALOG) if args.id == "all" else [args.id]
    results = run_cases(
        ids,
        max_n=args.max_n,
        seed=args.seed,
        char=args.char,
        jobs=args.jobs,
        count=args.count,
    )
    if args.json:
        print(formats.dumps_json(
            {"seed": args.seed, "results": [r.to_json() for r in results]}
        ))
    else:
        print(f"seed = {args.seed}")
        for r in results:
            print(r.render_text())
    return 0 if all(r.passed for r in results) else 2


# -- parser ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="lcmlat", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_ideal = sub.add_parser("ideal", help="operations on monomial ideals")
    ideal_sub = p_ideal.add_subparsers(dest="ideal_cmd", required=True)
    for name in ("lcm", "betti", "pd", "height", "cm", "taylor-minimal",
                 "pure", "polarize", "minimal"):
        sp = ideal_sub.add_parser(name)
        sp.add_argument("file", help="ideal file, or - for stdin")
        if name in ("betti", "pd", "cm", "pure"):
            sp.add_argument("--char", type=int, default=None,
                            help="field characteristic (0 or a prime)")
        sp.add_argument("--json", action="store_true")
        if name == "betti":
            sp.add_argument("--multigraded", action="store_true")
    p_ideal.set_defaults(func=_cmd_ideal)

    p_lat = sub.add_parser("lattice", help="operations on lattice files")
    lat_sub = p_lat.add_subparsers(dest="lattice_cmd", required=True)
    for name in ("check", "phan", "mobius"):
        sp = lat_sub.add_parser(name)
        sp.add_argument("file", help="lattice JSON file, or - for stdin")
        sp.add_argument("--json", action="store_true")
    p_lat.set_defaults(func=_cmd_lattice)

    p_graph = sub.add_parser("graph", help="operations on graphs")
    graph_sub = p_graph.add_subparsers(dest="graph_cmd", required=True)
    for name in ("props", "edge-ideal"):
        sp = graph_sub.add_parser(name)
        sp.add_argument("file", nargs="?", help="graph JSON file, or - for stdin")
        sp.add_argument("--fixture", default=None,
                        help=f"named fixture ({', '.join(GRAPH_FIXTURES)})")
        sp.add_argument("--json", action="store_true")
    p_graph.set_defaults(func=_cmd_graph)

    p_make = sub.add_parser("make", help="emit constructed objects as JSON")
    make_sub = p_make.add_subparsers(dest="make_cmd", required=True)
    sp = make_sub.add_parser("subspace")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp = make_sub.add_parser("mn")
    sp.add_argument("--n", type=int, required=True)
    make_sub.add_parser("fano")
    for name in ("path", "cycle", "complete", "star"):
        sp = make_sub.add_parser(name)
        sp.add_argument("--n", type=int, required=True)
    sp = make_sub.add_parser("fixture")
    sp.add_argument("--id", required=True)
    p_make.set_defaults(func=_cmd_make)

    p_verify = sub.add_parser("verify", help="run a theorem-verification case")
    p_verify.add_argument("id", help="case id, or 'all'; known: "
                          + ", ".join(sorted(CATALOG)))
    p_verify.add_argument("--max-n", type=int, default=6, dest="max_n")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--char", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--count", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except LcmLatError as exc:
        print(f"lcmlat: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
    except KeyboardInterrupt:
        print("lcmlat: error: interrupted", file=sys.stderr)
        return 1
    except MemoryError:
        print("lcmlat: error: out of memory", file=sys.stderr)
        return 1
    except RecursionError:
        print("lcmlat: error: recursion too deep", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
