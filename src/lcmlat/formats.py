"""File formats: ideal text/JSON, lattice JSON, graph JSON, Betti JSON.

Text ideals have one monomial per line, factors like ``x2`` or ``x3^2``
joined by ``*``, ``#`` comments; the variable count is the largest index
seen.  All JSON indices are 0-based and all emitters are deterministic
(sorted keys, fixed separators) so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
import re

from .errors import FormatError, NotALattice, TooLarge
from .graphs import Graph
from .ideals import Monomial, MonomialIdeal, minimalize
from .lattice import MAX_ELEMENTS, FiniteLattice, lattice_from_covers, validate_labels

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}: {exc.msg}") from None
    except ValueError:  # int() refuses literals of more than 4300 digits
        raise TooLarge(
            f"JSON integer of more than 4300 digits, beyond the capacity {MAX_ELEMENTS}"
        ) from None


def _int(value, kind: str) -> int:
    """``value`` if it is an int and not a bool: 1.9, true or "0" in a
    ``kind`` JSON file is an error, never truncated or coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"bad {kind} JSON: expected an integer, got {value!r}")
    return value


# -- ideals -------------------------------------------------------------------
#
# A lattice in range needs at most MAX_ELEMENTS variables, one per
# meet-irreducible in its Phan ideal, so the parsers refuse a larger variable
# index or count before exponent vectors that long exist.  They refuse an
# exponent above MAX_ELEMENTS too: polarization turns exponent e into e
# variables.


def _capped(n: int, what: str, where: str = "") -> int:
    """``n``, or TooLarge when it is above MAX_ELEMENTS."""
    if n > MAX_ELEMENTS:
        raise TooLarge(f"{where}{what} above the capacity {MAX_ELEMENTS}")
    return n


def _capped_digits(digits: str, what: str, where: str) -> int:
    # length first: int() refuses strings of more than 4300 digits
    digits = digits.lstrip("0") or "0"
    short = len(digits) <= len(str(MAX_ELEMENTS))
    return _capped(int(digits) if short else MAX_ELEMENTS + 1, what, where)


def _parse_factors(s: str, where: str) -> dict:
    """{variable index: exponent} of a product like ``x2*x3^2``; indices
    start at 1.  ``where`` prefixes any error message."""
    factors = {}
    for part in s.split("*"):
        m = _FACTOR_RE.match(part.strip())
        if not m:
            raise FormatError(f"{where}bad factor {part.strip()!r}")
        v = _capped_digits(m.group(1), "variable index", where)
        if v < 1:
            raise FormatError(f"{where}variable index must be >= 1")
        e = _capped_digits(m.group(2) or "1", "exponent", where)
        factors[v] = _capped(factors.get(v, 0) + e, "exponent", where)
    return factors


def _monomial(factors: dict, nvars: int) -> Monomial:
    exps = [0] * nvars
    for v, e in factors.items():
        exps[v - 1] = e
    return Monomial(tuple(exps))


def parse_ideal_text(text: str) -> MonomialIdeal:
    raws = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            raws.append(_parse_factors(line, f"line {lineno}: "))
    if not raws:
        raise FormatError("line 1: no generators found")
    nvars = max(max(f) for f in raws)
    return minimalize([_monomial(f, nvars) for f in raws], nvars)


def parse_ideal_json(obj) -> MonomialIdeal:
    try:
        nvars = _capped(_int(obj["nvars"], "ideal"), "variable count")
        gens = [
            Monomial(tuple(_capped(_int(e, "ideal"), "exponent") for e in g))
            for g in obj["gens"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad ideal JSON: {exc}") from None
    for g in gens:
        if g.nvars != nvars:
            raise FormatError("bad ideal JSON: generator arity mismatch")
    return minimalize(gens, nvars)


def parse_ideal(text: str) -> MonomialIdeal:
    if text.lstrip().startswith("{"):
        return parse_ideal_json(_loads(text))
    return parse_ideal_text(text)


def render_ideal_text(ideal: MonomialIdeal) -> str:
    return "\n".join(str(g) for g in ideal.gens) + "\n"


def ideal_to_json(ideal: MonomialIdeal) -> dict:
    return {"nvars": ideal.nvars, "gens": [list(g.exps) for g in ideal.gens]}


# -- lattices -----------------------------------------------------------------


def lattice_to_json(L: FiniteLattice) -> dict:
    out = {"n": L.n, "covers": [list(p) for p in L.cover_pairs]}
    if L.labels is not None:
        out["labels"] = [str(m) for m in L.labels]
    return out


def parse_lattice(text: str) -> FiniteLattice:
    obj = _loads(text)
    try:
        n = _int(obj["n"], "lattice")
        covers = [(_int(a, "lattice"), _int(b, "lattice")) for a, b in obj["covers"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad lattice JSON: {exc}") from None
    labels = None
    if "labels" in obj and obj["labels"] is not None:
        labels = obj["labels"]
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise FormatError("bad lattice JSON: labels must be a list of strings")
        labels = [parse_monomial_label(s) for s in labels]
        if len(labels) != n:
            raise FormatError("bad lattice JSON: label count mismatch")
        nvars = max((m.nvars for m in labels), default=0)
        labels = [Monomial(m.exps + (0,) * (nvars - m.nvars)) for m in labels]
    L = lattice_from_covers(n, covers, labels)
    try:
        validate_labels(L)
    except NotALattice as exc:
        raise FormatError(f"bad lattice JSON: {exc}") from None
    return L


def parse_monomial_label(s: str) -> Monomial:
    s = s.strip()
    if s == "1":
        return Monomial(())
    factors = _parse_factors(s, f"bad monomial label {s!r}: ")
    return _monomial(factors, max(factors))


# -- graphs -------------------------------------------------------------------


def graph_to_json(G: Graph) -> dict:
    return {"n": G.n, "edges": [list(e) for e in G.edges]}


def parse_graph(text: str) -> Graph:
    obj = _loads(text)
    try:
        edges = tuple((_int(u, "graph"), _int(v, "graph")) for u, v in obj["edges"])
        return Graph(_int(obj["n"], "graph"), edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad graph JSON: {exc}") from None


# -- Betti tables -------------------------------------------------------------


def betti_to_json(table) -> dict:
    entries = []
    for (i, m), r in sorted(
        table.multigraded.items(), key=lambda kv: (kv[0][0], kv[0][1].exps)
    ):
        entries.append({"i": i, "j": m.degree, "m": list(m.exps), "rank": r})
    return {"entries": entries}
