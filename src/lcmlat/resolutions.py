"""Betti numbers of S/I from interval homology in the LCM lattice, plus the
derived invariants: projective dimension, Cohen-Macaulayness, Taylor-
resolution minimality, purity, and the pd-versus-height report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ContractViolation, EquivalenceViolation
from .fields import FieldSpec
from .homology import reduced_homology_ranks
from .ideals import MonomialIdeal, Monomial, ideal_height, lcm_lattice
from .lattice import (
    FiniteLattice,
    height,
    is_boolean,
    is_coatomic,
    is_geometric,
    is_lower_semimodular,
    is_strongly_complemented,
    open_interval_order_complex,
)


@dataclass(frozen=True)
class BettiTable:
    """Multigraded and coarse-graded Betti numbers of S/I."""

    multigraded: dict
    field: Optional[FieldSpec]

    @property
    def graded(self) -> dict:
        out = {}
        for (i, m), r in self.multigraded.items():
            key = (i, m.degree)
            out[key] = out.get(key, 0) + r
        return out

    @property
    def pd(self) -> int:
        return max(i for (i, _m) in self.multigraded)

    def graded_entry(self, i: int, j: int) -> int:
        return self.graded.get((i, j), 0)

    def column_degrees(self, i: int) -> list:
        return sorted(j for (ii, j), r in self.graded.items() if ii == i and r)

    def total(self, i: int) -> int:
        return sum(r for (ii, _), r in self.multigraded.items() if ii == i)

    def render_text(self) -> str:
        """Betti-table layout: columns are homological degrees, row labels
        are j - i, '-' marks zeros."""
        graded = self.graded
        cols = range(self.pd + 1)
        rows = range(max(j - i for (i, j) in graded) + 1)
        cells = [[""] * (len(cols) + 1) for _ in range(len(rows) + 1)]
        cells[0][0] = ""
        for c in cols:
            cells[0][c + 1] = str(c)
        for r in rows:
            cells[r + 1][0] = f"{r}:"
            for c in cols:
                v = graded.get((c, r + c), 0)
                cells[r + 1][c + 1] = str(v) if v else "-"
        widths = [max(len(row[k]) for row in cells) for k in range(len(cols) + 1)]
        return "\n".join(
            " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
        )

    def to_json_entries(self) -> list:
        entries = []
        for (i, m), r in sorted(
            self.multigraded.items(), key=lambda kv: (kv[0][0], kv[0][1].exps)
        ):
            entries.append({"i": i, "j": m.degree, "m": list(m.exps), "rank": r})
        return entries


@dataclass(frozen=True)
class TaylorReport:
    is_minimal: bool
    witness: Optional[tuple] = None


def lattice_betti_table(
    L: FiniteLattice, field: FieldSpec | None = None
) -> BettiTable:
    """Betti numbers from a labeled LCM lattice: the entry at (i, m) is the
    rank of reduced homology in dimension i-2 of the open interval below m."""
    if L.labels is None:
        raise ValueError("lattice must carry monomial labels")
    multigraded = {(0, L.labels[L.bottom]): 1}
    for m in range(L.n):
        if m == L.bottom:
            continue
        K = open_interval_order_complex(L, L.bottom, m)
        for d, r in reduced_homology_ranks(K, field).items():
            if r:
                multigraded[(d + 2, L.labels[m])] = r
    return BettiTable(multigraded, field)


def betti_table(ideal: MonomialIdeal, field: FieldSpec | None = None) -> BettiTable:
    return lattice_betti_table(lcm_lattice(ideal), field)


def projective_dimension(ideal: MonomialIdeal, field: FieldSpec | None = None) -> int:
    return betti_table(ideal, field).pd


def is_cohen_macaulay(ideal: MonomialIdeal, field: FieldSpec | None = None) -> bool:
    return projective_dimension(ideal, field) == ideal_height(ideal)


def taylor_is_minimal(ideal: MonomialIdeal) -> TaylorReport:
    """Minimality of the Taylor resolution.

    A unit coefficient anywhere in the differential forces one on the full
    generator set, so only the subsets omitting a single generator need
    checking; the witness is (subset, omitted generator index).
    """
    total = ideal.lcm_of_all()
    for p, g in enumerate(ideal.gens):
        rest = Monomial((0,) * ideal.nvars)
        for q, h in enumerate(ideal.gens):
            if q != p:
                rest = rest.lcm(h)
        if rest == total:
            return TaylorReport(False, (tuple(range(ideal.ngens)), p))
    return TaylorReport(True, None)


def unique_variable_power_criterion(ideal: MonomialIdeal) -> bool:
    """Each generator must own a variable power dividing no other generator."""
    for i, g in enumerate(ideal.gens):
        owns = False
        for v, e in enumerate(g.exps):
            if e and all(
                h.exps[v] < e for j, h in enumerate(ideal.gens) if j != i
            ):
                owns = True
                break
        if not owns:
            return False
    return True


@dataclass(frozen=True)
class BooleanEquivalence:
    lattice_is_boolean: bool
    unique_variable_power: bool
    taylor_minimal: bool
    pd_equals_ngens: bool

    def all_agree(self) -> bool:
        vals = (
            self.lattice_is_boolean,
            self.unique_variable_power,
            self.taylor_minimal,
            self.pd_equals_ngens,
        )
        return all(vals) or not any(vals)


def boolean_equivalence(
    ideal: MonomialIdeal, L: FiniteLattice, table: BettiTable
) -> BooleanEquivalence:
    """The four equivalent faces of a Boolean LCM lattice, each computed by
    its own route, from the ideal, its LCM lattice and its Betti table."""
    return BooleanEquivalence(
        lattice_is_boolean=is_boolean(L)[0],
        unique_variable_power=unique_variable_power_criterion(ideal),
        taylor_minimal=taylor_is_minimal(ideal).is_minimal,
        pd_equals_ngens=table.pd == ideal.ngens,
    )


def boolean_equivalence_report(
    ideal: MonomialIdeal, field: FieldSpec | None = None
) -> BooleanEquivalence:
    """:func:`boolean_equivalence` of the ideal; disagreement is an
    implementation bug and raises."""
    L = lcm_lattice(ideal)
    rep = boolean_equivalence(ideal, L, lattice_betti_table(L, field))
    if not rep.all_agree():
        raise EquivalenceViolation(f"{ideal}: {rep}")
    return rep


def is_pure(ideal: MonomialIdeal, field: FieldSpec | None = None):
    """(True, degree sequence) when every homological column of the graded
    table lives in a single internal degree."""
    table = betti_table(ideal, field)
    degs = []
    for i in range(table.pd + 1):
        col = table.column_degrees(i)
        if len(col) != 1:
            return False, None
        degs.append(col[0])
    return True, tuple(degs)


@dataclass(frozen=True)
class PdHeightReport:
    pd: int
    lattice_height: int
    equal: bool
    lattice_geometric: bool
    lattice_lsm_coatomic: bool
    lattice_strongly_complemented: bool


def pd_vs_height_report(
    ideal: MonomialIdeal, field: FieldSpec | None = None
) -> PdHeightReport:
    """Projective dimension against the lattice height, with the implications
    that tie them: geometric or LSM+coatomic forces equality, and equality
    forces strong complementation.  A broken implication raises."""
    L = lcm_lattice(ideal)
    pd = lattice_betti_table(L, field).pd
    ht = height(L)
    geo = is_geometric(L)[0]
    lsm_co = is_lower_semimodular(L)[0] and is_coatomic(L)[0]
    strong = is_strongly_complemented(L)[0]
    rep = PdHeightReport(
        pd=pd,
        lattice_height=ht,
        equal=pd == ht,
        lattice_geometric=geo,
        lattice_lsm_coatomic=lsm_co,
        lattice_strongly_complemented=strong,
    )
    if pd > ht:
        raise ContractViolation(f"pd {pd} exceeds lattice height {ht} for {ideal}")
    if geo and not rep.equal:
        raise ContractViolation(f"geometric lattice but pd < height for {ideal}")
    if lsm_co and not rep.equal:
        raise ContractViolation(f"LSM+coatomic lattice but pd < height for {ideal}")
    if rep.equal and not strong:
        raise ContractViolation(
            f"pd == height but lattice not strongly complemented for {ideal}"
        )
    return rep
