"""Betti numbers of S/I from interval homology in the LCM lattice, plus the
derived invariants: projective dimension, Cohen-Macaulayness, Taylor-
resolution minimality, purity, and the pd-versus-height report.

The projective dimension has its own route, :func:`lattice_pd`, which
computes only the intervals that can still raise it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ContractViolation, MissingLabels
from .fields import FieldSpec
from .homology import reduced_homology_ranks
from .ideals import MonomialIdeal, Monomial, ideal_height, lcm_lattice
from .lattice import (
    FiniteLattice,
    crosscut_complex,
    height,
    is_boolean,
    is_coatomic,
    is_geometric,
    is_lower_semimodular,
    is_strongly_complemented,
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

    def column_degrees(self, i: int) -> list:
        return sorted(j for (ii, j), r in self.graded.items() if ii == i and r)

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


@dataclass(frozen=True)
class TaylorReport:
    is_minimal: bool
    witness: Optional[tuple] = None


def _interval_ranks(L: FiniteLattice, m: int, field: FieldSpec | None) -> dict:
    """Reduced homology ranks {d: rank} of the open interval (bottom, m),
    computed on the crosscut complex of [bottom, m], which has the same
    homology: the entry of the Betti table at (d + 2, m)."""
    return reduced_homology_ranks(crosscut_complex(L, L.bottom, m), field)


def lattice_betti_table(
    L: FiniteLattice, field: FieldSpec | None = None
) -> BettiTable:
    """Betti numbers from a labeled LCM lattice: the entry at (i, m) is the
    rank of reduced homology in dimension i-2 of the open interval below m."""
    if L.labels is None:
        raise MissingLabels("lattice must carry monomial labels")
    multigraded = {(0, L.labels[L.bottom]): 1}
    for m in range(L.n):
        if m == L.bottom:
            continue
        for d, r in _interval_ranks(L, m, field).items():
            if r:
                multigraded[(d + 2, L.labels[m])] = r
    return BettiTable(multigraded, field)


def _vanishing_bounds(L: FiniteLattice) -> list:
    """b[m] = min(atoms of [bottom, m], lower covers of m, chain rank of m):
    the Betti entry at (i, m) is 0 for every i > b[m], and b is 0 at the
    bottom.

    The order complex of the open interval (bottom, m) has dimension
    rank - 2.  By the crosscut theorem (Bjorner, Topological methods,
    Handbook of Combinatorics, 1995) the interval has the homology of the
    crosscut complex on its a atoms, which is a full simplex, and so
    acyclic, or has faces of at most a - 1 atoms; the same holds for the
    coatoms, the lower covers of m."""
    atom_mask = L.upper_cover_masks[L.bottom]
    return [
        min((atom_mask & below).bit_count(), lower.bit_count(), rank)
        for below, lower, rank in zip(L.below, L.lower_cover_masks, L.chain_ranks)
    ]


def _pd_visit(L: FiniteLattice, field: FieldSpec | None):
    """(pd, ranks of the top interval) by the visit of :func:`lattice_pd`;
    the ranks are None when the visit stopped before the top."""
    if not L.has_labels:
        raise MissingLabels("lattice must carry monomial labels")
    bounds = _vanishing_bounds(L)
    pd, top = 0, None
    for m in sorted(range(L.n), key=bounds.__getitem__, reverse=True):
        if bounds[m] <= pd:
            break
        ranks = _interval_ranks(L, m, field)
        if m == L.top:
            top = ranks
        pd = max([pd] + [d + 2 for d, r in ranks.items() if r])
    return pd, top


def lattice_pd(L: FiniteLattice, field: FieldSpec | None = None) -> int:
    """Projective dimension of S/I from its labeled LCM lattice; equal to
    ``lattice_betti_table(L, field).pd``.

    The elements are visited in decreasing vanishing bound (see
    ``_vanishing_bounds``), each interval computed as the table computes it,
    and the visit stops at the first element whose bound cannot exceed the
    pd found so far: none of the intervals left can raise it."""
    return _pd_visit(L, field)[0]


def betti_table(ideal: MonomialIdeal, field: FieldSpec | None = None) -> BettiTable:
    return lattice_betti_table(lcm_lattice(ideal), field)


def projective_dimension(ideal: MonomialIdeal, field: FieldSpec | None = None) -> int:
    """pd(S/I), by :func:`lattice_pd` on the LCM lattice: only the intervals
    whose vanishing bound exceeds the pd found so far are computed, so the
    result is the Betti table's pd without the rest of the table."""
    return lattice_pd(lcm_lattice(ideal), field)


def is_cohen_macaulay(ideal: MonomialIdeal, field: FieldSpec | None = None) -> bool:
    """Whether pd(S/I), from :func:`projective_dimension`, equals the height
    of I."""
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
    ideal: MonomialIdeal, L: FiniteLattice, pd: int
) -> BooleanEquivalence:
    """The four equivalent faces of a Boolean LCM lattice, each computed by
    its own route, from the ideal, its LCM lattice and pd(S/I) (for
    instance ``lattice_pd(L)``)."""
    return BooleanEquivalence(
        lattice_is_boolean=is_boolean(L)[0],
        unique_variable_power=unique_variable_power_criterion(ideal),
        taylor_minimal=taylor_is_minimal(ideal).is_minimal,
        pd_equals_ngens=pd == ideal.ngens,
    )


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
    """Projective dimension, from :func:`lattice_pd`, against the lattice
    height h, with the implications that tie them: geometric or LSM+coatomic
    forces equality, and equality forces strong complementation.

    Equality is also decided by a second route.  A nonzero Betti entry at
    (h, m) needs a chain of length h below m, so m is the top: pd = h
    exactly when the open interval (bottom, top) has nonzero reduced
    homology in dimension h - 2.  That group is read off the top interval's
    ranks, which the pd visit has computed unless it stopped before the top;
    only then is the top interval computed here.  A broken implication or a
    disagreement of the two routes raises ``ContractViolation``."""
    L = lcm_lattice(ideal)
    pd, top_ranks = _pd_visit(L, field)
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
    if top_ranks is None:
        top_ranks = _interval_ranks(L, L.top, field)
    top = top_ranks.get(ht - 2, 0)
    if rep.equal != (top > 0):
        raise ContractViolation(
            f"pd {pd}, height {ht}, but the top interval's reduced homology in "
            f"dimension {ht - 2} has rank {top} for {ideal}"
        )
    if geo and not rep.equal:
        raise ContractViolation(f"geometric lattice but pd < height for {ideal}")
    if lsm_co and not rep.equal:
        raise ContractViolation(f"LSM+coatomic lattice but pd < height for {ideal}")
    if rep.equal and not strong:
        raise ContractViolation(
            f"pd == height but lattice not strongly complemented for {ideal}"
        )
    return rep
