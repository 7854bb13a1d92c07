"""Well-typed but out-of-range input to the public builders fails with an
``LcmLatError`` and nothing else."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlat.errors import LcmLatError
from lcmlat.fields import FieldSpec
from lcmlat.formats import parse_ideal
from lcmlat.graphs import graph_from_mask
from lcmlat.homology import SimplicialComplexData, boundary_matrix
from lcmlat.ideals import Monomial, MonomialIdeal, minimalize
from lcmlat.lattice import MAX_ELEMENTS, FiniteLattice, lattice_from_covers

from complexes import complex_from_facets

small = st.integers(-3, 9)
monomials = st.lists(st.integers(0, 3), max_size=4).map(lambda e: Monomial(tuple(e)))
# numerals for the parser: small values, the capacity, and far past it
numerals = small.map(str) | st.sampled_from(
    [str(MAX_ELEMENTS), str(MAX_ELEMENTS + 1), "9" * 4400]
)
factors = st.tuples(numerals, st.none() | numerals).map(
    lambda f: f"x{f[0]}" if f[1] is None else f"x{f[0]}^{f[1]}"
)
text_ideals = st.lists(st.lists(factors, min_size=1, max_size=3).map("*".join), max_size=4)
json_ideals = st.tuples(
    numerals, st.lists(st.lists(numerals, max_size=4).map(",".join), max_size=3)
).map(lambda t: '{"nvars": %s, "gens": [%s]}' % (t[0], ", ".join(f"[{g}]" for g in t[1])))
# vertex masks, some negative or past the vertices, and index tuples, which
# are not masks
faces = st.integers(-1, 1 << 5) | st.lists(st.integers(0, 4), max_size=3).map(tuple)
faces_by_dim = st.dictionaries(
    st.integers(-2, 4), st.lists(faces, max_size=6), max_size=4
)
vertex_tuples = st.integers(0, 4).map(lambda n: tuple(range(n)))
# subset-closed complexes on up to 5 vertices
complexes = st.lists(
    st.lists(st.integers(0, 4), max_size=5), max_size=5
).map(lambda facets: complex_from_facets(range(5), facets))


def validate_complex(vertices, faces_by_dim):
    SimplicialComplexData(vertices, faces_by_dim).validate()


CALLS = st.one_of(
    st.tuples(st.just(Monomial), st.lists(st.integers(), max_size=4).map(tuple)),
    st.tuples(st.just(MonomialIdeal), small, st.lists(monomials, max_size=4).map(tuple)),
    st.tuples(st.just(minimalize), st.lists(monomials, max_size=4), st.none() | small),
    st.tuples(
        st.just(lattice_from_covers), small, st.lists(st.tuples(small, small), max_size=8)
    ),
    st.tuples(
        st.just(FiniteLattice.from_below_masks), st.lists(st.integers(-2, 1 << 9), max_size=8)
    ),
    st.tuples(st.just(graph_from_mask), small, st.integers(-2, 1 << 40)),
    st.tuples(st.just(FieldSpec), st.integers(-10, 10**30)),
    st.tuples(
        st.just(parse_ideal),
        text_ideals.map("\n".join) | json_ideals | st.text(max_size=20),
    ),
    st.tuples(st.just(validate_complex), vertex_tuples, faces_by_dim),
    st.tuples(st.just(boundary_matrix), complexes, small),
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(CALLS)
def test_only_lcmlat_errors_escape_the_builders(call):
    builder, *args = call
    try:
        builder(*args)
    except LcmLatError:
        pass
