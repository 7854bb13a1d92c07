from __future__ import annotations

import random

import pytest

from lcmlat.formats import parse_ideal
from lcmlat.lattice import lattice_from_covers
from lcmlat.verify import fixture_lattices


@pytest.fixture(scope="session")
def lattice_pool():
    """Constructed lattices of assorted shapes, used by the invariant tests."""
    return fixture_lattices()


@pytest.fixture(scope="session")
def relabelled_pool(lattice_pool):
    """One seeded relabelling of each pool lattice, rebuilt from its permuted
    covers, so element ids need not follow the order."""
    rng = random.Random(29)
    out = {}
    for name, L in lattice_pool.items():
        perm = rng.sample(range(L.n), L.n)
        out[name] = lattice_from_covers(L.n, [(perm[i], perm[j]) for i, j in L.cover_pairs])
    return out


@pytest.fixture(scope="session")
def complemented_clutter():
    """(x1x2x3, x1x2x4, x1x3x5, x2x4x5): the smallest clutter on at most 5
    variables whose LCM lattice is complemented but not strongly
    complemented.  No connected graph on 6 vertices separates the two
    notions.  It stays out of ``verify.fixture_lattices``, which every pool
    case draws its instances from."""
    return parse_ideal("x1*x2*x3\nx1*x2*x4\nx1*x3*x5\nx2*x4*x5\n")
