from __future__ import annotations

import random

import pytest

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
