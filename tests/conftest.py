from __future__ import annotations

import pytest

from lcmlat.verify import fixture_lattices


@pytest.fixture(scope="session")
def lattice_pool():
    """Constructed lattices of assorted shapes, used by the invariant tests."""
    return fixture_lattices()
