"""Coefficient fields for homology: exact rationals or a prime field GF(p).

This tiny module is the only code shared between the interval (crosscut)
homology route and the Taylor-complex oracle; everything else about the two
Betti computations is kept on separate code paths on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameter

#: Default prime for fast exact ranks; large enough that boundary-matrix
#: ranks of desk-scale complexes essentially never drop by accident.
DEFAULT_PRIME = 32003


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Characteristic 0 means exact rational arithmetic, else a prime p."""

    characteristic: int = DEFAULT_PRIME

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not is_prime(c):
            raise BadParameter(f"field characteristic must be 0 or prime, got {c}")

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"
