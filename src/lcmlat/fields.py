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

#: The first 13 primes, the Miller-Rabin bases.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: psi_13: the least odd composite that passes the Miller-Rabin round to each
#: of PRIME_BASES (OEIS A014233; Sorenson & Webster, *Strong pseudoprimes to
#: twelve prime bases*), so those bases are exact below it.
PSI_13 = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the Miller-Rabin round to base a."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on PRIME_BASES, exact for p < PSI_13; at
    or above PSI_13 it raises BadParameter instead of guessing."""
    if p >= PSI_13:
        raise BadParameter(
            f"cannot test {p} for primality: only numbers below {PSI_13} are tested"
        )
    if p < 2:
        return False
    if p in PRIME_BASES:
        return True
    if any(p % a == 0 for a in PRIME_BASES):
        return False
    return all(_strong_probable_prime(p, a) for a in PRIME_BASES)


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
