"""Arithmetic in the prime field GF(p).

All matrix entries in this package are plain integers in ``range(p)``;
a :class:`PrimeField` instance carries the modulus and the field operations.
The default field is GF(2), but every formula keeps track of signs so that
odd primes work as well.
"""

from __future__ import annotations

from .errors import InputError, SizeCapExceeded


class NotPrimeError(InputError):
    """A modulus that is not prime (an input error, so also a ValueError)."""


# Miller-Rabin with the first 13 prime bases is exact below the smallest
# strong pseudoprime to all of them (Sorenson and Webster, 2015); the first
# 12, up to 37, already pass the composite 318665857834031151167461.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < MODULUS_BOUND."""
    if p < 2:
        return False
    for a in _BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z/pZ for a prime p, with elements stored as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int = 2):
        if p >= MODULUS_BOUND:
            raise SizeCapExceeded(f"modulus {p} is not below {MODULUS_BOUND}")
        if not _is_prime(p):
            raise NotPrimeError(f"modulus {p} is not prime")
        self.p = p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


GF2 = PrimeField(2)
