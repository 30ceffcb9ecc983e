"""Exact integer and modular arithmetic.

Everything runs on Python integers, so intermediates never wrap; the
checked bound on modulus products only guards against plans that would be
unusably large downstream.  All functions are pure and deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import NotCoprimeError

# Product moduli are kept within a 128-bit budget; larger plans would defeat
# float64 phase resolution long before arithmetic became an issue.
_MAX_PRODUCT = 1 << 127


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m).  Requires gcd(a, m) = 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(int(a % m), -1, int(m))  # numpy integers too
    except ValueError:
        raise NotCoprimeError(f"{a} has no inverse mod {m} (gcd={math.gcd(a, m)})") from None


@dataclass(frozen=True)
class ModTriple:
    """Three pairwise coprime moduli with precomputed Garner inverses.

    gamma12 = m1^-1 mod m2 and gamma23 = (m1*m2)^-1 mod m3 are the only
    inverses mixed-radix reconstruction needs.
    """

    m1: int
    m2: int
    m3: int
    gamma12: int
    gamma23: int
    M: int

    @classmethod
    @functools.lru_cache(maxsize=256, typed=True)
    def create(cls, m1: int, m2: int, m3: int) -> "ModTriple":
        """The triple of moduli m1, m2, m3; a pure function of them, cached."""
        for m in (m1, m2, m3):
            if m < 2:
                raise ValueError(f"modulus must be >= 2, got {m}")
        for a, b in ((m1, m2), (m1, m3), (m2, m3)):
            if math.gcd(a, b) != 1:
                raise NotCoprimeError(f"moduli {a} and {b} are not coprime")
        product = m1 * m2 * m3
        if product > _MAX_PRODUCT:
            raise ValueError(f"modulus product {product} exceeds the 128-bit budget")
        return cls(
            m1=m1,
            m2=m2,
            m3=m3,
            gamma12=mod_inverse(m1, m2),
            gamma23=mod_inverse(m1 * m2, m3),
            M=product,
        )

    @property
    def moduli(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.m3)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (intended for n up to ~1e12)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def coprime_divisor_capacity(n: int) -> int:
    """Number of distinct prime factors of n.

    This is the maximum count of pairwise coprime nontrivial moduli that a
    grid of length n can be decimated into exactly.
    """
    if n < 2:
        raise ValueError(f"capacity undefined for {n}")
    return len(factorize(n))
