"""Truncated U-power series over GF(2) (`F2Series`, one int bitmask) and over
the rational-exponent group ring (`GroupRingSeries`).

The three series that drive the surgery arguments:

  * tau_series        -- 1 at every triangular exponent k(k+1)/2
  * surgery_series    -- GF(2) sum of U^((2n'-p)^2 - (2n-p)^2)/(8p) over
                         n' = n (mod p); vanishes for n = 0, constant term 1
                         for 1 <= n <= p-1
  * twisted_genus1_series -- coefficient mu(2n+1) + mu(-2n-1) at U^(n(n+1)/2)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from ..errors import DomainError


@dataclass(frozen=True)
class GroupRingElem:
    """GF(2) combination of formal exponentials mu(x), x an exact rational."""

    support: frozenset[Fraction]

    @classmethod
    def zero(cls) -> "GroupRingElem":
        return cls(frozenset())

    @classmethod
    def mu(cls, x: int | Fraction) -> "GroupRingElem":
        return cls(frozenset({Fraction(x)}))

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(self.support ^ other.support)

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        acc: set[Fraction] = set()
        for a in self.support:
            for b in other.support:
                acc ^= {a + b}
        return GroupRingElem(frozenset(acc))

    def __bool__(self) -> bool:
        return bool(self.support)

    def is_unit(self) -> bool:
        """Unit of the group ring itself (a single exponential)."""
        return len(self.support) == 1

    def __str__(self) -> str:
        if not self.support:
            return "0"
        return " + ".join(f"mu({x})" for x in sorted(self.support))


@dataclass(frozen=True)
class F2Series:
    """GF(2) power series in U truncated at order N: bit k of `bits` is the
    coefficient of U^k, for k <= N."""

    truncation: int
    bits: int

    def __post_init__(self) -> None:
        if self.truncation < 0:
            raise DomainError("truncation order must be >= 0")
        if self.bits < 0 or self.bits >> (self.truncation + 1):
            raise DomainError("coefficient beyond the truncation order")

    def coeff(self, k: int) -> int:
        return (self.bits >> k) & 1 if k >= 0 else 0

    def __add__(self, other: "F2Series") -> "F2Series":
        self._match(other)
        return F2Series(self.truncation, self.bits ^ other.bits)

    def __mul__(self, other: "F2Series") -> "F2Series":
        """Carry-less product, cut back to the truncation order."""
        self._match(other)
        acc = 0
        rest = self.bits
        while rest:
            low = rest & -rest
            acc ^= other.bits << (low.bit_length() - 1)
            rest ^= low
        return F2Series(self.truncation, acc & ((1 << (self.truncation + 1)) - 1))

    def _match(self, other: object) -> None:
        if not isinstance(other, F2Series) or self.truncation != other.truncation:
            raise DomainError("series live in different truncated rings")

    def is_invertible(self) -> bool:
        """Invertible in the truncated ring exactly when the constant term is 1."""
        return bool(self.bits & 1)

    def inverse(self) -> "F2Series":
        """Multiplicative inverse up to the truncation order."""
        if not self.is_invertible():
            raise DomainError("constant coefficient is not invertible")
        # add U^k to the inverse whenever the product so far has a U^k term
        inv, prod = 1, self.bits
        for k in range(1, self.truncation + 1):
            if (prod >> k) & 1:
                inv |= 1 << k
                prod ^= self.bits << k
        return F2Series(self.truncation, inv)

    def __str__(self) -> str:
        # the coefficient bytes, read once from the low end, nonzero ones
        # only: about N/8 bytes are held, where a binary rendering holds two
        # N-character strings and a shift per exponent is quadratic in N
        data = self.bits.to_bytes((self.bits.bit_length() + 7) // 8, "little")
        terms = []
        for match in re.finditer(rb"[^\x00]", data):
            byte, base = match.group()[0], 8 * match.start()
            for b in range(8):
                if byte >> b & 1:
                    k = base + b
                    terms.append("1" if k == 0 else ("U" if k == 1 else f"U^{k}"))
        return " + ".join(terms) or "0"


@dataclass(frozen=True)
class GroupRingSeries:
    """Power series in U truncated at order N with group-ring coefficients."""

    truncation: int
    coeffs: tuple[tuple[int, GroupRingElem], ...]  # sorted (exponent, nonzero coeff)

    def coeff(self, k: int) -> GroupRingElem:
        return dict(self.coeffs).get(k, GroupRingElem.zero())

    def is_invertible(self) -> bool:
        """Invertibility in the truncated ring: the constant coefficient must
        be invertible in the field of fractions of the group ring, i.e. nonzero."""
        return bool(self.coeff(0))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.coeffs:
            body = str(c)
            head = body if k == 0 else (f"U*({body})" if k == 1 else f"U^{k}*({body})")
            parts.append(head)
        return " + ".join(parts)


def tau_series(truncation: int) -> F2Series:
    """Coefficient 1 exactly at the triangular exponents k(k+1)/2 <= N."""
    if truncation < 0:
        raise DomainError("truncation order must be >= 0")
    bits = bytearray(truncation // 8 + 1)
    k = 0
    while k * (k + 1) // 2 <= truncation:
        e = k * (k + 1) // 2
        bits[e >> 3] |= 1 << (e & 7)
        k += 1
    return F2Series(truncation, int.from_bytes(bits, "little"))


def surgery_series(p: int, n: int, truncation: int) -> F2Series:
    """GF(2) sum of U^((2n'-p)^2 - (2n-p)^2) / (8p) over all n' = n (mod p)
    with exponent in [0, N].

    With n' = n + kp the exponent is k n + p k(k-1)/2, an integer >= 0 for
    every integer k; it is nondecreasing in k >= 0 and increasing in -k >= 1,
    so each direction stops at its first exponent above N.  Like
    `tau_series`, it sets its bits in a bytearray and makes the integer
    once: one big-integer XOR per term would cost about N^1.5.
    """
    if p < 1:
        raise DomainError("p must be positive")
    if not 0 <= n <= p - 1:
        raise DomainError(f"n={n} outside [0, {p - 1}]")
    if truncation < 0:
        raise DomainError("truncation order must be >= 0")
    bits = bytearray(truncation // 8 + 1)
    for ks in (count(0), count(-1, -1)):
        for k in ks:
            e = k * n + p * k * (k - 1) // 2
            if e > truncation:
                break
            bits[e >> 3] ^= 1 << (e & 7)
    return F2Series(truncation, int.from_bytes(bits, "little"))


def twisted_genus1_series(truncation: int) -> GroupRingSeries:
    """Group-ring series: coefficient mu(2n+1) + mu(-2n-1) at U^(n(n+1)/2)."""
    if truncation < 0:
        raise DomainError("truncation order must be >= 0")
    mu = GroupRingElem.mu
    coeffs = []
    n = 0
    while n * (n + 1) // 2 <= truncation:
        coeffs.append((n * (n + 1) // 2, mu(2 * n + 1) + mu(-2 * n - 1)))
        n += 1
    return GroupRingSeries(truncation, tuple(coeffs))
