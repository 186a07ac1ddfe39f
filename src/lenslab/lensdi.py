"""Lens spaces, their Spin^c labels, and the recursive d-invariants.

Every d-value is held as the integer N(p, q, i) = 4p * d(L(p, q), i):

    N(1, *, 0)   = 0
    N(p, q, i)   = (pq - (2i + 1 - p - q)^2 - p * N(q, p mod q, i mod q)) / q

which is the d-recursion

    d(p, q, i)   = (pq - (2i + 1 - p - q)^2) / (4pq) - d(q, p mod q, i mod q)

multiplied through by 4p.  Every division by q is exact (checked), and a
table of L(p, q) is built from the table of L(q, p mod q); this table is
the package's only implementation of the recursion.  `d_rec` (one label)
and `d_table` (every label) are `Fraction(N, 4p)` views of the
conjugation-checked table, so `d_rec` builds a whole table per call, and
they are the sign primitive of the package: every consumer states its own
sign usage relative to them rather than re-deriving orientation conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, InvariantError, NotALensSpaceError


@dataclass(frozen=True, order=True)
class LensSpace:
    """L(p, q) with q normalized into [1, p] and gcd(p, q) = 1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise NotALensSpaceError(f"p must be positive, got {self.p}")
        if not 1 <= self.q <= self.p:
            raise NotALensSpaceError(f"q={self.q} not normalized for p={self.p}")
        if gcd(self.p, self.q) != 1:
            raise NotALensSpaceError(f"gcd({self.p}, {self.q}) != 1")

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"

    def canonical(self) -> "LensSpace":
        """Least-q representative of the homeomorphism class {q, q^-1 mod p}."""
        if self.p == 1:
            return LensSpace(1, 1)
        qinv = pow(self.q, -1, self.p)
        return LensSpace(self.p, min(self.q, qinv if qinv else self.p))


def lens_normalize(p: int, q: int) -> LensSpace:
    """Reduce q mod p into [1, p]; reject non-coprime pairs."""
    if p < 1:
        raise NotALensSpaceError(f"p must be positive, got {p}")
    q = q % p
    if q == 0:
        if p == 1:
            return LensSpace(1, 1)
        raise NotALensSpaceError(f"gcd({p}, 0) = {p} != 1")
    return LensSpace(p, q)


def conj_label(space: LensSpace, i: int) -> int:
    """Conjugation involution on labels: i -> p + q - 1 - i (mod p)."""
    return (space.p + space.q - 1 - i) % space.p


def _table(p: int, q: int) -> tuple[int, ...]:
    """N(p, q, i) for every label i; recursion depth is that of Euclid on (p, q).

    Row i pairs 2i + 1 - p - q (a step-2 range) with the sub-table entry
    i mod q (the sub-table repeated); every numerator is checked for
    divisibility by q before the division.
    """
    if p == 1:
        return (0,)
    below = _table(q, p % q)
    pq = p * q
    nums = [
        pq - s * s - p * n
        for s, n in zip(range(1 - p - q, p - q, 2), below * (p // q + 1))
    ]
    if any([n % q for n in nums]):
        i = next(i for i, n in enumerate(nums) if n % q)
        raise InvariantError(f"4p * d(L({p},{q}), {i}) is not an integer")
    return tuple([n // q for n in nums])


def scaled_d_table(space: LensSpace) -> tuple[int, ...]:
    """N(p, q, i) = 4p * d(L(p, q), i) for every label i, conjugation-checked."""
    values = _table(space.p, space.q)
    k = space.q - 1  # conj_label(space, i) = k - i (mod p), so conjugation reverses
    if values != values[k::-1] + values[:k:-1]:  # labels 0..k, then k+1..p-1
        for i, n in enumerate(values):
            j = conj_label(space, i)
            if n != values[j]:
                raise InvariantError(
                    f"conjugation symmetry broken for {space}: "
                    f"4p*d({i}) = {n} but 4p*d({j}) = {values[j]}"
                )
    return values


def d_rec(space: LensSpace, i: int) -> Fraction:
    """d(L(p, q), i) = N(p, q, i) / 4p, read from the checked scaled table."""
    if not 0 <= i < space.p:
        raise DomainError(f"label {i} outside Z/{space.p}")
    return Fraction(scaled_d_table(space)[i], 4 * space.p)


@dataclass(frozen=True)
class DInvariantTable:
    space: LensSpace
    values: tuple[Fraction, ...]

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i % self.space.p]


def d_table(space: LensSpace) -> DInvariantTable:
    """All p d-values, as Fractions, of the conjugation-checked scaled table."""
    scale = 4 * space.p
    scaled = scaled_d_table(space)
    # conjugation pairs the labels, so most values repeat: one Fraction each
    fractions = {n: Fraction(n, scale) for n in set(scaled)}
    return DInvariantTable(space, tuple(map(fractions.__getitem__, scaled)))


def froy_closed_form(p: int, n: int) -> Fraction:
    """(2n - p)^2 / (4p) - 1/4 for 0 <= n <= p."""
    if p < 1:
        raise DomainError(f"p must be positive, got {p}")
    if not 0 <= n <= p:
        raise DomainError(f"n={n} outside [0, {p}]")
    return Fraction((2 * n - p) ** 2, 4 * p) - Fraction(1, 4)


def grading_diff(p: int, n: int, n2: int) -> Fraction:
    """((2n - p)^2 - (2n' - p)^2) / (4p); antisymmetric in (n, n')."""
    if p < 1:
        raise DomainError(f"p must be positive, got {p}")
    return Fraction((2 * n - p) ** 2 - (2 * n2 - p) ** 2, 4 * p)
