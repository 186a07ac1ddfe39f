"""Lens spaces, their Spin^c labels, and the recursive d-invariants.

Every d-value is held as the integer N(p, q, i) = 4p * d(L(p, q), i):

    N(1, *, 0)   = 0
    N(p, q, i)   = (pq - (2i + 1 - p - q)^2 - p * N(q, p mod q, i mod q)) / q

which is the d-recursion

    d(p, q, i)   = (pq - (2i + 1 - p - q)^2) / (4pq) - d(q, p mod q, i mod q)

multiplied through by 4p.  A table of L(p, q) is built from the table of
L(q, p mod q) in one pass over its p labels; this table is the package's
only implementation of the recursion, and one comparison checks that every
division by q is exact (see `_table`).

The finished table is also checked as a whole.  The d-values of L(p, q) sum
to -p * s(q, p), s the Dedekind sum, which is the Casson-Walker invariant of
L(p, q) (Rustamov, arXiv:math/0409294); with D(q, p) = 12p * s(q, p), an
integer, the scaled table must satisfy 3 * sum(N) = -p * D(q, p).
Reciprocity computes D in O(log p) integer steps (Rademacher-Grosswald,
*Dedekind Sums*, 1972; see `_dedekind12`), so the check costs one sum over
the table.

`d_rec` (one label) and `d_table` (every label) are `Fraction(N, 4p)` views
of the checked table, so `d_rec` builds a whole table per call, and they
are the sign primitive of the package: every consumer states its own sign
usage relative to them rather than re-deriving orientation conventions.
They are the module's only `Fraction`s.  The L(p, 1) closed forms are on
the same 4p grid: `froy_closed_form(p, i)` is -N(p, 1, i), and
`grading_diff(p, n, n')` is froy_closed_form(p, n) - froy_closed_form(p, n')
wherever both are defined.
Conjugation i -> q - 1 - i (mod p) fixes the table and reverses labels
0..q-1 and labels q..p-1, which `d_values` uses to map one value per
conjugate pair.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import TypeVar

from .errors import DomainError, InvariantError, NotALensSpaceError

T = TypeVar("T")


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
        return LensSpace(self.p, min(self.q, pow(self.q, -1, self.p)))


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

    Label i pairs s_i = 2i + 1 - p - q (a step-2 range) with the numerator
    row m_j = pq - p * N(q, p mod q, j) at j = i mod q, so

        N(p, q, i) = (m_(i mod q) - s_i^2) // q.

    Each numerator is q N_i + r_i with the floor remainder 0 <= r_i < q, so
    sum(r) = (sum of numerators) - q * sum(N) is 0 exactly when every r_i
    is, and the numerators' sum has the closed form

        (p // q) * sum(m) + sum(m[:p % q]) - sum_i s_i^2,
        sum_i s_i^2 = p a^2 + 2a p(p - 1) + 2p(p - 1)(2p - 1)/3,  a = s_0,

    so one comparison checks every division.
    """
    if p == 1:
        return (0,)
    return _row(p, q, _table(q, p % q))


def _row(p: int, q: int, below: tuple[int, ...]) -> tuple[int, ...]:
    """The table of L(p, q) from `below`, the table of L(q, p mod q), checked
    as `_table` states; a failure names the first label q does not divide."""
    rows = [p * q - p * n for n in below]
    k, r = divmod(p, q)
    quots = [(m - s * s) // q for s, m in zip(range(1 - p - q, p - q, 2), rows * (k + 1))]
    a = 1 - p - q
    squares = p * a * a + 2 * a * p * (p - 1) + 2 * (p - 1) * p * (2 * p - 1) // 3
    if q * sum(quots) != k * sum(rows) + sum(rows[:r]) - squares:
        i = next(
            i for i, s in enumerate(range(1 - p - q, p - q, 2)) if (rows[i % q] - s * s) % q
        )
        raise InvariantError(f"4p * d(L({p},{q}), {i}) is not an integer")
    return tuple(quots)


def _dedekind12(a: int, b: int) -> int:
    """D(a, b) = 12b * s(a, b) for coprime a and b >= 1, s the Dedekind sum.

    Reciprocity, a * D(a, b) + b * D(b mod a, a) = a^2 + b^2 + 1 - 3ab,
    walks the Euclid chain of (a mod b, b) down to D(1, b) = (b - 1)(b - 2);
    the values are then solved back up the chain, so nothing recurses.
    """
    a %= b
    chain = []
    while a > 1:
        chain.append((a, b))
        a, b = b % a, a
    d = (b - 1) * (b - 2)  # D(1, b), and D(0, 1) = 0
    for a, b in reversed(chain):
        d = (a * a + b * b + 1 - 3 * a * b - b * d) // a
    return d


def scaled_d_table(space: LensSpace) -> tuple[int, ...]:
    """N(p, q, i) = 4p * d(L(p, q), i) for every label i, conjugation-checked,
    then checked against the Casson-Walker sum 3 * sum(N) = -p * D(q, p)."""
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
    total, walker = 3 * sum(values), -space.p * _dedekind12(space.q, space.p)
    if total != walker:
        raise InvariantError(
            f"d-invariant sum broken for {space}: "
            f"3 * sum(4p*d) = {total} but -p * D(q,p) = {walker}"
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


def d_values(space: LensSpace, f: Callable[[int, int], T]) -> list[T]:
    """f(N, 4p) for the scaled d-value N of every label, in label order, with
    f called once per conjugate pair.

    `scaled_d_table` has checked that conjugation reverses labels 0..q-1 and
    labels q..p-1, so each block is f of its first half followed by that half
    mirrored: at most p // 2 + 1 calls of f.
    """
    scale = 4 * space.p
    scaled = scaled_d_table(space)
    values: list[T] = []
    for block in (scaled[: space.q], scaled[space.q :]):
        half = list(map(f, block[: (len(block) + 1) // 2], repeat(scale)))
        values += half
        values += half[: len(block) // 2][::-1]
    return values


def d_table(space: LensSpace) -> DInvariantTable:
    """All p d-values, as Fractions, of the checked scaled table (`d_values`)."""
    return DInvariantTable(space, tuple(d_values(space, Fraction)))


def froy_closed_form(p: int, n: int) -> int:
    """(2n - p)^2 - p, which is 4p * ((2n - p)^2 / (4p) - 1/4), for
    0 <= n <= p; at a label i it is -N(p, 1, i)."""
    if p < 1:
        raise DomainError(f"p must be positive, got {p}")
    if not 0 <= n <= p:
        raise DomainError(f"n={n} outside [0, {p}]")
    return (2 * n - p) ** 2 - p


def grading_diff(p: int, n: int, n2: int) -> int:
    """(2n - p)^2 - (2n' - p)^2, the grading difference of n and n' scaled
    by 4p; antisymmetric in (n, n')."""
    if p < 1:
        raise DomainError(f"p must be positive, got {p}")
    return (2 * n - p) ** 2 - (2 * n2 - p) ** 2
