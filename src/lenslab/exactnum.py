"""Exact slope arithmetic: rationals, negative continued fractions, Farey parents.

A slope p/q is the reduced pair (p, q), q >= 0, with 1/0 as (1, 0);
nothing in this package touches floating point.  `slope_pair`, `slope_text`
and `ratio_text` (n/d in lowest terms) are the one slope text grammar, "p/q" or "p".
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError

Slope = tuple[int, int]  # p/q as (p, q), reduced, q >= 0; 1/0 is (1, 0)


def slope_text(pair: Slope) -> str:
    """The text of p/q: "p" when q = 1, else "p/q", so 1/0 is "1/0"."""
    return str(pair[0]) if pair[1] == 1 else f"{pair[0]}/{pair[1]}"


def slope_pair(text: str) -> Slope:
    """Read "p/q" or "p" into (p, q), reduced, with q > 0."""
    text = text.strip()
    try:
        num, den = map(int, text.split("/")) if "/" in text else (int(text), 1)
        g = gcd(num, den) if den > 0 else -gcd(num, den) if den else 0  # q = 0 divides by 0
        return num // g, den // g
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational slope: {text!r}") from exc


def ratio_text(n: int, d: int) -> str:
    """The text of n/d in lowest terms, for d > 0: format_slope(Fraction(n, d))."""
    g = gcd(n, d)
    return slope_text((n // g, d // g))


def format_slope(r: Fraction) -> str:
    """Canonical rendering: "num/den", den omitted when 1, sign on the numerator."""
    return slope_text((r.numerator, r.denominator))


def parse_slope(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact finite rational."""
    return Fraction(*slope_pair(text))


def hj_expand(r: Fraction) -> list[int]:
    """Expansion r = a_1 - 1/(a_2 - 1/(... - 1/a_n)) with a_1 >= 1, a_i >= 2.

    Ceiling descent: a_1 = ceil(r), recurse on 1/(a_1 - r).
    """
    if not isinstance(r, Fraction):
        raise DomainError("expansion needs a finite rational")
    if r <= 0:
        raise DomainError(f"expansion needs a positive slope, got {r}")
    p, q = r.numerator, r.denominator
    terms: list[int] = []
    while True:
        a = -((-p) // q)  # ceil(p/q)
        terms.append(a)
        p, q = q, a * q - p  # residual 1/(a - p/q) = q/(aq - p)
        if q == 0:
            return terms


def hj_eval(terms: list[int]) -> Fraction:
    """Exact value of the nested fraction a_1 - 1/(a_2 - ...)."""
    if not terms:
        raise DomainError("empty expansion")
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        if value == 0:
            raise DomainError(f"malformed expansion {terms}: division by zero")
        value = a - 1 / value
    return value


def is_normalized_hj(terms: list[int]) -> bool:
    return bool(terms) and terms[0] >= 1 and all(a >= 2 for a in terms[1:])


def farey_parents(pair: Slope) -> tuple[Slope, Slope]:
    """Stern-Brocot parents ((p0, q0), (p1, q1)) of the reduced p/q > 0:
    nonnegative entries, p0*q1 - p1*q0 = 1, and mediant (p0+p1, q0+q1) = (p, q).

    For integers the high parent is 1/0, (1, 0); callers that cannot accept
    the infinite slope must check for it.
    """
    if pair == (1, 0):
        raise DomainError("1/0 has no Farey parents here")
    p, q = pair
    if p <= 0:
        raise DomainError(f"Farey parents need a positive slope, got {slope_text(pair)}")
    if q < 0 or gcd(p, q) != 1:
        raise DomainError(f"Farey parents need a reduced pair (p, q), q > 0, got {pair}")
    if q == 1:
        return (1, 0), (p - 1, 1)
    # Solve p0*q = 1 (mod p) with 1 <= p0 <= p, then q0 from the mediant;
    # p0*q - q0*p = 1 leaves both parents reduced.
    p0 = pow(q, -1, p) if p > 1 else 1
    q0 = (p0 * q - 1) // p
    return (p0, q0), (p - p0, q - q0)
