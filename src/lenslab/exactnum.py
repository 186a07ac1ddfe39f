"""Exact slope arithmetic: rationals, negative continued fractions, Farey parents.

Slopes are `fractions.Fraction` values at every public interface; nothing
in this package touches floating point.  The slope infinity (the 1/0
filling) is a separate sentinel so it can never leak into ordinary
arithmetic by accident.  `slope_pair` and `slope_text` are the one slope
text grammar, "p/q" or "p" for the reduced pair (p, q), q > 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError


class _Infinity:
    """The 1/0 slope.  Only Farey-related code produces or consumes it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "1/0"


INFINITY = _Infinity()

Slope = Fraction | _Infinity


def rational_reduce(num: int, den: int) -> Slope:
    """Reduced fraction with positive denominator; (n, 0) with n != 0 is 1/0."""
    if num == 0 and den == 0:
        raise DomainError("0/0 is not a fraction")
    if den == 0:
        return INFINITY
    return Fraction(num, den)


def slope_text(pair: tuple[int, int]) -> str:
    """The text of p/q: "p" when q = 1, else "p/q", so 1/0 is "1/0"."""
    return str(pair[0]) if pair[1] == 1 else f"{pair[0]}/{pair[1]}"


def slope_pair(text: str) -> tuple[int, int]:
    """Read "p/q" or "p" into (p, q), reduced, with q > 0."""
    text = text.strip()
    try:
        num, den = map(int, text.split("/")) if "/" in text else (int(text), 1)
        g = gcd(num, den) if den > 0 else -gcd(num, den) if den else 0  # q = 0 divides by 0
        return num // g, den // g
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational slope: {text!r}") from exc


def format_slope(r: Slope) -> str:
    """Canonical rendering: "num/den", den omitted when 1, sign on the numerator."""
    return slope_text((1, 0) if r is INFINITY else (r.numerator, r.denominator))


def parse_slope(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact finite rational."""
    return Fraction(*slope_pair(text))


def hj_expand(r: Fraction) -> list[int]:
    """Expansion r = a_1 - 1/(a_2 - 1/(... - 1/a_n)) with a_1 >= 1, a_i >= 2.

    Ceiling descent: a_1 = ceil(r), recurse on 1/(a_1 - r).
    """
    if isinstance(r, _Infinity) or not isinstance(r, Fraction):
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


def farey_parents(r: Fraction) -> tuple[Slope, Slope]:
    """Stern-Brocot parents (r0, r1) of r > 0: nonnegative entries,
    p0*q1 - p1*q0 = 1, and mediant (p0+p1)/(q0+q1) = r.

    For integers the high parent is 1/0; callers that cannot accept the
    infinite slope must check for it.
    """
    if isinstance(r, _Infinity):
        raise DomainError("1/0 has no Farey parents here")
    p, q = r.numerator, r.denominator
    if p <= 0:
        raise DomainError(f"Farey parents need a positive slope, got {r}")
    if q == 1:
        return INFINITY, Fraction(p - 1)
    # Solve p0*q = 1 (mod p) with 1 <= p0 <= p, then q0 from the mediant.
    p0 = pow(q, -1, p) if p > 1 else 1
    q0 = (p0 * q - 1) // p
    r0 = rational_reduce(p0, q0)
    r1 = Fraction(p - p0, q - q0)
    return r0, r1
