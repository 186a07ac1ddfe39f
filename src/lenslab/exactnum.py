"""Exact slope arithmetic: slope text, negative continued fractions, Farey parents.

A slope p/q is the reduced pair (p, q), q >= 0, with 1/0 as (1, 0);
nothing in this package touches floating point, and this module holds no
`Fraction`: expansions take and give pairs.  `slope_pair`, `slope_text` and
`ratio_text` (n/d in lowest terms) are the one slope text grammar, "p/q" or "p".
"""

from __future__ import annotations

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
    """The text of n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return slope_text((n // g, d // g))


def _positive_pair(pair: Slope, needs: str) -> Slope:
    """The reduced pair p/q > 0, or a DomainError that begins with `needs`."""
    p, q = pair
    if p <= 0:
        raise DomainError(f"{needs} a positive slope, got {slope_text(pair)}")
    if q <= 0 or gcd(p, q) != 1:
        raise DomainError(f"{needs} a reduced pair (p, q), q > 0, got {pair}")
    return pair


def hj_expand(pair: Slope) -> list[int]:
    """Expansion p/q = a_1 - 1/(a_2 - 1/(... - 1/a_n)) with a_1 >= 1, a_i >= 2.

    Ceiling descent: a_1 = ceil(p/q), recurse on 1/(a_1 - p/q).
    """
    p, q = _positive_pair(pair, "expansion needs")
    terms: list[int] = []
    while True:
        a = -((-p) // q)  # ceil(p/q)
        terms.append(a)
        p, q = q, a * q - p  # residual 1/(a - p/q) = q/(aq - p)
        if q == 0:
            return terms


def hj_eval(terms: list[int]) -> Slope:
    """The nested fraction a_1 - 1/(a_2 - ...) as a reduced pair (p, q), q > 0.

    From the inside out, a - 1/(p/q) = (a p - q)/p; consecutive continuants
    are coprime, so the pair stays reduced.
    """
    if not terms:
        raise DomainError("empty expansion")
    p, q = terms[-1], 1
    for a in reversed(terms[:-1]):
        if p == 0:
            raise DomainError(f"malformed expansion {terms}: division by zero")
        p, q = a * p - q, p
    return (p, q) if q > 0 else (-p, -q)


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
    p, q = _positive_pair(pair, "Farey parents need")
    if q == 1:
        return (1, 0), (p - 1, 1)
    # Solve p0*q = 1 (mod p) with 1 <= p0 <= p, then q0 from the mediant;
    # p0*q - q0*p = 1 leaves both parents reduced.
    p0 = pow(q, -1, p) if p > 1 else 1
    q0 = (p0 * q - 1) // p
    return (p0, q0), (p - p0, q - q0)
