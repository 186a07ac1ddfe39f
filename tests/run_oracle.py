"""Test oracles for run nodes: the plain Farey descent, and the expansion
of every run into the triangles it stands for.

`farey_descent` builds a slope certificate the way the builder did before
run nodes: from the target, each slope's two `farey_parents`, lower first,
down to the base, its lift or S3, one triangle per slope.  `expand_runs`
replaces each "triangle-run" node, x = y0 + k*y1 (numerators and
denominators added), by the k triangles through y0 + j*y1, 0 < j <= k, and
`check_triangles` confirms every surgery and Borromean triangle of a
certificate against `farey_parents` alone, as the checker did before run
nodes.
"""

from fractions import Fraction
from math import ceil

from lenslab import lspacecert
from lenslab.errors import DomainError
from lenslab.exactnum import INFINITY, farey_parents, format_slope, parse_slope
from lenslab.lspacecert import Certificate, check_certificate, sphere_axiom

S3_VIEW = ("lens", (1, 1))


def _surgery_view(knot, s):
    return S3_VIEW if s is INFINITY else ("surgery", (knot, s))


def _terms(s):
    return (1, 0) if s is INFINITY else (s.numerator, s.denominator)


def _lower_first(a, b):
    """The pair (slope, certificate) a, b with the lower slope first; 1/0 is the highest."""
    return (b, a) if a[0] is INFINITY or (b[0] is not INFINITY and a[0] > b[0]) else (a, b)


def _triangle(c0: Certificate, c1: Certificate, target) -> Certificate:
    """The triangle node on premises c0, c1, once |H1| adds up."""
    assert target.h1_order == c0.conclusion.h1_order + c1.conclusion.h1_order, target
    return Certificate(target, "triangle", (c0, c1))


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def partial_quotients(x: Fraction) -> list[int]:
    """a_0, a_1, ... of x's continued fraction, by Euclid."""
    p, q, quotients = x.numerator, x.denominator, []
    while q:
        quotients.append(p // q)
        p, q = q, p % q
    return quotients


def farey_descent(base: Certificate, target: Fraction) -> Certificate:
    """propagate_slope by the plain Farey descent, or its DomainError."""
    knot = base.conclusion.param("knot")
    r = parse_slope(base.conclusion.param("slope"))
    if target < r:
        raise DomainError(f"target {target} below the base slope {r}")

    def fact(s):
        return lspacecert._fact_of(("surgery", (knot, s)))

    known = {INFINITY: sphere_axiom(), r: base}
    lifted = r
    if r.denominator != 1:
        lifted = Fraction(ceil(r))
        known[lifted] = Certificate(fact(lifted), "rational-to-integer-lift", (base,))
    stack = [target]
    while stack:
        s = stack[-1]
        if s in known:
            stack.pop()
            continue
        if s.denominator == 1 and s < lifted:
            raise DomainError(
                f"the Farey descent of {format_slope(target)} reaches "
                f"{format_slope(s)}, below the base slope {format_slope(r)}"
            )
        high, low = farey_parents(s)
        missing = [x for x in (high, low) if x not in known]
        if missing:
            stack.extend(missing)  # the lower parent on top, derived first
            continue
        stack.pop()
        known[s] = _triangle(known[low], known[high], fact(s))
    return known[target]


def run_parts(node: Certificate):
    """(view maker, y0, y1, k) of a "triangle-run" node: the slope each premise
    has at the coordinate the run moves, and the run's length."""
    kind, data = lspacecert._view(node.conclusion)
    views = [lspacecert._view(p.conclusion) for p in node.premises]
    if kind == "surgery":
        knot, x = data
        slopes = [INFINITY if v == S3_VIEW else v[1][1] for v in views]
        make = lambda y: _surgery_view(knot, y)  # noqa: E731
    else:
        for idx in range(3):
            slopes = [_borromean_slope(data, idx, v) for v in views]
            if None not in slopes:
                break
        x = data[idx]
        make = lambda y, idx=idx: lspacecert._borromean_view(data, idx, y)  # noqa: E731
    (p, _), (p0, _), (p1, _) = _terms(x), _terms(slopes[0]), _terms(slopes[1])
    return make, slopes[0], slopes[1], (p - p0) // p1


def _borromean_slope(xs, idx, view):
    if view[0] == "borromean" and all(view[1][i] == xs[i] for i in range(3) if i != idx):
        return view[1][idx]
    return INFINITY if view == lspacecert._borromean_view(xs, idx, INFINITY) else None


def expand_runs(cert: Certificate) -> Certificate:
    """The certificate with every run node replaced by its triangles.  Equal
    conclusions stay one node."""
    built: dict[int, Certificate] = {}
    by_fact: dict = {}
    for node in lspacecert._topological(cert):
        premises = tuple(built[id(p)] for p in node.premises)
        if node.rule != "triangle-run":
            new = Certificate(node.conclusion, node.rule, premises)
        else:
            make, y0, y1, k = run_parts(node)
            (p0, q0), (p1, q1) = _terms(y0), _terms(y1)
            prev = (y0, premises[0])
            for j in range(1, k + 1):
                z = Fraction(p0 + j * p1, q0 + j * q1)
                fact = lspacecert._fact_of(make(z))
                if fact not in by_fact:
                    low, high = _lower_first(prev, (y1, premises[1]))
                    by_fact[fact] = _triangle(low[1], high[1], fact)
                prev = (z, by_fact[fact])
            new = prev[1]
        by_fact.setdefault(new.conclusion, new)
        built[id(node)] = by_fact[new.conclusion]
    return built[id(cert)]


def _todays_moves(kind, data):
    """The premise views the checker accepted for a surgery or Borromean
    triangle before run nodes: the Farey parents, lower first, of the slope,
    or of each fractional coordinate, or, when all three are integers, of
    each coordinate above 1."""
    if kind == "surgery":
        knot, s = data
        high, low = farey_parents(s)
        return [(_surgery_view(knot, low), _surgery_view(knot, high))]
    fractional = [i for i, x in enumerate(data) if x.denominator != 1]
    moves = []
    for idx in fractional or [i for i, x in enumerate(data) if x > 1]:
        high, low = farey_parents(data[idx])
        moves.append(tuple(lspacecert._borromean_view(data, idx, y) for y in (low, high)))
    return moves


def check_triangles(cert: Certificate) -> int:
    """check_certificate, after confirming every surgery and Borromean
    triangle by its Farey parents; a run node fails."""
    for node in lspacecert._topological(cert):
        assert node.rule != "triangle-run", node.conclusion.descriptor
        kind, data = lspacecert._view(node.conclusion)
        if node.rule == "triangle" and kind in ("surgery", "borromean"):
            premises = tuple(lspacecert._view(p.conclusion) for p in node.premises)
            assert premises in _todays_moves(kind, data), node.conclusion.descriptor
    return check_certificate(cert)
