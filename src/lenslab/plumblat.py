"""Negative-definite linear plumbing lattices and characteristic-vector maxima.

The chain lattice of an expansion [a_1..a_n] has Gram matrix -a_i on the
diagonal and 1 on the off-diagonals.  For each of the p = |det| classes of
characteristic covectors we maximize K^T G^{-1} K exactly; the multiset of
(max + n) over all classes is an oracle for 4 * d_rec over all labels, and
`lattice_vs_recursion_check` reports whether the two multisets agree.

The maximization works in the coordinates x = G^{-1} K (scaled by p to stay
integral), where the quadratic form is local along the chain:

    x^T G x = -(a_1 - 1) x_1^2 - sum (x_i - x_{i+1})^2
              - sum_interior (a_i - 2) x_i^2 - (a_n - 1) x_n^2.

A representative search over x in x_0 + 2Z^n is then a dynamic program over
chain positions whose per-coordinate state space is bounded by the value of
a greedy incumbent.  Every arithmetic step is integer arithmetic.

One continuant recurrence serves the determinant, the definiteness check and
the adjugate.  With theta_k the leading principal minors of G (theta_0 = 1)
and phi_k those of the reversed chain, the adjugate has the closed form
adj[i][j] = adj[j][i] = (-1)^(i+j) theta_i phi_(n-1-j) for 0-based i <= j
(Usmani, "Inversion of a tridiagonal Jacobi matrix", 1994), and det = theta_n.
Its corner entry adj[n-1][0] is +-1, so the first basis vector e_1 always
generates the cyclic discriminant group: the classes are K_0 + 2c e_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import DomainError, InvariantError
from .exactnum import hj_eval, is_normalized_hj
from .lensdi import LensSpace, d_table


def _continuants(terms: tuple[int, ...]) -> list[int]:
    """Leading principal minors theta_0 = 1, theta_1, ..., theta_n of the chain's
    Gram matrix: theta_k = -a_k theta_(k-1) - theta_(k-2)."""
    theta = [0, 1]
    for a in terms:
        theta.append(-a * theta[-1] - theta[-2])
    return theta[1:]


@dataclass(frozen=True)
class Lattice:
    terms: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.terms)

    def gram(self) -> list[list[int]]:
        n = self.rank
        g = [[0] * n for _ in range(n)]
        for i, a in enumerate(self.terms):
            g[i][i] = -a
            if i + 1 < n:
                g[i][i + 1] = g[i + 1][i] = 1
        return g

    def determinant(self) -> int:
        return _continuants(self.terms)[-1]


@dataclass(frozen=True)
class CharClass:
    """A characteristic covector class, held by one representative vector."""

    lattice: Lattice
    rep: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rep) != self.lattice.rank:
            raise DomainError("representative length does not match lattice rank")
        for k, a in zip(self.rep, self.lattice.terms):
            if (k - a) % 2 != 0:
                raise DomainError(f"vector {self.rep} is not characteristic")


def lattice_from_hj(terms: list[int] | tuple[int, ...]) -> Lattice:
    """Chain lattice of a normalized expansion; |det| must equal the numerator."""
    terms = tuple(terms)
    if not is_normalized_hj(list(terms)):
        raise DomainError(f"not a normalized expansion: {terms}")
    theta = _continuants(terms)
    # leading principal minors must alternate in sign (negative definiteness)
    if any(t * (-1) ** k <= 0 for k, t in enumerate(theta)):
        raise DomainError(f"expansion {terms} gives an indefinite chain")
    p = hj_eval(list(terms)).numerator
    if abs(theta[-1]) != p:
        raise InvariantError(f"|det| = {abs(theta[-1])} != numerator {p} for {terms}")
    return Lattice(terms)


def _chain_adjugate(terms: tuple[int, ...]) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of the chain's Gram matrix, in closed form."""
    n = len(terms)
    theta = _continuants(terms)
    phi = _continuants(terms[::-1])
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = theta[i] * phi[n - 1 - j]
            adj[i][j] = adj[j][i] = -v if (i + j) % 2 else v
    return theta[n], adj


def char_classes(lat: Lattice) -> list[CharClass]:
    """One representative per class; there are exactly |det| classes.

    Representatives are K_0 + 2c * e_1 for c = 0..p-1: e_1 generates the
    cyclic discriminant group because the cofactor adj[n-1][0] is +-1.
    """
    p = abs(lat.determinant())
    base = [-a for a in lat.terms]
    out = []
    for c in range(p):
        rep = list(base)
        rep[0] += 2 * c
        out.append(CharClass(lat, tuple(rep)))
    return out


def same_class(lat: Lattice, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Whether two characteristic vectors differ by an element of 2 G Z^n."""
    d, adj = _chain_adjugate(lat.terms)
    n = lat.rank
    for i in range(n):
        s = sum(adj[i][j] * (u[j] - v[j]) for j in range(n))
        if s % (2 * d) != 0:
            return False
    return True


def _max_square_scaled(terms: tuple[int, ...], y0: list[int], p: int) -> Fraction:
    """max of (y^T G y) / p^2 over y in y0 + 2p Z^n, exact."""
    n = len(terms)
    a = terms
    step = 2 * p
    if n == 1:
        r = y0[0] % step
        best = min(r * r, (r - step) ** 2)
        return Fraction(-a[0] * best, p * p)

    w = [ai - 2 for ai in a]
    w[0] = a[0] - 1
    w[-1] = a[-1] - 1

    # greedy incumbent following local parabola vertices
    prev = 0
    incumbent = 0
    for i in range(n):
        base = y0[i] % step
        best_val = None
        best_y = base
        centre = prev // (w[i] + 1) if i else 0
        k = (centre - base) // step
        for kk in (k - 1, k, k + 1):
            yv = base + step * kk
            val = -w[i] * yv * yv - ((prev - yv) ** 2 if i else 0)
            if best_val is None or val > best_val:
                best_val, best_y = val, yv
        incumbent += best_val
        prev = best_y
    bound = -incumbent if incumbent else 1  # |Q(opt)| <= |Q(greedy)|

    def layer(i: int, radius: int) -> list[int]:
        base = y0[i] % step
        lo = -((radius + base) // step)
        hi = (radius - base) // step
        if lo > hi:
            return [base if base <= p else base - step]
        return [base + step * k for k in range(lo, hi + 1)]

    # optimum prefix bounds: w_1 y_1^2 <= bound and running diff^2 sums
    # <= bound; with w_1 = 0 (expansions of slopes < 1) the first coordinate
    # is only anchored through the chain, so widen to the worst-case drift
    if w[0] >= 1:
        first_radius = isqrt(bound // w[0]) + step
    else:
        first_radius = 2 * isqrt(n * bound) + 2 * step
    score = {y: -w[0] * y * y for y in layer(0, first_radius)}
    for i in range(1, n):
        radius = isqrt(i * bound) + first_radius + step
        items = list(score.items())
        nxt = {}
        for y2 in layer(i, radius):
            own = -w[i] * y2 * y2
            best = None
            for y1, s in items:
                diff = y1 - y2
                val = s - diff * diff
                if best is None or val > best:
                    best = val
            nxt[y2] = best + own
        score = nxt
    return Fraction(max(score.values()), p * p)


def max_char_square(lat: Lattice, cls: CharClass) -> Fraction:
    """max over the class of K^T G^{-1} K + rank (exact rational)."""
    if cls.lattice != lat:
        raise DomainError("class does not belong to this lattice")
    n = lat.rank
    d, adj = _chain_adjugate(lat.terms)
    p = abs(d)
    sign = p // d
    y0 = [sign * sum(adj[i][j] * cls.rep[j] for j in range(n)) for i in range(n)]
    return _max_square_scaled(lat.terms, y0, p) + n


def _class_key_row(lat: Lattice) -> tuple[int, tuple[int, ...]]:
    """Adjugate row 0, whose residues mod 2|det| separate the classes
    (e_1 generates the discriminant group)."""
    d, adj = _chain_adjugate(lat.terms)
    return abs(d), tuple(adj[0])


@lru_cache(maxsize=256)
def _box_class_maxima(terms: tuple[int, ...], widen: int) -> dict[int, int]:
    """One pass over the box |K_i| <= widen * a_i: per-class max of the
    numerator of K^T adj K (shares the sign fix-up with its caller)."""
    import itertools

    lat = Lattice(terms)
    n = lat.rank
    p, row = _class_key_row(lat)
    _, adj = _chain_adjugate(terms)
    ranges = []
    for a in terms:
        top = widen * a
        ranges.append(range(-top + (0 if (top - a) % 2 == 0 else 1), top + 1, 2))
    d = lat.determinant()
    sign = 1 if d > 0 else -1
    best: dict[int, int] = {}
    for vec in itertools.product(*ranges):
        key = sum(r * k for r, k in zip(row, vec)) % (2 * p)
        total = sign * sum(
            vec[i] * sum(adj[i][j] * vec[j] for j in range(n)) for i in range(n)
        )
        if key not in best or total > best[key]:
            best[key] = total
    return best


def max_char_square_box(lat: Lattice, cls: CharClass, widen: int = 1) -> Fraction:
    """Brute-force reference: maximize over the box |K_i| <= widen * a_i.

    Exponential in the rank; only usable on small lattices.  Kept as the
    independent check that the DP search region loses nothing.
    """
    p, row = _class_key_row(lat)
    maxima = _box_class_maxima(lat.terms, widen)
    key = sum(r * k for r, k in zip(row, cls.rep)) % (2 * p)
    if key not in maxima:
        raise DomainError("box contains no representative of the class")
    return Fraction(maxima[key], p) + lat.rank


@dataclass(frozen=True)
class LatticeCheckReport:
    p: int
    q: int
    lattice_multiset: tuple[Fraction, ...]
    recursion_multiset: tuple[Fraction, ...]
    equal: bool
    matching: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "lattice_multiset": [f"{v.numerator}/{v.denominator}" for v in self.lattice_multiset],
            "recursion_multiset": [f"{v.numerator}/{v.denominator}" for v in self.recursion_multiset],
            "equal": self.equal,
        }


def lattice_vs_recursion_check(p: int, q: int) -> LatticeCheckReport:
    """Compare {max K^2 + n over classes} with {4 d_rec(L(p,q), i) over labels}.

    A mismatch is reported, not raised.  The value-level matching between
    class indices and labels is included; it is the only correspondence the
    construction pins down.
    """
    if not (0 < q < p) or gcd(p, q) != 1:
        raise DomainError(f"need coprime 0 < q < p, got ({p}, {q})")
    from .exactnum import hj_expand

    lat = lattice_from_hj(hj_expand(Fraction(p, q)))
    class_values = [max_char_square(lat, cls) for cls in char_classes(lat)]
    space = LensSpace(p, q)
    label_values = [4 * v for v in d_table(space).values]

    by_value: dict[Fraction, tuple[list[int], list[int]]] = {}
    for c, v in enumerate(class_values):
        by_value.setdefault(v, ([], []))[0].append(c)
    for i, v in enumerate(label_values):
        by_value.setdefault(v, ([], []))[1].append(i)
    matching = tuple(
        (f"{v.numerator}/{v.denominator}", tuple(cs), tuple(ls))
        for v, (cs, ls) in sorted(by_value.items())
    )
    a = tuple(sorted(class_values))
    b = tuple(sorted(label_values))
    return LatticeCheckReport(p, q, a, b, a == b, matching)
