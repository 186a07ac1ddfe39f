"""Test oracles for `lenslab.plumblat` and `lenslab.alexobstruct`, kept apart
from the code they check.

None of these is used by the package: the chain's Gram matrix and its
closed-form adjugate, class membership, class keys and the label of class 0
read off the adjugate, the brute-force box search for the characteristic
maxima, the cost of a run of weight-0 vertices by enumerating its splits,
the lattice check built class by class through `max_char_square`, and the
definition of conjugation equivariance checked on every residue.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from lenslab.alexobstruct import Correspondence
from lenslab.errors import DomainError
from lenslab.exactnum import hj_expand
from lenslab.lensdi import LensSpace, conj_label, d_table
from lenslab.plumblat import (
    CharClass,
    Lattice,
    LatticeCheckReport,
    _continuants,
    char_classes,
    lattice_from_hj,
    max_char_square,
)


def gram(lat: Lattice) -> list[list[int]]:
    """The chain's Gram matrix: -a_i on the diagonal, 1 on the off-diagonals."""
    n = lat.rank
    g = [[0] * n for _ in range(n)]
    for i, a in enumerate(lat.terms):
        g[i][i] = -a
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = 1
    return g


def chain_adjugate(terms: tuple[int, ...]) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of the chain's Gram matrix, in closed form:
    adj[i][j] = adj[j][i] = (-1)^(i+j) theta_i phi_(n-1-j) for i <= j
    (Usmani, "Inversion of a tridiagonal Jacobi matrix", 1994)."""
    n = len(terms)
    theta = _continuants(terms)
    phi = _continuants(terms[::-1])
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = theta[i] * phi[n - 1 - j]
            adj[i][j] = adj[j][i] = -v if (i + j) % 2 else v
    return theta[n], adj


def class_zero_label(terms: tuple[int, ...], q: int) -> int:
    """The label c_0 of class 0 of the chain lattice of p/q: class c,
    K_0 + 2c e_1, is label (c_0 + q c) mod p of the d-table.  With y_01 the
    first entry of y_0 = sign(det) adj K_0, K_0 = (-a_1, ..., -a_n),
    c_0 = (q - 1 - y_01) / 2 mod p for odd p, and (q - 1 - y_01 + p) / 2
    mod p for even p, where q - 1 - y_01 + p is even.  The rule was found by
    search over the pairs the tests check, not derived."""
    det, adj = chain_adjugate(terms)
    p = abs(det)
    y01 = (1 if det > 0 else -1) * sum(-k * a for k, a in zip(adj[0], terms))
    if p % 2:
        return (q - 1 - y01) * pow(2, -1, p) % p
    assert (q - 1 - y01 + p) % 2 == 0, (terms, q)
    return (q - 1 - y01 + p) // 2 % p


def same_class(lat: Lattice, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Whether two characteristic vectors differ by an element of 2 G Z^n."""
    d, adj = chain_adjugate(lat.terms)
    n = lat.rank
    for i in range(n):
        s = sum(adj[i][j] * (u[j] - v[j]) for j in range(n))
        if s % (2 * d) != 0:
            return False
    return True


def class_key_row(lat: Lattice) -> tuple[int, tuple[int, ...]]:
    """Adjugate row 0, whose residues mod 2|det| separate the classes
    (e_1 generates the discriminant group)."""
    d, adj = chain_adjugate(lat.terms)
    return abs(d), tuple(adj[0])


@lru_cache(maxsize=256)
def _box_class_maxima(terms: tuple[int, ...], widen: int) -> dict[int, int]:
    """One pass over the box |K_i| <= widen * a_i: per-class max of the
    numerator of K^T adj K (shares the sign fix-up with its caller)."""
    n = len(terms)
    d, adj = chain_adjugate(terms)
    p, row = abs(d), adj[0]
    ranges = []
    for a in terms:
        top = widen * a
        ranges.append(range(-top + (0 if (top - a) % 2 == 0 else 1), top + 1, 2))
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
    p, row = class_key_row(lat)
    maxima = _box_class_maxima(lat.terms, widen)
    key = sum(r * k for r, k in zip(row, cls.rep)) % (2 * p)
    if key not in maxima:
        raise DomainError("box contains no representative of the class")
    return Fraction(maxima[key], p) + lat.rank


def run_cost_by_splits(m: int, delta: int, p: int, total: int) -> int | None:
    """Least sum of squares of m integers = delta (mod 2p) that add up to
    `total`, by enumerating the splits up to order; None when there is none.

    A best split has no two parts more than 2p apart (moving 2p from the
    larger to the smaller part lowers the sum), and its parts average
    total / m, so every part lies within |total| + 2p of 0.  Any m - 1 of
    the parts, sorted, fix the last one.
    """
    step = 2 * p
    bound = abs(total) + step
    parts = range(-bound + (delta + bound) % step, bound + 1, step)
    best = None
    for head in itertools.combinations_with_replacement(parts, m - 1):
        last = total - sum(head)
        if (last - delta) % step == 0:
            cost = sum(d * d for d in head) + last * last
            if best is None or cost < best:
                best = cost
    return best


def per_class_report(p: int, q: int) -> LatticeCheckReport:
    """`lattice_vs_recursion_check(p, q)` class by class: one `max_char_square`
    per `char_classes` representative and one `d_table` value per label, each
    keyed by p times its value, 4d for a label, which must be an integer."""
    lat = lattice_from_hj(hj_expand(Fraction(p, q)))
    class_values = [p * max_char_square(lat, cls) for cls in char_classes(lat)]
    label_values = [4 * p * d for d in d_table(LensSpace(p, q)).values]
    assert all(v.denominator == 1 for v in class_values + label_values), (p, q)
    a = tuple(v.numerator for v in class_values)
    b = tuple(v.numerator for v in label_values)
    return LatticeCheckReport(p, q, sorted(a) == sorted(b), a, b)


def is_equivariant(sigma: Correspondence) -> bool:
    """sigma(-i) = conjugate of sigma(i) for every residue: the definition
    that `enumerate_correspondences` solves as one congruence."""
    space = sigma.space
    return all(sigma(-i) == conj_label(space, sigma(i)) for i in range(space.p))
