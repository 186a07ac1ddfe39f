"""Knot-polynomial obstructions to lens-space surgeries.

Pipeline per lens space L(p, q): enumerate the conjugation-equivariant
affine label bijections sigma, form the difference vector

    t_i = d_rec(L(p,1), [i]) - d_rec(L(p,q), sigma[i])     (2|i| <= p)

and accept sigma only when every t_i is a nonpositive even integer.  The
filter runs on the 4p-scaled integer tables of `lensdi`: with N = 4p * t_i,
t_i <= 0 exactly when N <= 0, and t_i is even exactly when 8p divides N.

Before any table is built, one number rules out many spaces.  Every sigma
permutes the labels, so the torsion total T_total = sum of T_i over Z/p
(T_i = -t_i / 2, below) is the same for every sigma:
(D(1, p) - D(q, p)) / 24, where D(q, p) = 12p * s(q, p) and the d-values of
L(p, q) sum to -D(q, p) / 12, the Casson-Walker invariant (Rustamov,
arXiv:math/0409294).  Reciprocity gives D in O(log p) integer steps
(Rademacher-Grosswald, *Dedekind Sums*, 1972; `lensdi._dedekind12`).  A
space whose T_total is not an integer >= 0 has no candidate, so
`candidate_polynomials` returns none without building a table, and
`scan_realizable` also skips, under the pm1 filter, every q whose T_total
lies outside the window [2g - 1, g^2] of a degree-g candidate.  The
tables a space does get are checked against the D(1, p) and D(q, p) of
this test (`lensdi._checked_table`), so each space runs one reciprocity
chain.

The filter is pruned label by label.  sigma(0) = c, so t_0 depends on the
offset c alone and is tested once per offset.  t_1 passes exactly when
sigma(1) = c + u is a label j whose d(L(p,1), 1) - d(L(p,q), j) is
nonpositive and even; one pass over the table lists those j for every
offset, and each passing offset takes the units u = j - c (mod p) among
them, so no list of the units is built, and nearly every sigma is out at
i = 1.  Labels i = 2, 3, ... then filter the survivors in turn.  Only the
surviving sigma get a whole t-vector, and a vector already seen is
skipped: u and p - u always give the same vector, because conjugation
fixes the table and maps c + u*i to c - u*i.  The sigma are taken in the
order of the full enumeration, u ascending and then c ascending, a sigma
that fails the filter never yields a candidate, and equal vectors give
equal polynomials, so the first witness of every polynomial, and with it
the sigma reported, is the one the full enumeration finds.
The torsion coefficients are then T_i = -t_i / 2, a plain integer sequence
(a polynomial of degree g has the tuple T_0, ..., T_{g-1}; zeros past it
change nothing), and the candidate polynomial is recovered through the
second-difference inverse

    a_i = T_{i-1} - 2 T_i + T_{i+1}  (i >= 1),    a_0 = 1 - 2 sum a_i.

The pm1-alternating filter, on unless the flag pm1 is False, reads the same
integers before any polynomial is built: the coefficients are +-1 and
alternate in sign exactly when T falls by 0 or 1 at each step down to 0
(Ozsvath-Szabo, arXiv:math/0303017; Ni-Wu, arXiv:1009.4720, Prop. 1.6,
with T_s = V_s), that is when every step N_{i+1} - N_i, with a 0 appended
past p/2, is 0 or 8p.

Sign calibration: with the recursion as the d-values of L(p, *) itself this
normalization reproduces the (2,5)-torus-knot polynomial for L(9,7) with
sigma(i) = 3 + 4i, and only then.  The one-sided formula that builds the
polynomial directly from t/2 differences (which flips the sign of every
non-constant coefficient) is kept in `literal_reconstruction` for
comparison output, never for filtering, as 8p a_i = N_{i-1} - 2 N_i + N_{i+1}
(plus 8p at i = 0): nothing here builds a Fraction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .errors import DomainError
from .lensdi import LensSpace, _checked_table, _dedekind12, lens_normalize, scaled_d_table
from .lensdi import d_rec  # noqa: F401  perfbench/tracing.py wraps it at this name


@dataclass(frozen=True)
class AlexPoly:
    """Symmetric integer Laurent polynomial with value 1 at T = 1.

    Only i >= 0 is stored; a_{-i} = a_i is structural.
    """

    coeffs: tuple[tuple[int, int], ...]  # sorted (degree, coefficient), no zeros

    @classmethod
    def from_dict(cls, data: dict[int, int]) -> "AlexPoly":
        items = tuple(sorted((i, a) for i, a in data.items() if a != 0))
        if any(i < 0 for i, _ in items):
            raise DomainError("store only the i >= 0 half of a symmetric polynomial")
        poly = cls(items)
        if poly.at_one() != 1:
            raise DomainError(f"polynomial evaluates to {poly.at_one()} != 1 at T = 1")
        return poly

    def coeff(self, i: int) -> int:
        i = abs(i)
        for j, a in self.coeffs:
            if j == i:
                return a
        return 0

    @property
    def degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    def at_one(self) -> int:
        a0 = self.coeff(0)
        return a0 + 2 * sum(a for i, a in self.coeffs if i > 0)

    def full_coeffs(self) -> list[int]:
        """Coefficients from degree -g to +g."""
        half = [0] * (self.degree + 1)
        for i, a in self.coeffs:
            half[i] = a
        return half[:0:-1] + half

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        g = self.degree
        full = self.full_coeffs()
        for i in range(g, -g - 1, -1):
            a = full[i + g]
            if a == 0:
                continue
            sign = "-" if a < 0 else "+"
            mag = abs(a)
            if i == 0:
                term = f"{mag}"
            else:
                term = ("" if mag == 1 else f"{mag}*") + (f"T^{i}" if i != 1 else "T")
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


ONE = AlexPoly(((0, 1),))
TREFOIL = AlexPoly(((0, -1), (1, 1)))


def torsion_from_alex(poly: AlexPoly) -> tuple[int, ...]:
    """(T_0, ..., T_{g-1}) with T_i = sum_{j >= 1} j * a_{i+j}, g the degree.

    Built from the top by running sums: T_{g-1} = a_g and
    T_{i-1} = T_i + (a_i + ... + a_g).
    """
    top_down = poly.full_coeffs()[:poly.degree]  # a_g, ..., a_1
    return tuple(accumulate(accumulate(top_down)))[::-1]


def alex_from_torsion(seq: Sequence[int]) -> AlexPoly:
    """Second-difference inverse of torsion_from_alex; zeros past the support
    of seq are allowed.

    The lens-space pipeline only ever feeds nonnegative torsion (T = -t/2
    with t nonpositive); the identity itself is sign-agnostic.
    """
    t = [*seq, 0, 0]
    data = {i: t[i - 1] - 2 * t[i] + t[i + 1] for i in range(1, len(seq) + 1)}
    data[0] = 1 - 2 * sum(data.values())
    return AlexPoly.from_dict(data)


@dataclass(frozen=True)
class Correspondence:
    """Affine label bijection sigma(i) = c + u*i (mod p), u a unit.

    Conjugation equivariance sigma(-i) = conj(sigma(i)) reads
    c - u*i = q - 1 - c - u*i (mod p): the single congruence 2c = q - 1
    (mod p), whatever u and i are.  enumerate_correspondences solves it;
    tests/lattice_oracles.py checks the definition on every residue.
    """

    space: LensSpace
    c: int
    u: int

    def __post_init__(self) -> None:
        if gcd(self.u, self.space.p) != 1:
            raise DomainError(f"u={self.u} is not a unit mod {self.space.p}")

    def __call__(self, i: int) -> int:
        return (self.c + self.u * i) % self.space.p


def enumerate_correspondences(space: LensSpace) -> list[Correspondence]:
    """All equivariant affine bijections, units u ascending, then c ascending.

    The offsets c are the solutions of 2c = q - 1 (mod p): one for odd p,
    two (p/2 apart) for even p, the same for every unit u.
    """
    offsets = _offsets(space)
    return [Correspondence(space, c, u) for u in _units(space.p) for c in offsets]


def _offsets(space: LensSpace) -> list[int]:
    """The solutions c of 2c = q - 1 (mod p) in [0, p), ascending."""
    p, q = space.p, space.q
    if p % 2:
        return [(q - 1) * (p + 1) // 2 % p]  # (p + 1) / 2 inverts 2
    half = p // 2  # q is odd, so q - 1 is even
    c = (q - 1) // 2 % half
    return [c, c + half]


def _units(p: int) -> list[int]:
    return [u for u in range(1, p + 1) if gcd(u, p) == 1]


@dataclass(frozen=True)
class TVector:
    """t_i for 0 <= i <= p/2, held as the integers 4p * t_i; t_{-i} = t_i,
    zero outside 2|i| <= p."""

    space: LensSpace
    scaled: tuple[int, ...]


def _scaled_t(
    base: tuple[int, ...], table: tuple[int, ...], sigma: Correspondence
) -> tuple[int, ...]:
    """4p * t_i for 0 <= i <= p/2, from the scaled tables of L(p,1) and L(p,q)."""
    p = len(table)
    return tuple([base[i % p] - table[sigma(i)] for i in range(p // 2 + 1)])


def _scaled_tables(space: LensSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return scaled_d_table(lens_normalize(space.p, 1)), scaled_d_table(space)


def t_vector(space: LensSpace, sigma: Correspondence) -> TVector:
    if sigma.space != space:
        raise DomainError("correspondence belongs to a different lens space")
    return TVector(space, _scaled_t(*_scaled_tables(space), sigma))


def _passing_correspondences(
    space: LensSpace, base: tuple[int, ...], table: tuple[int, ...]
) -> list[tuple[int, int]]:
    """The pairs (u, c) of the equivariant sigma(i) = c + u*i whose t-vector
    is nonpositive and even, in the order of enumerate_correspondences
    (units ascending, then c ascending).

    t_0 = d(L(p,1), 0) - d(L(p,q), c) depends on c alone, so it is tested
    once per offset.  t_1 passes exactly when sigma(1) = c + u is one of the
    labels j with base[1] - table[j] nonpositive and even; one pass over the
    table lists them for every offset, and each passing offset takes the
    units u = j - c (mod p) among them.  Labels 2, 3, ... then filter those
    few survivors in turn.  L(1, 1) has no label 1 and its one sigma is u = 1.
    """
    p = space.p
    even = 8 * p  # t_i is an even integer exactly when 8p | 4p * t_i
    offsets = [c for c in _offsets(space) if (n := base[0] - table[c]) <= 0 and not n % even]
    if p == 1 or not offsets:
        return [(1, c) for c in offsets]
    b = base[1]
    labels = [j for j, n in enumerate(table) if n >= b and not (n - b) % even]
    passing = []
    for c in offsets:
        units = [u for j in labels if gcd(u := (j - c) % p, p) == 1]
        for i in range(2, p // 2 + 1):
            if not units:
                break
            b = base[i]
            units = [u for u in units if (n := b - table[(c + u * i) % p]) <= 0 and not n % even]
        passing.extend((u, c) for u in units)
    return sorted(passing)


@dataclass(frozen=True)
class Candidate:
    poly: AlexPoly
    sigma: Correspondence
    t: TVector


def _torsion_total(d1: int, dq: int) -> int | None:
    """T_total = sum of T_i over the labels of Z/p, the same for every sigma
    of L(p, q), or None when it is not an integer >= 0 and so no sigma passes.

    Each sigma permutes the labels, so sum t_i = sum d(L(p,1)) - sum d(L(p,q)),
    and the d-values of L(p, q) sum to -D(q, p) / 12 (the Casson-Walker
    invariant), so T_total = (D(1, p) - D(q, p)) / 24; d1 is D(1, p) and dq
    is D(q, p).
    """
    total, rest = divmod(d1 - dq, 24)
    return None if total < 0 or rest else total


def candidate_polynomials(space: LensSpace, pm1: bool = True) -> list[Candidate]:
    """Deduplicated candidate polynomials with one witnessing sigma each;
    pm1 turns the pm1-alternating filter on.  A space whose T_total is not an
    integer >= 0 has none, and gets no table; the tables of the others are
    checked against the D(1, p) and D(q, p) of that test."""
    p, q = space.p, space.q
    d1, dq = _dedekind12(1, p), _dedekind12(q, p)
    if _torsion_total(d1, dq) is None:
        return []
    base = _checked_table(LensSpace(p, 1), d1)
    table = base if q == 1 else _checked_table(space, dq)
    return _candidates(space, base, table, pm1)


def _candidates(
    space: LensSpace, base: tuple[int, ...], table: tuple[int, ...], pm1: bool
) -> list[Candidate]:
    """candidate_polynomials, given the scaled tables of L(p,1) and of space;
    each distinct t-vector is tested and turned into a polynomial once."""
    p = space.p
    even = 8 * p
    labels = range(p // 2 + 1)
    seen_t: set[tuple[int, ...]] = set()
    seen: dict[tuple, Candidate] = {}
    for u, c in _passing_correspondences(space, base, table):
        scaled = tuple([base[i] - table[(c + u * i) % p] for i in labels])
        if scaled in seen_t:
            continue
        seen_t.add(scaled)
        # pm1-alternating: T = -t/2 falls by 0 or 1 at each step, down to 0
        if pm1 and any(
            b - a not in (0, even) for a, b in zip(scaled, scaled[1:] + (0,))
        ):
            continue
        poly = alex_from_torsion([-n // even for n in scaled])
        if poly.coeffs not in seen:
            seen[poly.coeffs] = Candidate(poly, Correspondence(space, c, u), TVector(space, scaled))
    return [seen[k] for k in sorted(seen)]


def literal_reconstruction(tv: TVector) -> dict[int, int]:
    """The one-sided display formula 1 + sum (t_{i-1}/2 - t_i + t_{i+1}/2) T^i,
    its nonzero coefficients a_i held as the integers 8p * a_i, degrees ascending.

    With n_i = 4p * t_i, 8p * a_i is n_{i-1} - 2 n_i + n_{i+1}, plus 8p at i = 0.
    Comparison output only; differs from the normative reconstruction by the
    sign of every non-constant coefficient.
    """
    n = [0, 0, *tv.scaled[:0:-1], *tv.scaled, 0, 0]  # n_i for |i| <= len(scaled) + 1
    scale = 8 * tv.space.p
    out: dict[int, int] = {}
    for i, (left, mid, right) in enumerate(zip(n, n[1:], n[2:]), -len(tv.scaled)):
        a = left - 2 * mid + right + scale * (i == 0)
        if a:
            out[i] = a
    return out


def default_scan_radius(g: int) -> int:
    """Search radius 12g - 7 (the hyperbolic-surgery order bound)."""
    return 12 * g - 7


@dataclass(frozen=True)
class ScanHit:
    space: LensSpace  # canonical form
    representatives: tuple[LensSpace, ...]


def scan_realizable(g: int, pmax: int | None = None, pm1: bool = True) -> list[ScanHit]:
    """Canonical lens spaces of order <= pmax admitting a candidate of degree g.

    The scaled table of L(p,1), which every q of the same p shares, is built
    once per p.  A q is skipped before its table is built when its T_total
    rules out a candidate of degree g: when it is not an integer >= 0, or,
    with pm1, when it lies outside [2g - 1, g^2].  With pm1 a candidate of
    degree g has T_(g-1) = a_g = 1, consecutive T_j differ by 0 or 1, and
    T_j = 0 for j >= g, so 1 <= T_j <= g - j for |j| < g; p >= 2g - 1 gives
    T_(1-g) ... T_(g-1) their own labels, so T_total lies between
    1 + 2(g - 1) and g + 2(1 + ... + (g - 1)) = g^2.
    """
    if g < 1:
        raise DomainError("scan needs g >= 1")
    if pmax is None:
        pmax = default_scan_radius(g)
    if pmax < 1:
        raise DomainError("scan needs pmax >= 1")
    hits: dict[LensSpace, set[LensSpace]] = {}
    for p in range(max(2 * g - 1, 2), pmax + 1):
        d1 = _dedekind12(1, p)
        base = _checked_table(LensSpace(p, 1), d1)
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            dq = _dedekind12(q, p)
            total = _torsion_total(d1, dq)
            if total is None or pm1 and not 2 * g - 1 <= total <= g * g:
                continue
            space = LensSpace(p, q)
            table = base if q == 1 else _checked_table(space, dq)
            if any(c.poly.degree == g for c in _candidates(space, base, table, pm1)):
                hits.setdefault(space.canonical(), set()).add(space)
    return [ScanHit(k, tuple(sorted(reps))) for k, reps in sorted(hits.items())]
