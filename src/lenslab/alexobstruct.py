"""Knot-polynomial obstructions to lens-space surgeries.

Pipeline per lens space L(p, q): enumerate the conjugation-equivariant
affine label bijections sigma, form the difference vector

    t_i = d_rec(L(p,1), [i]) - d_rec(L(p,q), sigma[i])     (2|i| <= p)

and accept sigma only when every t_i is a nonpositive even integer.  The
filter runs on the 4p-scaled integer tables of `lensdi`: with N = 4p * t_i,
t_i <= 0 exactly when N <= 0, and t_i is even exactly when 8p divides N.

Every sigma permutes the labels, so the torsion total T_total = sum of T_i
over Z/p (T_i = -t_i / 2, below) is the same for every sigma:
(D(1, p) - D(q, p)) / 24, where D(q, p) = 12p * s(q, p) and the d-values of
L(p, q) sum to -D(q, p) / 12, the Casson-Walker invariant (Rustamov,
arXiv:math/0409294; `lensdi._dedekind12`).  A space whose T_total is not an
integer >= 0 has no candidate, and gets no table.

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
past p/2, is 0 or 8p.  The walk (`_passing_correspondences`) tests it with
the sign and parity, label by label.

The degree is read off the same integers.  If T_k is the last nonzero
entry, the inverse gives a_(k+1) = T_k and a_i = 0 for i > k + 1, so the
polynomial has degree k + 1; an all-zero T gives the polynomial 1, of degree
0.  So a candidate has degree g >= 1 exactly when T_(g-1) != 0 and T_i = 0
for i >= g (Ni-Wu: V_(g-1) != 0 and V_s = 0 for s >= g), and `genus-scan`
decides a hit on the walk's vectors without building a polynomial.

The units.  A passing sigma has u^2 = q (mod p), the linking-form
congruence of Fintushel and Stern ("Constructing lens spaces by surgery on
knots", Math. Z. 1980), here read off the d-invariants as in Ni-Wu
(arXiv:1009.4720).  The proof uses integers only and follows the recursion
of `lensdi`.  Labels are read mod p, so N(i) = N(p, q, i mod p) is defined
at every integer i, and q^-1 is the inverse of q mod p.

  Lemma.  N(i + q) - N(i) = -4(2i + 1 - p)  (mod 8p) at every i.  The
  right side depends on i mod p only, so 0 <= i < p suffices.  By
  induction down the Euclid chain: N(1, *, i) = 0 is the base.  For p > 1, with r = p mod q and
  M(i) = N(q, r, i mod q), the recursion reads
  q N(i) = pq - s_i^2 - p M(i), s_i = 2i + 1 - p - q, for 0 <= i < p.  If
  i + q < p, then s_(i+q)^2 - s_i^2 = 4q(s_i + q) gives the difference
  exactly.  Otherwise label i + q is i' = i + q - p, with
  s_i' = s_i - 2(p - q) and M(i') = M(i - r), since p = r (mod q).  The
  lemma for L(q, r) gives M(i) - M(i - r) = -4(2i - 2r + 1 - q) + 8qk for
  an integer k, and then
  q (N(i') - N(i)) = -4q(2i + 1 - p) + 8pq(1 - k - p // q).

  Corollary.  N(j + u) - 2 N(j) + N(j - u) = -8 u^2 q^-1  (mod 8p) for
  every step u and label j.  Write u = wq (mod p).  Summing the lemma,
  f(x) = N(j + xq) is f(0) + x (f(1) - f(0)) - 4q x(x - 1) (mod 8p) at
  every integer x, so its second difference along w is -8q w^2, and
  q w^2 = u^2 q^-1 (mod p).

  Theorem.  Let n_i = 4p * t_i = N(p, 1, i) - N(p, q, c + u i).  By the
  corollary (q = 1 and step 1 for L(p, 1)), the second difference of n is
  8(u^2 q^-1 - 1) (mod 8p) at every i.  Conjugation fixes both tables and
  maps i to -i and sigma(i) to sigma(-i), so n_(-1) = n_1, and at i = 0
  the second difference is 2(n_1 - n_0).  So if t_0 and t_1 are even, that
  is 8p divides n_0 and n_1, then u^2 = q (mod p).  Conversely, when
  u^2 = q (mod p), n_i = n_0 + i (n_1 - n_0) (mod 8p), and every t_i is
  even exactly when t_0 and t_1 are.

So a q with no square root mod p has no candidate, and gets no table
(`scan_realizable`, `candidate_polynomials`).  Otherwise the filter walks
only the sigma whose unit is a root u <= p/2 (`_square_roots`): u and
p - u give the same t-vector on a checked table, so one sigma of each
conjugate pair is walked.

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
from .lensdi import LensSpace, _dedekind12, scaled_d_table
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

    torsion_from_alex of the result is seq without its trailing zeros, so
    two sequences of one length give the same polynomial only when they are
    equal.  The lens-space pipeline only ever feeds nonnegative torsion
    (T = -t/2 with t nonpositive); the identity itself is sign-agnostic.
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
    base = scaled_d_table(LensSpace(space.p, 1))
    return base, base if space.q == 1 else scaled_d_table(space)


def t_vector(space: LensSpace, sigma: Correspondence) -> TVector:
    if sigma.space != space:
        raise DomainError("correspondence belongs to a different lens space")
    return TVector(space, _scaled_t(*_scaled_tables(space), sigma))


def _passing_correspondences(
    space: LensSpace,
    base: tuple[int, ...],
    table: tuple[int, ...],
    units: Sequence[int] | None = None,
    pm1: bool = False,
) -> list[tuple[int, int, tuple[int, ...]]]:
    """The triples (u, c, scaled) of the equivariant sigma(i) = c + u*i, u in
    units (ascending; every unit mod p when None), whose t-vector is
    nonpositive and even, and with pm1 also pm1-alternating, scaled being
    that vector (4p * t_i for 0 <= i <= p/2), in the order of
    enumerate_correspondences (units ascending, then c ascending).

    t_0 = d(L(p,1), 0) - d(L(p,q), c) depends on c alone, so it is tested
    once per offset.  Each sigma with a passing offset is then walked
    forward from label 1, sigma(i + 1) = sigma(i) + u, one label at a time,
    and dropped at the first label whose t fails, so a sigma that passes
    gets its vector from the walk itself.  The walk tests every label's
    sign and parity, and with pm1 the step rule of the module docstring
    (each step N_(i+1) - N_i is 0 or 8p, and so is the step from the last
    label to the 0 past p/2), so the result is exact on any pair of tables,
    checked or not; the choice of units is the caller's.  The callers that
    hold a checked table pass the roots of `_square_roots`, which the module
    docstring shows lose no candidate.  Every filter `alexlens` and
    `genus-scan` name is tested here and nowhere else.
    """
    p = space.p
    even = 8 * p  # t_i is an even integer exactly when 8p | 4p * t_i
    offsets = [(c, n) for c in _offsets(space) if (n := base[0] - table[c]) <= 0 and not n % even]
    rest = base[1 : p // 2 + 1]
    passing = []
    for u in _units(p) if units is None else units:
        for c, t0 in offsets:
            scaled = [t0]
            k = c
            for base_i in rest:
                k += u
                if k >= p:
                    k -= p
                n = base_i - table[k]
                if n > 0 or n % even or pm1 and n - scaled[-1] not in (0, even):
                    break
                scaled.append(n)
            else:
                if not pm1 or scaled[-1] in (0, -even):
                    passing.append((u, c, tuple(scaled)))
    return passing


def _square_roots(p: int) -> dict[int, list[int]]:
    """The roots u <= p/2 of u^2 = q (mod p), ascending, keyed by q mod p.

    Of each pair u, p - u of roots only the smaller is listed; L(1,1) and
    L(2,1) keep their one unit, u = 1.  A key that is not a unit mod p comes
    from a u that is not one either, and a lens space never looks it up.
    """
    roots: dict[int, list[int]] = {}
    for u in range(1, max(p // 2, 1) + 1):
        roots.setdefault(u * u % p, []).append(u)
    return roots


@dataclass(frozen=True)
class Candidate:
    poly: AlexPoly
    sigma: Correspondence
    t: TVector


def _torsion_total(p: int, q: int) -> int | None:
    """T_total = sum of T_i over the labels of Z/p, the same for every sigma
    of L(p, q), or None when it is not an integer >= 0 and so no sigma passes.

    Each sigma permutes the labels, so sum t_i = sum d(L(p,1)) - sum d(L(p,q)),
    and the d-values of L(p, q) sum to -D(q, p) / 12 (the Casson-Walker
    invariant), so T_total = (D(1, p) - D(q, p)) / 24.
    """
    total, rest = divmod(_dedekind12(1, p) - _dedekind12(q, p), 24)
    return None if total < 0 or rest else total


def candidate_polynomials(space: LensSpace, pm1: bool = True) -> list[Candidate]:
    """Deduplicated candidate polynomials with one witnessing sigma each;
    pm1 turns the pm1-alternating filter on.  A space whose T_total is not an
    integer >= 0, or whose q is not a square mod p, has none, and gets no
    table."""
    p, q = space.p, space.q
    if _torsion_total(p, q) is None or (units := _square_roots(p).get(q % p)) is None:
        return []
    return _candidates(space, *_scaled_tables(space), pm1, units)


def _candidates(
    space: LensSpace,
    base: tuple[int, ...],
    table: tuple[int, ...],
    pm1: bool,
    units: Sequence[int] | None = None,
) -> list[Candidate]:
    """candidate_polynomials, given the scaled tables of L(p,1) and of space
    and the units to walk (`_passing_correspondences`, which also runs the
    pm1 rule), sorted by coefficients.

    Each distinct t-vector is turned into a polynomial once; distinct
    vectors, all of length p // 2 + 1, give distinct polynomials
    (`alex_from_torsion`).  The sigma come in the order of the full
    enumeration, u ascending and then c ascending, so the sigma kept for
    each polynomial is the first witness that enumeration finds.
    `candidate_polynomials` walks only the roots u <= p/2 of q, and its
    witness is still that one: every passing sigma has a root for its unit,
    and a sigma with u > p/2 comes after one with p - u and the same vector,
    because conjugation fixes a checked table and maps c + u*i to c - u*i.
    """
    even = 8 * space.p
    seen: set[tuple[int, ...]] = set()
    kept = []
    for u, c, scaled in _passing_correspondences(space, base, table, units, pm1):
        if scaled in seen:
            continue
        seen.add(scaled)
        poly = alex_from_torsion([-n // even for n in scaled])
        kept.append(Candidate(poly, Correspondence(space, c, u), TVector(space, scaled)))
    return sorted(kept, key=lambda candidate: candidate.poly.coeffs)


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
    """Search radius max(12g - 7, 4g + 3).

    12g - 7 is Goda and Teragaito's bound on the order of a lens-space
    surgery on a hyperbolic knot of genus g.  The torus knot T(2, 2g + 1)
    has a lens-space surgery of order 4g + 3 (Moser, 1971), which the first
    bound misses at g = 1: L(7, 2), the +7 surgery on the trefoil.
    """
    return max(12 * g - 7, 4 * g + 3)


@dataclass(frozen=True)
class ScanHit:
    space: LensSpace  # canonical form
    representatives: tuple[LensSpace, ...]


def scan_realizable(g: int, pmax: int | None = None, pm1: bool = True) -> list[ScanHit]:
    """Canonical lens spaces of order <= pmax admitting a candidate of degree g.

    Only one space of each homeomorphic pair L(p, q), L(p, q') with
    q q' = 1 (mod p) is scanned, the canonical one, q <= q'; when it admits a
    candidate, L(p, q') is reported as a representative next to it.  The
    table of L(p, q') is the table of L(p, q) relabelled by
    tau(j) = q j + q - 1 (mod p) (tests/test_lensdi.py checks this below
    p = 150), and tau commutes with conjugation, since 2(q - 1) = 2q - 2.  So
    sigma -> tau^-1 sigma is a bijection between the equivariant affine sigma
    of the two spaces (tau^-1 sigma has unit q' u) that keeps every
    t-vector, and the two spaces have the same candidates; and
    D(q', p) = D(q, p) and q' is a square exactly when q is, so the prunes
    below decide both alike.

    The scaled table of L(p,1), which every q of the same p shares, and the
    square roots of every q (`_square_roots`) are built once per p.  A q is
    skipped before its table is built when it is not a square mod p, and
    when its T_total rules out a candidate of degree g: when it is not an
    integer >= 0, or, with pm1, when it lies outside [2g - 1, g^2].  With
    pm1 a candidate of degree g has T_(g-1) = a_g = 1, consecutive T_j
    differ by 0 or 1, and T_j = 0 for j >= g, so 1 <= T_j <= g - j for
    |j| < g; p >= 2g - 1 gives T_(1-g) ... T_(g-1) their own labels, so
    T_total lies between 1 + 2(g - 1) and g + 2(1 + ... + (g - 1)) = g^2.

    A space that survives the prunes is a hit when some sigma that passes
    the walk, with the pm1 rule when pm1 is on, has t_(g-1) != 0 and
    t_i = 0 for g <= i <= p/2: its candidate has degree g (module
    docstring), and no polynomial is built.  p >= 2g - 1 gives the vector
    p // 2 + 1 >= g entries, so t_(g-1) is always there.
    """
    if g < 1:
        raise DomainError("scan needs g >= 1")
    if pmax is None:
        pmax = default_scan_radius(g)
    if pmax < 1:
        raise DomainError("scan needs pmax >= 1")
    hits = []
    for p in range(max(2 * g - 1, 2), pmax + 1):
        base = scaled_d_table(LensSpace(p, 1))
        roots = _square_roots(p)
        for q in range(1, p):
            units = roots.get(q)
            if units is None or gcd(p, q) != 1 or (inverse := pow(q, -1, p)) < q:
                continue
            total = _torsion_total(p, q)
            if total is None or pm1 and not 2 * g - 1 <= total <= g * g:
                continue
            space = LensSpace(p, q)
            table = base if q == 1 else scaled_d_table(space)
            passing = _passing_correspondences(space, base, table, units, pm1)
            if any(t[g - 1] and not any(t[g:]) for _, _, t in passing):
                pair = (space,) if inverse == q else (space, LensSpace(p, inverse))
                hits.append(ScanHit(space, pair))
    return hits
