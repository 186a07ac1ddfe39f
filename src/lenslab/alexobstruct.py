"""Knot-polynomial obstructions to lens-space surgeries.

Pipeline per lens space L(p, q): enumerate the conjugation-equivariant
affine label bijections sigma, form the difference vector

    t_i = d_rec(L(p,1), [i]) - d_rec(L(p,q), sigma[i])     (2|i| <= p)

and accept sigma only when every t_i is a nonpositive even integer.  The
filter runs on the 4p-scaled integer tables of `lensdi`: with N = 4p * t_i,
t_i <= 0 exactly when N <= 0, and t_i is even exactly when 8p divides N.

The filter is pruned label by label.  sigma(0) = c, so t_0 depends on the
offset c alone and is tested once per offset; the units u of the offsets
that pass are then filtered at i = 1, 2, ... in turn, and nearly all of
them fail at i = 1.  Only the surviving sigma get a whole t-vector.  They
are taken in the order of the full enumeration, u ascending and then c
ascending, and a sigma that fails the filter never yields a candidate, so
the first witness of every polynomial, and with it the sigma reported, is
the one the full enumeration finds.
The torsion coefficients are then T_i = -t_i / 2 and the candidate
polynomial is recovered through the second-difference inverse

    a_i = T_{i-1} - 2 T_i + T_{i+1}  (i >= 1),    a_0 = 1 - 2 sum a_i.

Sign calibration: with the recursion as the d-values of L(p, *) itself this
normalization reproduces the (2,5)-torus-knot polynomial for L(9,7) with
sigma(i) = 3 + 4i, and only then.  The one-sided formula that builds the
polynomial directly from t/2 differences (which flips the sign of every
non-constant coefficient) is kept in `literal_reconstruction` for
comparison output, never for filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError
from .lensdi import LensSpace, lens_normalize, scaled_d_table
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


@dataclass(frozen=True)
class TorsionSeq:
    """Finitely supported T_i for i >= 0."""

    values: tuple[tuple[int, int], ...]  # sorted (i, T_i), no zeros

    @classmethod
    def from_list(cls, seq: list[int]) -> "TorsionSeq":
        return cls(tuple((i, t) for i, t in enumerate(seq) if t != 0))

    @property
    def support_bound(self) -> int:
        return self.values[-1][0] + 1 if self.values else 0


def torsion_from_alex(poly: AlexPoly) -> TorsionSeq:
    """T_i = sum_{j >= 1} j * a_{i+j} for i >= 0."""
    g = poly.degree
    out = []
    for i in range(g):
        t = sum(j * poly.coeff(i + j) for j in range(1, g - i + 1))
        if t:
            out.append((i, t))
    return TorsionSeq(tuple(out))


def alex_from_torsion(seq: TorsionSeq) -> AlexPoly:
    """Second-difference inverse of torsion_from_alex.

    The lens-space pipeline only ever feeds nonnegative torsion (T = -t/2
    with t nonpositive); the identity itself is sign-agnostic.
    """
    top = seq.support_bound
    t = [0] * (top + 3)
    for i, v in seq.values:
        t[i] = v
    data: dict[int, int] = {}
    for i in range(1, top + 2):
        a = t[i - 1] - 2 * t[i] + t[i + 1]
        if a:
            data[i] = a
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

    @property
    def t(self) -> tuple[Fraction, ...]:
        scale = 4 * self.space.p
        return tuple(Fraction(n, scale) for n in self.scaled)

    def value(self, i: int) -> Fraction:
        i = abs(i)
        return Fraction(self.scaled[i], 4 * self.space.p) if i < len(self.scaled) else Fraction(0)


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


@dataclass(frozen=True)
class FilterSet:
    """The t-nonpositive and t-even filters always run; pm1-alternating is optional."""

    require_pm1_alternating: bool = True

    def names(self) -> list[str]:
        on = ["t-nonpositive", "t-even"]
        if self.require_pm1_alternating:
            on.append("pm1-alternating")
        return on


def _pm1_alternating(poly: AlexPoly) -> bool:
    nz = [a for a in poly.full_coeffs() if a != 0]
    if any(abs(a) != 1 for a in nz):
        return False
    return all(nz[k] == -nz[k + 1] for k in range(len(nz) - 1))


def _passing_correspondences(
    space: LensSpace, base: tuple[int, ...], table: tuple[int, ...]
) -> list[Correspondence]:
    """The equivariant sigma whose t-vector is nonpositive and even, in the
    order of enumerate_correspondences (units ascending, then c ascending).

    t_0 = d(L(p,1), 0) - d(L(p,q), c) depends on c alone, so it is tested
    once per offset; the units are then filtered one label at a time, and
    almost every unit drops out at label 1.
    """
    p = space.p
    even = 8 * p  # t_i is an even integer exactly when 8p | 4p * t_i
    passing = []
    all_units = _units(p)
    for c in _offsets(space):
        n = base[0] - table[c]
        if n > 0 or n % even:
            continue
        units = all_units
        for i in range(1, p // 2 + 1):
            b = base[i]
            units = [u for u in units if (n := b - table[(c + u * i) % p]) <= 0 and not n % even]
            if not units:
                break
        passing.extend((u, c) for u in units)
    return [Correspondence(space, c, u) for u, c in sorted(passing)]


@dataclass(frozen=True)
class Candidate:
    poly: AlexPoly
    sigma: Correspondence
    t: TVector


def candidate_polynomials(
    space: LensSpace, filters: FilterSet = FilterSet()
) -> list[Candidate]:
    """Deduplicated candidate polynomials with one witnessing sigma each."""
    return _candidates(space, *_scaled_tables(space), filters)


def _candidates(
    space: LensSpace, base: tuple[int, ...], table: tuple[int, ...], filters: FilterSet
) -> list[Candidate]:
    """candidate_polynomials, given the scaled tables of L(p,1) and of space."""
    even = 8 * space.p
    seen: dict[tuple, Candidate] = {}
    for sigma in _passing_correspondences(space, base, table):
        scaled = _scaled_t(base, table, sigma)
        seq = TorsionSeq.from_list([-n // even for n in scaled])
        poly = alex_from_torsion(seq)
        if filters.require_pm1_alternating and not _pm1_alternating(poly):
            continue
        if poly.coeffs not in seen:
            seen[poly.coeffs] = Candidate(poly, sigma, TVector(space, scaled))
    return [seen[k] for k in sorted(seen)]


def literal_reconstruction(tv: TVector) -> dict[int, Fraction]:
    """The one-sided display formula 1 + sum (t_{i-1}/2 - t_i + t_{i+1}/2) T^i.

    Comparison output only; differs from the normative reconstruction by the
    sign of every non-constant coefficient.
    """
    bound = len(tv.scaled) + 1
    out: dict[int, Fraction] = {}
    for i in range(-bound, bound + 1):
        a = tv.value(i - 1) / 2 - tv.value(i) + tv.value(i + 1) / 2
        if i == 0:
            a += 1
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
    polys: tuple[AlexPoly, ...]


def scan_realizable(
    g: int, pmax: int | None = None, filters: FilterSet = FilterSet()
) -> list[ScanHit]:
    """Canonical lens spaces of order <= pmax admitting a candidate of degree g.

    The scaled table of L(p,1), which every q of the same p shares, is built
    once per p.
    """
    if g < 1:
        raise DomainError("scan needs g >= 1")
    if pmax is None:
        pmax = default_scan_radius(g)
    if pmax < 1:
        raise DomainError("scan needs pmax >= 1")
    hits: dict[LensSpace, tuple[set[LensSpace], dict[tuple, AlexPoly]]] = {}
    for p in range(max(2 * g - 1, 2), pmax + 1):
        base = scaled_d_table(LensSpace(p, 1))
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            table = base if q == 1 else scaled_d_table(space)
            polys = [
                c.poly for c in _candidates(space, base, table, filters)
                if c.poly.degree == g
            ]
            if not polys:
                continue
            key = space.canonical()
            reps, bag = hits.setdefault(key, (set(), {}))
            reps.add(space)
            for poly in polys:
                bag[poly.coeffs] = poly
    return [
        ScanHit(k, tuple(sorted(reps)), tuple(bag[c] for c in sorted(bag)))
        for k, (reps, bag) in sorted(hits.items())
    ]
