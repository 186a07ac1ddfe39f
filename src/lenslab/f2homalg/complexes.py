"""Chain complexes over GF(2): the three assembled complexes of an octet,
the i/j/p exact triangle, and the mapping-cone exactness criterion.

All complexes here are a single ungraded bucket with a square-zero
endomorphism (the data is abstract linear algebra, not a manifold invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor

from ..errors import DomainError, InvariantError
from .gf2 import F2Matrix, _combine, preimage_in_span, span_basis
from .gf2 import spans_equal  # noqa: F401  perfbench/tracing.py wraps it here


@dataclass(frozen=True)
class GradedComplex:
    """An ungraded complex: C = GF(2)^dim with one square-zero endomorphism d."""

    dim: int
    d: F2Matrix

    def __post_init__(self) -> None:
        if (self.d.rows, self.d.cols) != (self.dim, self.dim):
            raise DomainError("ungraded differential must be square")

    @classmethod
    def ungraded(cls, dim: int, d: F2Matrix) -> "GradedComplex":
        return cls(dim, d)

    def check_squares_to_zero(self) -> None:
        if any(_combine(self.d.data, self.d.data)):
            raise DomainError("differential does not square to zero")

    def homology_bases(self) -> tuple[list[int], list[int]]:
        """(cycles, boundaries): the fully reduced echelon bases of ker d and
        im d, from one elimination of the rows d(e_j) | e_j << dim.  Rows
        with image bits left span im d; the others are e_j-combinations
        whose image is zero."""
        n = self.dim
        low = (1 << n) - 1
        echelon = span_basis(
            [col | (1 << (n + j)) for j, col in enumerate(self.d.columns())]
        )
        cycles = [row >> n for row in echelon if not row & low]
        boundaries = [row & low for row in echelon if row & low]
        return cycles, boundaries

    def homology_dim(self) -> int:
        return self.dim - 2 * self.d.rank()


def complex_homology(complex_: GradedComplex) -> dict[int, int]:
    """Homology rank via GF(2) elimination, keyed by the single grading 0."""
    complex_.check_squares_to_zero()
    return {0: complex_.homology_dim()}


# ---------------------------------------------------------------------------
# Octet: the eight boundary operators and their identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Octet:
    """Boundary data on C^o, C^s, C^u.

    Irreducible-count quartet: doo: o->o, dos: o->s, duo: u->o, dIus: u->s.
    Reducible quartet: dss: s->s, dsu: s->u, dus: u->s, duu: u->u.
    dus and dIus are different maps.
    """

    dim_o: int
    dim_s: int
    dim_u: int
    doo: F2Matrix
    dos: F2Matrix
    duo: F2Matrix
    dIus: F2Matrix
    dss: F2Matrix
    dsu: F2Matrix
    dus: F2Matrix
    duu: F2Matrix

    def __post_init__(self) -> None:
        shapes = {
            "doo": (self.dim_o, self.dim_o),
            "dos": (self.dim_s, self.dim_o),
            "duo": (self.dim_o, self.dim_u),
            "dIus": (self.dim_s, self.dim_u),
            "dss": (self.dim_s, self.dim_s),
            "dsu": (self.dim_u, self.dim_s),
            "dus": (self.dim_s, self.dim_u),
            "duu": (self.dim_u, self.dim_u),
        }
        for name, (r, c) in shapes.items():
            m: F2Matrix = getattr(self, name)
            if (m.rows, m.cols) != (r, c):
                raise DomainError(
                    f"{name} must be {r}x{c}, got {m.rows}x{m.cols}"
                )

    @classmethod
    def zero(cls, dim_o: int, dim_s: int, dim_u: int) -> "Octet":
        z = F2Matrix.zero
        return cls(
            dim_o, dim_s, dim_u,
            doo=z(dim_o, dim_o), dos=z(dim_s, dim_o),
            duo=z(dim_o, dim_u), dIus=z(dim_s, dim_u),
            dss=z(dim_s, dim_s), dsu=z(dim_u, dim_s),
            dus=z(dim_s, dim_u), duu=z(dim_u, dim_u),
        )

    def matrices(self) -> dict[str, F2Matrix]:
        return {
            name: getattr(self, name)
            for name in ("doo", "dos", "duo", "dIus", "dss", "dsu", "dus", "duu")
        }


_IDENTITY_NAMES = (
    "doo.doo + duo.dsu.dos",
    "dos.doo + dss.dos + dIus.dsu.dos",
    "doo.duo + duo.duu + duo.dsu.dIus",
    "dus + dos.duo + dss.dIus + dIus.duu + dIus.dsu.dIus",
    "dss.dss + dus.dsu",
    "dss.dus + dus.duu",
    "duu.dsu + dsu.dss",
    "duu.duu + dsu.dus",
)


def _sums_to_zero(*terms) -> bool:
    """Whether row lists of one shape add up to the zero matrix."""
    return not any(reduce(xor, rows) for rows in zip(*terms))


def _join(left, right, shift: int) -> list[int]:
    """Rows of the block row [left | right], `left` being `shift` columns wide."""
    return [a | b << shift for a, b in zip(left, right)]


@dataclass(frozen=True)
class OctetReport:
    results: tuple[tuple[str, bool], ...]

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.results)

    def failures(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def octet_verify(octet: Octet) -> OctetReport:
    """Evaluate all eight identities on the rows; report each pass/fail."""
    o, mul = octet, _combine
    doo, dos, duo, dIus = o.doo.data, o.dos.data, o.duo.data, o.dIus.data
    dss, dsu, dus, duu = o.dss.data, o.dsu.data, o.dus.data, o.duu.data
    su_os = mul(dsu, dos)
    su_Ius = mul(dsu, dIus)
    sums = (
        (mul(doo, doo), mul(duo, su_os)),
        (mul(dos, doo), mul(dss, dos), mul(dIus, su_os)),
        (mul(doo, duo), mul(duo, duu), mul(duo, su_Ius)),
        (dus, mul(dos, duo), mul(dss, dIus), mul(dIus, duu), mul(dIus, su_Ius)),
        (mul(dss, dss), mul(dus, dsu)),
        (mul(dss, dus), mul(dus, duu)),
        (mul(duu, dsu), mul(dsu, dss)),
        (mul(duu, duu), mul(dsu, dus)),
    )
    return OctetReport(
        tuple((name, _sums_to_zero(*terms)) for name, terms in zip(_IDENTITY_NAMES, sums))
    )


@dataclass(frozen=True)
class AssembledTriangle:
    complex_to: GradedComplex
    complex_from: GradedComplex
    complex_red: GradedComplex
    map_i: F2Matrix  # red -> to
    map_j: F2Matrix  # to -> from
    map_p: F2Matrix  # from -> red
    homology_to: int
    homology_from: int
    homology_red: int
    exact: bool


def octet_assemble(octet: Octet) -> AssembledTriangle:
    """Build the three block differentials and the i/j/p triangle, asserting
    d^2 = 0, the chain-map property, and exactness of the homology sequence.

    Any failed assertion raises with the name of the identity or node that
    failed; a verified octet never trips them.
    """
    report = octet_verify(octet)
    if not report.all_ok:
        raise DomainError(f"octet fails identities: {report.failures()}")
    o, mul = octet, _combine
    no, ns, nu = o.dim_o, o.dim_s, o.dim_u
    doo, dos, duo, dIus = o.doo.data, o.dos.data, o.duo.data, o.dIus.data
    dss, dsu, dus, duu = o.dss.data, o.dsu.data, o.dus.data, o.duu.data
    # row lists: to = o+s, from = o+u, red = s+u
    d_to = _join(doo, mul(duo, dsu), no) + _join(
        dos, map(xor, dss, mul(dIus, dsu)), no
    )
    d_from = _join(doo, duo, no) + _join(
        mul(dsu, dos), map(xor, duu, mul(dsu, dIus)), no
    )
    d_red = _join(dss, dus, ns) + _join(dsu, duu, ns)
    map_i = [d << ns for d in duo] + [1 << r | d << ns for r, d in enumerate(dIus)]
    map_j = [1 << r for r in range(no)] + [d << no for d in dsu]
    map_p = _join(dos, dIus, no) + [1 << (no + r) for r in range(nu)]

    failures = _assembly_failures(d_to, d_from, d_red, map_i, map_j, map_p)
    if failures:
        raise InvariantError(failures[0])

    c_to = GradedComplex(no + ns, F2Matrix(no + ns, no + ns, tuple(d_to)))
    c_from = GradedComplex(no + nu, F2Matrix(no + nu, no + nu, tuple(d_from)))
    c_red = GradedComplex(ns + nu, F2Matrix(ns + nu, ns + nu, tuple(d_red)))
    maps = (
        F2Matrix(no + ns, ns + nu, tuple(map_i)),
        F2Matrix(no + nu, no + ns, tuple(map_j)),
        F2Matrix(ns + nu, no + nu, tuple(map_p)),
    )
    bases = [c.homology_bases() for c in (c_red, c_to, c_from)]
    failures = _triangle_exactness_failures(bases, maps, ("to", "from", "red"))
    h_red, h_to, h_from = (len(cycles) - len(bounds) for cycles, bounds in bases)
    return AssembledTriangle(
        c_to, c_from, c_red, *maps, h_to, h_from, h_red, exact=not failures,
    )


def _assembly_failures(d_to, d_from, d_red, map_i, map_j, map_p) -> list[str]:
    """What octet_assemble asserts of its row lists: each differential
    squares to zero and i, j, p are chain maps.  One message per failure."""
    mul = _combine
    failures = [
        f"{name} does not square to zero"
        for name, d in (("d_to", d_to), ("d_from", d_from), ("d_red", d_red))
        if any(mul(d, d))
    ]
    chain_checks = (
        ("i", map_i, d_red, d_to),
        ("j", map_j, d_to, d_from),
        ("p", map_p, d_from, d_red),
    )
    failures += [
        f"map {name} is not a chain map"
        for name, f, d_dom, d_cod in chain_checks
        if mul(d_cod, f) != mul(f, d_dom)
    ]
    return failures


def _triangle_exactness_failures(
    bases: list[tuple[list[int], list[int]]],
    maps: tuple[F2Matrix, F2Matrix, F2Matrix],
    node_names: tuple[str, str, str],
) -> list[str]:
    """Exactness of ... -> H(C_0) -f0-> H(C_1) -f1-> H(C_2) -f2-> H(C_0) -> ...

    bases = the (cycles, boundaries) of C_0, C_1, C_2 and maps = the chain
    maps (f_0: C_0->C_1, f_1: C_1->C_2, f_2: C_2->C_0).  At C_{n+1} the image
    of f_n is f_n(Z_n) + B_{n+1}, and the kernel of f_{n+1} is
    {z in Z_{n+1} : f_{n+1} z in B_{n+2}}, which holds B_{n+1} because
    f_{n+1} is a chain map.  Both come as fully reduced echelon bases, which
    are unique, so they are compared as lists.  Returns the nodes where
    image != kernel.
    """
    failures = []
    for n in range(3):
        cycles, _ = bases[n]
        mid_cycles, mid_bounds = bases[(n + 1) % 3]
        _, cod_bounds = bases[(n + 2) % 3]
        image = span_basis(_combine(cycles, maps[n].columns()) + mid_bounds)
        kernel = preimage_in_span(maps[(n + 1) % 3], mid_cycles, cod_bounds)
        if image != kernel:
            failures.append(node_names[n])
    return failures


# ---------------------------------------------------------------------------
# Mapping-cone criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeTriple:
    """Three ungraded complexes with chain maps f_n: C_n -> C_{n+1} and
    candidate homotopies H_n: C_n -> C_{n+2} (indices mod 3)."""

    complexes: tuple[GradedComplex, GradedComplex, GradedComplex]
    f: tuple[F2Matrix, F2Matrix, F2Matrix]
    h: tuple[F2Matrix, F2Matrix, F2Matrix]

    def __post_init__(self) -> None:
        dims = [c.dim for c in self.complexes]
        for n, cx in enumerate(self.complexes):
            cx.check_squares_to_zero()
            fn = self.f[n]
            if (fn.rows, fn.cols) != (dims[(n + 1) % 3], dims[n]):
                raise DomainError(f"f_{n} has the wrong shape")
            hn = self.h[n]
            if (hn.rows, hn.cols) != (dims[(n + 2) % 3], dims[n]):
                raise DomainError(f"H_{n} has the wrong shape")


@dataclass(frozen=True)
class ConeHypothesisReport:
    chain_maps: tuple[bool, bool, bool]        # each f_n a chain map
    homotopy_identities: tuple[bool, bool, bool]  # dH_n + H_n d = f_{n+1} f_n
    psi_isomorphisms: tuple[bool, bool, bool]  # psi_n iso on homology

    @property
    def applicable(self) -> bool:
        return all(self.chain_maps) and all(self.homotopy_identities) and all(
            self.psi_isomorphisms
        )


def cone_verify(triple: ConeTriple) -> ConeHypothesisReport:
    """Check the two mapping-cone hypotheses and whether each
    psi_n = f_{n+2} H_n + H_{n+1} f_n is a homology isomorphism: whether
    psi_n(Z_n) + B_n has the dimension of Z_n."""
    mul = _combine
    d = [c.d.data for c in triple.complexes]
    f = [m.data for m in triple.f]
    h = [m.data for m in triple.h]
    chain = tuple(mul(d[(n + 1) % 3], f[n]) == mul(f[n], d[n]) for n in range(3))
    homot = tuple(
        _sums_to_zero(
            mul(d[(n + 2) % 3], h[n]), mul(h[n], d[n]), mul(f[(n + 1) % 3], f[n])
        )
        for n in range(3)
    )
    f_cols = [m.columns() for m in triple.f]
    h_cols = [m.columns() for m in triple.h]
    iso = []
    for n, cx in enumerate(triple.complexes):
        cycles, bounds = cx.homology_bases()
        psi_cycles = map(
            xor,
            mul(mul(cycles, h_cols[n]), f_cols[(n + 2) % 3]),
            mul(mul(cycles, f_cols[n]), h_cols[(n + 1) % 3]),
        )
        iso.append(len(span_basis([*psi_cycles, *bounds])) == len(cycles))
    return ConeHypothesisReport(chain, homot, tuple(iso))


def cone_exactness(triple: ConeTriple) -> bool:
    """Directly verify image = kernel at all three homology nodes; this does
    not consult the hypotheses."""
    for n, f_n in enumerate(triple.f):
        d_dom = triple.complexes[n].d.data
        d_cod = triple.complexes[(n + 1) % 3].d.data
        if _combine(d_cod, f_n.data) != _combine(f_n.data, d_dom):
            raise DomainError(f"f_{n} is not a chain map")
    bases = [c.homology_bases() for c in triple.complexes]
    return not _triangle_exactness_failures(bases, triple.f, ("C1", "C2", "C0"))
