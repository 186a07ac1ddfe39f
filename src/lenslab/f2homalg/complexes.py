"""Chain complexes over GF(2): the three assembled complexes of an octet,
the i/j/p exact triangle, and the mapping-cone exactness criterion.

All complexes here are a single ungraded bucket with a square-zero
endomorphism (the data is abstract linear algebra, not a manifold invariant).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError, InvariantError
from .gf2 import (
    F2Matrix,
    preimage_in_span,
    span_basis,
    spans_equal,
)


@dataclass(frozen=True)
class GradedComplex:
    """An ungraded complex: C = GF(2)^dim with one square-zero endomorphism d."""

    dim: int
    d: F2Matrix

    @classmethod
    def ungraded(cls, dim: int, d: F2Matrix) -> "GradedComplex":
        if (d.rows, d.cols) != (dim, dim):
            raise DomainError("ungraded differential must be square")
        return cls(dim, d)

    def check_squares_to_zero(self) -> None:
        if not (self.d @ self.d).is_zero():
            raise DomainError("differential does not square to zero")

    # the two subspaces homology is built from
    def cycles(self) -> list[int]:
        return span_basis(self.d.nullspace())

    def boundaries(self) -> list[int]:
        return span_basis([self.d.apply(1 << j) for j in range(self.d.cols)])

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


def _identity_values(o: Octet) -> list[F2Matrix]:
    return [
        o.doo @ o.doo + o.duo @ o.dsu @ o.dos,
        o.dos @ o.doo + o.dss @ o.dos + o.dIus @ o.dsu @ o.dos,
        o.doo @ o.duo + o.duo @ o.duu + o.duo @ o.dsu @ o.dIus,
        o.dus + o.dos @ o.duo + o.dss @ o.dIus + o.dIus @ o.duu
        + o.dIus @ o.dsu @ o.dIus,
        o.dss @ o.dss + o.dus @ o.dsu,
        o.dss @ o.dus + o.dus @ o.duu,
        o.duu @ o.dsu + o.dsu @ o.dss,
        o.duu @ o.duu + o.dsu @ o.dus,
    ]


@dataclass(frozen=True)
class OctetReport:
    results: tuple[tuple[str, bool], ...]

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.results)

    def failures(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def octet_verify(octet: Octet) -> OctetReport:
    """Evaluate all eight identities; report each pass/fail."""
    values = _identity_values(octet)
    return OctetReport(
        tuple((name, val.is_zero()) for name, val in zip(_IDENTITY_NAMES, values))
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
    o = octet
    d_to = F2Matrix.block([
        [o.doo, o.duo @ o.dsu],
        [o.dos, o.dss + o.dIus @ o.dsu],
    ])
    d_from = F2Matrix.block([
        [o.doo, o.duo],
        [o.dsu @ o.dos, o.duu + o.dsu @ o.dIus],
    ])
    d_red = F2Matrix.block([
        [o.dss, o.dus],
        [o.dsu, o.duu],
    ])
    no, ns, nu = o.dim_o, o.dim_s, o.dim_u
    ident_s = F2Matrix.identity(ns)
    ident_o = F2Matrix.identity(no)
    ident_u = F2Matrix.identity(nu)
    map_i = F2Matrix.block([  # red = s+u  ->  to = o+s
        [F2Matrix.zero(no, ns), o.duo],
        [ident_s, o.dIus],
    ])
    map_j = F2Matrix.block([  # to = o+s  ->  from = o+u
        [ident_o, F2Matrix.zero(no, ns)],
        [F2Matrix.zero(nu, no), o.dsu],
    ])
    map_p = F2Matrix.block([  # from = o+u  ->  red = s+u
        [o.dos, o.dIus],
        [F2Matrix.zero(nu, no), ident_u],
    ])

    for name, mat in (("d_to", d_to), ("d_from", d_from), ("d_red", d_red)):
        if not (mat @ mat).is_zero():
            raise InvariantError(f"{name} does not square to zero")
    chain_checks = (
        ("i", map_i, d_red, d_to),
        ("j", map_j, d_to, d_from),
        ("p", map_p, d_from, d_red),
    )
    for name, f, d_dom, d_cod in chain_checks:
        if not (d_cod @ f + f @ d_dom).is_zero():
            raise InvariantError(f"map {name} is not a chain map")

    c_to = GradedComplex.ungraded(no + ns, d_to)
    c_from = GradedComplex.ungraded(no + nu, d_from)
    c_red = GradedComplex.ungraded(ns + nu, d_red)
    failures = _triangle_exactness_failures(
        (c_red, c_to, c_from), (map_i, map_j, map_p), ("to", "from", "red")
    )
    return AssembledTriangle(
        c_to, c_from, c_red, map_i, map_j, map_p,
        c_to.homology_dim(), c_from.homology_dim(), c_red.homology_dim(),
        exact=not failures,
    )


def _induced_image(f: F2Matrix, dom: GradedComplex, cod: GradedComplex) -> list[int]:
    """Basis (in the codomain chain space) of image(f_*) + boundaries."""
    img = [f.apply(z) for z in dom.cycles()]
    return span_basis(img + cod.boundaries())


def _induced_kernel(f: F2Matrix, dom: GradedComplex, cod: GradedComplex) -> list[int]:
    """Basis of {z in Z(dom) : f z in B(cod)} + boundaries of dom."""
    pre = preimage_in_span(f, dom.cycles(), cod.boundaries())
    return span_basis(pre + dom.boundaries())


def _triangle_exactness_failures(
    complexes: tuple[GradedComplex, GradedComplex, GradedComplex],
    maps: tuple[F2Matrix, F2Matrix, F2Matrix],
    node_names: tuple[str, str, str],
) -> list[str]:
    """Exactness of ... -> H(C_0) -f0-> H(C_1) -f1-> H(C_2) -f2-> H(C_0) -> ...

    complexes = (C_0, C_1, C_2), maps = (f_0: C_0->C_1, f_1: C_1->C_2,
    f_2: C_2->C_0).  Returns the nodes where image != kernel.
    """
    failures = []
    for n in range(3):
        into = maps[n % 3]          # f_n : C_n -> C_{n+1}
        out_of = maps[(n + 1) % 3]  # f_{n+1} : C_{n+1} -> C_{n+2}
        mid = complexes[(n + 1) % 3]
        image = _induced_image(into, complexes[n % 3], mid)
        kernel = _induced_kernel(out_of, mid, complexes[(n + 2) % 3])
        if not spans_equal(image, kernel):
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


def _is_homology_iso(psi: F2Matrix, cx: GradedComplex) -> bool:
    cycles = cx.cycles()
    bounds = cx.boundaries()
    h_dim = len(cycles) - len(bounds)
    image = span_basis([psi.apply(z) for z in cycles] + bounds)
    return len(image) - len(bounds) == h_dim


def cone_verify(triple: ConeTriple) -> ConeHypothesisReport:
    """Check the two mapping-cone hypotheses and whether each
    psi_n = f_{n+2} H_n + H_{n+1} f_n is a homology isomorphism."""
    cs = triple.complexes
    d = [c.d for c in cs]
    chain = []
    homot = []
    iso = []
    for n in range(3):
        f_n = triple.f[n]
        chain.append((d[(n + 1) % 3] @ f_n + f_n @ d[n]).is_zero())
    for n in range(3):
        lhs = d[(n + 2) % 3] @ triple.h[n] + triple.h[n] @ d[n]
        rhs = triple.f[(n + 1) % 3] @ triple.f[n]
        homot.append((lhs + rhs).is_zero())
    for n in range(3):
        psi = triple.f[(n + 2) % 3] @ triple.h[n] + triple.h[(n + 1) % 3] @ triple.f[n]
        iso.append(_is_homology_iso(psi, cs[n]))
    return ConeHypothesisReport(tuple(chain), tuple(homot), tuple(iso))


def cone_exactness(triple: ConeTriple) -> bool:
    """Directly verify image = kernel at all three homology nodes; this does
    not consult the hypotheses."""
    for n, f_n in enumerate(triple.f):
        d_dom = triple.complexes[n].d
        d_cod = triple.complexes[(n + 1) % 3].d
        if not (d_cod @ f_n + f_n @ d_dom).is_zero():
            raise DomainError(f"f_{n} is not a chain map")
    return not _triangle_exactness_failures(
        triple.complexes, triple.f, ("C1", "C2", "C0")
    )
