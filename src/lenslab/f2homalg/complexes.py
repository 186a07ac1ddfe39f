"""Chain complexes over GF(2): the three assembled complexes of an octet,
the i/j/p exact triangle, and the mapping-cone exactness criterion.

All complexes here are a single ungraded bucket with a square-zero
endomorphism (the data is abstract linear algebra, not a manifold invariant).

An octet's eight identities are blocks of three products of its assembly
(d_to^2, d_red^2 and the chain defect of i), built once and reused by the
assembly's own assertions.  octet_verify leaves its report and assembly on
the octet, and the next octet_assemble takes them and clears them, so an
octet that is verified and then assembled is assembled once; nothing stays
on the octet after that.  The triangle's matrices and complexes are built
without re-running their validators, since their shapes follow from the
octet's.  Exactness at each node of a triangle is a dimension count and a
containment test, one forward elimination pass each, and no preimage is
computed.

Exactness and the psi tests of a cone are checked on the dual complexes
(C*, d^T), with each map f replaced by f^T: dualising a long exact sequence
of finite-dimensional spaces keeps it exact, and the columns of f^T are the
rows of f, which are already held, so no transpose is ever built.  A
complex's cocycles and coboundaries (the cycles and boundaries of d^T) come
from one forward elimination pass over d's rows, as echelon bases with
different lowest set bits.  A cone triple finds its chain-map flags and
each complex's cohomology bases once, when it is built.  Every other
elimination here is a forward pass too, with the coboundaries entering it
as ready-made pivots: a dimension (the image at each node, the psi tests
of a cone) is its length, and a containment in the coboundaries holds
exactly when the pass adds no pivot.  Nothing here back-substitutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import xor
from typing import NamedTuple, Sequence

from ..errors import DomainError, InvariantError
from .gf2 import F2Matrix, _combine, _pivot_rows
from .gf2 import preimage_in_span, span_basis, spans_equal  # noqa: F401  perfbench/tracing.py wraps them here


@dataclass(frozen=True)
class GradedComplex:
    """An ungraded complex: C = GF(2)^dim with one square-zero endomorphism d."""

    dim: int
    d: F2Matrix

    def __post_init__(self) -> None:
        if (self.d.rows, self.d.cols) != (self.dim, self.dim):
            raise DomainError("ungraded differential must be square")

    def check_squares_to_zero(self) -> None:
        if any(_combine(self.d.data, self.d.data)):
            raise DomainError("differential does not square to zero")

    def cohomology_bases(self) -> tuple[list[int], list[int]]:
        """(cocycles, coboundaries): echelon bases of ker d^T and im d^T,
        the cycles and boundaries of the dual complex, from one forward
        elimination pass (`_pivot_rows`) over the rows d^T(e_j) | e_j << dim.
        Column j of d^T is row j of d, so no transpose is built.

        The pass keeps rows with different lowest set bits spanning all the
        rows, dim of them, since the e_j parts are independent.  A kept row
        pivoting below dim has its low part's lowest bit there; those low
        parts span im d^T, the low parts of the rows, and are independent.
        The others are clear below dim: e_j-combinations whose image is
        zero, independent, and as many as dim - rank d^T, so their high
        parts are a basis of ker d^T.  Both bases have different lowest set
        bits, which is all that the forward passes reading them need: as
        ready-made pivots in `_pivot_rows`, for the psi tests of a cone and
        the images and containments of exactness.  They are not fully
        reduced.  Over GF(2) the dual complex's homology is the dual of
        H(C), of the same dimension."""
        n = self.dim
        pivots = _pivot_rows([row | (1 << (n + j)) for j, row in enumerate(self.d.data)])
        cocycles = [row >> n for pc, row in pivots.items() if pc >= n]
        low = (1 << n) - 1
        coboundaries = [row & low for pc, row in pivots.items() if pc < n]
        return cocycles, coboundaries


# ---------------------------------------------------------------------------
# Octet: the eight boundary operators and their identities
# ---------------------------------------------------------------------------


# The octet's layout: (name, codomain, domain) of each boundary map, with the
# spaces indexed o = 0, s = 1, u = 2, in the order of Octet's fields.
OCTET_MAPS = (
    ("doo", 0, 0), ("dos", 1, 0), ("duo", 0, 2), ("dIus", 1, 2),
    ("dss", 1, 1), ("dsu", 2, 1), ("dus", 1, 2), ("duu", 2, 2),
)


@dataclass(frozen=True)
class Octet:
    """Boundary data on C^o, C^s, C^u, laid out as OCTET_MAPS says: the
    irreducible-count quartet doo, dos, duo, dIus and the reducible quartet
    dss, dsu, dus, duu.  dus and dIus are different maps.
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
    # octet_verify's (report, assembly), until octet_assemble takes it
    _verified: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = self.dims
        for name, cod, dom in OCTET_MAPS:
            m: F2Matrix = getattr(self, name)
            if (m.rows, m.cols) != (dims[cod], dims[dom]):
                raise DomainError(
                    f"{name} must be {dims[cod]}x{dims[dom]}, got {m.rows}x{m.cols}"
                )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.dim_o, self.dim_s, self.dim_u

    @classmethod
    def zero(cls, dim_o: int, dim_s: int, dim_u: int) -> "Octet":
        dims = dim_o, dim_s, dim_u
        return cls(*dims, **{
            name: F2Matrix.zero(dims[cod], dims[dom]) for name, cod, dom in OCTET_MAPS
        })

    def matrices(self) -> dict[str, F2Matrix]:
        return {name: getattr(self, name) for name, _, _ in OCTET_MAPS}


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


class _OctetAssembly(NamedTuple):
    """An octet's three block differentials and i/j/p maps as row lists, with
    the three products its eight identities are blocks of."""

    dims: tuple[int, int, int]
    d_to: list[int]
    d_from: list[int]
    d_red: list[int]
    map_i: list[int]
    map_j: list[int]
    map_p: list[int]
    to_squared: list[int]   # d_to.d_to
    red_squared: list[int]  # d_red.d_red
    i_defect: list[int]     # d_to.i + i.d_red


def _assembly(octet: Octet) -> _OctetAssembly:
    """The block rows (to = o+s, from = o+u, red = s+u) and the products
    d_to^2, d_red^2 and d_to.i + i.d_red, each built once."""
    mul = _combine
    no, ns, nu = octet.dims
    doo, dos, duo, dIus, dss, dsu, dus, duu = (m.data for m in octet.matrices().values())
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
    return _OctetAssembly(
        octet.dims, d_to, d_from, d_red, map_i, map_j, map_p,
        mul(d_to, d_to), mul(d_red, d_red),
        list(map(xor, mul(d_to, map_i), mul(map_i, d_red))),
    )


def _identity_report(a: _OctetAssembly) -> OctetReport:
    """Each identity is one block of the assembled products, as the block
    forms d_to = [doo, duo.dsu; dos, dss + dIus.dsu], d_red = [dss, dus;
    dsu, duu] and i = [0, duo; 1, dIus] show by multiplying out:

    - identities 1 and 2 are the o-columns of d_to^2 (its o and s rows);
    - identities 3 and 4 are the u-columns of d_to.i + i.d_red (its o and
      s rows), whose s-columns are zero for every octet;
    - identities 5 to 8 are the blocks ss, su, us and uu of d_red^2.
    """
    no, ns, _ = a.dims
    o_cols, s_cols = (1 << no) - 1, (1 << ns) - 1
    blocks = (
        (r & o_cols for r in a.to_squared[:no]),
        (r & o_cols for r in a.to_squared[no:]),
        (r >> ns for r in a.i_defect[:no]),
        (r >> ns for r in a.i_defect[no:]),
        (r & s_cols for r in a.red_squared[:ns]),
        (r >> ns for r in a.red_squared[:ns]),
        (r & s_cols for r in a.red_squared[ns:]),
        (r >> ns for r in a.red_squared[ns:]),
    )
    return OctetReport(
        tuple((name, not any(block)) for name, block in zip(_IDENTITY_NAMES, blocks))
    )


def _report_and_assembly(octet: Octet) -> tuple[OctetReport, _OctetAssembly]:
    a = _assembly(octet)
    return _identity_report(a), a


def octet_verify(octet: Octet) -> OctetReport:
    """Evaluate all eight identities; report each pass/fail.  The report and
    its assembly stay on the octet for the next octet_assemble."""
    verified = _report_and_assembly(octet)
    object.__setattr__(octet, "_verified", verified)
    return verified[0]


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

    An octet that fails its identities is a DomainError naming them.  Any
    other failed assertion raises with the name of the identity or node that
    failed; a verified octet never trips them.
    """
    # the assembly octet_verify left on the octet, taken and cleared, or else
    # a new one: a verified octet is assembled once
    report, a = octet._verified or _report_and_assembly(octet)
    object.__setattr__(octet, "_verified", None)
    if not report.all_ok:
        raise DomainError(f"octet fails identities: {report.failures()}")
    return _assemble(a)


def _unchecked(cls: type, *values):
    """The dataclass instance with these fields, built without running its
    validator: the triangle's matrices and complexes, whose shapes follow
    from the octet's."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def _assemble(a: _OctetAssembly) -> AssembledTriangle:
    """The triangle of an assembly, with no identity gate: raises
    InvariantError with the first of _assembly_failures."""
    failures = _assembly_failures(a)
    if failures:
        raise InvariantError(failures[0])
    no, ns, nu = a.dims
    n_to, n_from, n_red = no + ns, no + nu, ns + nu
    c_to, c_from, c_red = (
        _unchecked(GradedComplex, n, _unchecked(F2Matrix, n, n, tuple(d)))
        for n, d in ((n_to, a.d_to), (n_from, a.d_from), (n_red, a.d_red))
    )
    maps = (
        _unchecked(F2Matrix, n_to, n_red, tuple(a.map_i)),
        _unchecked(F2Matrix, n_from, n_to, tuple(a.map_j)),
        _unchecked(F2Matrix, n_red, n_from, tuple(a.map_p)),
    )
    bases = [c.cohomology_bases() for c in (c_red, c_to, c_from)]
    failures = _triangle_exactness_failures(bases, maps, ("to", "from", "red"))
    h_red, h_to, h_from = (len(cocycles) - len(cobounds) for cocycles, cobounds in bases)
    return AssembledTriangle(
        c_to, c_from, c_red, *maps, h_to, h_from, h_red, exact=not failures,
    )


def _assembly_failures(a: _OctetAssembly) -> list[str]:
    """What octet_assemble asserts of an assembly: each differential squares
    to zero and i, j, p are chain maps.  One message per failure.  The
    squares of d_to and d_red and the chain defect of i are the products
    the identities were read from."""
    mul = _combine
    squares = (
        ("d_to", a.to_squared),
        ("d_from", mul(a.d_from, a.d_from)),
        ("d_red", a.red_squared),
    )
    chain_defects = (
        ("i", any(a.i_defect)),
        ("j", mul(a.d_from, a.map_j) != mul(a.map_j, a.d_to)),
        ("p", mul(a.d_red, a.map_p) != mul(a.map_p, a.d_from)),
    )
    return [
        f"{name} does not square to zero" for name, square in squares if any(square)
    ] + [f"map {name} is not a chain map" for name, defect in chain_defects if defect]


def _triangle_exactness_failures(
    bases: Sequence[tuple[list[int], list[int]]],
    maps: tuple[F2Matrix, F2Matrix, F2Matrix],
    node_names: tuple[str, str, str],
) -> list[str]:
    """Exactness of ... -> H(C_0) -f0-> H(C_1) -f1-> H(C_2) -f2-> H(C_0) -> ...

    bases = the (cocycles, coboundaries) of C_0, C_1, C_2 as bases with
    different lowest set bits (cohomology_bases), and maps = the chain maps
    f_0: C_0->C_1, f_1: C_1->C_2, f_2: C_2->C_0.  Both callers check the
    chain-map property first, and the argument below needs it.  Returns the
    nodes where image != kernel, node n being C_{n+1}.

    The check runs on the dual triangle C_0* -> C_2* -> C_1* -> C_0*, with
    maps f_2^T, f_1^T, f_0^T: the column of f_n^T at e_j is row j of f_n, so
    f_n^T v is _combine([v], f_n.data) and no transpose is built.  Its
    homology sequence is the dual of this one, and over a field a sequence
    A -> B -> C is exact at B exactly when C* -> B* -> A* is exact at B*,
    so node n is exact exactly when the dual is exact at C_{n+1}*.

    Write Z*, B* for cocycles and coboundaries.  At C_{n+1}* the image of
    f_{n+1}^T on cohomology lifts to I_{n+1} = f_{n+1}^T(Z*_{n+2}) +
    B*_{n+1}, and the kernel of f_n^T to K_{n+1} = {z in Z*_{n+1} :
    f_n^T z in B*_n}.  K_{n+1} is the kernel of z -> [f_n^T z] from Z*_{n+1}
    onto I_n / B*_n, so dim K_{n+1} = dim Z*_{n+1} - (dim I_n - dim B*_n).
    Since f_n^T(B*_{n+1}) lies in B*_n, I_{n+1} lies in K_{n+1} exactly when
    f_n^T(f_{n+1}^T(Z*_{n+2})) lies in B*_n.  So the node is exact exactly
    when that containment holds and dim I_{n+1} = dim K_{n+1}: one forward
    elimination pass per node for dim I, and one for the containment, since
    a forward pass of those vectors over the basis of B*_n adds no pivot
    exactly when they lie in B*_n.  Neither pass needs a fully reduced
    basis, only different lowest set bits.
    """
    # lifted[k] = f_k^T(Z*_{k+1}), in C_k*
    lifted = [_combine(bases[(k + 1) % 3][0], maps[k].data) for k in range(3)]
    image_dims = [len(_pivot_rows(lifted[k], bases[k][1])) for k in range(3)]
    failures = []
    for n in range(3):
        mid_cocycles, _ = bases[(n + 1) % 3]
        _, cod_cobounds = bases[n]
        kernel_dim = len(mid_cocycles) - (image_dims[n] - len(cod_cobounds))
        twice = _combine(lifted[(n + 1) % 3], maps[n].data)
        contained = len(_pivot_rows(twice, cod_cobounds)) == len(cod_cobounds)
        if image_dims[(n + 1) % 3] != kernel_dim or not contained:
            failures.append(node_names[n])
    return failures


# ---------------------------------------------------------------------------
# Mapping-cone criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeTriple:
    """Three ungraded complexes with chain maps f_n: C_n -> C_{n+1} and
    candidate homotopies H_n: C_n -> C_{n+2} (indices mod 3).  Where it checks
    d^2 = 0 it also finds, once, whether each f_n is a chain map and each
    complex's cohomology bases, which cone_verify and cone_exactness read:
    echelon bases from one forward pass per complex, which those two extend
    by forward passes alone."""

    complexes: tuple[GradedComplex, GradedComplex, GradedComplex]
    f: tuple[F2Matrix, F2Matrix, F2Matrix]
    h: tuple[F2Matrix, F2Matrix, F2Matrix]
    _chain_maps: tuple[bool, bool, bool] = field(init=False, repr=False, compare=False)
    _bases: tuple = field(init=False, repr=False, compare=False)  # cohomology_bases() of each

    def __post_init__(self) -> None:
        dims = [c.dim for c in self.complexes]
        d = [c.d.data for c in self.complexes]
        chain = []
        for n, cx in enumerate(self.complexes):
            cx.check_squares_to_zero()
            fn, hn = self.f[n], self.h[n]
            if (fn.rows, fn.cols) != (dims[(n + 1) % 3], dims[n]):
                raise DomainError(f"f_{n} has the wrong shape")
            if (hn.rows, hn.cols) != (dims[(n + 2) % 3], dims[n]):
                raise DomainError(f"H_{n} has the wrong shape")
            chain.append(_combine(d[(n + 1) % 3], fn.data) == _combine(fn.data, d[n]))
        object.__setattr__(self, "_chain_maps", tuple(chain))
        object.__setattr__(self, "_bases", tuple(c.cohomology_bases() for c in self.complexes))


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
    psi_n = f_{n+2} H_n + H_{n+1} f_n is a homology isomorphism.

    That is tested on the dual complex: whether psi_n^T(Z*_n) + B*_n has the
    dimension of Z*_n, with psi_n^T = H_n^T f_{n+2}^T + f_n^T H_{n+1}^T and
    each transpose applied through the rows of its map.  Both the primal
    test, dim(psi_n(Z_n) + B_n) = dim Z_n, and this one say that the
    preimage of B_n under psi_n meets Z_n in a space of the dimension of
    B_n, since Z*_n and B*_n are the annihilators of B_n and Z_n; so they
    agree for every psi_n, chain map or not."""
    mul = _combine
    d = [c.d.data for c in triple.complexes]
    f = [m.data for m in triple.f]
    h = [m.data for m in triple.h]
    homot = tuple(
        _sums_to_zero(
            mul(d[(n + 2) % 3], h[n]), mul(h[n], d[n]), mul(f[(n + 1) % 3], f[n])
        )
        for n in range(3)
    )
    iso = []
    for n, (cocycles, cobounds) in enumerate(triple._bases):
        psi_cocycles = map(
            xor,
            mul(mul(cocycles, f[(n + 2) % 3]), h[n]),
            mul(mul(cocycles, h[(n + 1) % 3]), f[n]),
        )
        iso.append(len(_pivot_rows(psi_cocycles, cobounds)) == len(cocycles))
    return ConeHypothesisReport(triple._chain_maps, homot, tuple(iso))


def cone_exactness(triple: ConeTriple) -> bool:
    """Directly verify image = kernel at all three homology nodes; this does
    not consult the hypotheses."""
    if not all(triple._chain_maps):
        raise DomainError(f"f_{triple._chain_maps.index(False)} is not a chain map")
    return not _triangle_exactness_failures(triple._bases, triple.f, ("C1", "C2", "C0"))
