"""Random generators for identity-satisfying octets and cone triples.

Direct random sampling almost never satisfies the octet identities, so
valid instances are built from hand-verified seed octets, combined by
direct sum, and then conjugated by random invertible basis changes that
respect the o/s/u splitting -- all three steps preserve the identities.
Cone triples come from the mapping cone of a random chain map, which
satisfies both cone hypotheses with explicit homotopies.

Both generators write every map as a list of row bitmasks and pass it
through one conjugation, `_conjugated`, which draws a basis change for each
space and gives P_cod m P_dom^-1 of each map.  Each call builds its one
`Octet` or `ConeTriple` from the conjugated rows, and no generator
multiplies or assembles `F2Matrix` objects.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .gf2 import F2Matrix, _combine, _echelon
from .complexes import OCTET_MAPS, ConeTriple, GradedComplex, Octet


def random_invertible(rng: random.Random, n: int) -> tuple[F2Matrix, F2Matrix]:
    """A random invertible matrix and its inverse (product of elementary ops).

    Each row index is drawn as `rng.randrange(n)` draws it (k = n.bit_length()
    random bits, drawn again while the value is n or more), so the matrices
    are those of two `randrange` calls per operation, at a fraction of the
    cost."""
    if n == 0:
        return F2Matrix.zero(0, 0), F2Matrix.zero(0, 0)
    mat = [1 << i for i in range(n)]
    if n >= 2:
        bits, k = rng.getrandbits, n.bit_length()
        for _ in range(2 * n * n):
            i = bits(k)
            while i >= n:
                i = bits(k)
            j = bits(k)
            while j >= n:
                j = bits(k)
            if i != j:
                mat[i] ^= mat[j]
    m = F2Matrix(n, n, tuple(mat))
    return m, _invert(m)


def _invert(m: F2Matrix) -> F2Matrix:
    """Inverse of an invertible matrix: eliminating the rows of [M | I] leaves
    the row pivoting at column j as e_j | (row j of M^-1) << n."""
    n = m.rows
    echelon = _echelon(row | (1 << (n + i)) for i, row in enumerate(m.data))
    return F2Matrix(n, n, tuple(row >> n for _, row in echelon))


def _seed_octets() -> list[Octet]:
    """Hand-verified octets: every one satisfies all eight identities."""
    z = Octet.zero
    one = F2Matrix.identity(1)
    nil2 = F2Matrix(2, 2, (0, 1))  # strictly triangular, squares to zero
    return [
        z(1, 1, 1),
        z(1, 0, 0),
        z(0, 1, 1),
        # dos and dsu both nonzero (the only seed with a composite identity term)
        replace(z(1, 1, 1), dos=one, dsu=one),
        # single nonzero map seeds
        replace(z(1, 1, 0), dos=one),
        replace(z(1, 0, 1), duo=one),
        replace(z(0, 1, 1), dIus=one),
        replace(z(0, 1, 1), dsu=one),
        # nilpotent squares on a single summand
        replace(z(2, 0, 0), doo=nil2),
        replace(z(0, 2, 0), dss=nil2),
        replace(z(0, 0, 2), duu=nil2),
    ]


_SEEDS = _seed_octets()
# each seed's rows of each map, in the order of OCTET_MAPS
_SEED_ROWS = [[getattr(seed, name).data for name, _, _ in OCTET_MAPS] for seed in _SEEDS]


def _conjugated(rng: random.Random, dims, maps) -> list[F2Matrix]:
    """P_cod m P_dom^-1 of each (rows of m, cod, dom) in `maps`, with one
    basis change P_i drawn for each space of `dims`, in order."""
    ps = [random_invertible(rng, n) for n in dims]
    return [
        F2Matrix(dims[cod], dims[dom], tuple(
            _combine(ps[cod][0].data, _combine(rows, ps[dom][1].data))
        ))
        for rows, cod, dom in maps
    ]


def random_octet(rng: random.Random, max_dim: int = 6) -> Octet:
    """Random identity-satisfying octet with all three dims <= max_dim: the
    block-diagonal sum of seeds (each map's rows shifted past the columns of
    the seeds before it), conjugated.  The first seed drawn is always taken;
    up to six more follow, until one would take a dimension past max_dim."""
    dims = [0, 0, 0]
    rows: list[list[int]] = [[] for _ in OCTET_MAPS]
    for draw in range(7):
        pick = rng.randrange(len(_SEEDS))
        sizes = _SEEDS[pick].dims
        if draw and any(a + b > max_dim for a, b in zip(dims, sizes)):
            break
        for out, part, (_, _, dom) in zip(rows, _SEED_ROWS[pick], OCTET_MAPS):
            out += [row << dims[dom] for row in part]
        dims = [a + b for a, b in zip(dims, sizes)]
    return Octet(*dims, *_conjugated(
        rng, dims, [(out, cod, dom) for out, (_, cod, dom) in zip(rows, OCTET_MAPS)]
    ))


def random_square_zero(rng: random.Random, n: int) -> F2Matrix:
    """Random endomorphism with d^2 = 0 (conjugated pairing differential)."""
    if n == 0:
        return F2Matrix.zero(0, 0)
    k = rng.randrange(n // 2 + 1)
    data = [0] * n
    for i in range(k):
        data[2 * i + 1] = 1 << (2 * i)  # e_{2i+1} -> e_{2i}
    return _conjugated(rng, [n], [(data, 0, 0)])[0]


def random_chain_map(
    rng: random.Random, d_dom: F2Matrix, d_cod: F2Matrix
) -> F2Matrix:
    """Uniform random solution of f d_dom = d_cod f.

    Unknown f_{ik} is bit i*n + k, so row i of f is the n bits from i*n.  The
    constraint row of entry (i, j) is column j of d_dom shifted to row i of f,
    for (f d_dom)_{ij} = sum_k f_{ik} d_dom[k][j], plus bit j of each row k of
    f that row i of d_cod selects, for (d_cod f)_{ij}."""
    n, m = d_dom.cols, d_cod.cols
    if n == 0 or m == 0:
        return F2Matrix.zero(m, n)
    cols = d_dom.columns()
    rows = []
    for i, sel in enumerate(d_cod.data):
        spread = sum(1 << (k * n) for k in range(m) if (sel >> k) & 1)
        rows += [(cols[j] << (i * n)) ^ (spread << j) for j in range(n)]
    vec = 0
    for b in F2Matrix(len(rows), m * n, tuple(rows)).nullspace():
        # random() < 0.5 without a float: the same two 32-bit words, and bit
        # 31 is the top bit of the first, which decides that comparison
        if not (rng.getrandbits(64) >> 31) & 1:
            vec ^= b
    mask = (1 << n) - 1
    return F2Matrix(m, n, tuple((vec >> (i * n)) & mask for i in range(m)))


def random_cone_triple(rng: random.Random, max_dim: int = 5) -> ConeTriple:
    """Mapping-cone triple of a random chain map; satisfies both hypotheses.

    For g: A -> B the cone C = A (+) B carries d(a, b) = (d_A a, g a + d_B b),
    and with f = (g, include, project) the homotopies H_0(a) = (a, 0),
    H_1 = 0, H_2(a, b) = b make every psi_n the identity.  Each map is
    written as rows, A's coordinates first in C, and conjugated once.
    """
    na = rng.randrange(1, max_dim + 1)
    nb = rng.randrange(1, max_dim + 1)
    d_a = random_square_zero(rng, na)
    d_b = random_square_zero(rng, nb)
    g = random_chain_map(rng, d_a, d_b)
    unit_a = [1 << i for i in range(na)]
    unit_b = [1 << i for i in range(nb)]
    d_cone = [*d_a.data, *(gr | dr << na for gr, dr in zip(g.data, d_b.data))]
    maps = [  # (rows, codomain, domain), the spaces A, B, C numbered 0, 1, 2
        (d_a.data, 0, 0), (d_b.data, 1, 1), (d_cone, 2, 2),  # d_A, d_B, d_C
        (g.data, 1, 0), ([0] * na + unit_b, 2, 1), (unit_a, 0, 2),  # f_0, f_1, f_2
        (unit_a + [0] * nb, 2, 0), ([0] * na, 0, 1), ([u << na for u in unit_b], 1, 2),  # H_n
    ]
    d0, d1, d2, *fh = _conjugated(rng, [na, nb, na + nb], maps)
    complexes = (GradedComplex(na, d0), GradedComplex(nb, d1), GradedComplex(na + nb, d2))
    return ConeTriple(complexes, tuple(fh[:3]), tuple(fh[3:]))
