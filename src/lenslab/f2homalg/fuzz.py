"""Random generators for identity-satisfying octets and cone triples.

Direct random sampling almost never satisfies the octet identities, so
valid instances are built from hand-verified seed octets, combined by
direct sum, and then conjugated by random invertible basis changes that
respect the o/s/u splitting -- all three steps preserve the identities.
Cone triples come from the mapping cone of a random chain map, which
satisfies both cone hypotheses with explicit homotopies.
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


def _direct_sum(parts: list[Octet]) -> Octet:
    """The block-diagonal sum: each map of each part, its rows shifted past
    the columns of the parts before it."""
    dims = [0, 0, 0]
    rows: dict[str, list[int]] = {name: [] for name, _, _ in OCTET_MAPS}
    for part in parts:
        for name, _, dom in OCTET_MAPS:
            rows[name] += [row << dims[dom] for row in getattr(part, name).data]
        dims = [a + b for a, b in zip(dims, part.dims)]
    return Octet(*dims, **{
        name: F2Matrix(dims[cod], dims[dom], tuple(rows[name]))
        for name, cod, dom in OCTET_MAPS
    })


def _conjugate(o: Octet, rng: random.Random) -> Octet:
    """P_cod @ m @ P_dom^-1 for every map, P_o, P_s, P_u drawn in that order."""
    dims = o.dims
    ps = [random_invertible(rng, n) for n in dims]
    return Octet(*dims, **{
        name: F2Matrix(dims[cod], dims[dom], tuple(_combine(
            ps[cod][0].data, _combine(getattr(o, name).data, ps[dom][1].data)
        )))
        for name, cod, dom in OCTET_MAPS
    })


def random_octet(rng: random.Random, max_dim: int = 6) -> Octet:
    """Random identity-satisfying octet with all three dims <= max_dim."""
    parts = [_SEEDS[rng.randrange(len(_SEEDS))]]
    for _ in range(6):
        nxt = _SEEDS[rng.randrange(len(_SEEDS))]
        if any(sum(sizes) > max_dim for sizes in zip(nxt.dims, *(p.dims for p in parts))):
            break
        parts.append(nxt)
    return _conjugate(_direct_sum(parts), rng)


def random_square_zero(rng: random.Random, n: int) -> F2Matrix:
    """Random endomorphism with d^2 = 0 (conjugated pairing differential)."""
    if n == 0:
        return F2Matrix.zero(0, 0)
    k = rng.randrange(n // 2 + 1)
    data = [0] * n
    for i in range(k):
        data[2 * i + 1] = 1 << (2 * i)  # e_{2i+1} -> e_{2i}
    d = F2Matrix(n, n, tuple(data))
    p, p_inv = random_invertible(rng, n)
    return p @ d @ p_inv


def random_chain_map(
    rng: random.Random, d_dom: F2Matrix, d_cod: F2Matrix
) -> F2Matrix:
    """Uniform random solution of f d_dom = d_cod f."""
    n, m = d_dom.cols, d_cod.cols
    if n == 0 or m == 0:
        return F2Matrix.zero(m, n)
    # unknowns f_{rc}; constraint rows indexed by (i, j)
    rows = []
    for i in range(m):
        for j in range(n):
            row = 0
            # (f d_dom)_{ij} = sum_k f_{ik} d_dom[k][j]
            for k in range(n):
                if d_dom.entry(k, j):
                    row ^= 1 << (i * n + k)
            # (d_cod f)_{ij} = sum_k d_cod[i][k] f_{kj}
            for k in range(m):
                if d_cod.entry(i, k):
                    row ^= 1 << (k * n + j)
            rows.append(row)
    basis = F2Matrix(len(rows), m * n, tuple(rows)).nullspace()
    vec = 0
    for b in basis:
        if rng.random() < 0.5:
            vec ^= b
    data = [0] * m
    for r in range(m):
        for c in range(n):
            if (vec >> (r * n + c)) & 1:
                data[r] |= 1 << c
    return F2Matrix(m, n, tuple(data))


def random_cone_triple(rng: random.Random, max_dim: int = 5) -> ConeTriple:
    """Mapping-cone triple of a random chain map; satisfies both hypotheses.

    For g: A -> B the cone C = A (+) B carries d(a, b) = (d_A a, g a + d_B b),
    and with f = (g, include, project) the homotopies H_0(a) = (a, 0),
    H_1 = 0, H_2(a, b) = b make every psi_n the identity.
    """
    na = rng.randrange(1, max_dim + 1)
    nb = rng.randrange(1, max_dim + 1)
    d_a = random_square_zero(rng, na)
    d_b = random_square_zero(rng, nb)
    g = random_chain_map(rng, d_a, d_b)
    d_cone = F2Matrix.block([
        [d_a, F2Matrix.zero(na, nb)],
        [g, d_b],
    ])
    f0 = g
    f1 = F2Matrix.block([[F2Matrix.zero(na, nb)], [F2Matrix.identity(nb)]])
    f2 = F2Matrix.block([[F2Matrix.identity(na), F2Matrix.zero(na, nb)]])
    h0 = F2Matrix.block([[F2Matrix.identity(na)], [F2Matrix.zero(nb, na)]])
    h1 = F2Matrix.zero(na, nb)
    h2 = F2Matrix.block([[F2Matrix.zero(nb, na), F2Matrix.identity(nb)]])
    triple = ConeTriple(
        (
            GradedComplex(na, d_a),
            GradedComplex(nb, d_b),
            GradedComplex(na + nb, d_cone),
        ),
        (f0, f1, f2),
        (h0, h1, h2),
    )
    return _conjugate_triple(triple, rng)


def _conjugate_triple(t: ConeTriple, rng: random.Random) -> ConeTriple:
    ps = [random_invertible(rng, c.dim) for c in t.complexes]
    complexes = tuple(
        GradedComplex(c.dim, p @ c.d @ p_inv) for c, (p, p_inv) in zip(t.complexes, ps)
    )
    new_f = tuple(ps[(n + 1) % 3][0] @ t.f[n] @ ps[n][1] for n in range(3))
    new_h = tuple(ps[(n + 2) % 3][0] @ t.h[n] @ ps[n][1] for n in range(3))
    return ConeTriple(complexes, new_f, new_h)
