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

from .gf2 import F2Matrix, _echelon
from .complexes import ConeTriple, GradedComplex, Octet


def random_invertible(rng: random.Random, n: int) -> tuple[F2Matrix, F2Matrix]:
    """A random invertible matrix and its inverse (product of elementary ops)."""
    if n == 0:
        return F2Matrix.zero(0, 0), F2Matrix.zero(0, 0)
    mat = [1 << i for i in range(n)]
    for _ in range(2 * n * n):
        if n < 2:
            break
        i = rng.randrange(n)
        j = rng.randrange(n)
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
    z = F2Matrix.zero
    one = F2Matrix.identity(1)
    nil2 = F2Matrix(2, 2, (0, 1))  # strictly triangular, squares to zero
    seeds = [Octet.zero(1, 1, 1), Octet.zero(1, 0, 0), Octet.zero(0, 1, 1)]
    # dos and dsu both nonzero (the only seed with a composite identity term)
    seeds.append(
        Octet(1, 1, 1,
              doo=z(1, 1), dos=one, duo=z(1, 1), dIus=z(1, 1),
              dss=z(1, 1), dsu=one, dus=z(1, 1), duu=z(1, 1))
    )
    # single nonzero map seeds
    seeds.append(
        Octet(1, 1, 0,
              doo=z(1, 1), dos=one, duo=z(1, 0), dIus=z(1, 0),
              dss=z(1, 1), dsu=z(0, 1), dus=z(1, 0), duu=z(0, 0))
    )
    seeds.append(
        Octet(1, 0, 1,
              doo=z(1, 1), dos=z(0, 1), duo=one, dIus=z(0, 1),
              dss=z(0, 0), dsu=z(1, 0), dus=z(0, 1), duu=z(1, 1))
    )
    seeds.append(
        Octet(0, 1, 1,
              doo=z(0, 0), dos=z(1, 0), duo=z(0, 1), dIus=one,
              dss=z(1, 1), dsu=z(1, 1), dus=z(1, 1), duu=z(1, 1))
    )
    seeds.append(
        Octet(0, 1, 1,
              doo=z(0, 0), dos=z(1, 0), duo=z(0, 1), dIus=z(1, 1),
              dss=z(1, 1), dsu=one, dus=z(1, 1), duu=z(1, 1))
    )
    # nilpotent squares on a single summand
    seeds.append(
        Octet(2, 0, 0,
              doo=nil2, dos=z(0, 2), duo=z(2, 0), dIus=z(0, 0),
              dss=z(0, 0), dsu=z(0, 0), dus=z(0, 0), duu=z(0, 0))
    )
    seeds.append(
        Octet(0, 2, 0,
              doo=z(0, 0), dos=z(2, 0), duo=z(0, 0), dIus=z(2, 0),
              dss=nil2, dsu=z(0, 2), dus=z(2, 0), duu=z(0, 0))
    )
    seeds.append(
        Octet(0, 0, 2,
              doo=z(0, 0), dos=z(0, 0), duo=z(0, 2), dIus=z(0, 2),
              dss=z(0, 0), dsu=z(2, 0), dus=z(0, 2), duu=nil2)
    )
    return seeds


_SEEDS = _seed_octets()


def _direct_sum(a: Octet, b: Octet) -> Octet:
    def stack(x: F2Matrix, y: F2Matrix) -> F2Matrix:
        return F2Matrix.block([
            [x, F2Matrix.zero(x.rows, y.cols)],
            [F2Matrix.zero(y.rows, x.cols), y],
        ])

    return Octet(
        a.dim_o + b.dim_o, a.dim_s + b.dim_s, a.dim_u + b.dim_u,
        doo=stack(a.doo, b.doo), dos=stack(a.dos, b.dos),
        duo=stack(a.duo, b.duo), dIus=stack(a.dIus, b.dIus),
        dss=stack(a.dss, b.dss), dsu=stack(a.dsu, b.dsu),
        dus=stack(a.dus, b.dus), duu=stack(a.duu, b.duu),
    )


def _conjugate(o: Octet, rng: random.Random) -> Octet:
    p_o, p_o_inv = random_invertible(rng, o.dim_o)
    p_s, p_s_inv = random_invertible(rng, o.dim_s)
    p_u, p_u_inv = random_invertible(rng, o.dim_u)

    def tf(m: F2Matrix, left: F2Matrix, right_inv: F2Matrix) -> F2Matrix:
        return left @ m @ right_inv

    return Octet(
        o.dim_o, o.dim_s, o.dim_u,
        doo=tf(o.doo, p_o, p_o_inv), dos=tf(o.dos, p_s, p_o_inv),
        duo=tf(o.duo, p_o, p_u_inv), dIus=tf(o.dIus, p_s, p_u_inv),
        dss=tf(o.dss, p_s, p_s_inv), dsu=tf(o.dsu, p_u, p_s_inv),
        dus=tf(o.dus, p_s, p_u_inv), duu=tf(o.duu, p_u, p_u_inv),
    )


def random_octet(rng: random.Random, max_dim: int = 6) -> Octet:
    """Random identity-satisfying octet with all three dims <= max_dim."""
    acc = _SEEDS[rng.randrange(len(_SEEDS))]
    for _ in range(6):
        nxt = _SEEDS[rng.randrange(len(_SEEDS))]
        if (
            acc.dim_o + nxt.dim_o > max_dim
            or acc.dim_s + nxt.dim_s > max_dim
            or acc.dim_u + nxt.dim_u > max_dim
        ):
            break
        acc = _direct_sum(acc, nxt)
    return _conjugate(acc, rng)


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
            GradedComplex.ungraded(na, d_a),
            GradedComplex.ungraded(nb, d_b),
            GradedComplex.ungraded(na + nb, d_cone),
        ),
        (f0, f1, f2),
        (h0, h1, h2),
    )
    return _conjugate_triple(triple, rng)


def _conjugate_triple(t: ConeTriple, rng: random.Random) -> ConeTriple:
    dims = [c.dim for c in t.complexes]
    ps = []
    for n in dims:
        ps.append(random_invertible(rng, n))
    new_cs = []
    for idx, c in enumerate(t.complexes):
        p, p_inv = ps[idx]
        new_cs.append(GradedComplex.ungraded(dims[idx], p @ c.d @ p_inv))
    new_f = tuple(
        ps[(n + 1) % 3][0] @ t.f[n] @ ps[n][1] for n in range(3)
    )
    new_h = tuple(
        ps[(n + 2) % 3][0] @ t.h[n] @ ps[n][1] for n in range(3)
    )
    return ConeTriple(tuple(new_cs), new_f, new_h)
