"""Test oracles for `lenslab.f2homalg`, kept apart from the code they check.

None of these is used by the package: a set-of-positions elimination, an
entry-by-entry product, the octet identities and assembled differentials as
`F2Matrix` expressions, and brute-force subspaces of GF(2)^n for small n.
"""

from lenslab.f2homalg.gf2 import F2Matrix


def rank_positions(entries: set[tuple[int, int]], rows: int, cols: int) -> int:
    """Set-of-positions Gaussian elimination; independent of the bitmask path."""
    matrix: dict[int, set[int]] = {}
    for r, c in entries:
        matrix.setdefault(r, set()).symmetric_difference_update({c})
    live = [cells for cells in matrix.values() if cells]
    rank = 0
    while live:
        row = live.pop()
        if not row:
            continue
        pivot = min(row)
        rank += 1
        nxt = []
        for other in live:
            if pivot in other:
                other = other ^ row
            if other:
                nxt.append(other)
        live = nxt
    return rank


def rank_sparse(m: F2Matrix) -> int:
    return rank_positions(set(m.entries()), m.rows, m.cols)


def product_by_entries(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """a @ b from the definition (ab)_ij = sum_k a_ik b_kj."""
    assert a.cols == b.rows
    return F2Matrix.from_entries(a.rows, b.cols, [
        (i, j) for i in range(a.rows) for j in range(b.cols)
        if sum(a.entry(i, k) & b.entry(k, j) for k in range(a.cols)) % 2
    ])


def identity_values(o) -> list[tuple[str, F2Matrix]]:
    """The eight octet identities, each as a matrix that must be zero."""
    return [
        ("doo.doo + duo.dsu.dos", o.doo @ o.doo + o.duo @ o.dsu @ o.dos),
        ("dos.doo + dss.dos + dIus.dsu.dos",
         o.dos @ o.doo + o.dss @ o.dos + o.dIus @ o.dsu @ o.dos),
        ("doo.duo + duo.duu + duo.dsu.dIus",
         o.doo @ o.duo + o.duo @ o.duu + o.duo @ o.dsu @ o.dIus),
        ("dus + dos.duo + dss.dIus + dIus.duu + dIus.dsu.dIus",
         o.dus + o.dos @ o.duo + o.dss @ o.dIus + o.dIus @ o.duu
         + o.dIus @ o.dsu @ o.dIus),
        ("dss.dss + dus.dsu", o.dss @ o.dss + o.dus @ o.dsu),
        ("dss.dus + dus.duu", o.dss @ o.dus + o.dus @ o.duu),
        ("duu.dsu + dsu.dss", o.duu @ o.dsu + o.dsu @ o.dss),
        ("duu.duu + dsu.dus", o.duu @ o.duu + o.dsu @ o.dus),
    ]


def assembled_differentials(o) -> tuple[F2Matrix, F2Matrix, F2Matrix]:
    """(d_to, d_from, d_red) of an octet, built as block matrices."""
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
    return d_to, d_from, d_red


def assembled_maps(o) -> tuple[F2Matrix, F2Matrix, F2Matrix]:
    """(i: red -> to, j: to -> from, p: from -> red), built as block matrices."""
    z = F2Matrix.zero
    no, ns, nu = o.dim_o, o.dim_s, o.dim_u
    map_i = F2Matrix.block([[z(no, ns), o.duo], [F2Matrix.identity(ns), o.dIus]])
    map_j = F2Matrix.block([[F2Matrix.identity(no), z(no, ns)], [z(nu, no), o.dsu]])
    map_p = F2Matrix.block([[o.dos, o.dIus], [z(nu, no), F2Matrix.identity(nu)]])
    return map_i, map_j, map_p


def cycles_and_boundaries(d: F2Matrix) -> tuple[frozenset[int], frozenset[int]]:
    """ker d and im d as sets of vectors, by listing all of GF(2)^n."""
    vectors = range(1 << d.cols)
    return (frozenset(v for v in vectors if d.apply(v) == 0),
            frozenset(d.apply(v) for v in vectors))


def exact_nodes(ds, fs) -> list[bool]:
    """For C_0 -f0-> C_1 -f1-> C_2 -f2-> C_0, whether the homology sequence is
    exact at C_1, C_2, C_0 (in that order), with every subspace listed element
    by element: image(f_n*) is {f_n z + b} and ker(f_{n+1}*) is
    {z in Z_{n+1} : f_{n+1} z in B_{n+2}}."""
    spaces = [cycles_and_boundaries(d) for d in ds]
    exact = []
    for n in range(3):
        cycles, _ = spaces[n]
        mid_cycles, mid_bounds = spaces[(n + 1) % 3]
        _, cod_bounds = spaces[(n + 2) % 3]
        image = {fs[n].apply(z) ^ b for z in cycles for b in mid_bounds}
        kernel = {z for z in mid_cycles if fs[(n + 1) % 3].apply(z) in cod_bounds}
        exact.append(image == kernel)
    return exact
