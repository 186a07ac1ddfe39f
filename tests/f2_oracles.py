"""Test oracles for `lenslab.f2homalg`, kept apart from the code they check.

None of these is used by the package: a set-of-positions elimination, an
entry-by-entry product, a row combination that tests one selector bit at a
time, the image of a vector by one parity per row (`apply`), the octet
identities and assembled differentials as `F2Matrix` expressions, and
brute-force subspaces of GF(2)^n for small n.  Three builders only the tests
call live here too: `from_entries` (a matrix from (row, column) entries,
repeats cancelling), `from_lists` (a matrix from 0/1 row lists) and
`block` (a matrix from a grid of conforming blocks), and two readers:
`entry` (one entry of a matrix) and `entries` (its nonzero positions).
"""

from lenslab.errors import DomainError
from lenslab.f2homalg.gf2 import F2Matrix


def from_entries(rows: int, cols: int, entries) -> F2Matrix:
    data = [0] * rows
    for r, c in entries:
        if not (0 <= r < rows and 0 <= c < cols):
            raise DomainError(f"entry ({r}, {c}) out of bounds")
        data[r] ^= 1 << c
    return F2Matrix(rows, cols, tuple(data))


def entry(m: F2Matrix, r: int, c: int) -> int:
    return (m.data[r] >> c) & 1


def entries(m: F2Matrix) -> list[tuple[int, int]]:
    """The (row, column) positions of the ones of m, row by row, columns
    ascending."""
    out = []
    for r, row in enumerate(m.data):
        while row:
            low = row & -row
            out.append((r, low.bit_length() - 1))
            row ^= low
    return out


def apply(m: F2Matrix, vec: int) -> int:
    """Image of a column vector (bitmask over m.cols), one row parity at a time."""
    acc = 0
    for i, row in enumerate(m.data):
        if (row & vec).bit_count() % 2:
            acc |= 1 << i
    return acc


def from_lists(lists) -> F2Matrix:
    rows = len(lists)
    cols = len(lists[0]) if rows else 0
    data = []
    for row in lists:
        if len(row) != cols:
            raise DomainError("ragged rows")
        data.append(sum((1 << j) for j, v in enumerate(row) if v % 2))
    return F2Matrix(rows, cols, tuple(data))


def block(grid) -> F2Matrix:
    """Assemble from a 2D grid of conforming blocks."""
    row_heights = [grid[i][0].rows for i in range(len(grid))]
    col_widths = [grid[0][j].cols for j in range(len(grid[0]))]
    for i, row in enumerate(grid):
        for j, blk in enumerate(row):
            if blk.rows != row_heights[i] or blk.cols != col_widths[j]:
                raise DomainError("non-conforming blocks")
    data = []
    for i, row in enumerate(grid):
        for r in range(row_heights[i]):
            acc = 0
            offset = 0
            for j, blk in enumerate(row):
                acc |= blk.data[r] << offset
                offset += col_widths[j]
            data.append(acc)
    return F2Matrix(sum(row_heights), sum(col_widths), tuple(data))


def echelon_positions(vectors: list[set[int]]) -> dict[int, set[int]]:
    """Set-of-positions Gauss-Jordan elimination; independent of the bitmask
    path.  Maps each pivot (the lowest position of its row) to its row, with
    every pivot absent from every other row: the fully reduced echelon form."""
    rows: dict[int, set[int]] = {}
    for vec in vectors:
        cur = set(vec)
        for pivot, row in rows.items():
            if pivot in cur:
                cur ^= row
        if not cur:
            continue
        new = min(cur)
        for pivot, row in rows.items():
            if new in row:
                rows[pivot] = row ^ cur
        rows[new] = cur
    return rows


def rank_positions(entries: set[tuple[int, int]], rows: int, cols: int) -> int:
    """Rank of the matrix with ones at `entries`, by echelon_positions."""
    matrix: dict[int, set[int]] = {}
    for r, c in entries:
        matrix.setdefault(r, set()).symmetric_difference_update({c})
    return len(echelon_positions(list(matrix.values())))


def rank_sparse(m: F2Matrix) -> int:
    return rank_positions(set(entries(m)), m.rows, m.cols)


def product_by_entries(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """a @ b from the definition (ab)_ij = sum_k a_ik b_kj."""
    assert a.cols == b.rows
    return from_entries(a.rows, b.cols, [
        (i, j) for i in range(a.rows) for j in range(b.cols)
        if sum(entry(a, i, k) & entry(b, k, j) for k in range(a.cols)) % 2
    ])


def combine_by_bits(selectors, rows) -> list[int]:
    """For each selector, the XOR of `rows` at its set bits, testing the bits
    one position at a time: the definition `_combine` must meet."""
    out = []
    for sel in selectors:
        acc = 0
        for i, row in enumerate(rows):
            if (sel >> i) & 1:
                acc ^= row
        out.append(acc)
    return out


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
    d_to = block([
        [o.doo, o.duo @ o.dsu],
        [o.dos, o.dss + o.dIus @ o.dsu],
    ])
    d_from = block([
        [o.doo, o.duo],
        [o.dsu @ o.dos, o.duu + o.dsu @ o.dIus],
    ])
    d_red = block([
        [o.dss, o.dus],
        [o.dsu, o.duu],
    ])
    return d_to, d_from, d_red


def assembled_maps(o) -> tuple[F2Matrix, F2Matrix, F2Matrix]:
    """(i: red -> to, j: to -> from, p: from -> red), built as block matrices."""
    z = F2Matrix.zero
    no, ns, nu = o.dim_o, o.dim_s, o.dim_u
    map_i = block([[z(no, ns), o.duo], [F2Matrix.identity(ns), o.dIus]])
    map_j = block([[F2Matrix.identity(no), z(no, ns)], [z(nu, no), o.dsu]])
    map_p = block([[o.dos, o.dIus], [z(nu, no), F2Matrix.identity(nu)]])
    return map_i, map_j, map_p


def cycles_and_boundaries(d: F2Matrix) -> tuple[frozenset[int], frozenset[int]]:
    """ker d and im d as sets of vectors, by listing all of GF(2)^n."""
    vectors = range(1 << d.cols)
    return (frozenset(v for v in vectors if apply(d, v) == 0),
            frozenset(apply(d, v) for v in vectors))


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
        image = {apply(fs[n], z) ^ b for z in cycles for b in mid_bounds}
        kernel = {z for z in mid_cycles if apply(fs[(n + 1) % 3], z) in cod_bounds}
        exact.append(image == kernel)
    return exact
