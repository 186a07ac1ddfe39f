"""GF(2) matrices and subspace arithmetic.

Matrices map column vectors on the left: (M @ N) means "apply N, then M".
Rows are stored as int bitmasks (bit j of row i = entry (i, j)); vectors are
single bitmasks.  Every product and image comes from one row kernel,
`_combine`, which XORs the rows at each selector's set bits one at a time,
or, from _TABLE_MIN rows and selectors on, looks each selector up byte by
byte in tables of the XORs of every subset of 8 rows (the Four-Russians
method).  Every rank, kernel, span and preimage comes from one forward
elimination pass, `_pivot_rows`, which reduces each vector by its lowest set
bit against the rows kept so far.  Its rows have different lowest set bits
(an echelon basis, not fully reduced), and where only that is used (a rank,
a containment in a span, the cohomology bases of `complexes`) that pass is
all the work; `_echelon` adds one back-substitution pass for the fully
reduced basis that kernels, spans and preimages need.  An echelon basis
already in hand enters the pass as ready-made pivots, and vectors lie in
its span exactly when the pass over them adds no pivot.
The oracles the tests check them against (an entry-by-entry product, a
bit-by-bit row combination, a row-by-row parity image, a set-of-positions
elimination) live in
`tests/f2_oracles.py`, apart from this code.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError


@dataclass(frozen=True)
class F2Matrix:
    rows: int
    cols: int
    data: tuple[int, ...]  # one bitmask per row

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0 or len(self.data) != self.rows:
            raise DomainError("inconsistent matrix shape")
        if self.data and (min(self.data) < 0 or max(self.data) >> self.cols):
            raise DomainError("entry outside declared column range")

    # construction -------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    # access -------------------------------------------------------------

    def columns(self) -> list[int]:
        """The transpose's rows: bit i of column j = entry (i, j)."""
        cols = [0] * self.cols
        for i, row in enumerate(self.data):
            bit = 1 << i
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= bit
                row ^= low
        return cols

    # algebra --------------------------------------------------------------

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch in addition")
        return F2Matrix(
            self.rows, self.cols, tuple(a ^ b for a, b in zip(self.data, other.data))
        )

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise DomainError(
                f"shape mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})"
            )
        return F2Matrix(self.rows, other.cols, tuple(_combine(self.data, other.data)))

    # elimination ----------------------------------------------------------

    def rank(self) -> int:
        return len(_pivot_rows(self.data))

    def nullspace(self) -> list[int]:
        """Basis of {v : M v = 0} as column bitmasks, one vector per
        free column in ascending order."""
        echelon = _echelon(self.data)
        pivot_cols = {pc for pc, _ in echelon}
        basis = []
        for free in range(self.cols):
            if free in pivot_cols:
                continue
            vec = 1 << free
            for pc, er in echelon:
                if (er >> free) & 1:
                    vec |= 1 << pc
            basis.append(vec)
        return basis


# The row and selector counts from which `_combine` multiplies by XOR
# tables.  Timed on octets and cone triples summed from fuzz draws, of
# dimension 20 to 100 (2-vCPU VM, Python 3.11), thresholds from 32 to 64
# were equal within the noise and 96 or more up to half again slower at
# dimension 100; on dense random products the tables first pay at about 32
# rows and selectors, and cost three times the loop at 16.  Every fuzzed
# octet and cone triple, of dimension 12 at most, keeps the bit loop.
_TABLE_MIN = 48


def _combine(selectors, rows) -> list[int]:
    """For each selector, the XOR of the `rows` at its set bits.

    With `rows` the rows of N and the selectors the rows of M this gives the
    rows of M @ N; with `rows` the columns of M and the selectors vectors it
    gives their images under M.  From _TABLE_MIN rows and selectors on, the
    XOR tables of `_table_combine` replace the loop over set bits.
    """
    if len(rows) >= _TABLE_MIN:
        selectors = list(selectors)
        if len(selectors) >= _TABLE_MIN:
            return _table_combine(selectors, rows)
    out = []
    for sel in selectors:
        acc = 0
        while sel:
            low = sel & -sel
            acc ^= rows[low.bit_length() - 1]
            sel ^= low
        out.append(acc)
    return out


def _table_combine(selectors, rows) -> list[int]:
    """`_combine` by the Four-Russians method (Arlazarov, Dinic, Kronrod and
    Faradzev, 1970): the XORs of all 256 subsets of each block of 8 rows,
    tabulated once, so that a selector costs one lookup per nonzero byte
    instead of one XOR per set bit."""
    tables = []
    for start in range(0, len(rows), 8):
        table = [0]
        for row in rows[start:start + 8]:
            table += [acc ^ row for acc in table]
        tables.append(table)
    width = len(tables)
    out = []
    for sel in selectors:
        acc = 0
        for table, byte in zip(tables, sel.to_bytes(width, "little")):
            if byte:
                acc ^= table[byte]
        out.append(acc)
    return out


def _pivot_rows(vectors, basis=()) -> dict[int, int]:
    """The forward elimination pass: rows spanning `vectors` and `basis`,
    keyed by their lowest set bits, which are all different.  Its length is
    the dimension of the span.

    `basis` must have different lowest set bits already (an echelon basis,
    such as span_basis or this pass returns); its rows are taken as pivots
    unchanged.  Each vector is then reduced by its lowest set bit against
    the rows kept so far, which leaves a row whose lowest bit is a new pivot
    (or nothing).
    """
    pivots = {(row & -row).bit_length() - 1: row for row in basis}
    for cur in vectors:
        while cur:
            pc = (cur & -cur).bit_length() - 1
            row = pivots.get(pc)
            if row is None:
                pivots[pc] = cur
                break
            cur ^= row
    return pivots


def _echelon(vectors) -> list[tuple[int, int]]:
    """Fully reduced echelon form of the span of `vectors`: (pivot, row) pairs
    sorted by pivot, each pivot the row's lowest set bit and clear in every
    other row.

    After the forward pass, `_pivot_rows`, one back-substitution pass in
    descending pivot order clears every row at the pivots above its own: a
    row reduced there is clear at every other pivot, so adding it clears one
    bit and sets no other pivot.  The fully reduced echelon basis of a
    subspace is unique, so the order of `vectors` never changes the result.
    """
    pivots = _pivot_rows(vectors)
    done = 0  # the pivots above the current one, whose rows are reduced
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        hits = row & done
        while hits:
            low = hits & -hits
            row ^= pivots[low.bit_length() - 1]
            hits ^= low
        pivots[pc] = row
        done |= 1 << pc
    return sorted(pivots.items())


def span_basis(vectors: list[int]) -> list[int]:
    """Fully reduced echelon basis (pivot = lowest set bit) of the span."""
    return [row for _, row in _echelon(vectors)]


def spans_equal(a: list[int], b: list[int]) -> bool:
    # the fully reduced echelon basis of a subspace is unique
    return span_basis(a) == span_basis(b)


def preimage_in_span(
    matrix: F2Matrix, domain_basis: list[int], target_basis: list[int]
) -> list[int]:
    """Basis of {x in span(domain) : matrix(x) in span(target)}.

    Each domain vector d becomes the row matrix(d) | d << matrix.rows, under
    the target vectors; the images are combinations of the matrix's columns.
    After elimination the rows pivoting at or above matrix.rows are exactly
    those with no image bits left, so their high parts are the reduced
    echelon basis of the preimage.
    """
    shift = matrix.rows
    images = _combine(domain_basis, matrix.columns())
    rows = list(target_basis) + [im | (d << shift) for im, d in zip(images, domain_basis)]
    return [row >> shift for pc, row in _echelon(rows) if pc >= shift]
