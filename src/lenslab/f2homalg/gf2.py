"""GF(2) matrices and subspace arithmetic.

Matrices map column vectors on the left: (M @ N) means "apply N, then M".
Rows are stored as int bitmasks (bit j of row i = entry (i, j)); vectors are
single bitmasks.  Every product and image comes from one row kernel,
`_combine`, and every rank, kernel, span and preimage from one bitmask
elimination, `_echelon`.  The oracles the tests check them against (an
entry-by-entry product, a set-of-positions elimination) live in
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

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "F2Matrix":
        data = [0] * rows
        for r, c in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise DomainError(f"entry ({r}, {c}) out of bounds")
            data[r] ^= 1 << c
        return cls(rows, cols, tuple(data))

    @classmethod
    def from_lists(cls, lists) -> "F2Matrix":
        rows = len(lists)
        cols = len(lists[0]) if rows else 0
        data = []
        for row in lists:
            if len(row) != cols:
                raise DomainError("ragged rows")
            data.append(sum((1 << j) for j, v in enumerate(row) if v % 2))
        return cls(rows, cols, tuple(data))

    # access -------------------------------------------------------------

    def entry(self, r: int, c: int) -> int:
        return (self.data[r] >> c) & 1

    def entries(self) -> list[tuple[int, int]]:
        out = []
        for r, row in enumerate(self.data):
            while row:
                low = row & -row
                out.append((r, low.bit_length() - 1))
                row ^= low
        return out

    def is_zero(self) -> bool:
        return all(row == 0 for row in self.data)

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

    def apply(self, vec: int) -> int:
        """Image of a column vector (bitmask over self.cols)."""
        acc = 0
        for i, row in enumerate(self.data):
            if (row & vec).bit_count() % 2:
                acc |= 1 << i
        return acc

    @classmethod
    def block(cls, grid) -> "F2Matrix":
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
        return cls(sum(row_heights), sum(col_widths), tuple(data))

    # elimination ----------------------------------------------------------

    def rank(self) -> int:
        return len(_echelon(self.data))

    def nullspace(self) -> list[int]:
        """Basis of {v : self.apply(v) = 0} as column bitmasks, one vector per
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


def _combine(selectors, rows) -> list[int]:
    """For each selector, the XOR of the `rows` at its set bits.

    With `rows` the rows of N and the selectors the rows of M this gives the
    rows of M @ N; with `rows` the columns of M and the selectors vectors it
    gives their images under M.
    """
    out = []
    for sel in selectors:
        acc = 0
        while sel:
            low = sel & -sel
            acc ^= rows[low.bit_length() - 1]
            sel ^= low
        out.append(acc)
    return out


def _echelon(vectors) -> list[tuple[int, int]]:
    """Fully reduced echelon form of the span of `vectors`: (pivot, row) pairs
    sorted by pivot, each pivot the row's lowest set bit and clear in every
    other row."""
    echelon: list[tuple[int, int]] = []
    for vec in vectors:
        cur = vec
        for pc, ev in echelon:
            if (cur >> pc) & 1:
                cur ^= ev
        if cur:
            pc = (cur & -cur).bit_length() - 1
            echelon = [(c, ev ^ cur if (ev >> pc) & 1 else ev) for c, ev in echelon]
            echelon.append((pc, cur))
    echelon.sort()
    return echelon


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
