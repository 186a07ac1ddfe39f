"""Bitmask GF(2) linear algebra against the set-based oracle."""

import random

import pytest
from f2_oracles import (
    apply,
    block,
    combine_by_bits,
    echelon_positions,
    entries,
    entry,
    from_entries,
    from_lists,
    product_by_entries,
    rank_sparse,
)

from lenslab.errors import DomainError
from lenslab.f2homalg import gf2
from lenslab.f2homalg.fuzz import _invert
from lenslab.f2homalg.gf2 import (
    F2Matrix,
    _combine,
    _echelon,
    preimage_in_span,
    span_basis,
    spans_equal,
)


def random_matrix(rng, rows, cols, density=0.4):
    entries = [
        (r, c) for r in range(rows) for c in range(cols) if rng.random() < density
    ]
    return from_entries(rows, cols, entries)


def test_constructors_and_entries():
    m = from_entries(2, 3, [(0, 1), (1, 2), (0, 1), (0, 0)])
    # duplicate entries cancel mod 2
    assert entries(m) == [(0, 0), (1, 2)]
    assert entry(m, 0, 0) == 1 and entry(m, 0, 1) == 0
    assert from_lists([[1, 0], [0, 1]]) == F2Matrix.identity(2)
    with pytest.raises(DomainError):
        from_entries(1, 1, [(0, 1)])
    with pytest.raises(DomainError, match="ragged rows"):
        from_lists([[1, 0], [1]])
    with pytest.raises(DomainError, match="shape mismatch in addition"):
        F2Matrix.zero(1, 2) + F2Matrix.zero(2, 1)


@pytest.mark.parametrize("rows, cols, data", [
    (1, 2, (-1,)),
    (1, 2, (0b100,)),
    (2, 2, (0b11, -1)),
    (2, 2, (0b11, 0b111)),
    (2, 0, (0, 1)),
    (1, 2, ()),
    (-1, 2, ()),
])
def test_constructor_rejects_out_of_range_rows(rows, cols, data):
    with pytest.raises(DomainError):
        F2Matrix(rows, cols, data)


def test_constructor_accepts_full_rows_and_empty_shapes():
    assert entries(F2Matrix(2, 2, (0b11, 0b10))) == [(0, 0), (0, 1), (1, 1)]
    assert F2Matrix(0, 3, ()) == F2Matrix.zero(0, 3)
    assert F2Matrix(2, 0, (0, 0)) == F2Matrix.zero(2, 0)


def test_matmul_and_add():
    a = from_lists([[1, 1], [0, 1]])
    b = from_lists([[1, 0], [1, 1]])
    assert a @ b == from_lists([[0, 1], [1, 1]])
    assert a + a == F2Matrix.zero(2, 2)
    with pytest.raises(DomainError):
        a @ F2Matrix.zero(3, 3)


def test_apply_matches_matmul():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, 5, 4)
        vec = rng.randrange(16)
        col = F2Matrix(4, 1, tuple((vec >> i) & 1 for i in range(4)))
        expected = (m @ col).data
        image = apply(m, vec)
        assert tuple((image >> i) & 1 for i in range(5)) == expected


def test_rank_dense_vs_sparse():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        m = random_matrix(rng, rows, cols)
        assert m.rank() == rank_sparse(m)


def test_row_kernel_and_columns_match_the_definitions():
    rng = random.Random(17)
    for trial in range(400):
        dims = [rng.randrange(1, 7) for _ in range(3)]
        if trial % 4 == 0:  # empty rows, inner dimension or columns in turn
            dims[trial // 4 % 3] = 0
        a = random_matrix(rng, dims[0], dims[1], rng.random())
        b = random_matrix(rng, dims[1], dims[2], rng.random())
        expected = product_by_entries(a, b)
        assert _combine(a.data, b.data) == list(expected.data)
        assert a @ b == expected
        cols = a.columns()
        assert len(cols) == a.cols
        assert all((cols[j] >> i) & 1 == entry(a, i, j)
                   for i in range(a.rows) for j in range(a.cols))
        assert all(col >> a.rows == 0 for col in cols)
        vectors = [rng.randrange(1 << a.cols) for _ in range(4)]
        assert _combine(vectors, cols) == [apply(a, v) for v in vectors]


def test_table_product_matches_the_bit_loop_oracle(monkeypatch):
    """_combine against the bit-by-bit oracle on every pairing of selector and
    row counts either side of _TABLE_MIN, empty ones included, at row widths
    from 0 up, with the selectors given as a list and as an iterator.  The
    tables serve exactly the products with _TABLE_MIN rows and selectors or
    more, and give the oracle's rows when called directly on any shape."""
    table_combine = gf2._table_combine
    tabled = []
    monkeypatch.setattr(
        gf2, "_table_combine", lambda sels, rows: tabled.append(1) or table_combine(sels, rows)
    )
    t = gf2._TABLE_MIN
    sizes = (0, 1, 7, t - 1, t, t + 1, 2 * t + 5)
    rng = random.Random(29)
    for n_sel in sizes:
        for n_rows in sizes:
            for as_iterator in (False, True):
                width = rng.choice((0, 1, 9, 70))
                rows = [rng.getrandbits(width) for _ in range(n_rows)]
                # dense, sparse, empty and full selectors
                selectors = [
                    rng.choice((
                        rng.getrandbits(n_rows),
                        rng.getrandbits(n_rows) & rng.getrandbits(n_rows) & rng.getrandbits(n_rows),
                        0,
                        (1 << n_rows) - 1,
                    ))
                    for _ in range(n_sel)
                ]
                expected = combine_by_bits(selectors, rows)
                tabled.clear()
                given = iter(selectors) if as_iterator else selectors
                assert _combine(given, rows) == expected
                assert len(tabled) == (n_sel >= t and n_rows >= t)
                assert table_combine(selectors, rows) == expected


def test_nullspace_properties():
    rng = random.Random(13)
    for _ in range(200):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        basis = m.nullspace()
        assert len(basis) == m.cols - m.rank()
        for vec in basis:
            assert apply(m, vec) == 0
        assert len(span_basis(basis)) == len(basis)


def test_block_assembly():
    a = F2Matrix.identity(2)
    z = F2Matrix.zero(2, 1)
    m = block([[a, z]])
    assert (m.rows, m.cols) == (2, 3)
    assert entry(m, 1, 1) == 1 and entry(m, 0, 2) == 0
    with pytest.raises(DomainError):
        block([[a, F2Matrix.zero(3, 1)]])


def test_span_utilities():
    basis = span_basis([0b011, 0b110, 0b101])
    assert len(basis) == 2
    assert spans_equal(basis, basis + [0b101])
    assert not spans_equal(basis, basis + [0b001])
    assert spans_equal([0b011, 0b110], [0b011, 0b101])
    assert not spans_equal([0b011], [0b011, 0b100])


def positions(vec: int) -> set[int]:
    return {c for c in range(vec.bit_length()) if (vec >> c) & 1}


def awkward_vectors(rng, width, count):
    """Vectors with zeros, repeats and sums of earlier vectors mixed in."""
    vectors = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0 or not vectors:
            vectors.append(0 if rng.random() < 0.3 else rng.getrandbits(width))
        elif kind == 1:
            vectors.append(rng.choice(vectors))
        elif kind == 2:
            vectors.append(rng.choice(vectors) ^ rng.choice(vectors))
        else:
            # sparse, so that pivots collide and rows cancel
            vectors.append(sum(1 << rng.randrange(width) for _ in range(rng.randrange(1, 4))))
    return vectors


def test_echelon_matches_the_set_based_elimination():
    rng = random.Random(2028)
    for trial in range(600):
        width = rng.choice([1, 5, 63, 64, 65, 130, 200])
        vectors = awkward_vectors(rng, width, rng.randrange(0, 3 + trial % 40))
        expected = sorted(
            (pivot, sum(1 << c for c in row))
            for pivot, row in echelon_positions([positions(v) for v in vectors]).items()
        )
        assert _echelon(vectors) == expected
        assert _echelon(iter(vectors)) == expected
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert _echelon(shuffled) == expected


def test_preimage_in_span():
    # map (x, y, z) -> (x + y, z)
    m = from_lists([[1, 1, 0], [0, 0, 1]])
    domain = [0b001, 0b010, 0b100]
    target = [0b01]  # span{(1, 0)}
    pre = preimage_in_span(m, domain, target)
    # preimage = {v : z-component of m(v) = 0} = span{x, y}
    assert spans_equal(pre, [0b001, 0b010])


# Brute force over GF(2)^n, n <= 5: every subspace is listed element by
# element, so none of these checks shares code with the elimination.


def span_set(vectors) -> frozenset[int]:
    """All subset sums of `vectors`."""
    out = {0}
    for vec in vectors:
        out |= {x ^ vec for x in out}
    return frozenset(out)


def low_bit(vec: int) -> int:
    return (vec & -vec).bit_length() - 1


def reduced_basis(space: frozenset[int], pivots=None) -> list[int]:
    """For each pivot in ascending order, the one vector of `space` with that
    bit set and every other pivot bit clear.  The pivots default to the lowest
    set bits occurring in `space`, which gives its reduced echelon basis."""
    if pivots is None:
        pivots = sorted({low_bit(v) for v in space if v})
    others = {p: sum(1 << q for q in pivots if q != p) for p in pivots}
    basis = []
    for p in pivots:
        (vec,) = [v for v in space if (v >> p) & 1 and not v & others[p]]
        basis.append(vec)
    return basis


def random_vectors(rng, width, count):
    return [rng.randrange(1 << width) for _ in range(count)]


def test_span_helpers_against_enumeration():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randrange(1, 6)
        a = random_vectors(rng, n, rng.randrange(0, 6))
        space = span_set(a)
        assert span_basis(a) == reduced_basis(space)
        # b spans the same space as a half of the time
        b = [x for x in space if rng.random() < 0.5] if rng.random() < 0.5 else a
        b = b + random_vectors(rng, n, rng.randrange(0, 2))
        assert spans_equal(a, b) == (span_set(b) == space)


def test_nullspace_against_enumeration():
    rng = random.Random(2025)
    for _ in range(500):
        m = random_matrix(rng, rng.randrange(0, 6), rng.randrange(1, 6), rng.random())
        kernel = frozenset(v for v in range(1 << m.cols) if apply(m, v) == 0)
        row_pivots = {low_bit(r) for r in span_set(m.data) if r}
        free = [c for c in range(m.cols) if c not in row_pivots]
        # one kernel vector per free column, ascending, clear at the other free columns
        assert m.nullspace() == reduced_basis(kernel, free)
        assert m.rank() == len(row_pivots)


def test_preimage_against_enumeration():
    rng = random.Random(2026)
    for _ in range(500):
        m = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), rng.random())
        domain = random_vectors(rng, m.cols, rng.randrange(0, 5))
        target = random_vectors(rng, m.rows, rng.randrange(0, 5))
        wanted = span_set(target)
        pre = frozenset(x for x in span_set(domain) if apply(m, x) in wanted)
        assert preimage_in_span(m, domain, target) == reduced_basis(pre)


def test_invert_against_enumeration():
    rng = random.Random(2027)
    tried = 0
    while tried < 300:
        n = rng.randrange(1, 6)
        m = random_matrix(rng, n, n, 0.5)
        if len({apply(m, v) for v in range(1 << n)}) < 1 << n:
            continue  # not injective, so not invertible
        tried += 1
        inv = _invert(m)
        assert m @ inv == F2Matrix.identity(n)
        assert inv @ m == F2Matrix.identity(n)
