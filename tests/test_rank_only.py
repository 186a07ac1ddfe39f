"""The forward elimination pass alone, `_pivot_rows`, gives the rank that
the full elimination and the set-based oracle give."""

import random

from f2_oracles import echelon_positions, rank_sparse

from lenslab.f2homalg.gf2 import F2Matrix, _pivot_rows, span_basis, spans_equal


def positions(vec: int) -> set[int]:
    return {k for k in range(vec.bit_length()) if vec >> k & 1}


def random_vectors(rng, width, count):
    # every other set is sparse, so that ranks fall short of the count
    if rng.random() < 0.5:
        return [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(count)]
    return [rng.getrandbits(width) for _ in range(count)]


def test_pivot_rows_rank_matches_span_basis_and_the_set_oracle():
    rng = random.Random("rank-only:1")
    for _ in range(500):
        width = rng.randrange(1, 16)
        vectors = random_vectors(rng, width, rng.randrange(12))
        others = random_vectors(rng, width, rng.randrange(10))
        # ready-made pivots: a fully reduced basis, or the forward pass's rows
        if rng.random() < 0.5:
            basis = span_basis(others)
        else:
            basis = list(_pivot_rows(others).values())
        pivots = _pivot_rows(vectors, basis)
        rank = len(span_basis(vectors + basis))
        assert len(pivots) == rank
        assert rank == len(echelon_positions([positions(v) for v in vectors + basis]))
        assert all(row & -row == 1 << pc for pc, row in pivots.items())
        assert spans_equal(list(pivots.values()), vectors + basis)
        assert len(_pivot_rows(vectors)) == len(span_basis(vectors))


def test_matrix_rank_is_the_forward_pass():
    rng = random.Random("rank-only:2")
    for _ in range(200):
        rows, cols = rng.randrange(8), rng.randrange(1, 10)
        m = F2Matrix(rows, cols, tuple(random_vectors(rng, cols, rows)))
        assert m.rank() == rank_sparse(m) == len(span_basis(list(m.data)))
