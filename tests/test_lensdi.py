"""Lens-space normalization and the d-invariant recursion, checked against
an independent Fraction implementation of it."""

import hashlib
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd

import pytest

from lenslab.errors import DomainError, InvariantError, NotALensSpaceError
from lenslab.exactnum import hj_expand
from lenslab.lensdi import (
    LensSpace,
    _dedekind12,
    _row,
    _table,
    conj_label,
    d_rec,
    d_table,
    froy_closed_form,
    grading_diff,
    lens_normalize,
    scaled_d_table,
)


@lru_cache(maxsize=None)
def fraction_recursion(p: int, q: int, i: int) -> Fraction:
    """d(p, q, i) = (pq - (2i + 1 - p - q)^2) / (4pq) - d(q, p mod q, i mod q)."""
    if p == 1:
        return Fraction(0)
    q %= p
    i %= p
    num = p * q - (2 * i + 1 - p - q) ** 2
    return Fraction(num, 4 * p * q) - fraction_recursion(q, p % q, i % q)


def test_lens_normalize_examples():
    assert lens_normalize(5, 9) == LensSpace(5, 4)
    space = lens_normalize(9, 7)
    assert space == LensSpace(9, 7)
    assert space.canonical() == LensSpace(9, 4)  # 7 * 4 = 28 = 1 (mod 9)
    with pytest.raises(NotALensSpaceError):
        lens_normalize(4, 2)
    with pytest.raises(NotALensSpaceError, match="p must be positive"):
        LensSpace(0, 1)
    with pytest.raises(NotALensSpaceError, match="q=6 not normalized for p=5"):
        LensSpace(5, 6)


def test_lens_normalize_trivial_family():
    assert lens_normalize(1, 0) == LensSpace(1, 1)
    assert LensSpace(1, 1).canonical() == LensSpace(1, 1)
    assert lens_normalize(1, 17) == LensSpace(1, 1)


def test_d_rec_examples():
    assert d_rec(LensSpace(1, 1), 0) == 0
    assert d_rec(LensSpace(2, 1), 0) == Fraction(-1, 4)
    table = [d_rec(LensSpace(9, 7), i) for i in range(9)]
    assert table == [
        Fraction(0), Fraction(2, 9), Fraction(-4, 9), Fraction(0),
        Fraction(-4, 9), Fraction(2, 9), Fraction(0), Fraction(8, 9),
        Fraction(8, 9),
    ]


def test_d_table_examples():
    assert d_table(LensSpace(3, 1)).values == (
        Fraction(-1, 2), Fraction(1, 6), Fraction(1, 6),
    )
    assert d_table(LensSpace(5, 4)).values == (
        Fraction(1, 5), Fraction(-1, 5), Fraction(-1, 5), Fraction(1, 5),
        Fraction(1),
    )
    assert d_table(LensSpace(1, 1)).values == (Fraction(0),)


def test_conj_label_examples():
    space = LensSpace(9, 7)
    assert conj_label(space, 1) == 5
    assert d_rec(space, 1) == d_rec(space, 5) == Fraction(2, 9)
    assert conj_label(LensSpace(7, 1), 0) == 0
    assert conj_label(LensSpace(2, 1), 0) == 0
    assert conj_label(LensSpace(2, 1), 1) == 1


def test_label_domain():
    with pytest.raises(DomainError):
        d_rec(LensSpace(5, 2), 5)


def test_froy_closed_form_examples():
    assert froy_closed_form(1, 0) == 0
    assert froy_closed_form(2, 1) == Fraction(-1, 4)
    assert froy_closed_form(4, 2) == Fraction(-1, 4)
    with pytest.raises(DomainError):
        froy_closed_form(4, 5)
    with pytest.raises(DomainError, match="p must be positive"):
        froy_closed_form(0, 0)


def test_grading_diff_examples():
    assert grading_diff(2, 2, 0) == 0
    assert grading_diff(1, 2, 0) == 2
    assert grading_diff(9, 9, 0) == 0
    with pytest.raises(DomainError, match="p must be positive"):
        grading_diff(0, 0, 0)


def test_grading_diff_additivity_and_antisymmetry():
    rng = random.Random(20240917)
    for _ in range(300):
        p = rng.randrange(1, 40)
        n1, n2, n3 = (rng.randrange(-30, 30) for _ in range(3))
        assert grading_diff(p, n1, n2) + grading_diff(p, n2, n3) == grading_diff(p, n1, n3)
        assert grading_diff(p, n1, n2) == -grading_diff(p, n2, n1)


def test_conjugation_symmetry_up_to_60():
    # d_table shares one Fraction per conjugate pair: at most p // 2 + 1
    for p in range(1, 61):
        for q in range(1, p + 1):
            if gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            scaled = scaled_d_table(space)  # raises if symmetry breaks
            values = d_table(space).values
            assert len(values) == p
            for i in range(p):
                assert values[i] == Fraction(scaled[i], 4 * p)
                assert values[i] is values[conj_label(space, i)], (space, i)
            assert len({id(v) for v in values}) <= p // 2 + 1, space


def _table_digest(values) -> str:
    """sha256[:16] of the sorted values as num/den lines."""
    text = "\n".join(f"{v.numerator}/{v.denominator}" for v in sorted(values))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "p, q, digest", [(10007, 27, "37cb227ae8fb24e1"), (100019, 23, "0359caaace30a94d")]
)
def test_large_d_table_digests(p, q, digest):
    assert _table_digest(d_table(LensSpace(p, q)).values) == digest


def test_q1_closed_form_up_to_60():
    for p in range(1, 61):
        space = LensSpace(p, 1)
        for i in range(p):
            assert d_rec(space, i) == Fraction(p - (2 * i - p) ** 2, 4 * p)
            assert d_rec(space, i) == -froy_closed_form(p, i)


def test_recursion_chain_terminates():
    # q strictly decreases along (p, q) -> (q, p mod q); depth is bounded by
    # the term sum of the expansion (a per-term length bound would fail
    # already at (8, 5): depth 4 > len [2, 3, 2]).
    for p in range(2, 120):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            depth = 0
            a, b = p, q
            qs = [b]
            while a != 1:
                a, b = b, a % b
                depth += 1
                qs.append(b)
            assert all(x > y for x, y in zip(qs, qs[1:]))
            assert depth <= sum(hj_expand((p, q)))


def test_homeomorphism_invariance_of_multiset():
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            qinv = pow(q, -1, p)
            a = sorted(d_table(LensSpace(p, q)).values)
            b = sorted(d_table(LensSpace(p, qinv)).values)
            assert a == b, (p, q, qinv)


def test_inverse_table_is_an_affine_relabelling_below_150():
    # the table of L(p, q^-1) is the table of L(p, q) read through
    # tau(j) = q*j + q - 1, and through -q*j by conjugation; tau commutes
    # with conjugation, since 2(q - 1) = 2q - 2 (mod p), and b = q - 1 is the
    # solution of 2b = 2q - 2 that holds for even p too.  alexobstruct's scan
    # rests on this: sigma -> tau^-1 sigma keeps every t-vector
    for p in range(1, 150):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            space, inverse_space = LensSpace(p, q), LensSpace(p, pow(q, -1, p) or 1)
            table, inverse = scaled_d_table(space), scaled_d_table(inverse_space)
            tau = [(q * j + q - 1) % p for j in range(p)]
            assert inverse == tuple(table[k] for k in tau), (p, q)
            assert inverse == tuple(table[-q * j % p] for j in range(p)), (p, q)
            assert all(
                tau[conj_label(inverse_space, j)] == conj_label(space, tau[j]) for j in range(p)
            ), (p, q)


def test_d_table_matches_fraction_recursion_below_120():
    for p in range(1, 120):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            space = LensSpace(p, q)
            expected = tuple(fraction_recursion(p, q, i) for i in range(p))
            assert d_table(space).values == expected, space


def test_d_table_and_d_rec_match_fraction_recursion_at_1009_13():
    space = LensSpace(1009, 13)
    expected = tuple(fraction_recursion(1009, 13, i) for i in range(1009))
    assert d_table(space).values == expected
    assert [d_rec(space, i) for i in range(1009)] == list(expected)


def test_d_rec_matches_fraction_recursion_up_to_40():
    for p in range(1, 41):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            for i in range(p):
                assert d_rec(LensSpace(p, q), i) == fraction_recursion(p, q, i)


def test_scaled_table_is_4p_times_d():
    space = LensSpace(9, 7)
    assert scaled_d_table(space) == (0, 8, -16, 0, -16, 8, 0, 32, 32)
    assert scaled_d_table(LensSpace(1, 1)) == (0,)


def test_inexact_division_is_an_invariant_error(monkeypatch):
    import lenslab.lensdi as lensdi

    real_table = lensdi._table

    def corrupt_sub_table(p, q):
        # the recursion looks its sub-tables up at this module name
        table = real_table(p, q)
        return (table[0] + 1, *table[1:]) if (p, q) == (7, 2) else table

    monkeypatch.setattr(lensdi, "_table", corrupt_sub_table)
    with pytest.raises(InvariantError, match="not an integer"):
        scaled_d_table(LensSpace(9, 7))


def _first_non_integer_label(p, q, below):
    """The first label whose numerator q does not divide, entry by entry."""
    for i in range(p):
        s = 2 * i + 1 - p - q
        if (p * q - s * s - p * below[i % q]) % q:
            return i
    return None


# Each corruption shifts the numerators of the labels i = j (mod q) by
# -p * delta, which q does not divide.  A floor remainder lies in [0, q) for
# either sign of the numerator, so a numerator pushed down (even below 0)
# leaves a remainder of at least 1, just as one pushed up does: remainders
# never cancel, and q * sum(N) falls short of the numerators' sum.  The mixed
# case leaves the numerators' sum itself unchanged.
@pytest.mark.parametrize("corruption", [{0: 1}, {0: -1}, {3: 2}, {4: -3}, {0: 1, 1: -1}])
@pytest.mark.parametrize("p, q", [(9, 7), (23, 5), (100, 19), (1009, 13)])
def test_corrupted_sub_table_names_the_first_bad_label(p, q, corruption):
    below = list(_table(q, p % q))
    for j, delta in corruption.items():
        below[j % q] += delta
    label = _first_non_integer_label(p, q, below)
    assert label is not None
    message = f"4p * d(L({p},{q}), {label}) is not an integer"
    with pytest.raises(InvariantError, match=re.escape(message)):
        _row(p, q, tuple(below))


def test_row_step_checks_every_residue():
    # every single-entry corruption of every sub-table below p = 40 is caught
    for p in range(2, 40):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            table = _table(q, p % q)
            for j in range(q):
                for delta in (1, -1):
                    below = list(table)
                    below[j] += delta
                    label = _first_non_integer_label(p, q, below)
                    with pytest.raises(InvariantError) as raised:
                        _row(p, q, tuple(below))
                    assert str(raised.value) == f"4p * d(L({p},{q}), {label}) is not an integer"


def test_d_rec_reads_the_checked_table(monkeypatch):
    import lenslab.lensdi as lensdi

    real_table = lensdi._table
    monkeypatch.setattr(
        lensdi, "_table",
        lambda p, q: (real_table(p, q)[0] + 1, *real_table(p, q)[1:]) if (p, q) == (7, 2)
        else real_table(p, q),
    )
    with pytest.raises(InvariantError, match="not an integer") as from_table:
        scaled_d_table(LensSpace(9, 7))
    for i in range(9):
        with pytest.raises(InvariantError, match=re.escape(str(from_table.value))):
            d_rec(LensSpace(9, 7), i)


def test_broken_conjugation_symmetry_names_the_first_label(monkeypatch):
    import lenslab.lensdi as lensdi

    real_table = lensdi._table
    monkeypatch.setattr(
        lensdi, "_table",
        lambda p, q: (0, 9, *real_table(p, q)[2:]) if (p, q) == (9, 7) else real_table(p, q),
    )
    message = "conjugation symmetry broken for L(9,7): 4p*d(1) = 9 but 4p*d(5) = 8"
    with pytest.raises(InvariantError, match=re.escape(message)):
        scaled_d_table(LensSpace(9, 7))


def dedekind_sum(a: int, b: int) -> Fraction:
    """s(a, b) = sum over k = 1..b-1 of ((k/b)) ((ka/b)), from the definition,
    with the sawtooth ((x)) = x - floor(x) - 1/2, and 0 at integers."""

    def saw(x: Fraction) -> Fraction:
        return x - floor(x) - Fraction(1, 2) if x.denominator != 1 else Fraction(0)

    return sum((saw(Fraction(k, b)) * saw(Fraction(k * a, b)) for k in range(1, b)), Fraction(0))


def test_dedekind12_is_12b_times_the_dedekind_sum_below_60():
    for b in range(1, 60):
        for a in range(b):
            if gcd(a, b) != 1:
                continue
            expected = 12 * b * dedekind_sum(a, b)
            assert _dedekind12(a, b) == expected, (a, b)
            # s(a, b) depends on a mod b only, and s(-a, b) = -s(a, b)
            assert _dedekind12(a + 3 * b, b) == expected, (a, b)
            assert _dedekind12(-a, b) == -expected, (a, b)


def test_d_values_sum_to_the_casson_walker_invariant_below_200():
    # sum_i d(L(p, q), i) = -p * s(q, p), that is 3 * sum(N) = -p * D(q, p)
    count = 0
    for p in range(1, 200):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            assert 3 * sum(_table(p, q)) == -p * _dedekind12(q, p), (p, q)
            count += 1
    assert count == 12152


def test_planted_conjugate_pair_trips_the_sum_check(monkeypatch):
    import lenslab.lensdi as lensdi

    space = LensSpace(13, 5)
    assert conj_label(space, 0) == 4  # so the conjugation check still passes
    real_table = lensdi._table

    def planted(p, q):
        table = real_table(p, q)
        if (p, q) != (13, 5):
            return table
        return tuple(n + 8 * p * (i in (0, 4)) for i, n in enumerate(table))

    monkeypatch.setattr(lensdi, "_table", planted)
    with pytest.raises(InvariantError, match=re.escape("d-invariant sum broken for L(13,5)")):
        scaled_d_table(space)


def second_difference_faults(table: tuple[int, ...], q: int) -> list[tuple[int, int]]:
    """The (u, j), 0 <= u, j < p, at which
    N(j + u) - 2 N(j) + N(j - u) = -8 u^2 q^-1 (mod 8p) fails, labels mod p."""
    p = len(table)
    inverse = pow(q, -1, p)
    faults = []
    for u in range(p):
        want = -8 * u * u * inverse
        ahead, behind = table[u:] + table[:u], table[p - u:] + table[:p - u]
        faults += [
            (u, j)
            for j, (a, n, b) in enumerate(zip(ahead, table, behind))
            if (a - 2 * n + b - want) % (8 * p)
        ]
    return faults


def test_every_second_difference_is_minus_8_u_squared_over_q_below_60():
    # the lemma behind alexobstruct's square-root units: along any step u
    # the table is a quadratic with leading term -4 q^-1 mod 8p
    triples = 0
    for p in range(1, 60):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            assert second_difference_faults(scaled_d_table(LensSpace(p, q)), q) == [], (p, q)
            triples += p * p
    assert triples == 1940117


def test_a_swap_of_two_conjugate_pairs_breaks_the_second_differences():
    # labels 0, 4 and 1, 3 of L(13,5) are conjugate pairs with different
    # values: swapping them keeps the conjugation symmetry, the sum and the
    # multiset of the table, and only the congruence sees it
    space = LensSpace(13, 5)
    table = scaled_d_table(space)
    assert (conj_label(space, 0), conj_label(space, 1)) == (4, 3) and table[0] != table[1]
    swapped = (table[1], table[0], table[2], table[0], table[1], *table[5:])
    assert all(swapped[i] == swapped[conj_label(space, i)] for i in range(13))
    assert sorted(swapped) == sorted(table)
    assert second_difference_faults(table, 5) == []
    assert second_difference_faults(swapped, 5)
