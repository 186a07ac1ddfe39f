"""Truncated U-series over GF(2) and the rational-exponent group ring."""

import random
from fractions import Fraction

import pytest

from lenslab.errors import DomainError
from lenslab.f2homalg.series import (
    F2Series,
    GroupRingElem,
    GroupRingSeries,
    surgery_series,
    tau_series,
    twisted_genus1_series,
)


def gf2_series(rng: random.Random, n: int) -> F2Series:
    return F2Series(n, sum(rng.randrange(2) << k for k in range(n + 1)))


def test_tau_series_examples():
    assert str(tau_series(6)) == "1 + U + U^3 + U^6"
    assert str(tau_series(0)) == "1"
    assert tau_series(6).is_invertible()


def test_tau_series_21():
    series = tau_series(21)
    assert [k for k in range(22) if series.coeff(k)] == [0, 1, 3, 6, 10, 15, 21]
    assert series.is_invertible()
    assert series * series.inverse() == F2Series(21, 1)


def test_surgery_series_examples():
    assert surgery_series(2, 0, 10) == F2Series(10, 0)
    assert surgery_series(2, 1, 10) == F2Series(10, 1)
    series = surgery_series(3, 1, 10)
    assert series.coeff(0) == 1
    assert series.is_invertible()


def test_surgery_series_vanishes_at_zero_label():
    for p in range(1, 12):
        assert surgery_series(p, 0, 40) == F2Series(40, 0)


def test_surgery_series_domain():
    with pytest.raises(DomainError):
        surgery_series(3, 3, 10)
    with pytest.raises(DomainError):
        surgery_series(0, 0, 10)


def test_twisted_series_examples():
    series = twisted_genus1_series(1)
    mu = GroupRingElem.mu
    assert series.coeff(0) == mu(1) + mu(-1)
    assert series.coeff(1) == mu(3) + mu(-3)
    assert series.is_invertible()  # nonzero constant term in the field of fractions
    assert twisted_genus1_series(0).coeff(0) == mu(1) + mu(-1)
    assert bool(mu(1) + mu(-1))


def test_group_ring_axioms():
    mu = GroupRingElem.mu
    assert mu(Fraction(1, 2)) * mu(Fraction(1, 3)) == mu(Fraction(5, 6))
    assert mu(2) + mu(2) == GroupRingElem.zero()
    assert not GroupRingElem.zero()
    assert str(GroupRingElem.zero()) == "0"
    assert str(GroupRingSeries(5, ())) == "0"
    assert (mu(1) + mu(-1)) * (mu(1) + mu(-1)) == mu(2) + mu(-2)


def test_exponents_are_kept_as_the_exact_rationals_given():
    mu = GroupRingElem.mu
    assert mu(1) == mu(Fraction(1))
    assert mu(1) + mu(Fraction(1)) == GroupRingElem.zero()
    assert str(mu(Fraction(1, 2)) + mu(-1)) == "mu(-1) + mu(1/2)"
    for inexact in (0.5, "1/2"):
        with pytest.raises(DomainError, match="not an exact rational"):
            mu(inexact)


def test_series_ring_axioms_randomized():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randrange(0, 12)
        a, b, c = (gf2_series(rng, n) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_invertibility_iff_constant_term():
    rng = random.Random(77)
    for _ in range(100):
        series = gf2_series(rng, rng.randrange(0, 10))
        assert series.is_invertible() == (series.coeff(0) == 1)
        if series.is_invertible():
            n = series.truncation
            assert series * series.inverse() == F2Series(n, 1)


def test_mismatched_rings_rejected():
    with pytest.raises(DomainError):
        tau_series(5) + tau_series(6)
    with pytest.raises(DomainError):
        tau_series(5) * twisted_genus1_series(5)
    assert not hasattr(twisted_genus1_series(5), "inverse")


def test_product_matches_coefficient_convolution():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(0, 15)
        a, b = gf2_series(rng, n), gf2_series(rng, n)
        product = a * b
        for k in range(n + 1):
            expected = sum(a.coeff(j) * b.coeff(k - j) for j in range(k + 1)) % 2
            assert product.coeff(k) == expected, (a, b, k)


def test_f2_series_rejects_out_of_range_bits():
    assert str(F2Series(3, 0b1011)) == "1 + U + U^3"
    with pytest.raises(DomainError):
        F2Series(3, 1 << 4)
    with pytest.raises(DomainError):
        F2Series(3, -1)
    with pytest.raises(DomainError):
        F2Series(-1, 0)
    with pytest.raises(DomainError):
        F2Series(4, 0b10).inverse()


def str_by_shifting(series: F2Series) -> str:
    """The rendering F2Series.__str__ used to compute, one shift per exponent."""
    terms = [
        "1" if k == 0 else ("U" if k == 1 else f"U^{k}")
        for k in range(series.truncation + 1)
        if (series.bits >> k) & 1
    ]
    return " + ".join(terms) or "0"


def test_str_visits_the_set_bits_as_the_shifting_rendering_did():
    rng = random.Random("series-str")
    cases = [F2Series(0, 0), F2Series(0, 1), F2Series(1, 0b10), F2Series(70, 1 << 70)]
    cases += [gf2_series(rng, rng.randrange(0, 200)) for _ in range(300)]
    cases += [tau_series(n) for n in (0, 1, 2, 3, 1000)]
    cases += [surgery_series(p, n, 500) for p in range(1, 8) for n in range(p)]
    for series in cases:
        assert str(series) == str_by_shifting(series)


def str_by_binary_rendering(series: F2Series) -> str:
    """The rendering F2Series.__str__ used to compute, one binary string of
    all N + 1 bits read from the low end."""
    digits = f"{series.bits:b}"[::-1]
    terms = []
    k = digits.find("1")
    while k >= 0:
        terms.append("1" if k == 0 else ("U" if k == 1 else f"U^{k}"))
        k = digits.find("1", k + 1)
    return " + ".join(terms) or "0"


def test_str_reads_the_bytes_as_the_binary_rendering_did():
    rng = random.Random("series-bytes")
    for n in [*range(70), 1000, 4097]:
        sparse = rng.getrandbits(n + 1) & rng.getrandbits(n + 1) & rng.getrandbits(n + 1)
        cases = [
            tau_series(n),
            surgery_series(3, 1, n),
            surgery_series(1, 0, n),
            F2Series(n, 1 << n),
            F2Series(n, sparse),
            gf2_series(rng, n),
        ]
        for series in cases:
            assert str(series) == str_by_binary_rendering(series), (n, series)


def tau_by_big_integer(truncation: int) -> F2Series:
    """tau_series as it used to be built, one big-integer OR per term."""
    bits, k = 0, 0
    while k * (k + 1) // 2 <= truncation:
        bits |= 1 << (k * (k + 1) // 2)
        k += 1
    return F2Series(truncation, bits)


def surgery_by_big_integer(p: int, n: int, truncation: int) -> F2Series:
    """surgery_series as it used to be built, one big-integer XOR per term."""
    base = (2 * n - p) ** 2
    bits, k = 0, 0
    while True:
        pair = (n + k * p, n - k * p) if k else (n,)
        exponents = (((2 * m - p) ** 2 - base) // (8 * p) for m in pair)
        inside = [e for e in exponents if e <= truncation]
        for e in inside:
            bits ^= 1 << e
        if not inside and k > 0:
            return F2Series(truncation, bits)
        k += 1


@pytest.mark.parametrize("truncation", [0, 1, 7, 8, 9, 63, 64, 65, 1000, 4097])
def test_bytearray_builders_match_the_big_integer_builders(truncation):
    assert tau_series(truncation) == tau_by_big_integer(truncation)
    for p in range(1, 10):
        for n in range(p):  # n = 0 cancels every term
            assert surgery_series(p, n, truncation) == surgery_by_big_integer(p, n, truncation)
    assert surgery_series(1, 0, truncation) == F2Series(truncation, 0)


def test_surgery_exponents_are_the_closed_form_of_the_definition():
    """With n' = n + kp, ((2n'-p)^2 - (2n-p)^2) / (8p) is k n + p k(k-1)/2, an
    integer >= 0 for every k, and surgery_series reads the exponents off it.
    Past |k| = 40 every exponent is above the truncation, for every p."""
    truncation = 300
    for p in range(1, 41):
        for n in range(p):
            bits = 0
            for k in range(-40, 41):
                num = (2 * (n + k * p) - p) ** 2 - (2 * n - p) ** 2
                assert num % (8 * p) == 0, (p, n, k)
                e = num // (8 * p)
                assert e == k * n + p * k * (k - 1) // 2 >= 0, (p, n, k)
                if e <= truncation:
                    bits ^= 1 << e
            assert surgery_series(p, n, truncation) == F2Series(truncation, bits), (p, n)
