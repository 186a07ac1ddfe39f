"""Slope arithmetic: slope text, continued fractions, Farey parents."""

import random
from fractions import Fraction
from math import ceil, floor, gcd

import pytest

from lenslab.errors import DomainError
from lenslab.exactnum import (
    farey_parents,
    format_slope,
    hj_eval,
    hj_expand,
    is_normalized_hj,
    parse_slope,
    ratio_text,
    slope_pair,
    slope_text,
)


def test_hj_expand_examples():
    assert hj_expand(Fraction(18)) == [18]
    assert hj_expand(Fraction(5, 2)) == [3, 2]
    assert hj_expand(Fraction(9, 7)) == [2, 2, 2, 3]


def test_hj_expand_domain():
    with pytest.raises(DomainError):
        hj_expand(Fraction(0))
    with pytest.raises(DomainError):
        hj_expand(Fraction(-5, 2))
    for not_a_fraction in [(1, 0), 5]:
        with pytest.raises(DomainError, match="finite rational"):
            hj_expand(not_a_fraction)


def test_hj_eval_examples():
    assert hj_eval([3]) == Fraction(3)
    assert hj_eval([2, 3]) == Fraction(5, 3)
    assert hj_eval([2, 2, 2, 3]) == Fraction(9, 7)


def test_hj_eval_malformed():
    with pytest.raises(DomainError):
        hj_eval([])
    with pytest.raises(DomainError):
        hj_eval([2, 1, 1])  # inner value hits zero


def test_hj_round_trip_exhaustive():
    for q in range(1, 201):
        for p in range(1, 201):
            if gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            terms = hj_expand(r)
            assert is_normalized_hj(terms), (p, q, terms)
            assert hj_eval(terms) == r


def test_farey_parents_examples():
    assert farey_parents((1, 2)) == ((1, 1), (0, 1))
    assert farey_parents((5, 2)) == ((3, 1), (2, 1))
    assert farey_parents((7, 5)) == ((3, 2), (4, 3))


def test_farey_parents_integers_have_the_high_parent_1_0():
    assert farey_parents((5, 1)) == ((1, 0), (4, 1))
    assert farey_parents((1, 1)) == ((1, 0), (0, 1))


def test_farey_parents_of_a_non_integral_slope_lie_between_its_floor_and_ceiling():
    # so a Farey descent from a slope >= 1 never leaves [1, oo), and only an
    # integer has the parent 1/0 (Fraction(1, 0) raises ZeroDivisionError)
    for q in range(2, 61):
        for p in range(1, 301):
            if gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            high, low = (Fraction(*x) for x in farey_parents((p, q)))
            assert floor(r) <= low < r < high <= ceil(r)


@pytest.mark.parametrize("pair, message", [
    ((1, 0), "1/0 has no Farey parents"),
    ((0, 1), "positive slope, got 0$"),
    ((-1, 2), "positive slope, got -1/2$"),
    ((10, 4), "reduced pair"),
    ((3, -2), "reduced pair"),
])
def test_farey_parents_domain(pair, message):
    with pytest.raises(DomainError, match=message):
        farey_parents(pair)


def test_farey_identities_exhaustive():
    for q in range(1, 201):
        for p in range(1, 201):
            if gcd(p, q) != 1:
                continue
            (p0, q0), (p1, q1) = farey_parents((p, q))
            assert p0 >= 0 and q0 >= 0 and p1 >= 0 and q1 >= 0
            assert p0 * q1 - p1 * q0 == 1
            assert (p0 + p1, q0 + q1) == (p, q)
            assert p0 + q0 < p + q
            assert p1 + q1 < p + q


def test_format_and_parse():
    assert format_slope(Fraction(9, 7)) == "9/7"
    assert format_slope(Fraction(-3)) == "-3"
    assert parse_slope("37/2") == Fraction(37, 2)
    assert parse_slope("18") == Fraction(18)
    with pytest.raises(DomainError):
        parse_slope("eighteen")


def _fraction_of_text(text):
    """The slope grammar as `Fraction` reads it: "p/q" or "p", each an
    `int` literal, q != 0, the text stripped first."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        return f"not a rational slope: {text!r}"


def _slope_texts():
    texts = ["+3", "3_000", "\u0663", "0/-5", "2/4", "1//2", "1/2/3", "7" * 4301, "-0", "1/0",
             "0/0", "/2", "2/", " 1 / 2 ", "1e3", "-3/-6", "1/0/", "", " ", "x", "0x10", "1.5"]
    rng = random.Random(34)
    for _ in range(2000):
        sign, den_sign = rng.choice(["", "-", "+"]), rng.choice(["", "-", "+"])
        num, den = rng.randrange(10 ** rng.randint(1, 30)), rng.randrange(50)
        texts.append(f"{sign}{num}/{den_sign}{den}" if rng.random() < 0.8 else f"{sign}{num}")
    return texts


def test_slope_pair_is_the_slope_grammar_and_parse_slope_wraps_it():
    """The reduced pair of each text, q > 0, or the same DomainError
    message, as `Fraction` reads the text, and parse_slope alike."""
    rejected = 0
    for text in _slope_texts():
        expected = _fraction_of_text(text)
        for read in (slope_pair, parse_slope):
            try:
                got = read(text)
            except DomainError as exc:
                got = str(exc)
            if isinstance(expected, str) or read is parse_slope:
                assert got == expected, (read.__name__, text)
            else:
                assert got == (expected.numerator, expected.denominator), text
        rejected += isinstance(expected, str)
    assert rejected >= 40


def test_slope_text_is_format_slope():
    assert slope_text((1, 0)) == "1/0"
    for value, pair, text in [(Fraction(0), (0, 1), "0"), (Fraction(-1, 4), (-1, 4), "-1/4"),
                              (Fraction(7, 3), (7, 3), "7/3")]:
        assert slope_text(pair) == format_slope(value) == text
    for text in _slope_texts():
        value = _fraction_of_text(text)
        if not isinstance(value, str):
            assert slope_text(slope_pair(text)) == format_slope(value) == str(value)
    # ratio_text(n, d) for d > 0: zero, multiples of d, d = 1, past 64 bits
    wide = 1 << 80
    rng = random.Random(41)
    pairs = [(0, 1), (0, 12), (-36, 12), (36, 12), (-7, 1), (-wide - 1, 1),
             (5 * wide, wide), (-6 * wide, 9 * wide)]
    pairs += [(rng.randint(-60, 60), rng.randint(1, 24)) for _ in range(500)]
    pairs += [(rng.randint(-wide, wide), rng.randint(1, wide)) for _ in range(500)]
    for n, d in pairs:
        assert ratio_text(n, d) == format_slope(Fraction(n, d))
