"""Slope arithmetic: reduction, slope text, continued fractions, Farey parents."""

import random
from fractions import Fraction
from math import ceil, floor, gcd

import pytest

from lenslab.errors import DomainError
from lenslab.exactnum import (
    INFINITY,
    farey_parents,
    format_slope,
    hj_eval,
    hj_expand,
    is_normalized_hj,
    parse_slope,
    rational_reduce,
    slope_pair,
    slope_text,
)


def test_rational_reduce_examples():
    assert rational_reduce(6, 4) == Fraction(3, 2)
    assert rational_reduce(-5, -10) == Fraction(1, 2)
    assert rational_reduce(9, 7) == Fraction(9, 7)


def test_rational_reduce_infinity_and_errors():
    assert rational_reduce(1, 0) is INFINITY
    assert rational_reduce(-3, 0) is INFINITY
    with pytest.raises(DomainError):
        rational_reduce(0, 0)


def test_hj_expand_examples():
    assert hj_expand(Fraction(18)) == [18]
    assert hj_expand(Fraction(5, 2)) == [3, 2]
    assert hj_expand(Fraction(9, 7)) == [2, 2, 2, 3]


def test_hj_expand_domain():
    with pytest.raises(DomainError):
        hj_expand(Fraction(0))
    with pytest.raises(DomainError):
        hj_expand(Fraction(-5, 2))
    with pytest.raises(DomainError):
        hj_expand(INFINITY)


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
    assert farey_parents(Fraction(1, 2)) == (Fraction(1), Fraction(0))
    assert farey_parents(Fraction(5, 2)) == (Fraction(3), Fraction(2))
    assert farey_parents(Fraction(7, 5)) == (Fraction(3, 2), Fraction(4, 3))


def test_farey_parents_integers_use_infinity():
    high, low = farey_parents(Fraction(5))
    assert high is INFINITY
    assert low == Fraction(4)
    high, low = farey_parents(Fraction(1))
    assert high is INFINITY
    assert low == Fraction(0)
    with pytest.raises(DomainError, match="1/0 has no Farey parents"):
        farey_parents(INFINITY)


def test_farey_parents_of_a_non_integral_slope_lie_between_its_floor_and_ceiling():
    # so a Farey descent from a slope >= 1 never leaves [1, oo), and only an
    # integer has the parent 1/0 (comparing with INFINITY raises TypeError)
    for q in range(2, 61):
        for p in range(1, 301):
            if gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            high, low = farey_parents(r)
            assert floor(r) <= low < r < high <= ceil(r)


def test_farey_parents_domain():
    with pytest.raises(DomainError):
        farey_parents(Fraction(0))
    with pytest.raises(DomainError):
        farey_parents(Fraction(-1, 2))


def test_farey_identities_exhaustive():
    for q in range(2, 201):
        for p in range(1, 201):
            if gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            high, low = farey_parents(r)
            p0, q0 = high.numerator, high.denominator
            p1, q1 = low.numerator, low.denominator
            assert p0 >= 0 and q0 >= 0 and p1 >= 0 and q1 >= 0
            assert p0 * q1 - p1 * q0 == 1
            assert Fraction(p0 + p1, q0 + q1) == r
            assert p0 + q0 < p + q
            assert p1 + q1 < p + q


def test_format_and_parse():
    assert format_slope(Fraction(9, 7)) == "9/7"
    assert format_slope(Fraction(-3)) == "-3"
    assert format_slope(INFINITY) == "1/0"
    assert repr(INFINITY) == "1/0"
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
    for value, pair, text in [(INFINITY, (1, 0), "1/0"), (Fraction(0), (0, 1), "0"),
                              (Fraction(-1, 4), (-1, 4), "-1/4"), (Fraction(7, 3), (7, 3), "7/3")]:
        assert slope_text(pair) == format_slope(value) == text
    for text in _slope_texts():
        value = _fraction_of_text(text)
        if not isinstance(value, str):
            assert slope_text(slope_pair(text)) == format_slope(value) == str(value)
