"""Chain lattices and the characteristic-vector maximization oracle."""

from fractions import Fraction
from math import gcd, prod

import pytest

from lenslab.errors import DomainError
from lenslab.exactnum import hj_expand
from lenslab.plumblat import (
    CharClass,
    _chain_adjugate,
    char_classes,
    lattice_from_hj,
    lattice_vs_recursion_check,
    max_char_square,
    max_char_square_box,
    same_class,
)


def test_lattice_from_hj_examples():
    lat = lattice_from_hj([3])
    assert lat.gram() == [[-3]]
    assert abs(lat.determinant()) == 3

    lat = lattice_from_hj([2, 2, 2, 3])
    assert abs(lat.determinant()) == 9

    lat = lattice_from_hj([3, 2])
    assert lat.gram() == [[-3, 1], [1, -2]]
    assert abs(lat.determinant()) == 5


def test_lattice_rejects_bad_expansions():
    with pytest.raises(DomainError):
        lattice_from_hj([2, 1, 2])  # not normalized
    with pytest.raises(DomainError):
        lattice_from_hj([])


def test_max_char_square_examples():
    lat = lattice_from_hj([3])
    assert max_char_square(lat, CharClass(lat, (3,))) == Fraction(-2)
    assert max_char_square(lat, CharClass(lat, (1,))) == Fraction(2, 3)
    lat1 = lattice_from_hj([1])
    assert max_char_square(lat1, CharClass(lat1, (1,))) == Fraction(0)


def test_char_class_validation():
    lat = lattice_from_hj([3, 2])
    with pytest.raises(DomainError):
        CharClass(lat, (2, 2))  # first entry must be odd
    with pytest.raises(DomainError):
        CharClass(lat, (3,))  # wrong length
    with pytest.raises(DomainError):
        max_char_square(lattice_from_hj([3]), CharClass(lat, (3, 2)))


def test_closed_form_adjugate_to_61():
    # G . adj = det . I fixes the adjugate uniquely; the corner cofactor +-1
    # is why e_1 generates the discriminant group
    for p in range(2, 62):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lat = lattice_from_hj(hj_expand(Fraction(p, q)))
            n, gram = lat.rank, lat.gram()
            det, adj = _chain_adjugate(lat.terms)
            assert abs(det) == p
            assert abs(adj[n - 1][0]) == 1
            for i in range(n):
                for j in range(n):
                    entry = sum(gram[i][k] * adj[k][j] for k in range(n))
                    assert entry == (det if i == j else 0)


def test_class_count_and_distinctness():
    # pairwise distinctness by the quadratic-form membership test
    for p in range(2, 13):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lat = lattice_from_hj(hj_expand(Fraction(p, q)))
            classes = char_classes(lat)
            assert len(classes) == p
            for i in range(len(classes)):
                for j in range(i + 1, len(classes)):
                    assert not same_class(lat, classes[i].rep, classes[j].rep)


def test_class_count_exhaustive_to_30():
    # exactly p classes for every chain with p <= 30 (separating-key check)
    from lenslab.plumblat import _class_key_row

    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lat = lattice_from_hj(hj_expand(Fraction(p, q)))
            classes = char_classes(lat)
            assert len(classes) == p
            _, row = _class_key_row(lat)
            keys = {
                sum(r * k for r, k in zip(row, cls.rep)) % (2 * p)
                for cls in classes
            }
            assert len(keys) == p


def test_dp_matches_box_bruteforce_on_small_lattices():
    for p in range(2, 13):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            terms = hj_expand(Fraction(p, q))
            if prod(a + 1 for a in terms) > 4000:
                continue
            lat = lattice_from_hj(terms)
            for cls in char_classes(lat):
                assert max_char_square(lat, cls) == max_char_square_box(lat, cls)


def test_widened_box_never_beats():
    # Triple-width box search agrees with the standard maximum on every
    # lattice with p <= 30 whose widened box is enumerable (the literal
    # all-lattices version is out of reach: a length-29 chain of 2s has
    # 7^29 widened box points).
    covered = 0
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            terms = hj_expand(Fraction(p, q))
            if prod(3 * a + 1 for a in terms) > 40000:
                continue
            lat = lattice_from_hj(terms)
            for cls in char_classes(lat):
                assert max_char_square_box(lat, cls, widen=3) == max_char_square(lat, cls)
            covered += 1
    assert covered > 60


def test_dp_handles_unit_first_weight():
    # expansions of slopes below 1 start with a_1 = 1; the first coordinate
    # is then anchored only through the chain
    for r in (Fraction(2, 3), Fraction(3, 4), Fraction(5, 7), Fraction(1, 3)):
        terms = hj_expand(r)
        assert terms[0] == 1
        lat = lattice_from_hj(terms)
        for cls in char_classes(lat):
            assert max_char_square(lat, cls) == max_char_square_box(lat, cls, widen=3)


def test_lattice_vs_recursion_examples():
    report = lattice_vs_recursion_check(3, 1)
    assert report.equal
    assert report.lattice_multiset == (Fraction(-2), Fraction(2, 3), Fraction(2, 3))

    report = lattice_vs_recursion_check(2, 1)
    assert report.equal
    assert report.lattice_multiset == (Fraction(-1), Fraction(1))

    report = lattice_vs_recursion_check(9, 7)
    assert report.equal
    assert report.recursion_multiset == tuple(
        sorted(4 * v for v in (
            Fraction(0), Fraction(2, 9), Fraction(-4, 9), Fraction(0),
            Fraction(-4, 9), Fraction(2, 9), Fraction(0), Fraction(8, 9),
            Fraction(8, 9),
        ))
    )


def test_report_json_shape():
    doc = lattice_vs_recursion_check(3, 1).to_json_dict()
    assert doc == {
        "p": 3,
        "q": 1,
        "lattice_multiset": ["-2/1", "2/3", "2/3"],
        "recursion_multiset": ["-2/1", "2/3", "2/3"],
        "equal": True,
    }


def test_check_rejects_bad_pairs():
    with pytest.raises(DomainError):
        lattice_vs_recursion_check(4, 2)
    with pytest.raises(DomainError):
        lattice_vs_recursion_check(3, 3)


def test_matching_partitions_everything():
    report = lattice_vs_recursion_check(9, 7)
    classes = [c for _, cs, _ in report.matching for c in cs]
    labels = [l for _, _, ls in report.matching for l in ls]
    assert sorted(classes) == list(range(9))
    assert sorted(labels) == list(range(9))
