"""Correspondences, t-vectors, torsion conversions, candidate polynomials."""

import random
from fractions import Fraction
from math import gcd

import pytest
from lattice_oracles import is_equivariant

from lenslab.errors import DomainError
from lenslab.alexobstruct import (
    ONE,
    TREFOIL,
    AlexPoly,
    Candidate,
    Correspondence,
    FilterSet,
    TorsionSeq,
    TVector,
    _pm1_alternating,
    _scaled_t,
    _scaled_tables,
    alex_from_torsion,
    candidate_polynomials,
    default_scan_radius,
    enumerate_correspondences,
    literal_reconstruction,
    scan_realizable,
    t_vector,
    torsion_from_alex,
)
from lenslab.lensdi import LensSpace, conj_label, d_rec

T25 = AlexPoly(((0, 1), (1, -1), (2, 1)))  # (2,5) torus knot


def test_torsion_from_alex_examples():
    assert torsion_from_alex(ONE).values == ()
    assert torsion_from_alex(TREFOIL).values == ((0, 1),)
    assert torsion_from_alex(T25).values == ((0, 1), (1, 1))


def test_alex_poly_display():
    assert str(T25) == "T^2 - T + 1 - T^-1 + T^-2"
    assert str(TREFOIL) == "T - 1 + T^-1"
    assert str(ONE) == "1"
    assert str(AlexPoly(())) == "0"


def test_alex_from_torsion_examples():
    assert alex_from_torsion(TorsionSeq(())) == ONE
    assert alex_from_torsion(TorsionSeq(((0, 1),))) == TREFOIL
    assert alex_from_torsion(TorsionSeq(((0, 1), (1, 1)))) == T25


def random_admissible_poly(rng: random.Random) -> AlexPoly:
    degree = rng.randrange(1, 9)
    data = {degree: rng.choice([-3, -2, -1, 1, 2, 3])}
    for i in range(1, degree):
        data[i] = rng.randrange(-3, 4)
    data[0] = 1 - 2 * sum(data.values())
    return AlexPoly.from_dict(data)


def test_torsion_round_trip_randomized():
    rng = random.Random(4021)
    for _ in range(300):
        poly = random_admissible_poly(rng)
        assert alex_from_torsion(torsion_from_alex(poly)) == poly


def test_enumerate_correspondences_examples():
    found = {(c.c, c.u) for c in enumerate_correspondences(LensSpace(2, 1))}
    assert found == {(0, 1), (1, 1)}

    sigmas = {(c.c, c.u) for c in enumerate_correspondences(LensSpace(9, 7))}
    assert (3, 4) in sigmas

    trivial = enumerate_correspondences(LensSpace(1, 1))
    assert len(trivial) == 1 and trivial[0](5) == 0


def brute_force_correspondences(space: LensSpace) -> list[Correspondence]:
    """Every unit u and offset c, kept when equivariant on all residues."""
    return [
        sigma
        for u in range(1, space.p + 1) if gcd(u, space.p) == 1
        for c in range(space.p)
        if is_equivariant(sigma := Correspondence(space, c, u))
    ]


def test_enumerate_correspondences_matches_brute_force_up_to_40():
    for p in range(1, 41):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            space = LensSpace(p, q)
            assert enumerate_correspondences(space) == brute_force_correspondences(space)


def test_correspondence_equivariance_hand_check():
    sigma = Correspondence(LensSpace(9, 7), 3, 4)
    assert is_equivariant(sigma)
    for i in range(9):
        assert sigma(-i) == conj_label(LensSpace(9, 7), sigma(i))


def test_t_vector_examples():
    space = LensSpace(7, 1)
    identity = Correspondence(space, 0, 1)
    assert all(x == 0 for x in t_vector(space, identity).t)

    space = LensSpace(9, 7)
    tv = t_vector(space, Correspondence(space, 3, 4))
    assert tv.t == (Fraction(-2), Fraction(-2), Fraction(0), Fraction(0), Fraction(0))

    tv2 = t_vector(space, Correspondence(space, 3, 5))
    assert tv2.t[1] == d_rec(LensSpace(9, 1), 1) - d_rec(space, 8) == Fraction(-2)


def test_t_vector_symmetry_exhaustive():
    for p in range(1, 26):
        for q in range(1, p + 1):
            if gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            base = LensSpace(p, 1)
            for sigma in enumerate_correspondences(space):
                tv = t_vector(space, sigma)
                for i in range(p // 2 + 1):
                    mirrored = d_rec(base, (-i) % p) - d_rec(space, sigma(-i))
                    assert mirrored == tv.t[i]


def test_candidate_polynomials_examples():
    cands = candidate_polynomials(LensSpace(9, 7))
    polys = {c.poly for c in cands}
    assert T25 in polys
    witness = next(c for c in cands if c.poly == T25)
    assert (witness.sigma.c, witness.sigma.u) in {(3, 4), (3, 5)}

    assert ONE in {c.poly for c in candidate_polynomials(LensSpace(7, 1))}
    assert TREFOIL in {c.poly for c in candidate_polynomials(LensSpace(5, 4))}


def full_enumeration_candidates(space: LensSpace, filters: FilterSet) -> list[Candidate]:
    """Every equivariant sigma gets its whole t-vector before any filter runs."""
    tables = _scaled_tables(space)
    even = 8 * space.p
    seen: dict[tuple, Candidate] = {}
    for sigma in enumerate_correspondences(space):
        scaled = _scaled_t(*tables, sigma)
        if any(n > 0 or n % even for n in scaled):
            continue
        seq = TorsionSeq.from_list([-n // even for n in scaled])
        try:
            poly = alex_from_torsion(seq)
        except DomainError:
            continue
        if filters.require_pm1_alternating and not _pm1_alternating(poly):
            continue
        if poly.coeffs not in seen:
            seen[poly.coeffs] = Candidate(poly, sigma, TVector(space, scaled))
    return [seen[k] for k in sorted(seen)]


def test_pruned_candidates_match_full_enumeration_below_90():
    # equal as Candidate objects: same polynomials, witnesses sigma and t-vectors
    for p in range(1, 90):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            space = LensSpace(p, q)
            for filters in (FilterSet(True), FilterSet(False)):
                expected = full_enumeration_candidates(space, filters)
                assert candidate_polynomials(space, filters) == expected, (p, q, filters)


def test_identity_baseline():
    for p in range(1, 21):
        polys = {c.poly for c in candidate_polynomials(LensSpace(p, 1))}
        assert ONE in polys


def test_small_p_dichotomy():
    for p in range(2, 9):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            polys = {c.poly for c in candidate_polynomials(LensSpace(p, q))}
            assert polys <= {ONE, TREFOIL}, (p, q, polys)


def test_degree_bound_internal():
    for p in range(2, 26):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            for cand in candidate_polynomials(LensSpace(p, q)):
                # a genus-g knot has a lens-space surgery of order p only if 2g - 1 <= p
                assert 2 * cand.poly.degree - 1 <= p


def test_alex_poly_from_dict_rejects_a_negative_degree_and_a_value_not_1_at_1():
    with pytest.raises(DomainError, match="store only the i >= 0 half"):
        AlexPoly.from_dict({-1: 1, 0: -1, 1: 1})
    with pytest.raises(DomainError, match="evaluates to 3 != 1 at T = 1"):
        AlexPoly.from_dict({0: 1, 1: 1})


def test_correspondence_needs_a_unit_and_its_own_space():
    with pytest.raises(DomainError, match="u=3 is not a unit mod 9"):
        Correspondence(LensSpace(9, 7), 0, 3)
    with pytest.raises(DomainError, match="different lens space"):
        t_vector(LensSpace(9, 7), Correspondence(LensSpace(9, 2), 0, 1))


def test_scan_realizable_genus_two():
    hits = scan_realizable(2, 17)
    assert [h.space for h in hits] == [LensSpace(9, 4), LensSpace(11, 3)]
    assert LensSpace(9, 7) in hits[0].representatives
    assert all(p.degree == 2 for h in hits for p in h.polys)


@pytest.mark.parametrize("g", [5, 10, 15])
def test_scan_hits_obey_rasmussens_bound(g):
    # Rasmussen (arXiv:0710.2531): a genus-g knot with a lens-space surgery
    # has p <= 4g + 3, far inside the scan radius 12g - 7
    hits = scan_realizable(g)
    assert hits
    assert all(h.space.p <= 4 * g + 3 for h in hits)


def test_scan_builds_the_l_p_1_table_once_per_p(monkeypatch):
    import lenslab.alexobstruct as alexobstruct

    built = []
    real = alexobstruct.scaled_d_table

    def counted(space):
        if space.q == 1:
            built.append(space.p)
        return real(space)

    monkeypatch.setattr(alexobstruct, "scaled_d_table", counted)
    scan_realizable(3)
    assert built == list(range(5, default_scan_radius(3) + 1))


def test_scan_radius_default():
    assert default_scan_radius(2) == 17
    assert default_scan_radius(5) == 53


def test_literal_formula_flips_nonconstant_signs():
    space = LensSpace(9, 7)
    tv = t_vector(space, Correspondence(space, 3, 4))
    literal = literal_reconstruction(tv)
    # normative a_1 = -1, a_2 = +1; the display formula negates them
    assert literal[1] == 1 and literal[-1] == 1
    assert literal[2] == -1
    assert literal[0] == 1
