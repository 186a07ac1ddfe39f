"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact equality and every runtime bound is
asserted with time.monotonic.
"""

import random
import time
from fractions import Fraction
from math import gcd

from lenslab.alexobstruct import (
    ONE,
    TREFOIL,
    AlexPoly,
    Correspondence,
    alex_from_torsion,
    candidate_polynomials,
    scan_realizable,
    t_vector,
    torsion_from_alex,
)
from lenslab.f2homalg.complexes import (
    cone_exactness,
    cone_verify,
    octet_assemble,
    octet_verify,
)
from lenslab.f2homalg.fuzz import random_cone_triple, random_octet
from lenslab.f2homalg.series import F2Series, surgery_series, tau_series
from lenslab.lensdi import LensSpace, froy_closed_form, scaled_d_table
from lenslab.lspacecert import (
    certify_alternating,
    certify_borromean,
    certify_tree,
    check_certificate,
    spanning_tree_count_bruteforce,
    star_tree,
)
from lenslab.plumblat import lattice_vs_recursion_check

T25 = AlexPoly(((0, 1), (1, -1), (2, 1)))


def _canonical_set(pairs):
    return {LensSpace(p, q).canonical() for p, q in pairs}


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS: {text}")


def test_criterion_01_genus_two_list():
    start = time.monotonic()
    hits = scan_realizable(2, 17)
    elapsed = time.monotonic() - start
    assert {h.space for h in hits} == _canonical_set([(9, 7), (11, 4)])
    assert elapsed < 5.0
    _report(1, f"genus-2 scan = {{L(9,7), L(11,4)}} up to homeomorphism "
               f"({elapsed:.2f}s < 5s)")


def test_criterion_02_trefoil_dichotomy():
    start = time.monotonic()
    for p in range(2, 9):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            polys = {c.poly for c in candidate_polynomials(LensSpace(p, q))}
            assert polys <= {ONE, TREFOIL}, (p, q, polys)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"2 <= p <= 8 admits only the trivial and trefoil polynomials "
               f"({elapsed:.2f}s < 1s)")


def test_criterion_03_genus_3_4_5_lists():
    expected = {
        3: ([(11, 9), (13, 10), (13, 9), (15, 4)], 29),
        4: ([(14, 11), (16, 9), (17, 13), (19, 5)], 41),
        5: ([(18, 13), (19, 11), (21, 16), (23, 6)], 53),
    }
    start = time.monotonic()
    for genus, (pairs, pmax) in expected.items():
        hits = scan_realizable(genus, pmax)
        assert {h.space for h in hits} == _canonical_set(pairs), genus
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, f"genus 3/4/5 lists match verbatim up to homeomorphism "
               f"({elapsed:.2f}s < 60s)")


def test_criterion_04_worked_witness():
    space = LensSpace(9, 7)
    sigma = Correspondence(space, 3, 4)
    tv = t_vector(space, sigma)
    assert tuple(Fraction(n, 36) for n in tv.scaled) == (-2, -2, 0, 0, 0)
    witnesses = {
        c.poly: (c.sigma.c, c.sigma.u) for c in candidate_polynomials(space)
    }
    assert T25 in witnesses
    _report(4, "sigma(i) = 3 + 4i on L(9,7) gives t = (-2,-2,0,0,0) and the "
               "(2,5)-torus-knot polynomial")


def test_criterion_05_oracle_equivalence():
    start = time.monotonic()
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            report = lattice_vs_recursion_check(p, q)
            assert report.equal, (p, q)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(5, f"lattice maxima equal 4*d multisets for all 0 < q < p <= 30 "
               f"({elapsed:.2f}s < 120s)")


def test_criterion_06_closed_form_consistency():
    for p in range(1, 61):
        table = scaled_d_table(LensSpace(p, 1))
        for i in range(p):
            assert table[i] == -froy_closed_form(p, i)
    _report(6, "d(L(p,1), i) = -((2i-p)^2/(4p) - 1/4) for all p <= 60")


def test_criterion_07_surgery_series():
    for p in range(1, 21):
        assert surgery_series(p, 0, 50) == F2Series(50, 0), p
        for n in range(1, p):
            assert surgery_series(p, n, 50).coeff(0) == 1, (p, n)
    _report(7, "surgery series vanishes at n = 0 and has constant term 1 "
               "for 1 <= n <= p-1, p <= 20, N = 50")


def test_criterion_08_tau_series():
    series = tau_series(21)
    assert series == F2Series(21, sum(1 << k for k in (0, 1, 3, 6, 10, 15, 21)))
    assert series.is_invertible()
    assert series * series.inverse() == F2Series(21, 1)
    _report(8, "tau(21) = 1 + U + U^3 + U^6 + U^10 + U^15 + U^21, invertible")


def test_criterion_09_homological_fuzz():
    start = time.monotonic()
    rng = random.Random(20240917)
    for i in range(10_000):
        octet = random_octet(rng)
        assert octet_verify(octet).all_ok, i
        assembled = octet_assemble(octet)  # asserts d^2 = 0 and chain maps
        assert assembled.exact, i
    for i in range(1_000):
        triple = random_cone_triple(rng)
        assert cone_verify(triple).applicable, i
        assert cone_exactness(triple), i
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(9, f"10^4 octets assemble exactly and 10^3 cone triples verify "
               f"with zero counterexamples ({elapsed:.1f}s < 120s)")


def test_criterion_10_certification():
    cert = certify_tree(star_tree(3, [[2], [2], [2]]))
    assert cert.conclusion.h1_order == 12
    assert check_certificate(cert) == cert.size()

    rng = random.Random(31415)
    checked = 0
    while checked < 60:
        n = rng.randrange(2, 6)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        for _ in range(rng.randrange(0, 9 - len(edges))):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.append((min(a, b), max(a, b)))
        from lenslab.lspacecert import TaitGraph

        graph = TaitGraph(n, tuple(edges))
        if graph.bridges():
            continue
        cert = certify_alternating(graph)
        assert cert.conclusion.h1_order == spanning_tree_count_bruteforce(graph)
        check_certificate(cert)  # re-verifies additivity at every node
        checked += 1

    weeks = certify_borromean(Fraction(1), Fraction(5, 2), Fraction(5))
    assert weeks.conclusion.h1_order == 25
    check_certificate(weeks)
    _report(10, "star(3;2,2,2) certifies with |H1| = 12; 60 random bridgeless "
                "Tait graphs certify against the brute-force spanning-tree "
                "oracle; the Weeks manifold certifies")


def test_criterion_11_torsion_round_trip():
    rng = random.Random(2024)
    for i in range(1_000):
        degree = rng.randrange(1, 9)
        data = {degree: rng.choice([-3, -2, -1, 1, 2, 3])}
        for j in range(1, degree):
            data[j] = rng.randrange(-3, 4)
        data[0] = 1 - 2 * sum(data.values())
        poly = AlexPoly.from_dict(data)
        assert alex_from_torsion(torsion_from_alex(poly)) == poly, i
    _report(11, "alex_from_torsion inverts torsion_from_alex on 10^3 "
                "randomized admissible polynomials")
