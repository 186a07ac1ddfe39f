"""The torsion coefficients T_i of `alexobstruct` against the staircase's V_s
(tests/staircase_oracle.py): the convention `genus-scan`'s degree test
reads, checked from the knot side."""

from math import gcd

import pytest
from staircase_oracle import corners, v_values

from lenslab.alexobstruct import candidate_polynomials, scan_realizable
from lenslab.lensdi import LensSpace


@pytest.mark.parametrize("full, expected", [
    ([1, -1, 1], [1, 0]),  # trefoil T(2,3)
    ([1, -1, 1, -1, 1], [1, 1, 0]),  # T(2,5)
    ([1, -1, 0, 1, 0, -1, 1], [1, 1, 1, 0]),  # T(3,4): T^3 - T^2 + 1 - T^-2 + T^-3
])
def test_known_torus_knot_v_values(full, expected):
    assert v_values(full, len(expected)) == expected


def test_corners_walk_right_then_down_from_0_g_to_g_0():
    assert corners([1, -1, 0, 1, 0, -1, 1]) == [(0, 3), (1, 3), (1, 1), (3, 1), (3, 0)]
    assert corners([1]) == [(0, 0)]
    for full in ([1, 1, 1], [2, -3, 2], [-1, 3, -1], [1, -1, 1, 0]):
        with pytest.raises(ValueError):
            corners(full)


def staircase_matches(space: LensSpace, cand) -> bool:
    """V_i = T_i for 0 <= i <= g, and T_i = 0 for every i >= g, g the degree."""
    g = cand.poly.degree
    torsion = [-n // (8 * space.p) for n in cand.t.scaled] + [0] * (g + 1)
    return v_values(cand.poly.full_coeffs(), g + 1) == torsion[: g + 1] and not any(torsion[g:])


def test_every_pm1_candidate_below_100_has_the_staircase_v_values():
    checked = 0
    for p in range(1, 101):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            space = LensSpace(p, q)
            for cand in candidate_polynomials(space):
                assert staircase_matches(space, cand), (p, q, str(cand.poly))
                checked += 1
    assert checked == 584


def test_every_genus_scan_hit_up_to_genus_5_has_a_degree_g_staircase():
    checked = 0
    for g in range(1, 6):
        for hit in scan_realizable(g):
            found = [c for c in candidate_polynomials(hit.space) if c.poly.degree == g]
            assert found, (g, hit.space)
            for cand in found:
                assert staircase_matches(hit.space, cand), (g, hit.space, str(cand.poly))
                checked += 1
    assert checked == 16
