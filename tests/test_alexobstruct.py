"""Correspondences, t-vectors, torsion conversions, candidate polynomials."""

import itertools
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from lattice_oracles import is_equivariant

from lenslab.errors import DomainError, InvariantError
from lenslab.alexobstruct import (
    ONE,
    TREFOIL,
    AlexPoly,
    Candidate,
    Correspondence,
    ScanHit,
    TVector,
    _candidates,
    _offsets,
    _passing_correspondences,
    _scaled_t,
    _scaled_tables,
    _square_roots,
    alex_from_torsion,
    candidate_polynomials,
    default_scan_radius,
    enumerate_correspondences,
    literal_reconstruction,
    scan_realizable,
    t_vector,
    torsion_from_alex,
)
from lenslab.lensdi import LensSpace, _dedekind12, conj_label, d_rec, scaled_d_table

T25 = AlexPoly(((0, 1), (1, -1), (2, 1)))  # (2,5) torus knot


def every_unit(p: int) -> list[int]:
    """Every unit mod p, ascending: the walk with no square-root pruning."""
    return [u for u in range(1, p + 1) if gcd(u, p) == 1]


def test_torsion_from_alex_examples():
    assert torsion_from_alex(ONE) == ()
    assert torsion_from_alex(TREFOIL) == (1,)
    assert torsion_from_alex(T25) == (1, 1)


def test_alex_poly_display():
    assert str(T25) == "T^2 - T + 1 - T^-1 + T^-2"
    assert str(TREFOIL) == "T - 1 + T^-1"
    assert str(ONE) == "1"
    assert str(AlexPoly(())) == "0"


def test_alex_from_torsion_examples():
    assert alex_from_torsion(()) == ONE
    assert alex_from_torsion((1,)) == TREFOIL
    assert alex_from_torsion((1, 1)) == T25


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
    assert all(n == 0 for n in t_vector(space, identity).scaled)

    space = LensSpace(9, 7)
    tv = t_vector(space, Correspondence(space, 3, 4))
    assert tuple(Fraction(n, 36) for n in tv.scaled) == (-2, -2, 0, 0, 0)

    tv2 = t_vector(space, Correspondence(space, 3, 5))
    assert Fraction(tv2.scaled[1], 36) == d_rec(LensSpace(9, 1), 1) - d_rec(space, 8) == Fraction(-2)


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
                    assert mirrored == Fraction(tv.scaled[i], 4 * p)


def test_candidate_polynomials_examples():
    cands = candidate_polynomials(LensSpace(9, 7))
    polys = {c.poly for c in cands}
    assert T25 in polys
    witness = next(c for c in cands if c.poly == T25)
    assert (witness.sigma.c, witness.sigma.u) in {(3, 4), (3, 5)}

    assert ONE in {c.poly for c in candidate_polynomials(LensSpace(7, 1))}
    assert TREFOIL in {c.poly for c in candidate_polynomials(LensSpace(5, 4))}


def _pm1_alternating(poly: AlexPoly) -> bool:
    """The filter read off the polynomial: nonzero coefficients +-1, alternating."""
    nz = [a for a in poly.full_coeffs() if a != 0]
    if any(abs(a) != 1 for a in nz):
        return False
    return all(nz[k] == -nz[k + 1] for k in range(len(nz) - 1))


def test_pm1_step_rule_equals_the_polynomial_test_on_short_torsion():
    # every T_0..T_{k-1} in 0..3 with k <= 7, held as the scan holds it,
    # N_i = 4p * t_i = -8p * T_i and 0 past k; the step rule reads only N.
    # Tables with base = N and table = 0 give every sigma the t-vector N, so
    # _candidates keeps the polynomial exactly when the rule holds.
    space = LensSpace(12, 1)  # p // 2 + 1 = 7 labels, 8 sigma
    even = 8 * space.p
    count = 0
    for k in range(8):
        for seq in itertools.product(range(4), repeat=k):
            scaled = tuple(-even * v for v in seq) + (0,) * (7 - k)
            steps = all(b - a in (0, even) for a, b in zip(scaled, scaled[1:] + (0,)))
            poly = alex_from_torsion(seq)
            assert steps == _pm1_alternating(poly), seq
            base = scaled + (0,) * (space.p - 7)
            kept = _candidates(space, base, (0,) * space.p, True, every_unit(space.p))
            assert [c.poly for c in kept] == ([poly] if steps else []), seq
            count += 1
    assert count == 21845


def full_enumeration_candidates(space: LensSpace, pm1: bool) -> list[Candidate]:
    """Every equivariant sigma gets its whole t-vector before any filter runs."""
    tables = _scaled_tables(space)
    even = 8 * space.p
    seen: dict[tuple, Candidate] = {}
    for sigma in enumerate_correspondences(space):
        scaled = _scaled_t(*tables, sigma)
        if any(n > 0 or n % even for n in scaled):
            continue
        seq = [-n // even for n in scaled]
        try:
            poly = alex_from_torsion(seq)
        except DomainError:
            continue
        if pm1 and not _pm1_alternating(poly):
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
            for pm1 in (True, False):
                expected = full_enumeration_candidates(space, pm1)
                assert candidate_polynomials(space, pm1) == expected, (p, q, pm1)


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


@pytest.mark.parametrize("g", [5, 10, 15])
def test_scan_hits_obey_rasmussens_bound(g):
    # Rasmussen (arXiv:0710.2531): a genus-g knot with a lens-space surgery
    # has p <= 4g + 3, far inside the scan radius 12g - 7
    hits = scan_realizable(g)
    assert hits
    assert all(h.space.p <= 4 * g + 3 for h in hits)


def test_no_candidate_of_degree_g_lies_above_4g_plus_3_up_to_250():
    # with the pm1 filter off, whose candidates include those kept with it;
    # inverse spaces have the same candidates (tested below 90), so q <= q^-1
    # covers every space.  Whether the d-invariants alone prove the bound is
    # open, so this stays a measurement
    candidates = at_bound = 0
    for p in range(1, 251):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1) or pow(q, -1, p) < q:
                continue
            for cand in candidate_polynomials(LensSpace(p, q), pm1=False):
                g = cand.poly.degree
                if g >= 1:
                    assert p <= 4 * g + 3, (p, q, str(cand.poly))
                    candidates += 1
                    at_bound += p == 4 * g + 3
    assert (candidates, at_bound) == (2797, 61)


def test_scan_finds_every_torus_knot_surgery_up_to_genus_20():
    # Moser (1971): (rs +- 1)-surgery on the torus knot T(r, s) is
    # L(rs +- 1, s^2); T(r, s) has genus (r - 1)(s - 1)/2, and T(2, 3) at
    # p = 7 needs the radius 4g + 3
    found = {
        g: {space for hit in scan_realizable(g) for space in hit.representatives}
        for g in range(1, 21)
    }
    surgeries = 0
    for r in range(2, 42):
        for s in range(r + 1, 42):
            g = (r - 1) * (s - 1) // 2
            if gcd(r, s) != 1 or g > 20:
                continue
            for p in (r * s - 1, r * s + 1):
                assert LensSpace(p, s * s % p) in found[g], (r, s, p)
                surgeries += 1
    assert surgeries == 86


def test_the_scan_builds_no_polynomial(monkeypatch):
    """A hit is decided on the walk's integer vectors: t_(g-1) != 0 and
    t_i = 0 for i >= g."""
    import lenslab.alexobstruct as alexobstruct

    expected = {(g, pm1): scan_realizable(g, pm1=pm1) for g in range(1, 7) for pm1 in (True, False)}

    def refuse(*args, **kwargs):
        raise AssertionError("polynomial built")

    monkeypatch.setattr(alexobstruct, "alex_from_torsion", refuse)
    monkeypatch.setattr(AlexPoly, "from_dict", classmethod(refuse))
    for (g, pm1), hits in expected.items():
        assert hits and scan_realizable(g, pm1=pm1) == hits, (g, pm1)
    # positive control: the patch reaches the polynomial layer
    with pytest.raises(AssertionError, match="polynomial built"):
        candidate_polynomials(LensSpace(9, 7))


def test_scan_builds_the_l_p_1_table_once_per_p(monkeypatch):
    # the scan gets every table from scaled_d_table
    import lenslab.alexobstruct as alexobstruct

    built = []
    others = []
    real = alexobstruct.scaled_d_table

    def counted(space):
        (built if space.q == 1 else others).append(space.p)
        return real(space)

    monkeypatch.setattr(alexobstruct, "scaled_d_table", counted)
    scan_realizable(3)
    assert built == list(range(5, default_scan_radius(3) + 1))
    assert others  # the patched builder is the one the scan reaches


def test_scan_builds_no_table_for_a_q_whose_inverse_is_smaller(monkeypatch):
    import lenslab.alexobstruct as alexobstruct

    built = []
    real = alexobstruct.scaled_d_table

    def recorded(space):
        built.append(space)
        return real(space)

    monkeypatch.setattr(alexobstruct, "scaled_d_table", recorded)
    for pm1 in (True, False):
        built.clear()
        scan_realizable(4, pm1=pm1)
        assert all(space.q <= pow(space.q, -1, space.p) for space in built), pm1
        # positive control: tables of both kinds, q = q^-1 and q < q^-1
        kinds = {space.q == pow(space.q, -1, space.p) for space in built if space.q > 1}
        assert kinds == {True, False}, pm1


def test_inverse_spaces_have_the_same_candidate_polynomials_below_90():
    # L(p, q) and L(p, q^-1) are homeomorphic, so the scan runs one of them
    pairs = 0
    for p in range(2, 90):
        for q in range(1, p):
            if gcd(p, q) != 1 or (inverse := pow(q, -1, p)) <= q:
                continue
            for pm1 in (True, False):
                polys = [c.poly for c in candidate_polynomials(LensSpace(p, q), pm1)]
                assert polys == [c.poly for c in candidate_polynomials(LensSpace(p, inverse), pm1)]
            pairs += 1
    assert pairs == 1080


@pytest.mark.parametrize("p, q", [(5, 2), (8, 5), (10, 3), (13, 6)])
def test_a_q_that_is_not_a_square_builds_no_table(monkeypatch, p, q):
    # the unit squares mod 5 are {1, 4}, mod 8 {1}, mod 10 {1, 9} and mod 13
    # {1, 3, 4, 9, 10, 12}, so no sigma passes (u^2 = q, the module docstring).
    # lensdi._table computes every table, whichever entry point asks for it
    import lenslab.lensdi as lensdi

    real_table = lensdi._table
    built = []

    def recorded(p, q):
        built.append((p, q))
        return real_table(p, q)

    def refuse(p, q):
        raise AssertionError(f"built the table of L({p},{q})")

    monkeypatch.setattr(lensdi, "_table", refuse)
    for pm1 in (True, False):
        assert candidate_polynomials(LensSpace(p, q), pm1) == []
        # positive control: L(9,7) is not pruned, so it reaches the builder
        with pytest.raises(AssertionError, match="built the table of L"):
            candidate_polynomials(LensSpace(9, 7), pm1)
    monkeypatch.setattr(lensdi, "_table", recorded)
    for pm1 in (True, False):
        built.clear()
        scan_realizable(2, 13, pm1)
        assert (p, q) not in built, pm1
        assert (9, 4) in built, pm1  # positive control, as above


@pytest.mark.parametrize("planted, conjugates", [((9, 4), (0, 3)), ((9, 1), (1, 8))])
def test_a_table_with_a_wrong_casson_walker_sum_stops_the_scan(monkeypatch, planted, conjugates):
    # 8p added at a conjugate pair keeps the conjugation check passing and
    # breaks only the sum.  L(9,4) is the member of {L(9,4), L(9,7)} the scan
    # builds, 4 being 7^-1 mod 9
    import lenslab.lensdi as lensdi

    assert conj_label(LensSpace(*planted), conjugates[0]) == conjugates[1]
    real_table = lensdi._table

    def plant(p, q):
        table = real_table(p, q)
        if (p, q) != planted:
            return table
        return tuple(n + 8 * p * (i in conjugates) for i, n in enumerate(table))

    monkeypatch.setattr(lensdi, "_table", plant)
    message = re.escape(f"d-invariant sum broken for {LensSpace(*planted)}")
    for pm1 in (True, False):
        with pytest.raises(InvariantError, match=message):
            candidate_polynomials(LensSpace(9, 4), pm1)
        with pytest.raises(InvariantError, match=message):
            scan_realizable(2, 9, pm1)


def brute_force_passing_pairs(space: LensSpace, base: tuple, table: tuple) -> list:
    """(u, c) of every equivariant sigma, in enumeration order, whose whole
    t-vector, label by label from the definition, is nonpositive and even."""
    p, even = space.p, 8 * space.p
    return [
        (sigma.u, sigma.c)
        for sigma in enumerate_correspondences(space)
        if all(
            (n := base[i % p] - table[sigma(i)]) <= 0 and not n % even
            for i in range(p // 2 + 1)
        )
    ]


def test_passing_correspondences_equal_brute_force_below_90():
    # every coprime pair, L(1,1) (no label 1) and even p (two offsets) included;
    # the whole list of (u, c) pairs, not only the first witness per polynomial
    spaces = pairs = two_offsets = 0
    for p in range(1, 90):
        base = scaled_d_table(LensSpace(p, 1))
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            space = LensSpace(p, q)
            table = scaled_d_table(space)
            expected = brute_force_passing_pairs(space, base, table)
            passing = _passing_correspondences(space, base, table, every_unit(p))
            assert [(u, c) for u, c, _ in passing] == expected, (p, q)
            for u, c, scaled in passing:
                assert scaled == t_vector(space, Correspondence(space, c, u)).scaled, (p, q, u, c)
            spaces += bool(expected)
            pairs += len(expected)
            two_offsets += len({c for _, c in expected}) == 2
    assert (spaces, pairs, two_offsets) == (760, 1788, 10)


def test_passing_correspondences_equal_brute_force_on_random_tables():
    # on the real tables below 90 no sigma that passes labels 0 and 1 fails at
    # label 2 or 3, so random tables, mostly 0 and 8p, make every label decide
    rng = random.Random(43)
    decided = set()
    for p, q in [(1, 1), (2, 1), (4, 3), (9, 7), (12, 5), (25, 9), (30, 7)]:
        space = LensSpace(p, q)
        for _ in range(40):
            base = tuple(rng.choice((0, 0, -8 * p)) for _ in range(p))
            table = tuple(rng.choice((0, 0, 0, 8 * p, 8 * p, -8 * p, 4 * p)) for _ in range(p))
            expected = brute_force_passing_pairs(space, base, table)
            passing = _passing_correspondences(space, base, table, every_unit(p))
            assert [(u, c) for u, c, _ in passing] == expected, (p, q, base, table)
            for u, c, scaled in passing:
                assert scaled == _scaled_t(base, table, Correspondence(space, c, u)), (p, q, u, c)
            for sigma in enumerate_correspondences(space):
                if (sigma.u, sigma.c) not in expected:
                    t = [base[i % p] - table[sigma(i)] for i in range(p // 2 + 1)]
                    decided.add(next(i for i, n in enumerate(t) if n > 0 or n % (8 * p)))
    assert decided == set(range(16))


def test_root_units_give_the_brute_force_pairs_with_u_at_most_p_over_2_below_120():
    # the units the scan and candidate_polynomials walk: the roots u <= p/2
    # of q, and none when q is not a square; each sigma the brute force
    # finds with p - u passes with the vector of the sigma with u
    spaces = walked = dropped = 0
    for p in range(1, 120):
        base = scaled_d_table(LensSpace(p, 1))
        roots = _square_roots(p)
        half = max(p // 2, 1)
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            space = LensSpace(p, q)
            table = scaled_d_table(space)
            units = roots.get(q % p)
            passing = [] if units is None else _passing_correspondences(space, base, table, units)
            expected = brute_force_passing_pairs(space, base, table)
            assert [(u, c) for u, c, _ in passing] == [(u, c) for u, c in expected if u <= half]
            vectors = {(u, c): scaled for u, c, scaled in passing}
            for u, c in expected:
                scaled = _scaled_t(base, table, Correspondence(space, c, u))
                assert scaled == vectors[p - u if u > half else u, c], (p, q, u, c)
                dropped += u > half
            spaces += units is not None
            walked += len(passing)
    assert (spaces, walked, dropped) == (1596, 1474, 1472)


def test_a_passing_sigma_has_u_squared_congruent_to_q_below_120():
    # the linking-form congruence of Fintushel and Stern, seen in the filter:
    # necessity only, on both spaces of every inverse pair
    passing = 0
    for p in range(2, 120):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            for u, c, _ in _passing_correspondences(space, *_scaled_tables(space), every_unit(p)):
                assert u * u % p == q, (p, q, u, c)
                passing += 1
    assert passing == 2945


def test_t_parity_is_decided_at_labels_0_and_1_for_a_root_of_q_below_120():
    # given u^2 = q (mod p), every t_i is an even integer exactly when t_0
    # and t_1 are, whatever the offset
    sigmas = 0
    for p in range(2, 120):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            base, table = _scaled_tables(space)
            for u in (u for u in range(1, p) if u * u % p == q):
                for c in _offsets(space):
                    scaled = _scaled_t(base, table, Correspondence(space, c, u))
                    even = [not n % (8 * p) for n in scaled]
                    assert all(even) == (even[0] and even[1]), (p, q, u, c)
                    sigmas += 1
    assert sigmas == 5796


def test_a_space_with_a_candidate_has_q_a_square_below_200():
    # the + sign of the linking-form congruence q = +-k^2 (mod p): without
    # the pm1 filter, q is always a square, -q often not
    spaces = minus_q_not_square = 0
    for p in range(2, 200):
        squares = {k * k % p for k in range(p)}
        for q in range(1, p):
            if gcd(p, q) != 1 or not candidate_polynomials(LensSpace(p, q), pm1=False):
                continue
            assert q in squares, (p, q)
            spaces += 1
            minus_q_not_square += -q % p not in squares
    assert (spaces, minus_q_not_square) == (3096, 2054)


def test_every_unit_square_has_an_integer_torsion_total_at_least_0_up_to_1193():
    # so T_total = (D(1, p) - D(q, p)) / 24 prunes no q that the square test
    # keeps, and only the pm1 range reads it (module docstring); 1193 is the
    # default scan radius at g = 100
    squares = 0
    for p in range(1, 1194):
        top = _dedekind12(1, p)
        for q in {u * u % p for u in every_unit(p)}:
            total, rest = divmod(top - _dedekind12(q, p), 24)
            assert total >= 0 and not rest, (p, q)
            squares += 1
    assert squares == 132175


def unpruned_scan(g: int, pm1: bool) -> list[ScanHit]:
    """scan_realizable without the T_total prune: _candidates for every coprime q."""
    hits: dict[LensSpace, set[LensSpace]] = {}
    for p in range(max(2 * g - 1, 2), default_scan_radius(g) + 1):
        base = scaled_d_table(LensSpace(p, 1))
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            table = base if q == 1 else scaled_d_table(space)
            if any(c.poly.degree == g for c in _candidates(space, base, table, pm1, every_unit(p))):
                hits.setdefault(space.canonical(), set()).add(space)
    return [ScanHit(k, tuple(sorted(reps))) for k, reps in sorted(hits.items())]


@pytest.mark.parametrize("pm1", [True, False])
def test_pruned_scan_equals_the_unpruned_scan_up_to_genus_10(pm1):
    for g in range(1, 11):
        assert scan_realizable(g, pm1=pm1) == unpruned_scan(g, pm1), g


def test_scan_radius_default():
    assert default_scan_radius(1) == 7
    assert default_scan_radius(2) == 17
    assert default_scan_radius(5) == 53


def test_literal_formula_flips_nonconstant_signs():
    space = LensSpace(9, 7)
    tv = t_vector(space, Correspondence(space, 3, 4))
    literal = {i: Fraction(a, 72) for i, a in literal_reconstruction(tv).items()}
    # normative a_1 = -1, a_2 = +1; the display formula negates them
    assert literal[1] == 1 and literal[-1] == 1
    assert literal[2] == -1
    assert literal[0] == 1


def literal_oracle(tv: TVector) -> dict[int, Fraction]:
    """The display formula 1 + sum (t_{i-1}/2 - t_i + t_{i+1}/2) T^i on Fractions."""
    t = [Fraction(n, 4 * tv.space.p) for n in tv.scaled]

    def value(i: int) -> Fraction:
        i = abs(i)
        return t[i] if i < len(t) else Fraction(0)

    bound = len(t) + 1
    out = {}
    for i in range(-bound, bound + 1):
        a = value(i - 1) / 2 - value(i) + value(i + 1) / 2 + (i == 0)
        if a:
            out[i] = a
    return out


def test_literal_formula_matches_the_fraction_oracle_up_to_20():
    for p in range(1, 21):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            space = LensSpace(p, q)
            tables = _scaled_tables(space)
            for sigma in enumerate_correspondences(space):
                tv = TVector(space, _scaled_t(*tables, sigma))
                literal = {i: Fraction(a, 8 * p) for i, a in literal_reconstruction(tv).items()}
                assert literal == literal_oracle(tv), (p, q, sigma)
