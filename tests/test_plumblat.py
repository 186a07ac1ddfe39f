"""Chain lattices and the characteristic-vector maximization oracle."""

import itertools
import random
import re
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from lattice_oracles import (
    chain_adjugate,
    class_key_row,
    class_zero_label,
    gram,
    max_char_square_box,
    per_class_report,
    run_cost_by_splits,
    same_class,
)

from lenslab.errors import DomainError, InvariantError
from lenslab.exactnum import hj_expand
from lenslab.lensdi import LensSpace, scaled_d_table
from lenslab.plumblat import (
    CharClass,
    Lattice,
    _ascent,
    _box_max,
    _check_runs,
    _continuants,
    _kept_chain,
    _run_costs,
    _start_vector,
    char_classes,
    lattice_from_hj,
    lattice_vs_recursion_check,
    max_char_square,
)


def test_lattice_from_hj_examples():
    lat = lattice_from_hj([3])
    assert gram(lat) == [[-3]]
    assert abs(lat.determinant()) == 3

    lat = lattice_from_hj([2, 2, 2, 3])
    assert abs(lat.determinant()) == 9

    lat = lattice_from_hj([3, 2])
    assert gram(lat) == [[-3, 1], [1, -2]]
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
    # an interior weight 1 makes the chain form non-concave along the chain
    odd = Lattice((3, 1, 3))
    with pytest.raises(DomainError):
        max_char_square(odd, CharClass(odd, (3, 1, 3)))


def test_closed_form_adjugate_to_61():
    # G . adj = det . I fixes the adjugate uniquely; the corner cofactor +-1
    # is why e_1 generates the discriminant group
    for p in range(2, 62):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lat = lattice_from_hj(hj_expand(Fraction(p, q)))
            n, g = lat.rank, gram(lat)
            det, adj = chain_adjugate(lat.terms)
            assert abs(det) == p
            assert abs(adj[n - 1][0]) == 1
            for i in range(n):
                for j in range(n):
                    entry = sum(g[i][k] * adj[k][j] for k in range(n))
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
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lat = lattice_from_hj(hj_expand(Fraction(p, q)))
            classes = char_classes(lat)
            assert len(classes) == p
            _, row = class_key_row(lat)
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


def _multiset(report, keys):
    """The sorted values k / p of a report's integer keys."""
    return tuple(sorted(Fraction(k, report.p) for k in keys))


def test_lattice_vs_recursion_examples():
    report = lattice_vs_recursion_check(3, 1)
    assert report.equal
    assert _multiset(report, report.class_keys) == (Fraction(-2), Fraction(2, 3), Fraction(2, 3))

    report = lattice_vs_recursion_check(2, 1)
    assert report.equal
    assert _multiset(report, report.class_keys) == (Fraction(-1), Fraction(1))

    report = lattice_vs_recursion_check(9, 7)
    assert report.equal
    assert _multiset(report, report.label_keys) == tuple(
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


def test_class_keys_sort_to_the_scaled_table():
    report = lattice_vs_recursion_check(9, 7)
    assert len(report.class_keys) == 9
    assert sorted(report.class_keys) == sorted(scaled_d_table(LensSpace(9, 7)))


# --- the pairwise dynamic program, kept as an oracle for the envelope -------


def _oracle_start_vector(terms, rep):
    """p and y0 = p G^{-1} K, by Fraction elimination on the tridiagonal G."""
    n = len(terms)
    diag = [Fraction(-a) for a in terms]
    rhs = [Fraction(k) for k in rep]
    for i in range(1, n):
        f = 1 / diag[i - 1]
        diag[i] -= f
        rhs[i] -= f * rhs[i - 1]
    x = [Fraction(0)] * n
    x[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - x[i + 1]) / diag[i]
    det = 1
    for d in diag:
        det *= d
    p = abs(det)
    y0 = [p * v for v in x]
    assert all(v.denominator == 1 for v in y0)
    return int(p), [int(v) for v in y0]


def _oracle_max_square_scaled(terms, y0, p):
    """max of (y^T G y) / p^2 over y in y0 + 2p Z^n: a greedy incumbent bounds
    the search box and every layer pair (y1, y2) is compared."""
    n = len(terms)
    a = terms
    step = 2 * p
    if n == 1:
        r = y0[0] % step
        best = min(r * r, (r - step) ** 2)
        return Fraction(-a[0] * best, p * p)
    w = [ai - 2 for ai in a]
    w[0] = a[0] - 1
    w[-1] = a[-1] - 1
    prev = 0
    incumbent = 0
    for i in range(n):
        base = y0[i] % step
        best_val = None
        best_y = base
        centre = prev // (w[i] + 1) if i else 0
        k = (centre - base) // step
        for kk in (k - 1, k, k + 1):
            yv = base + step * kk
            val = -w[i] * yv * yv - ((prev - yv) ** 2 if i else 0)
            if best_val is None or val > best_val:
                best_val, best_y = val, yv
        incumbent += best_val
        prev = best_y
    bound = -incumbent if incumbent else 1

    def layer(i, radius):
        base = y0[i] % step
        lo = -((radius + base) // step)
        hi = (radius - base) // step
        if lo > hi:
            return [base if base <= p else base - step]
        return [base + step * k for k in range(lo, hi + 1)]

    if w[0] >= 1:
        first_radius = isqrt(bound // w[0]) + step
    else:
        first_radius = 2 * isqrt(n * bound) + 2 * step
    score = {y: -w[0] * y * y for y in layer(0, first_radius)}
    for i in range(1, n):
        radius = isqrt(i * bound) + first_radius + step
        nxt = {}
        for y2 in layer(i, radius):
            nxt[y2] = max(s - (y1 - y2) ** 2 for y1, s in score.items()) - w[i] * y2 * y2
        score = nxt
    return Fraction(max(score.values()), p * p)


def _oracle_max_char_square(lat, cls):
    p, y0 = _oracle_start_vector(lat.terms, cls.rep)
    return _oracle_max_square_scaled(lat.terms, y0, p) + lat.rank


def test_dp_matches_pairwise_oracle():
    slopes = [Fraction(p, q) for p in range(2, 21) for q in range(1, p) if gcd(p, q) == 1]
    slopes += [Fraction(2, 3), Fraction(3, 4), Fraction(5, 7), Fraction(1, 3)]
    for r in slopes:
        lat = lattice_from_hj(hj_expand(r))
        for cls in char_classes(lat):
            assert max_char_square(lat, cls) == _oracle_max_char_square(lat, cls)


def test_ascent_from_far_starts():
    # starting far out in the coset makes the ascent take several moves
    rng = random.Random(9)
    for r in (Fraction(13, 12), Fraction(19, 7), Fraction(17, 5), Fraction(3, 4), Fraction(11, 1)):
        lat = lattice_from_hj(hj_expand(r))
        kept, keep = _kept_chain(lat.terms)
        for cls in char_classes(lat):
            p, y0 = _oracle_start_vector(lat.terms, cls.rep)
            expected = _oracle_max_square_scaled(lat.terms, y0, p)
            far = [v + 2 * p * rng.randint(-6, 6) for v in y0]
            runs = _check_runs(far, keep, 2 * p)
            top = _ascent(kept, [far[i] for i in keep], 2 * p, runs)
            assert Fraction(top, p * p) == expected


def test_run_cost_is_the_least_split():
    # every split of T into m parts = delta (mod 2p), for two representatives
    # of every class delta and every |T| <= 6p with T = m delta (mod 2p)
    for p in range(1, 8):
        step = 2 * p
        for m in range(1, 6):
            for delta in range(-step, step):
                for total in range(-6 * p, 6 * p + 1):
                    if (total - m * delta) % step == 0:
                        expected = run_cost_by_splits(m, delta, p, total)
                        got = _run_costs(total, step, m, delta)[2]
                        assert got == expected, (m, delta, p, total)


def _oracle_maxima(lat):
    """(class, p, y0, pairwise-oracle maximum of y^T G y / p^2) per class.
    The oracle runs once per pair of cosets y0 and -y0 + 2p Z^n, since
    Q(-y) = Q(y)."""
    maxima = {}
    out = []
    for cls in char_classes(lat):
        p, y0 = _oracle_start_vector(lat.terms, cls.rep)
        coset = tuple(v % (2 * p) for v in y0)
        if coset not in maxima:
            top = _oracle_max_square_scaled(lat.terms, y0, p)
            maxima[coset] = maxima[tuple(-v % (2 * p) for v in y0)] = top
        out.append((cls, p, y0, maxima[coset]))
    return out


@pytest.mark.parametrize("p", range(2, 41))
def test_chains_with_runs_match_pairwise_oracle(p):
    # q >= p/2 puts runs of 2s in the chain: q = p - 1 is one run
    for q in range((p + 1) // 2, p):
        if gcd(p, q) != 1:
            continue
        lat = lattice_from_hj(hj_expand(Fraction(p, q)))
        for cls, _, _, top in _oracle_maxima(lat):
            assert max_char_square(lat, cls) == top + lat.rank, q


@pytest.mark.parametrize("r", [Fraction(41, 40), Fraction(29, 27), Fraction(23, 19)], ids=str)
def test_ascent_through_runs_from_far_starts(r):
    # the kept chain, with runs, from a far start
    rng = random.Random(33)
    lat = lattice_from_hj(hj_expand(r))
    kept, keep = _kept_chain(lat.terms)
    assert len(kept) < lat.rank
    for _, p, y0, expected in _oracle_maxima(lat):
        far = [v + 2 * p * rng.randint(-6, 6) for v in y0]
        runs = _check_runs(far, keep, 2 * p)
        top = _ascent(kept, [far[i] for i in keep], 2 * p, runs)
        assert Fraction(top, p * p) == expected


def test_kept_chain_reads_runs_off_the_chain():
    # an all-2 chain is one run of 4 edges between its ends
    assert _kept_chain((2, 2, 2, 2, 2)) == ([1, 1], [0, 4])
    # 17/46 is [1, 2, 3, 2, 4, 2]: a_1 = 1 keeps the first vertex at weight 0,
    # and its edges are runs of 2, 2 and 1 edges
    assert _kept_chain((1, 2, 3, 2, 4, 2)) == ([0, 1, 2, 1], [0, 2, 4, 5])
    assert _kept_chain((1, 3)) == ([0, 2], [0, 1])
    # a single vertex has no neighbours
    assert _kept_chain((2,)) == ([2], [0])
    assert _kept_chain((1,)) == ([1], [0])
    # L(9,7) is [2, 2, 2, 3]: one run of 3 edges between the ends
    assert _kept_chain((2, 2, 2, 3)) == ([1, 2], [0, 3])


def test_sweep_work_is_linear_in_p(monkeypatch):
    # q = p - 1 is one run of p - 2 edges, so each box has 2 vertices
    import lenslab.plumblat as plumblat

    real = plumblat._box_max
    visited = []

    def counted(w, y, step, runs):
        visited.append(len(y))
        return real(w, y, step, runs)

    monkeypatch.setattr(plumblat, "_box_max", counted)
    p = 1099
    assert lattice_vs_recursion_check(p, p - 1).equal
    assert sum(visited) <= 8 * p


def _chain_form(w, z):
    return -sum(a * v * v for a, v in zip(w, z)) - sum(
        (u - v) ** 2 for u, v in zip(z, z[1:])
    )


def test_box_max_matches_brute_force():
    # every one of the 3^n box points, for chains of up to 7 vertices of unit
    # edges
    rng = random.Random(4)
    for trial in range(400):
        n = rng.randint(1, 7)
        step = rng.choice([1, 2, 3, 10])
        if trial % 4 == 0:
            # ties: no vertex weight and a constant centre make z and -z equal
            w, y = [0] * n, [0] * n
        elif trial % 4 == 1:
            w = [rng.randrange(0, 2) for _ in range(n)]
            y = [rng.choice([-step, 0, step]) for _ in range(n)]
        else:
            w = [rng.randrange(0, 6) for _ in range(n)]
            y = [rng.randrange(-5 * step, 5 * step + 1) for _ in range(n)]
        box = itertools.product(*[(v - step, v, v + step) for v in y])
        expected = max(_chain_form(w, z) for z in box)
        best, z = _box_max(w, y, step, [(1, 0)] * (n - 1))
        assert best == expected, (w, y, step)
        assert all(abs(u - v) in (0, step) for u, v in zip(z, y))
        assert _chain_form(w, z) == best
    # runs: chains of up to 6 vertices whose edges are runs of up to 5 unit
    # edges, each costed by enumerating its splits; with no vertex weight,
    # shifting every z_i by the same step ties
    rng = random.Random(39)
    costs = {}

    def cost(m, delta, p, total):
        key = (m, delta, p, total)
        if key not in costs:
            costs[key] = run_cost_by_splits(m, delta, p, total)
        return costs[key]

    for trial in range(200):
        n = rng.randint(1, 6)
        p = rng.choice([1, 2, 3])
        step = 2 * p
        runs = [(rng.randint(1, 5), rng.randrange(-step, step)) for _ in range(n - 1)]
        w = [0] * n if trial % 3 == 0 else [rng.randrange(0, 4) for _ in range(n)]
        # step divides y_i - y_(i+1) - m delta along every edge
        y = [rng.randrange(-2 * step, 2 * step + 1)]
        for m, delta in runs:
            y.append(y[-1] - m * delta - step * rng.randint(-1, 1))

        def form(z):
            return -sum(a * v * v for a, v in zip(w, z)) - sum(
                cost(m, delta, p, u - v) for (m, delta), u, v in zip(runs, z, z[1:])
            )

        box = itertools.product(*[(v - step, v, v + step) for v in y])
        expected = max(form(z) for z in box)
        best, z = _box_max(w, y, step, runs)
        assert best == expected, (w, y, step, runs)
        assert all(abs(u - v) in (0, step) for u, v in zip(z, y))
        assert form(z) == best


def test_start_vector_matches_adjugate_to_30():
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lat = lattice_from_hj(hj_expand(Fraction(p, q)))
            n = lat.rank
            det, adj = chain_adjugate(lat.terms)
            sign = 1 if det > 0 else -1
            theta = _continuants(lat.terms)
            phi = _continuants(lat.terms[::-1])
            classes = char_classes(lat)
            # the sweep's start vectors: y_0 + c step, step the start vector of 2 e_1
            y0 = _start_vector(theta, phi, classes[0].rep)
            step = _start_vector(theta, phi, (2,) + (0,) * (n - 1))
            sweep = [[u + c * d for u, d in zip(y0, step)] for c in range(p)]
            assert len(sweep) == len(classes)
            for cls, swept in zip(classes, sweep):
                expected = [sign * sum(adj[i][j] * cls.rep[j] for j in range(n)) for i in range(n)]
                assert _start_vector(theta, phi, cls.rep) == expected
                assert swept == expected


def test_class_sweep_matches_per_class_maxima():
    # the whole report, matching included, against one max_char_square per class
    pairs = [(p, q) for p in range(2, 62) for q in range(1, p) if gcd(p, q) == 1]
    pairs += [(p, p - 1) for p in range(62, 81)]
    for p, q in pairs:
        assert lattice_vs_recursion_check(p, q) == per_class_report(p, q), (p, q)


def test_class_c_is_label_c0_plus_q_c_below_60():
    # label by label, not only as multisets: a permutation of the labels
    # keeps the multiset and would pass `equal`
    for p in range(2, 60):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            c0 = class_zero_label(tuple(hj_expand(Fraction(p, q))), q)
            report = lattice_vs_recursion_check(p, q)
            labels = tuple(report.label_keys[(c0 + q * c) % p] for c in range(p))
            assert report.class_keys == labels, (p, q)


def test_class_value_off_the_1_over_p_grid_is_an_invariant_error(monkeypatch):
    import lenslab.plumblat as plumblat

    real = plumblat._ascent
    monkeypatch.setattr(
        plumblat, "_ascent", lambda kept, y, step, runs: real(kept, y, step, runs) + 1
    )
    with pytest.raises(InvariantError, match=re.escape("max K^2 of class 0 of L(9,7)")):
        lattice_vs_recursion_check(9, 7)


def test_lattice_vs_recursion_wide_chains():
    # q = p - 1 is the chain [2, ..., 2] of rank p - 1, one run.  The longest
    # chain the CLI admits is L(40000, 39999), at MAX_LATTICE_P; 1099 keeps
    # this test short
    for p in (37, 41, 53, 61, 1099):
        assert lattice_vs_recursion_check(p, p - 1).equal


def test_negation_pairs_class_c_with_class_s_minus_c_to_61():
    # s is read as lattice_vs_recursion_check reads it: off the last entry of
    # the start vector of class 0 and of the class step (the start vector of
    # 2 e_1), which is +-2
    for p in range(2, 62):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lat = lattice_from_hj(hj_expand(Fraction(p, q)))
            theta = _continuants(lat.terms)
            phi = _continuants(lat.terms[::-1])
            classes = char_classes(lat)
            step = _start_vector(theta, phi, (2,) + (0,) * (lat.rank - 1))
            assert abs(step[-1]) == 2
            y0 = _start_vector(theta, phi, classes[0].rep)
            s = -y0[-1] * (step[-1] // 2) % p
            for c, cls in enumerate(classes):
                negated = tuple(-k for k in cls.rep)
                assert same_class(lat, negated, classes[(s - c) % p].rep), (p, q, c)


def test_one_ascent_per_conjugate_pair(monkeypatch):
    import lenslab.plumblat as plumblat

    real = plumblat._ascent
    calls = []

    def counted(kept, y, step, runs):
        calls.append(y)
        return real(kept, y, step, runs)

    monkeypatch.setattr(plumblat, "_ascent", counted)
    pairs = [(p, q) for p in range(2, 42) for q in range(1, p) if gcd(p, q) == 1]
    pairs += [(p, p - 1) for p in (64, 81, 100, 101)]
    for p, q in pairs:
        calls.clear()
        assert lattice_vs_recursion_check(p, q).equal
        assert len(calls) <= p // 2 + 1, (p, q)
        if p % 2:
            assert len(calls) == (p + 1) // 2, (p, q)


@pytest.mark.parametrize("p, q", [(9, 7), (41, 40), (37, 11)])
def test_one_check_shortens_its_chain_once(monkeypatch, p, q):
    import lenslab.plumblat as plumblat

    real = plumblat._kept_chain
    calls = []

    def counted(terms):
        calls.append(terms)
        return real(terms)

    monkeypatch.setattr(plumblat, "_kept_chain", counted)
    assert lattice_vs_recursion_check(p, q).equal
    assert len(calls) == 1


def test_broken_conjugation_congruence_is_an_invariant_error(monkeypatch):
    import lenslab.plumblat as plumblat

    real = plumblat._start_vector

    def shifted(theta, phi, rep):
        # +2 on the first entry of y_0, the start vector of K_0 = -a: the step
        # between classes (the start vector of 2 e_1) and the last entry of
        # y_0, which fixes s, are unchanged
        y = real(theta, phi, rep)
        return [y[0] + 2, *y[1:]] if rep[0] < 0 else y

    monkeypatch.setattr(plumblat, "_start_vector", shifted)
    with pytest.raises(
        InvariantError, match=re.escape("conjugation does not pair the classes of L(9,7)")
    ):
        lattice_vs_recursion_check(9, 7)


@pytest.mark.parametrize("planted", [Fraction(13, 10), Fraction(13, 5)], ids=str)
def test_chain_of_another_q_is_an_invariant_error(monkeypatch, planted):
    # 4 * 10 = 1 (mod 13), so L(13,10) is L(13,4) and the chain of 13/10 has
    # the right determinant and the right d-invariants: only its q is wrong
    import lenslab.plumblat as plumblat

    monkeypatch.setattr(plumblat, "hj_expand", lambda r: hj_expand(planted))
    with pytest.raises(InvariantError, match=re.escape("L(13,4)")):
        lattice_vs_recursion_check(13, 4)


def test_run_in_two_classes_is_an_invariant_error(monkeypatch):
    import lenslab.plumblat as plumblat

    real = plumblat._start_vector

    def shifted(theta, phi, rep):
        # L(9,7) is [2, 2, 2, 3]: one run of 3 edges from vertex 0 to vertex 3,
        # whose class is read off y_0 - y_1.  +p on y_1 of the class-0 start
        # vector keeps 2 y_0 + s step = 0 (mod 2p), so the conjugation check
        # passes, but moves T - 3 delta to p (mod 2p)
        y = real(theta, phi, rep)
        return [y[0], y[1] + 9, *y[2:]] if rep[0] < 0 else y

    monkeypatch.setattr(plumblat, "_start_vector", shifted)
    with pytest.raises(InvariantError, match=re.escape("class 0 of L(9,7)")):
        lattice_vs_recursion_check(9, 7)


def test_run_in_two_classes_on_the_step_is_an_invariant_error(monkeypatch):
    import lenslab.plumblat as plumblat

    real = plumblat._start_vector

    def shifted(theta, phi, rep):
        # +p on y_1 of the step (the start vector of 2 e_1): L(9,7) has s = 6
        # and 6 * 9 = 0 (mod 18), so the conjugation check passes, but the run
        # of 3 edges from vertex 0 to vertex 3 breaks in every odd class
        y = real(theta, phi, rep)
        return [y[0], y[1] + 9, *y[2:]] if rep[0] > 0 else y

    monkeypatch.setattr(plumblat, "_start_vector", shifted)
    with pytest.raises(InvariantError, match=r"L\(9,7\): .*two classes mod 18"):
        lattice_vs_recursion_check(9, 7)
