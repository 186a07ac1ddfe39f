"""Homology, octet assembly, and the mapping-cone criterion."""

import random

import pytest
from f2_oracles import (
    apply,
    assembled_differentials,
    assembled_maps,
    cycles_and_boundaries,
    exact_nodes,
    from_lists,
    identity_values,
    rank_sparse,
)

from lenslab.errors import DomainError, InvariantError
from lenslab.f2homalg import complexes, gf2
from lenslab.f2homalg.gf2 import F2Matrix, _combine, span_basis, spans_equal
from lenslab.f2homalg.complexes import (
    OCTET_MAPS,
    ConeHypothesisReport,
    ConeTriple,
    GradedComplex,
    Octet,
    _assemble,
    _assembly,
    _assembly_failures,
    _triangle_exactness_failures,
    cone_exactness,
    cone_verify,
    octet_assemble,
    octet_verify,
)
from lenslab.f2homalg.fuzz import (
    _SEEDS,
    _conjugated,
    random_chain_map,
    random_cone_triple,
    random_octet,
    random_square_zero,
)


def test_homology_random_vs_independent_elimination():
    rng = random.Random(5)
    for _ in range(100):
        d = random_square_zero(rng, 6)
        cx = GradedComplex(6, d)
        # oracle: dim ker - rank via the set-based elimination
        rank = rank_sparse(d)
        cocycles, coboundaries = cx.cohomology_bases()
        assert len(cocycles) - len(coboundaries) == 6 - 2 * rank


def test_cohomology_ranks_match_the_primal_elimination():
    """On random square-zero complexes, dimension 0 included, the bases of
    the dual complex give the boundary and homology ranks of the primal
    elimination of the rows d(e_j) | e_j << n, built through the transpose;
    and they are what they say: d^T kills the cocycles, and the coboundaries
    span the rows of d."""
    rng = random.Random(29)
    for trial in range(300):
        n = trial % 13
        d = random_square_zero(rng, n)
        cocycles, coboundaries = GradedComplex(n, d).cohomology_bases()
        low = (1 << n) - 1
        echelon = span_basis([col | (1 << (n + j)) for j, col in enumerate(d.columns())])
        cycles = [row >> n for row in echelon if not row & low]
        boundaries = [row & low for row in echelon if row & low]
        assert len(coboundaries) == len(boundaries) == rank_sparse(d)
        assert len(cocycles) - len(coboundaries) == len(cycles) - len(boundaries)
        assert not any(_combine(cocycles, d.data))
        assert spans_equal(coboundaries, list(d.data))


def test_invalid_complex_rejected():
    bad = GradedComplex(1, F2Matrix.identity(1))
    with pytest.raises(DomainError, match="does not square to zero"):
        bad.check_squares_to_zero()
    for d in (F2Matrix.zero(1, 2), F2Matrix.zero(1, 1)):
        with pytest.raises(DomainError, match="must be square"):
            GradedComplex(2, d)


def test_octet_zero_passes():
    assert octet_verify(Octet.zero(2, 3, 1)).all_ok


def test_octet_doo_idempotent_fails():
    z = F2Matrix.zero
    octet = Octet(
        1, 1, 1,
        doo=F2Matrix.identity(1), dos=z(1, 1), duo=z(1, 1), dIus=z(1, 1),
        dss=z(1, 1), dsu=z(1, 1), dus=z(1, 1), duu=z(1, 1),
    )
    report = octet_verify(octet)
    assert not report.all_ok
    assert report.failures() == ["doo.doo + duo.dsu.dos"]


def test_octet_dos_dsu_example():
    z = F2Matrix.zero
    one = F2Matrix.identity(1)
    octet = Octet(
        1, 1, 1,
        doo=z(1, 1), dos=one, duo=z(1, 1), dIus=z(1, 1),
        dss=z(1, 1), dsu=one, dus=z(1, 1), duu=z(1, 1),
    )
    assert octet_verify(octet).all_ok
    assembled = octet_assemble(octet)
    # each assembled differential is rank 1 on a rank-2 space
    assert (assembled.homology_to, assembled.homology_from, assembled.homology_red) == (0, 0, 0)
    assert assembled.exact


def test_octet_shape_error():
    z = F2Matrix.zero
    with pytest.raises(DomainError):
        Octet(
            1, 1, 1,
            doo=z(2, 2), dos=z(1, 1), duo=z(1, 1), dIus=z(1, 1),
            dss=z(1, 1), dsu=z(1, 1), dus=z(1, 1), duu=z(1, 1),
        )


def test_assemble_zero_octet():
    assembled = octet_assemble(Octet.zero(1, 1, 1))
    assert (assembled.homology_to, assembled.homology_from, assembled.homology_red) == (2, 2, 2)
    assert assembled.exact


def test_assemble_rejects_invalid():
    z = F2Matrix.zero
    octet = Octet(
        1, 1, 1,
        doo=F2Matrix.identity(1), dos=z(1, 1), duo=z(1, 1), dIus=z(1, 1),
        dss=z(1, 1), dsu=z(1, 1), dus=z(1, 1), duu=z(1, 1),
    )
    with pytest.raises(DomainError):
        octet_assemble(octet)


def test_seed_octets_all_valid():
    for seed in _SEEDS:
        assert octet_verify(seed).all_ok
        assert octet_assemble(seed).exact


@pytest.mark.parametrize("generator, built", [
    (random_octet, Octet), (random_cone_triple, ConeTriple),
])
def test_each_draw_builds_one_object_and_no_matrix_product(monkeypatch, generator, built):
    calls = []
    check = built.__post_init__
    monkeypatch.setattr(built, "__post_init__", lambda self: calls.append(check(self)))
    monkeypatch.setattr(
        F2Matrix, "__matmul__", lambda *args: pytest.fail("F2Matrix.__matmul__ called")
    )
    rng = random.Random(7)
    for draws in range(1, 51):
        generator(rng)
        assert len(calls) == draws


def test_fuzzed_octets_smoke():
    rng = random.Random(99)
    for _ in range(300):
        octet = random_octet(rng)
        assert octet_verify(octet).all_ok
        assert octet_assemble(octet).exact


def block_sum(rng, octets) -> Octet:
    """The block-diagonal sum of octets, conjugated once; it satisfies the
    identities when they all do."""
    dims = [0, 0, 0]
    rows = {name: [] for name, _, _ in OCTET_MAPS}
    for octet in octets:
        for name, _, dom in OCTET_MAPS:
            rows[name] += [row << dims[dom] for row in getattr(octet, name).data]
        dims = [a + b for a, b in zip(dims, octet.dims)]
    maps = [(rows[name], cod, dom) for name, cod, dom in OCTET_MAPS]
    return Octet(*dims, *_conjugated(rng, dims, maps))


def test_no_octet_or_cone_check_transposes(monkeypatch):
    """Exactness and the psi tests run on the dual complexes, whose maps'
    columns are rows already held.  With F2Matrix.columns made to fail, the
    criterion-9 generators' octets and cone triples pass every check, and so
    does a block sum of octets large enough for the table product.  The
    instances are drawn first: a cone triple's chain-map draw transposes."""
    rng = random.Random(20240917)
    octets = [random_octet(rng) for _ in range(200)]
    octets.append(block_sum(rng, [random_octet(rng) for _ in range(40)]))
    assert min(octets[-1].dims) >= gf2._TABLE_MIN
    triples = [random_cone_triple(rng) for _ in range(100)]
    table_combine = gf2._table_combine
    tabled = []
    monkeypatch.setattr(
        gf2, "_table_combine", lambda sels, rows: tabled.append(1) or table_combine(sels, rows)
    )
    monkeypatch.setattr(F2Matrix, "columns", lambda self: pytest.fail("F2Matrix.columns called"))
    for octet in octets:
        assert octet_verify(octet).all_ok
        assert octet_assemble(octet).exact
    assert tabled
    for t in triples:
        triple = ConeTriple(t.complexes, t.f, t.h)
        assert cone_verify(triple).applicable
        assert cone_exactness(triple)


def test_cone_zero_triple():
    zero = GradedComplex(0, F2Matrix.zero(0, 0))
    z = F2Matrix.zero(0, 0)
    triple = ConeTriple((zero, zero, zero), (z, z, z), (z, z, z))
    report = cone_verify(triple)
    assert report.applicable
    assert cone_exactness(triple)


def test_cone_hypotheses_sufficient_not_necessary():
    # C0 = C1 = rank one with zero differential, C2 = 0, f0 = identity:
    # the homotopy identities hold with zero homotopies, psi_0 = 0 fails to
    # be an isomorphism on H = F2, yet the homology sequence is exact.
    rank1 = GradedComplex(1, F2Matrix.zero(1, 1))
    zero = GradedComplex(0, F2Matrix.zero(0, 0))
    triple = ConeTriple(
        (rank1, rank1, zero),
        (F2Matrix.identity(1), F2Matrix.zero(0, 1), F2Matrix.zero(1, 0)),
        (F2Matrix.zero(0, 1), F2Matrix.zero(1, 1), F2Matrix.zero(1, 0)),
    )
    report = cone_verify(triple)
    assert all(report.chain_maps)
    assert all(report.homotopy_identities)
    assert report.psi_isomorphisms == (False, False, True)
    assert not report.applicable
    assert cone_exactness(triple)


def test_cone_shape_errors():
    rank1 = GradedComplex(1, F2Matrix.zero(1, 1))
    with pytest.raises(DomainError, match="f_0 has the wrong shape"):
        ConeTriple(
            (rank1, rank1, rank1),
            (F2Matrix.zero(2, 1), F2Matrix.zero(1, 1), F2Matrix.zero(1, 1)),
            (F2Matrix.zero(1, 1), F2Matrix.zero(1, 1), F2Matrix.zero(1, 1)),
        )
    with pytest.raises(DomainError, match="H_1 has the wrong shape"):
        ConeTriple(
            (rank1, rank1, rank1),
            (F2Matrix.zero(1, 1), F2Matrix.zero(1, 1), F2Matrix.zero(1, 1)),
            (F2Matrix.zero(1, 1), F2Matrix.zero(2, 1), F2Matrix.zero(1, 1)),
        )


def test_fuzzed_cones_smoke():
    rng = random.Random(123)
    for _ in range(100):
        triple = random_cone_triple(rng)
        assert cone_verify(triple).applicable
        assert cone_exactness(triple)


# Oracles: the identities and differentials as F2Matrix expressions, and
# homology subspaces listed element by element (f2_oracles.py).


def flip_entries(rng, octet, flips):
    """The octet with `flips` random entries of its nonempty matrices flipped."""
    mats = {name: m for name, m in octet.matrices().items() if m.rows and m.cols}
    changed = dict(octet.matrices())
    for _ in range(flips if mats else 0):
        name = rng.choice(sorted(mats))
        m = changed[name]
        r, c = rng.randrange(m.rows), rng.randrange(m.cols)
        data = list(m.data)
        data[r] ^= 1 << c
        changed[name] = F2Matrix(m.rows, m.cols, tuple(data))
    return Octet(octet.dim_o, octet.dim_s, octet.dim_u, **changed)


def test_octet_identities_match_the_matrix_oracle():
    rng = random.Random(808)
    seen_zero_dim = passed = failed = 0
    for trial in range(600):
        octet = flip_entries(rng, random_octet(rng, rng.randrange(1, 5)), trial % 4)
        seen_zero_dim += 0 in (octet.dim_o, octet.dim_s, octet.dim_u)
        expected = [(name, not any(value.data)) for name, value in identity_values(octet)]
        report = octet_verify(octet)
        assert list(report.results) == expected
        if all(ok for _, ok in expected):
            passed += 1
            assembled = octet_assemble(octet)
            assert assembled.exact
        else:
            failed += 1
            with pytest.raises(DomainError, match="octet fails identities"):
                octet_assemble(octet)
    assert seen_zero_dim and passed > 100 and failed > 100


def test_assembled_differentials_and_homology_match_the_oracles():
    rng = random.Random(809)
    for _ in range(200):
        octet = random_octet(rng)
        assembled = octet_assemble(octet)
        complexes = (assembled.complex_to, assembled.complex_from, assembled.complex_red)
        homology = (assembled.homology_to, assembled.homology_from, assembled.homology_red)
        for cx, h, d in zip(complexes, homology, assembled_differentials(octet)):
            assert cx.d == d
            assert h == cx.dim - 2 * rank_sparse(d)
        maps = (assembled.map_i, assembled.map_j, assembled.map_p)
        assert maps == assembled_maps(octet)


def random_triple(rng, chain_maps=True):
    """A random triple of complexes of total dimension <= 4 with maps
    f_n: C_n -> C_{n+1}, chain maps unless `chain_maps` is false, and
    homotopies that are zero half of the time and random otherwise."""
    dims = [rng.randrange(0, 3) for _ in range(3)]
    while sum(dims) > 4:
        dims[rng.randrange(3)] = 0
    ds = [random_square_zero(rng, n) for n in dims]
    fs = tuple(
        random_chain_map(rng, ds[n], ds[(n + 1) % 3]) if chain_maps
        else random_matrix(rng, dims[(n + 1) % 3], dims[n])
        for n in range(3)
    )
    zero_h = rng.random() < 0.5
    hs = tuple(
        F2Matrix.zero(dims[(n + 2) % 3], dims[n]) if zero_h
        else random_matrix(rng, dims[(n + 2) % 3], dims[n])
        for n in range(3)
    )
    complexes = tuple(GradedComplex(n, d) for n, d in zip(dims, ds))
    return ConeTriple(complexes, fs, hs)


def random_matrix(rng, rows, cols):
    return F2Matrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))


def test_cone_exactness_matches_brute_force():
    rng = random.Random(810)
    outcomes = set()
    for _ in range(600):
        triple = random_triple(rng)
        ds = [c.d for c in triple.complexes]
        exact = exact_nodes(ds, triple.f)
        bases = [c.cohomology_bases() for c in triple.complexes]
        names = ("C1", "C2", "C0")
        assert _triangle_exactness_failures(bases, triple.f, names) == [
            name for name, ok in zip(names, exact) if not ok
        ]
        assert cone_exactness(triple) == all(exact)
        outcomes.add(all(exact))
    assert outcomes == {True, False}


def test_cone_verify_matches_brute_force():
    rng = random.Random(811)
    seen = set()
    for trial in range(600):
        triple = random_triple(rng, chain_maps=trial % 3 != 0)
        ds = [c.d for c in triple.complexes]
        f, h = triple.f, triple.h
        chain = tuple(ds[(n + 1) % 3] @ f[n] == f[n] @ ds[n] for n in range(3))
        homot = tuple(
            ds[(n + 2) % 3] @ h[n] + h[n] @ ds[n] == f[(n + 1) % 3] @ f[n]
            for n in range(3)
        )
        iso = []
        for n in range(3):
            psi = f[(n + 2) % 3] @ h[n] + h[(n + 1) % 3] @ f[n]
            cycles, bounds = cycles_and_boundaries(ds[n])
            image = {apply(psi, z) ^ b for z in cycles for b in bounds}
            iso.append(len(image) == len(cycles))
        report = cone_verify(triple)
        assert report == ConeHypothesisReport(chain, homot, tuple(iso))
        seen.update((all(chain), all(homot), all(iso), report.applicable))
        if all(chain):
            assert cone_exactness(triple) == all(exact_nodes(ds, f))
        else:
            with pytest.raises(DomainError, match="is not a chain map"):
                cone_exactness(triple)
    assert seen == {True, False}


def test_assembly_checks_match_the_matrix_oracle():
    """Valid identities imply d^2 = 0 and the chain-map property, so these
    checks are reached only through the unchecked path `_assemble`, which
    skips the identity gate, and some only together with others."""
    rng = random.Random(812)
    seen = set()
    for trial in range(400):
        octet = flip_entries(rng, random_octet(rng, 3), 1 + trial % 2)
        d_to, d_from, d_red = assembled_differentials(octet)
        map_i, map_j, map_p = assembled_maps(octet)
        expected = [
            f"{name} does not square to zero"
            for name, d in (("d_to", d_to), ("d_from", d_from), ("d_red", d_red))
            if any((d @ d).data)
        ] + [
            f"map {name} is not a chain map"
            for name, f, dom, cod in (
                ("i", map_i, d_red, d_to), ("j", map_j, d_to, d_from),
                ("p", map_p, d_from, d_red),
            )
            if cod @ f != f @ dom
        ]
        a = _assembly(octet)
        rows = [m.data for m in (d_to, d_from, d_red, map_i, map_j, map_p)]
        built = (a.d_to, a.d_from, a.d_red, a.map_i, a.map_j, a.map_p)
        assert [tuple(r) for r in built] == rows
        assert tuple(a.to_squared) == (d_to @ d_to).data
        assert tuple(a.red_squared) == (d_red @ d_red).data
        assert tuple(a.i_defect) == (d_to @ map_i + map_i @ d_red).data
        assert _assembly_failures(a) == expected
        seen.update(expected)
        if expected:
            with pytest.raises(InvariantError, match=expected[0]):
                _assemble(a)
        else:
            _assemble(a)
    assert len(seen) == 6


def test_each_identity_is_read_off_one_flipped_entry():
    """One flipped entry in each of the eight maps of valid octets: every
    identity verdict matches its matrix expression."""
    rng = random.Random(813)
    flipped = {}
    for _ in range(150):
        octet = random_octet(rng, rng.randrange(1, 5))
        for name, m in octet.matrices().items():
            if not (m.rows and m.cols):
                continue
            data = list(m.data)
            data[rng.randrange(m.rows)] ^= 1 << rng.randrange(m.cols)
            changed = dict(octet.matrices(), **{name: F2Matrix(m.rows, m.cols, tuple(data))})
            bad = Octet(*octet.dims, **changed)
            expected = [(ident, not any(value.data)) for ident, value in identity_values(bad)]
            assert list(octet_verify(bad).results) == expected
            for ident, ok in expected:
                flipped[name, ident] = flipped.get((name, ident), False) or not ok
    # every identity fails for some flip, and each map's flips reach one
    assert {ident for (_, ident), failed in flipped.items() if failed} == {
        ident for ident, _ in identity_values(Octet.zero(0, 0, 0))
    }
    assert {name for (name, _), failed in flipped.items() if failed} == set(
        Octet.zero(0, 0, 0).matrices()
    )


def node_failures(ds, fs, names):
    """The nodes the brute-force oracle finds not exact, in node order."""
    return [name for name, ok in zip(names, exact_nodes(ds, fs)) if not ok]


def test_exactness_node_by_node_on_assembled_octets():
    """The rank-count exactness against the element-by-element oracle, on
    octet triangles with their own maps i, j, p (always exact) and with
    random chain maps between the same three complexes (often not)."""
    rng = random.Random(814)
    names = ("to", "from", "red")
    failing = set()
    for trial in range(300):
        assembled = octet_assemble(random_octet(rng, 3))
        cxs = (assembled.complex_red, assembled.complex_to, assembled.complex_from)
        maps = (assembled.map_i, assembled.map_j, assembled.map_p)
        ds = [c.d for c in cxs]
        if trial % 2:
            maps = tuple(random_chain_map(rng, ds[n], ds[(n + 1) % 3]) for n in range(3))
        bases = [c.cohomology_bases() for c in cxs]
        expected = node_failures(ds, maps, names)
        assert _triangle_exactness_failures(bases, maps, names) == expected
        assert not expected or trial % 2
        failing.update(expected)
    assert failing == set(names)


def test_exactness_node_by_node_on_cone_triples():
    """The same on mapping-cone triples, as generated (always exact) and with
    their maps replaced by random chain maps (often not)."""
    rng = random.Random(815)
    names = ("C1", "C2", "C0")
    failing = set()
    for trial in range(300):
        triple = random_cone_triple(rng, 3)
        ds = [c.d for c in triple.complexes]
        maps = triple.f
        if trial % 2:
            maps = tuple(random_chain_map(rng, ds[n], ds[(n + 1) % 3]) for n in range(3))
            triple = ConeTriple(triple.complexes, maps, triple.h)
        bases = [c.cohomology_bases() for c in triple.complexes]
        expected = node_failures(ds, maps, names)
        assert _triangle_exactness_failures(bases, maps, names) == expected
        assert cone_exactness(triple) == (not expected)
        assert not expected or trial % 2
        failing.update(expected)
    assert failing == set(names)


def count_calls(monkeypatch, names):
    """A dict of call counts, one per name, of the functions `complexes`
    calls by these names; the caller resets it."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, name=name, real=getattr(complexes, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(complexes, name, counted)
    return calls


def test_a_cone_op_costs_twelve_forward_passes_and_36_products(monkeypatch):
    """Built, then passed to cone_verify and cone_exactness, a triple costs
    12 eliminations, each the forward pass alone with no back-substitution:
    one per complex for its cohomology bases, found when the triple is
    built, one per psi_n, and two per node, for its image and for the
    containment.  It costs 36 products: 9 at build (3 squares, 6 for the
    chain maps), 21 in cone_verify (9 homotopy, 12 psi) and 6 in
    cone_exactness (lifts and their images)."""
    calls = count_calls(monkeypatch, ("span_basis", "_pivot_rows", "_combine"))
    rng = random.Random(816)
    for _ in range(50):
        t = random_cone_triple(rng)
        calls.update(span_basis=0, _pivot_rows=0, _combine=0)
        triple = ConeTriple(t.complexes, t.f, t.h)
        assert cone_verify(triple).applicable and cone_exactness(triple)
        assert calls == {"span_basis": 0, "_pivot_rows": 12, "_combine": 36}


def test_an_octet_op_costs_nine_forward_passes_and_19_products(monkeypatch):
    """Verified, then assembled, an octet costs 9 eliminations, each the
    forward pass alone: one per complex for its cohomology bases, and two
    per node, for its image and for the containment.  It costs 19 products:
    8 in the assembly octet_verify builds (4 for the block differentials, the
    squares of d_to and d_red and the two halves of the chain defect of i),
    5 in the assertions of octet_assemble (the square of d_from and the
    chain defects of j and p) and 6 for exactness (lifts and their
    images)."""
    calls = count_calls(monkeypatch, ("span_basis", "_pivot_rows", "_combine"))
    rng = random.Random(817)
    for _ in range(50):
        octet = random_octet(rng)
        calls.update(span_basis=0, _pivot_rows=0, _combine=0)
        assert octet_verify(octet).all_ok and octet_assemble(octet).exact
        assert calls == {"span_basis": 0, "_pivot_rows": 9, "_combine": 19}


def test_only_the_containment_fails_at_a_node():
    """Zero differentials, so each homology is the whole space: C_0 = GF(2),
    C_1 = GF(2)^2, C_2 = GF(2), f_0 onto e_0, f_1 killing only e_1 and
    f_2 = 0.  At C_1 the image of f_0 and the kernel of f_1 are both of
    dimension 1, but f_1 f_0 is not zero, so only the containment finds
    that node not exact; the other two are."""
    zero = F2Matrix.zero
    cxs = tuple(GradedComplex(n, zero(n, n)) for n in (1, 2, 1))
    fs = (from_lists([[1], [0]]), from_lists([[1, 0]]), zero(1, 1))
    names = ("C1", "C2", "C0")
    bases = [c.cohomology_bases() for c in cxs]
    assert [len(z) - len(b) for z, b in bases] == [1, 2, 1]
    assert _triangle_exactness_failures(bases, fs, names) == ["C1"]
    assert node_failures([c.d for c in cxs], fs, names) == ["C1"]
    hs = (zero(1, 1), zero(1, 2), zero(2, 1))
    assert not cone_exactness(ConeTriple(cxs, fs, hs))


def test_cone_exactness_names_the_first_map_that_is_no_chain_map():
    # d e_1 = e_0; the projection onto e_0 does not commute with d
    cx = GradedComplex(2, from_lists([[0, 1], [0, 0]]))
    proj, zero = from_lists([[1, 0], [0, 0]]), F2Matrix.zero(2, 2)
    triple = ConeTriple((cx, cx, cx), (F2Matrix.identity(2), proj, proj), (zero,) * 3)
    assert cone_verify(triple).chain_maps == (True, False, False)
    with pytest.raises(DomainError, match="^f_1 is not a chain map$"):
        cone_exactness(triple)
