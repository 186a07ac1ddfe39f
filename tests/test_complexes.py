"""Homology, octet assembly, and the mapping-cone criterion."""

import random

import pytest
from f2_oracles import (
    assembled_differentials,
    assembled_maps,
    cycles_and_boundaries,
    exact_nodes,
    identity_values,
    rank_sparse,
)

from lenslab.errors import DomainError, InvariantError
from lenslab.f2homalg import complexes
from lenslab.f2homalg.gf2 import F2Matrix
from lenslab.f2homalg.complexes import (
    ConeHypothesisReport,
    ConeTriple,
    GradedComplex,
    Octet,
    OctetReport,
    _assembly_failures,
    _triangle_exactness_failures,
    complex_homology,
    cone_exactness,
    cone_verify,
    octet_assemble,
    octet_verify,
)
from lenslab.f2homalg.fuzz import (
    _SEEDS,
    random_chain_map,
    random_cone_triple,
    random_octet,
    random_square_zero,
)


def test_homology_random_vs_independent_elimination():
    rng = random.Random(5)
    for _ in range(100):
        d = random_square_zero(rng, 6)
        cx = GradedComplex.ungraded(6, d)
        # oracle: dim ker - rank via the set-based elimination
        rank = rank_sparse(d)
        assert complex_homology(cx) == {0: 6 - 2 * rank}


def test_invalid_complex_rejected():
    bad = GradedComplex.ungraded(1, F2Matrix.identity(1))
    with pytest.raises(DomainError):
        complex_homology(bad)
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


def test_fuzzed_octets_smoke():
    rng = random.Random(99)
    for _ in range(300):
        octet = random_octet(rng)
        assert octet_verify(octet).all_ok
        assert octet_assemble(octet).exact


def test_cone_zero_triple():
    zero = GradedComplex.ungraded(0, F2Matrix.zero(0, 0))
    z = F2Matrix.zero(0, 0)
    triple = ConeTriple((zero, zero, zero), (z, z, z), (z, z, z))
    report = cone_verify(triple)
    assert report.applicable
    assert cone_exactness(triple)


def test_cone_hypotheses_sufficient_not_necessary():
    # C0 = C1 = rank one with zero differential, C2 = 0, f0 = identity:
    # the homotopy identities hold with zero homotopies, psi_0 = 0 fails to
    # be an isomorphism on H = F2, yet the homology sequence is exact.
    rank1 = GradedComplex.ungraded(1, F2Matrix.zero(1, 1))
    zero = GradedComplex.ungraded(0, F2Matrix.zero(0, 0))
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
    rank1 = GradedComplex.ungraded(1, F2Matrix.zero(1, 1))
    with pytest.raises(DomainError):
        ConeTriple(
            (rank1, rank1, rank1),
            (F2Matrix.zero(2, 1), F2Matrix.zero(1, 1), F2Matrix.zero(1, 1)),
            (F2Matrix.zero(1, 1), F2Matrix.zero(1, 1), F2Matrix.zero(1, 1)),
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
        expected = [(name, value.is_zero()) for name, value in identity_values(octet)]
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
    complexes = tuple(GradedComplex.ungraded(n, d) for n, d in zip(dims, ds))
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
        bases = [c.homology_bases() for c in triple.complexes]
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
            image = {psi.apply(z) ^ b for z in cycles for b in bounds}
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


def test_assembly_checks_match_the_matrix_oracle(monkeypatch):
    """Valid identities imply d^2 = 0 and the chain-map property, so these
    checks are reached only with the identity check bypassed, and some only
    together with others."""
    monkeypatch.setattr(
        complexes, "octet_verify", lambda octet: OctetReport((("all", True),))
    )
    rng = random.Random(812)
    seen = set()
    for trial in range(400):
        octet = flip_entries(rng, random_octet(rng, 3), 1 + trial % 2)
        d_to, d_from, d_red = assembled_differentials(octet)
        map_i, map_j, map_p = assembled_maps(octet)
        expected = [
            f"{name} does not square to zero"
            for name, d in (("d_to", d_to), ("d_from", d_from), ("d_red", d_red))
            if not (d @ d).is_zero()
        ] + [
            f"map {name} is not a chain map"
            for name, f, dom, cod in (
                ("i", map_i, d_red, d_to), ("j", map_j, d_to, d_from),
                ("p", map_p, d_from, d_red),
            )
            if cod @ f != f @ dom
        ]
        rows = [m.data for m in (d_to, d_from, d_red, map_i, map_j, map_p)]
        assert _assembly_failures(*rows) == expected
        seen.update(expected)
        if expected:
            with pytest.raises(InvariantError, match=expected[0]):
                octet_assemble(octet)
        else:
            octet_assemble(octet)
    assert len(seen) == 6
