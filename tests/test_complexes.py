"""Homology, octet assembly, and the mapping-cone criterion."""

import random

import pytest

from lenslab.errors import DomainError
from lenslab.f2homalg.gf2 import F2Matrix
from lenslab.f2homalg.complexes import (
    ConeTriple,
    GradedComplex,
    Octet,
    complex_homology,
    cone_exactness,
    cone_verify,
    octet_assemble,
    octet_verify,
)
from lenslab.f2homalg.fuzz import (
    _SEEDS,
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
        rank = d.rank_sparse()
        assert complex_homology(cx) == {0: 6 - 2 * rank}


def test_invalid_complex_rejected():
    bad = GradedComplex.ungraded(1, F2Matrix.identity(1))
    with pytest.raises(DomainError):
        complex_homology(bad)


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
