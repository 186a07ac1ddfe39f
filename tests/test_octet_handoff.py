"""octet_verify hands its assembly to the next octet_assemble, and the
triangle's matrices and complexes are built without re-validation."""

import hashlib
import random

from f2_oracles import assembled_differentials, assembled_maps

from lenslab.f2homalg import complexes
from lenslab.f2homalg.complexes import GradedComplex, Octet, octet_assemble, octet_verify
from lenslab.f2homalg.fuzz import random_octet
from lenslab.f2homalg.gf2 import F2Matrix


def _count_calls(monkeypatch, names):
    calls = []
    for name in names:
        def counted(arg, name=name, original=getattr(complexes, name)):
            calls.append(name)
            return original(arg)
        monkeypatch.setattr(complexes, name, counted)
    return calls


def test_verify_then_assemble_builds_one_assembly_and_one_report(monkeypatch):
    calls = _count_calls(monkeypatch, ("_assembly", "_identity_report"))
    rng = random.Random("handoff:1")
    for _ in range(20):
        octet = random_octet(rng)
        calls.clear()
        assert octet_verify(octet).all_ok
        assert octet_assemble(octet).exact
        assert calls == ["_assembly", "_identity_report"]


def test_assemble_clears_the_handoff_and_works_alone(monkeypatch):
    rng = random.Random("handoff:2")
    for _ in range(20):
        octet = random_octet(rng)
        alone = octet_assemble(octet)
        assert octet._verified is None
        octet_verify(octet)
        assert octet._verified is not None
        assert octet_assemble(octet) == alone
        assert octet._verified is None
    # with nothing handed over, each assemble builds its own assembly
    calls = _count_calls(monkeypatch, ("_assembly", "_identity_report"))
    octet_assemble(octet)
    octet_assemble(octet)
    assert calls == ["_assembly", "_identity_report"] * 2


def test_verify_leaves_repr_equality_and_hash_alone():
    rng = random.Random("handoff:3")
    for _ in range(20):
        octet = random_octet(rng)
        twin = Octet(*octet.dims, **octet.matrices())
        before = repr(octet), hash(octet)
        octet_verify(octet)
        assert (repr(octet), hash(octet)) == before
        assert octet == twin and hash(twin) == hash(octet)
        assert "_verified" not in repr(octet)


# sha256 of the reprs of octet_assemble's triangles on the 300 octets of
# random_octet(Random("assembled:1")), as the validating constructors built them
ASSEMBLED_DIGEST = "4215b0a974e1b89066f056bee34d4466d832b1eec52df6429edfffba73438b0d"


def test_unvalidated_triangle_parts_equal_validated_ones():
    rng = random.Random("assembled:1")
    h = hashlib.sha256()
    for _ in range(300):
        octet = random_octet(rng)
        octet_verify(octet)
        tri = octet_assemble(octet)
        h.update(repr(tri).encode())
        complexes_ = (tri.complex_to, tri.complex_from, tri.complex_red)
        maps = (tri.map_i, tri.map_j, tri.map_p)
        for m in (*(c.d for c in complexes_), *maps):
            assert type(m.data) is tuple
            assert F2Matrix(m.rows, m.cols, m.data) == m
        for c in complexes_:
            assert GradedComplex(c.dim, F2Matrix(c.d.rows, c.d.cols, c.d.data)) == c
        assert tuple(c.d for c in complexes_) == assembled_differentials(octet)
        assert maps == assembled_maps(octet)
    assert h.hexdigest() == ASSEMBLED_DIGEST
