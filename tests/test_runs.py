"""Run nodes: each stands for the triangles it expands into.

A "triangle-run" node concludes x = y0 + k*y1 (numerators and denominators
added), k >= 2, from Farey neighbours y0 and y1.  The oracles of
`run_oracle.py` expand every run into its k triangles and confirm those by
`farey_parents`, and build slope certificates by the plain Farey descent.
"""

import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lenslab import lspacecert
from lenslab.cli import main
from lenslab.errors import DomainError
from lenslab.lspacecert import (
    Certificate,
    CertificateCheckError,
    certificate_json,
    certify_borromean,
    check_certificate,
    lens_axiom,
    propagate_slope,
    surgery_lspace_axiom,
)
from run_oracle import check_triangles, expand_runs, farey_descent, fib
from test_certificate_digest import (
    DIGESTS,
    INPUTS,
    borromean_triples,
    pretzel_fillings,
    slope_pairs,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

DATA = Path(__file__).parent / "data"


def _same_as_the_descent(base: Fraction, target: Fraction) -> None:
    """propagate_slope and the plain Farey descent accept the same pair, with
    the same message on rejection, and the runs expand to the descent."""
    axiom = surgery_lspace_axiom("K", base)
    try:
        descent = farey_descent(axiom, target)
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            propagate_slope(axiom, target)
        return
    cert = propagate_slope(axiom, target)
    expanded = expand_runs(cert)
    assert certificate_json(expanded) == certificate_json(descent), (base, target)
    assert check_certificate(cert) <= check_triangles(expanded)


@pytest.mark.parametrize("base, target", [
    (Fraction(5, 2), Fraction(8, 3)),  # 8/3 = 2 + 2*3 and 5/2 = 2 + 3: the run starts at the base
    (Fraction(12, 5), Fraction(5, 2)),  # reaches 2, below the base
    (Fraction(12, 5), Fraction(7, 3)),  # below the base
    (Fraction(5, 2), Fraction(7, 3)),
    (Fraction(1, 3), Fraction(1, 2)),  # reaches 0
    (Fraction(7, 3), Fraction(12, 5)),
    (Fraction(18), Fraction(19)),
    (Fraction(1), Fraction(1)),
])
def test_propagate_slope_accepts_what_the_descent_accepts(base, target):
    _same_as_the_descent(base, target)


@pytest.mark.parametrize("seed", range(4))
def test_propagate_slope_is_the_descent_on_random_pairs(seed):
    """500 pairs per seed: 2,000 in all, 80 of them rejected."""
    rng = random.Random(seed)
    for _ in range(500):
        base = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        _same_as_the_descent(base, base + Fraction(rng.randint(0, 40), rng.randint(1, 12)))


@pytest.mark.parametrize("corpus, seed", [key for key in DIGESTS if key[0] in (
    slope_pairs, borromean_triples, pretzel_fillings
)], ids=lambda value: getattr(value, "__name__", str(value)))
def test_digest_corpora_expand_to_todays_triangles(corpus, seed):
    rng = random.Random(seed)
    runs = 0
    for _ in range(INPUTS):
        try:
            cert = corpus(rng)()
        except DomainError:
            continue
        runs += any(node.rule == "triangle-run" for node in lspacecert._topological(cert))
        assert check_triangles(expand_runs(cert)) >= check_certificate(cert)
    assert runs > INPUTS // 2


def _bench_slopes():
    """Every slope target the benchmark's certs group can draw, base 1."""
    targets = [Fraction(c + d) for c in workloads.LADDER_CENTRES
               for d in range(-workloads.LADDER_JITTER, workloads.LADDER_JITTER + 1)]
    targets += [Fraction(fib(n + 1), fib(n)) for n in range(10, 18)]
    return targets + [Fraction(3000), Fraction(1001, 1000)]


def _bench_borromean():
    out = []
    for n in range(9, 15):
        slopes = [Fraction(1), Fraction(workloads.BORROMEAN_INTEGER)]
        slopes.insert(n % 3, Fraction(fib(n + 1), fib(n)))
        out.append(tuple(slopes))
    return out


def test_benchmark_slopes_expand_to_todays_descent():
    for target in _bench_slopes():
        _same_as_the_descent(Fraction(1), target)
    ladder = propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(3000))
    farey = propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(1001, 1000))
    assert [len(c.to_json_dict()["nodes"]) for c in (ladder, farey)] == [3, 3]


@pytest.mark.parametrize("slopes", _bench_borromean(), ids=str)
def test_benchmark_borromean_surgeries_expand_to_todays_triangles(slopes):
    cert = certify_borromean(*slopes)
    assert check_triangles(expand_runs(cert)) >= check_certificate(cert)


def test_builder_and_checker_never_take_farey_parents(monkeypatch):
    """Runs come from the target's convergents and are checked by one
    closed form, with no modular inverse."""
    def refuse(_):
        raise AssertionError("farey_parents called")

    monkeypatch.setattr(lspacecert, "farey_parents", refuse)
    for target in _bench_slopes():
        check_certificate(propagate_slope(surgery_lspace_axiom("K", Fraction(1)), target))
    for slopes in _bench_borromean():
        check_certificate(certify_borromean(*slopes))
    descent = json.loads((DATA / "descent_slope_300.json").read_text())["certificate"]
    check_certificate(Certificate.from_json_dict(descent))


def _surgery(knot, slope):
    return lspacecert._fact_of(("surgery", (knot, slope)))


def _base(slope, knot="K"):
    return surgery_lspace_axiom(knot, Fraction(slope))


# 24/7 = [3; 2, 3] from base 1: 3 = 1 + 2*(1/0), 7/2 = 1/0 + 2*3, and the
# root 24/7 = 3 + 3*(7/2)
RUNS = propagate_slope(_base(1), Fraction(24, 7))
SEVEN_HALVES = RUNS.premises[1]


@pytest.mark.parametrize("cert", [
    # k off by one in the numerator: 31/7 and 17/7 are no 3 + k*(7/2)
    Certificate(_surgery("K", Fraction(31, 7)), "triangle-run", RUNS.premises),
    Certificate(_surgery("K", Fraction(17, 7)), "triangle-run", RUNS.premises),
    # 11/7 = 1 + 2*(5/3), but 1 and 5/3 are no Farey neighbours
    Certificate(_surgery("K", Fraction(11, 7)), "triangle-run",
                (_base(1), propagate_slope(_base(1), Fraction(5, 3)))),
    # swapped premises
    Certificate(RUNS.conclusion, "triangle-run", RUNS.premises[::-1]),
    # a premise on another knot
    Certificate(RUNS.conclusion, "triangle-run",
                (propagate_slope(_base(1, "J"), Fraction(3)), SEVEN_HALVES)),
    # k = 1 under the run rule: 19 = 18 + 1/0
    Certificate(_surgery("K", Fraction(19)), "triangle-run",
                propagate_slope(_base(18), Fraction(19)).premises),
    # M(5/2,3,1) = M(5/2,1,1) + 2 * (1/0): a 1/0 premise beside the fractional
    # 5/2, here L(5,2), of the order that adds up
    Certificate(lspacecert._fact_of(("borromean", (Fraction(5, 2), Fraction(3), Fraction(1)))),
                "triangle-run",
                (certify_borromean(Fraction(5, 2), Fraction(1), Fraction(1)), lens_axiom(5, 2))),
], ids=["k-plus-one", "k-minus-one", "not-neighbours", "swapped", "another-knot", "k-is-one",
        "borromean-infinity-beside-a-fraction"])
def test_checker_rejects_each_forged_run(cert, capsys, tmp_path):
    for premise in cert.premises:
        check_certificate(premise)
    root = len(cert.to_json_dict()["nodes"]) - 1
    message = rf"^node {root} \(triangle-run\): the premises are not a triangle-run move"
    with pytest.raises(CertificateCheckError, match=message):
        check_certificate(cert)
    path = tmp_path / "forged.json"
    path.write_text(certificate_json(cert))
    assert main(["lspace", "check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_checker_rejects_a_run_whose_h1_is_off_by_one_multiple():
    doc = RUNS.to_json_dict()
    doc["nodes"][-1]["conclusion"]["h1"] = 24 + 7
    message = r"^node 4 \(triangle-run\): fact 'S3_24/7\(K\)' with \|H1\| = 31 does not match"
    with pytest.raises(CertificateCheckError, match=message):
        check_certificate(Certificate.from_json_dict(doc))


@pytest.mark.parametrize("name, first_line", [
    ("descent_slope_300.json", "certified: S3_300(K)"),
    ("descent_borromean.json", "certified: M(7/2,5/3,4)"),
])
def test_certificates_of_the_plain_descent_still_check(capsys, name, first_line):
    """Certificates built before run nodes, one triangle per Farey step:
    `lspace --json slope --base 1 --target 300` and `lspace --json borromean
    7/2 5/3 4` as they printed them."""
    doc = json.loads((DATA / name).read_text())
    cert = Certificate.from_json_dict(doc["certificate"])
    assert check_triangles(cert) == doc["nodes"]
    assert main(["lspace", "check", str(DATA / name)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[0] == first_line
    assert out.splitlines()[2] == f"certificate nodes: {doc['nodes']} (re-verified independently)"
