"""The benchmark's four op groups: seeded inputs, the ops, and their oracles.

run.py pairs the groups into workloads (scan + tables, certs + fuzz); each
group of a pass runs in its own fresh interpreter.

Every op calls the library's public top-level functions, the way a library
user does.  Those functions are looked up in this module's namespace at call
time, so the tracer can wrap them here without touching the package.

An op returns a small semantic summary (never witnesses or certificate
bytes); `wrong_ops` compares the summaries with independent expected values
after the timed phase and names every op whose answer is wrong.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from lenslab.alexobstruct import candidate_polynomials
from lenslab.f2homalg.complexes import (
    cone_exactness,
    cone_verify,
    octet_assemble,
    octet_verify,
)
from lenslab.f2homalg.fuzz import random_cone_triple, random_octet
from lenslab.lensdi import LensSpace, d_table
from lenslab.lspacecert import (
    TaitGraph,
    certificate_json,
    certify_alternating,
    certify_borromean,
    certify_tree,
    check_certificate,
    propagate_slope,
    spanning_tree_count_bruteforce,
    star_tree,
    surgery_lspace_axiom,
)
from lenslab.plumblat import lattice_vs_recursion_check

GROUPS = ("scan", "tables", "certs", "fuzz")


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    spec: object = None  # what the oracle needs: (p, q) or the expected answer
    # Exception type of a known, recorded defect.  Such a failure still counts
    # as a failed op; any other exception makes the run incorrect.
    known_defect: type[BaseException] | None = None


# ---------------------------------------------------------------------------
# scan: candidate polynomials for every lens space of the genus-5 radius
# ---------------------------------------------------------------------------

# Acceptance criteria 1 and 3: canonical spaces realizable by genus-g knots.
GENUS_LISTS = {
    2: [(9, 7), (11, 4)],
    3: [(11, 9), (13, 10), (13, 9), (15, 4)],
    4: [(14, 11), (16, 9), (17, 13), (19, 5)],
    5: [(18, 13), (19, 11), (21, 16), (23, 6)],
}
ONE = ((0, 1),)
TREFOIL = ((0, -1), (1, 1))
TORUS_2_5 = ((0, 1), (1, -1), (2, 1))


def _genus_range(g: int) -> range:
    return range(max(2 * g - 1, 2), 12 * g - 7 + 1)


def _coprime_pairs(pmin: int, pmax: int) -> list[tuple[int, int]]:
    return [
        (p, q) for p in range(pmin, pmax + 1) for q in range(1, p) if gcd(p, q) == 1
    ]


def _scan_op(p: int, q: int) -> Op:
    return Op(
        f"L({p},{q})",
        lambda: [c.poly.coeffs for c in candidate_polynomials(LensSpace(p, q))],
        (p, q),
    )


def scan_ops(rng: random.Random, tiny: bool) -> list[Op]:
    pairs = _coprime_pairs(2, 17 if tiny else 53)
    rng.shuffle(pairs)
    return [_scan_op(p, q) for p, q in pairs]


def scan_wrong(ops: list[Op], results: dict[str, object]) -> dict[str, str]:
    wrong: dict[str, str] = {}
    polys = {op.spec: results[op.label] for op in ops if op.label in results}
    for (p, q), found in polys.items():
        if p <= 8 and not set(found) <= {ONE, TREFOIL}:
            wrong[f"L({p},{q})"] = "p <= 8 admits only the trivial and trefoil polynomials"
    if (9, 7) in polys and TORUS_2_5 not in polys[(9, 7)]:
        wrong["L(9,7)"] = "missing the (2,5)-torus-knot polynomial"
    scanned = {op.spec for op in ops}
    for g, expected in GENUS_LISTS.items():
        band = [(p, q) for p, q in scanned if p in _genus_range(g)]
        if set(band) != set(_coprime_pairs(_genus_range(g)[0], _genus_range(g)[-1])):
            continue  # the op list does not cover this genus' radius
        expected_set = {LensSpace(p, q).canonical() for p, q in expected}
        hits: dict[LensSpace, list[tuple[int, int]]] = {}
        for pq in band:
            if any(c[-1][0] == g for c in polys.get(pq, ())):
                hits.setdefault(LensSpace(*pq).canonical(), []).append(pq)
        for canon, reps in hits.items():
            if canon not in expected_set:
                for p, q in reps:
                    wrong[f"L({p},{q})"] = f"not in the genus-{g} list"
        for canon in expected_set - hits.keys():
            for p, q in band:
                if LensSpace(p, q).canonical() == canon:
                    wrong[f"L({p},{q})"] = f"missing from the genus-{g} list"
    return wrong


# ---------------------------------------------------------------------------
# tables: the lattice oracle, its worst cases, and large d-tables
# ---------------------------------------------------------------------------

# Candidate (p, q) per d-table band, with a digest of the sorted num/den
# values recorded with lenslab 0.1.0.  q stays small in every
# band, so each table costs about p Fraction steps and holds about p memo
# entries whichever candidate the seed draws.
D_TABLE_BANDS = (
    {
        (1009, 13): "72ae222b27c4ffbc",
        (1013, 17): "943c34405a0a461a",
        (1019, 19): "1c755f82464cd81e",
        (1021, 23): "19434699b5364418",
    },
    {
        (10007, 27): "37cb227ae8fb24e1",
        (10009, 29): "4bdd7a22aed6483b",
        (10037, 19): "9631d6a7e887add7",
        (10039, 23): "7ec728fcdce084e4",
    },
    {
        (30011, 19): "bce35b352d528447",
        (30013, 29): "0abc1abc400fb467",
        (30029, 23): "803ed61681bf37cb",
        (30047, 17): "633310bf8b440417",
    },
    {
        (100003, 27): "92f762367420bd55",
        (100019, 23): "0359caaace30a94d",
        (100043, 19): "9612d8bb0eed708d",
        (100049, 29): "0859d20d847f87cf",
    },
)
D_TABLE_DIGESTS = {pq: digest for band in D_TABLE_BANDS for pq, digest in band.items()}
LATTICE_WORST_CASES = ((37, 36), (41, 40))


def table_digest(values) -> str:
    text = "\n".join(f"{v.numerator}/{v.denominator}" for v in sorted(values))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_op(p: int, q: int) -> Op:
    return Op(f"check({p},{q})", lambda: lattice_vs_recursion_check(p, q).equal)


def _table_op(p: int, q: int) -> Op:
    return Op(f"d_table({p},{q})", lambda: d_table(LensSpace(p, q)).values, (p, q))


def tables_ops(rng: random.Random, tiny: bool) -> list[Op]:
    if tiny:
        ops = [_check_op(p, q) for p, q in _coprime_pairs(2, 8)]
        ops += [_check_op(11, 10), _table_op(*rng.choice(sorted(D_TABLE_BANDS[0])))]
    else:
        ops = [_check_op(p, q) for p, q in _coprime_pairs(2, 30)]
        ops += [_check_op(p, q) for p, q in LATTICE_WORST_CASES]
        ops += [_table_op(*rng.choice(sorted(band))) for band in D_TABLE_BANDS]
    rng.shuffle(ops)
    return ops


def tables_wrong(ops: list[Op], results: dict[str, object]) -> dict[str, str]:
    wrong = {}
    for op in ops:
        if op.label not in results:
            continue
        got = results[op.label]
        if op.spec is None:
            if got is not True:
                wrong[op.label] = "lattice maxima differ from 4*d"
        elif table_digest(got) != D_TABLE_DIGESTS[op.spec]:
            wrong[op.label] = "d-table digest differs from the recorded one"
    return wrong


# ---------------------------------------------------------------------------
# certs: build, check and serialise L-space certificates
# ---------------------------------------------------------------------------


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _certify(build: Callable[[], object]) -> int:
    """One certs op: build, check, serialise; returns the conclusion's |H1|."""
    cert = build()
    check_certificate(cert)
    certificate_json(cert)
    return cert.conclusion.h1_order


def _slope_op(label: str, target: Fraction, known_defect=None) -> Op:
    def build():
        return propagate_slope(surgery_lspace_axiom("K", Fraction(1)), target)

    return Op(label, lambda: _certify(build), target.numerator, known_defect)


def _borromean_op(slopes: tuple[Fraction, Fraction, Fraction]) -> Op:
    label = "borromean:" + ",".join(str(x) for x in slopes)
    expected = slopes[0].numerator * slopes[1].numerator * slopes[2].numerator
    return Op(label, lambda: _certify(lambda: certify_borromean(*slopes)), expected)


def _bridgeless_graph(rng: random.Random, n: int, extra: int) -> TaitGraph:
    while True:
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        for _ in range(extra):
            a, b = rng.sample(range(n), 2)
            edges.append((min(a, b), max(a, b)))
        graph = TaitGraph(n, tuple(edges))
        if not graph.bridges():
            return graph


def _tait_op(rng: random.Random, n: int, lo: int, hi: int) -> Op:
    # The spanning-tree count sets the size of the certificate; keeping it in
    # a narrow band keeps the work of the op the same for every seed.
    while True:
        graph = _bridgeless_graph(rng, n, 4)
        expected = spanning_tree_count_bruteforce(graph)  # the oracle's value
        if lo <= expected <= hi:
            break
    label = f"tait:{n}:" + ",".join(f"{a}-{b}" for a, b in graph.edges)
    return Op(label, lambda: _certify(lambda: certify_alternating(graph)), expected)


def _continuant(weights: list[int]) -> int:
    """Determinant of the chain with these weights and unit off-diagonals."""
    prev, cur = 0, 1
    for w in reversed(weights):
        prev, cur = cur, w * cur - prev
    return cur


def star_order(centre: int, legs: list[list[int]]) -> int:
    """|H1| of a star plumbing, from the continuants of its legs."""
    dens = 1
    for leg in legs:
        dens *= _continuant(leg)
    value = centre * dens
    for leg in legs:
        value -= _continuant(leg[1:]) * (dens // _continuant(leg))
    return abs(value)


def _star_op(centre: int, legs: list[list[int]]) -> Op:
    label = f"star:{centre}:" + "|".join(",".join(map(str, leg)) for leg in legs)
    return Op(
        label,
        lambda: _certify(lambda: certify_tree(star_tree(centre, legs))),
        star_order(centre, legs),
    )


# (vertices, spanning-tree count band) per Tait graph; each graph has n + 3 edges.
TAIT_BANDS = ((5, 25, 30), (5, 25, 30), (6, 42, 50), (6, 42, 50),
              (7, 60, 72), (7, 60, 72), (8, 85, 100), (8, 85, 100))
# Valid stars (weight >= degree everywhere, strict somewhere); the seed
# orders the legs.
STARS = (
    (3, [[2], [2], [2]]), (3, [[2], [3], [2, 2]]), (3, [[2, 3], [2], [3]]),
    (3, [[2, 2], [2, 3], [3]]), (3, [[2, 3], [2, 2], [2, 2]]),
    (4, [[2], [2], [2], [3]]), (4, [[2, 2], [3], [2], [2]]), (4, [[3], [2, 3], [2], [2]]),
)
# Each ladder target is drawn within 2 of its centre (an op's time grows with
# about the square of its target); 445 + 2 stays well below the depth where
# serialising hits the recursion limit.
LADDER_CENTRES = (55, 135, 215, 295, 375, 445)
LADDER_JITTER = 2
BORROMEAN_INTEGER = 5


def certs_ops(rng: random.Random, tiny: bool) -> list[Op]:
    centres = LADDER_CENTRES[:1] if tiny else LADDER_CENTRES
    ops = [_slope_op(f"ladder:{t}", Fraction(t))
           for t in (c + rng.randint(-LADDER_JITTER, LADDER_JITTER) for c in centres)]
    for n in [10] if tiny else range(10, 18):
        ratio = Fraction(_fib(n + 1), _fib(n))
        ops.append(_slope_op(f"fib:{ratio}", ratio))
    for n in [9] if tiny else range(9, 15):
        # Which coordinate holds the Fibonacci slope changes the op's time by
        # up to a third, so it is fixed per n rather than drawn from the seed.
        slopes = [Fraction(1), Fraction(BORROMEAN_INTEGER)]
        slopes.insert(n % 3, Fraction(_fib(n + 1), _fib(n)))
        ops.append(_borromean_op(tuple(slopes)))
    for band in TAIT_BANDS[:1] if tiny else TAIT_BANDS:
        ops.append(_tait_op(rng, *band))
    for centre, legs in STARS[:1] if tiny else STARS:
        ops.append(_star_op(centre, rng.sample(legs, len(legs))))
    # Past the recursion limit today: the ladder fails in the checker, the
    # Farey descent while building.  They stay in every run.
    ops.append(_slope_op("ladder:3000", Fraction(3000), RecursionError))
    ops.append(_slope_op("farey:1001/1000", Fraction(1001, 1000), RecursionError))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# fuzz: octet identities and cone triples from the package's generators
# ---------------------------------------------------------------------------


def _octet_op(i: int, octet) -> Op:
    return Op(
        f"octet#{i}",
        lambda: (octet_verify(octet).all_ok, octet_assemble(octet).exact),
        (True, True),
    )


def _cone_op(i: int, triple) -> Op:
    return Op(
        f"cone#{i}",
        lambda: (cone_verify(triple).applicable, cone_exactness(triple)),
        (True, True),
    )


def fuzz_ops(rng: random.Random, tiny: bool) -> list[Op]:
    n_octets, n_cones = (20, 5) if tiny else (2000, 500)
    ops = [_octet_op(i, random_octet(rng)) for i in range(n_octets)]
    ops += [_cone_op(i, random_cone_triple(rng)) for i in range(n_cones)]
    rng.shuffle(ops)
    return ops


def answer_wrong(ops: list[Op], results: dict[str, object]) -> dict[str, str]:
    return {
        op.label: f"got {results[op.label]!r}, expected {op.spec!r}"
        for op in ops
        if op.label in results and results[op.label] != op.spec
    }


_OP_LISTS = {"scan": scan_ops, "tables": tables_ops, "certs": certs_ops, "fuzz": fuzz_ops}
_ORACLES = {"scan": scan_wrong, "tables": tables_wrong, "certs": answer_wrong, "fuzz": answer_wrong}


def build_ops(group: str, seed: int, tiny: bool = False) -> list[Op]:
    """The ops of one group; the same seed gives the same inputs."""
    return _OP_LISTS[group](random.Random(f"{group}:{seed}"), tiny)


def wrong_ops(group: str, ops: list[Op], results: dict[str, object]) -> dict[str, str]:
    """Label -> reason for every op whose returned answer is wrong."""
    return _ORACLES[group](ops, results)
