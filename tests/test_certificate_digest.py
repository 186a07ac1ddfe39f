"""The bytes of every certificate the builders return, pinned by digest.

A seeded corpus of inputs per builder: random plumbing trees (with and
without the hypothesis gate), random Tait graphs, slope pairs, Borromean
triples and pretzel fillings.  Each input records the sha256 of its
`certificate_json` and the checker's node count, or the type of the
exception that rejected it.  A digest changes only if a builder returns a
different certificate, rejects a different input, or the checker counts a
certificate differently.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from graph_fixtures import cycle_graph, theta_graph

from lenslab.errors import DomainError
from lenslab.lspacecert import (
    TaitGraph,
    WeightedTree,
    certificate_json,
    certify_alternating,
    certify_borromean,
    certify_pretzel_surgeries,
    certify_tree,
    check_certificate,
    propagate_slope,
    surgery_lspace_axiom,
)

INPUTS = 100


def _tree(rng: random.Random, max_vertices: int) -> WeightedTree:
    n = rng.randint(1, max_vertices)
    edges = tuple((v, rng.randrange(v)) for v in range(1, n))
    return WeightedTree(tuple(rng.randint(1, 5) for _ in range(n)), edges)


def gated_trees(rng):
    tree = _tree(rng, 9)
    return lambda: certify_tree(tree)


def ungated_trees(rng):
    tree = _tree(rng, 7)
    return lambda: certify_tree(tree, require_hypothesis=False)


def tait_graphs(rng):
    n = rng.randint(1, 6)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    for _ in range(rng.randint(0, 4)):
        edges.append((rng.randrange(n), rng.randrange(n)))  # loops and parallel edges too
    graph = TaitGraph(n, tuple(edges))
    return lambda: certify_alternating(graph)


def _slope(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, 5))


def slope_pairs(rng):
    base = surgery_lspace_axiom("K", _slope(rng, 30))
    target = _slope(rng, 60)
    return lambda: propagate_slope(base, target)


def borromean_triples(rng):
    slopes = [_slope(rng, 12) for _ in range(3)]
    return lambda: certify_borromean(*slopes)


def pretzel_fillings(rng):
    n = rng.choice((7, 9, 11, 13, 15))
    target = 2 * n + 4 + Fraction(rng.randint(-2, 12), rng.randint(1, 3))
    return lambda: certify_pretzel_surgeries(n, target)


DIGESTS = {
    (gated_trees, 1): "95016ad6ef76b3e47e7e5ab21bb43e36484baefbb50f24bb1d589a6765824095",
    (gated_trees, 2): "5cbb062b643b093e0f99c3efa016795dbb4c001cc9ebaf5ebf88b53c45273691",
    (ungated_trees, 1): "a297297956fcb9aea52b062fcd35389d082b1e0fc51e1b6bd71ca8c0d57662a0",
    (ungated_trees, 2): "6c50c266828f9875dc5f1a22127c80360d259a22b44664faf42f3f86e87392a2",
    (tait_graphs, 1): "ac0c73078125637a56e9c809ea506c5354e58ad7a3c0b7e3c1c196ea0b119e41",
    (tait_graphs, 2): "fa0e704f35c221200326cdaa72104329e0dd02287efded1159e98864c2e7ca35",
    (slope_pairs, 1): "f1d26e44d502812c9b246258c5078b8d62f9a04245c6881a5507b768bbbed60c",
    (slope_pairs, 2): "7402e7451ea2368902dc8ac0459936c16765d77cbe09c2f50957bd4f9b6a41ea",
    (borromean_triples, 1): "21a084bd597901b3f896699a28f50dfd81eb4ed54d36f725ce41929e17434222",
    (borromean_triples, 2): "a0d80f06242724a25cfd22f2dab9f1edc19483b1e2c00c282eb6010a4c5eaef4",
    (pretzel_fillings, 1): "8b8d4de8e7d2cdaf6599940fd4990705584cfd45bcd7de032927139c8026de7d",
    (pretzel_fillings, 2): "8729796244ce23cf019dca2d6fe7eb504a2bac1c0ae89ebb10acb695f15ea2b4",
}


def outcome(build) -> str:
    try:
        cert = build()
    except DomainError as exc:  # rejections, including HypothesisNotMetError
        return type(exc).__name__
    text = certificate_json(cert)
    return f"{hashlib.sha256(text.encode()).hexdigest()} {check_certificate(cert)}"


def digest(corpus, seed) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(INPUTS):
        try:
            build = corpus(rng)
        except DomainError as exc:  # an input its constructor rejects
            line = type(exc).__name__
        else:
            line = outcome(build)
        h.update(line.encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("corpus, seed", DIGESTS, ids=[f"{c.__name__}-{s}" for c, s in DIGESTS])
def test_certificate_digest(corpus, seed):
    assert digest(corpus, seed) == DIGESTS[corpus, seed]


def grid_graph(rows: int, cols: int) -> TaitGraph:
    """The rows x cols grid: vertex r * cols + c joined to its right and lower
    neighbours."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return TaitGraph(rows * cols, tuple(edges))


# Tait graphs the random corpus rarely reaches: grids, a long cycle, many
# parallel strands, and loops next to bridges.
TAIT_DIGESTS = {
    "grid-3x3": (
        grid_graph(3, 3),
        "a574f808c566cd31cf853c82a6d375840538754228ce40a7bac5bcd9f9e73c27 746",
    ),
    "grid-3x5": (
        grid_graph(3, 5),
        "7943da4bd7f54c18617ba2bba50ea9d529e765def379fdae32c98d5ff3ee71df 119733",
    ),
    "cycle-10": (
        cycle_graph(10),
        "6e7014e6d18e8ba2188a7a055a1e9f1688d89f401c3365be69da7411bd158724 65",
    ),
    "theta-4": (
        theta_graph(4),
        "dea92605a1f9367ae94c09d6da8f75d4ee7516ca266da3a7673a9f9e8e4e568d 14",
    ),
    "loops-and-bridges": (
        TaitGraph(5, ((0, 0), (0, 1), (1, 2), (2, 3), (3, 1), (3, 3), (2, 4), (4, 4), (1, 2))),
        "0b0331707384b37df4ab652f9749a89b3fe0480f0ea74170328423810e0e88f8 21",
    ),
}


@pytest.mark.parametrize("name", TAIT_DIGESTS)
def test_tait_certificate_digest(name):
    graph, expected = TAIT_DIGESTS[name]
    assert outcome(lambda: certify_alternating(graph)) == expected
