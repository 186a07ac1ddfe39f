"""Certificate construction, the independent checker, and the input builders."""

import contextlib
import json
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lenslab import lspacecert
from lenslab.errors import DomainError, HypothesisNotMetError, InvariantError
from lenslab.lspacecert import (
    Certificate,
    CertificateCheckError,
    Fact,
    TaitGraph,
    WeightedTree,
    certificate_json,
    certify_alternating,
    certify_borromean,
    certify_pretzel_surgeries,
    certify_tree,
    check_certificate,
    connected_sum_lens_axiom,
    lens_axiom,
    poincare_sphere_axiom,
    pretzel_star,
    propagate_slope,
    spanning_tree_count_bruteforce,
    sphere_axiom,
    star_tree,
    surgery_lspace_axiom,
    tait_det,
    tree_h1,
)
from graph_fixtures import cycle_graph, path_tree, theta_graph
from run_oracle import expand_runs, farey_descent, fib, partial_quotients


def test_triangle_rule_examples():
    base = surgery_lspace_axiom("K", Fraction(4))
    target = Fact("S3_5(K)", 5, kind="surgery", params=(("knot", "K"), ("slope", "5")))
    cert = Certificate(target, "triangle", (base, sphere_axiom()))  # the integer rung 4 -> 5
    assert check_certificate(cert) == 3
    with pytest.raises(CertificateCheckError, match=r"^node 2 \(triangle\)"):
        check_certificate(Certificate(Fact("bogus", 6), "triangle", (base, sphere_axiom())))
    # |H1| additivity alone is no triad: unknot surgeries at 2 and 3 give L(5,2)
    lens_5_1 = Fact("L(5,1)", 5, kind="lens", params=(("p", "5"), ("q", "1")))
    with pytest.raises(CertificateCheckError, match=r"^node 2 \(triangle\)"):
        check_certificate(Certificate(lens_5_1, "triangle", (lens_axiom(2), lens_axiom(3))))


def test_tree_h1_examples():
    assert tree_h1(WeightedTree((7,), ())) == 7
    assert tree_h1(star_tree(3, [[2], [2], [2]])) == 12
    assert tree_h1(path_tree([2, 2])) == 3


def random_tree(rng: random.Random) -> WeightedTree:
    n = rng.randrange(1, 13)
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for v in range(1, n):
        a, b = label[rng.randrange(v)], label[v]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    return WeightedTree(tuple(rng.randint(-5, 6) for _ in range(n)), tuple(edges))


def test_tree_h1_matches_dense_determinant():
    from lenslab.lspacecert import _integer_det

    rng = random.Random(20)
    for _ in range(2000):
        tree = random_tree(rng)
        n = len(tree.weights)
        matrix = [[0] * n for _ in range(n)]
        for v, w in enumerate(tree.weights):
            matrix[v][v] = w
        for a, b in tree.edges:
            matrix[a][b] = matrix[b][a] = 1
        assert tree_h1(tree) == abs(_integer_det(matrix))


def test_certify_long_path():
    cert = certify_tree(path_tree([2] * 60))
    assert cert.conclusion.h1_order == 61
    assert check_certificate(cert) == cert.size()


def test_certify_tree_single_vertex():
    cert = certify_tree(WeightedTree((5,), ()))
    assert cert.rule == "axiom:lens-space"
    assert cert.conclusion.h1_order == 5


def test_certify_tree_star():
    cert = certify_tree(star_tree(3, [[2], [2], [2]]))
    assert cert.conclusion.h1_order == 12
    assert check_certificate(cert) == cert.size()


def test_certify_tree_rejects_path_1_1():
    with pytest.raises(HypothesisNotMetError):
        certify_tree(path_tree([1, 1]))


def test_certify_tree_hypothesis_gate():
    # centre weight below its degree
    with pytest.raises(HypothesisNotMetError):
        certify_tree(star_tree(2, [[2], [4], [3]]))
    # but the determinant-guarded induction still certifies it
    cert = certify_tree(star_tree(2, [[2], [4], [3]]), require_hypothesis=False)
    assert cert.conclusion.h1_order == 22
    check_certificate(cert)


def test_tree_rejection_names_one_failed_split():
    # every leaf split of this tree fails somewhere below; a rejection that
    # joined the messages of all of them grew exponentially with the depth
    tree = WeightedTree((4, 4, 5, 1, 5, 3, 5), ((0, 1), (0, 2), (0, 3), (3, 4), (0, 5), (0, 6)))
    start = time.perf_counter()
    with pytest.raises(HypothesisNotMetError, match="^no leaf admits a determinant-positive split") as info:
        certify_tree(tree, require_hypothesis=False)
    assert time.perf_counter() - start < 1
    assert "\n" not in str(info.value)


def test_certify_tree_blow_down_path():
    cert = certify_tree(path_tree([2, 2]))
    assert cert.conclusion.h1_order == 3
    check_certificate(cert)


def test_trees_with_weight_equal_to_degree_have_no_rational_homology():
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(2, 30)
        edges = tuple((v, rng.randrange(v)) for v in range(1, n))
        degree = [sum(v in edge for edge in edges) for v in range(n)]
        with pytest.raises(HypothesisNotMetError, match=r"^boundary is not a rational homology sphere"):
            certify_tree(WeightedTree(tuple(degree), edges))


def test_gated_trees_take_the_first_move_and_never_backtrack(monkeypatch):
    """On a tree with every weight >= its degree and |H1| != 0, a weight-1
    vertex is a leaf, and blowing it down keeps the gate and |H1|; with no
    weight-1 leaf, every leaf weighs >= 2 and either side of its split is a
    gated tree strictly diagonally dominant somewhere (the leaf's neighbour
    once it is deleted, another leaf once it is decremented), hence definite
    with |H1| != 0, and the two |H1| add up.  So `_tree_steps` takes the
    first move `_tree_moves` yields at every node, and its search serves
    require_hypothesis=False alone.  The heavy-first tree order planned in
    ROADMAP.md (item 4) relies on this, and updates this test if it changes
    the enumerator's order.
    """
    memos = []
    derive = lspacecert._derive

    def recording(root, steps, memo):
        memos.append(memo)
        return derive(root, steps, memo)

    monkeypatch.setattr(lspacecert, "_derive", recording)
    rng = random.Random("gated-first-move")
    trees = [
        star_tree(3, [[2], [2], [2]]),
        star_tree(4, [[2, 2], [3], [2], [2]]),
        star_tree(5, [[1], [2, 3], [2, 1], [3], [2]]),
        star_tree(3, [[2, 2, 2], [3, 1], [2]]),
    ]
    while len(trees) < 200:
        n = rng.randint(2, 10)
        edges = tuple((v, rng.randrange(v)) for v in range(1, n))
        degree = [sum(v in edge for edge in edges) for v in range(n)]
        tree = WeightedTree(tuple(d + rng.randrange(4) for d in degree), edges)
        if tree_h1(tree):
            trees.append(tree)
    nodes = 0
    for tree in trees:
        cert = certify_tree(tree)
        for node in lspacecert._topological(cert):
            kind, data = lspacecert._view(node.conclusion)
            if kind == "tree-boundary":
                nodes += 1
                premises = tuple(lspacecert._view(p.conclusion) for p in node.premises)
                assert (node.rule, premises) == next(lspacecert._tree_moves(data)), tree
    assert nodes > 1000
    failures = [v for memo in memos for v in memo.values() if isinstance(v, HypothesisNotMetError)]
    assert failures == []


def test_tait_det_examples():
    assert tait_det(cycle_graph(3)) == 3
    assert tait_det(TaitGraph(2, ((0, 1),))) == 1
    assert tait_det(theta_graph()) == 3
    assert tait_det(TaitGraph(1, ())) == spanning_tree_count_bruteforce(TaitGraph(1, ())) == 1


def test_certify_alternating_examples():
    cert = certify_alternating(cycle_graph(3))
    assert cert.conclusion.h1_order == 3
    check_certificate(cert)

    single = certify_alternating(TaitGraph(2, ((0, 1),)))
    assert single.conclusion.h1_order == 1

    four = certify_alternating(cycle_graph(4))
    assert four.conclusion.h1_order == 4
    check_certificate(four)

    loop = certify_alternating(cycle_graph(1))
    assert (loop.rule, loop.premises[0].rule) == ("reduce", "axiom:three-sphere")
    assert check_certificate(loop) == 2


def test_tait_disconnected_rejected():
    with pytest.raises(DomainError):
        TaitGraph(3, ((0, 1),))
    with pytest.raises(DomainError, match="need at least one vertex"):
        TaitGraph(0, ())


def _grid_by_vertex(rows: int, cols: int) -> TaitGraph:
    """The rows x cols grid, each vertex's edges to its right and lower
    neighbours listed in turn."""
    edges = []
    for v in range(rows * cols):
        if (v + 1) % cols:
            edges.append((v, v + 1))
        if v + cols < rows * cols:
            edges.append((v, v + cols))
    return TaitGraph(rows * cols, tuple(edges))


@pytest.mark.parametrize("graph, minors", [
    (cycle_graph(64), 127),
    (_grid_by_vertex(3, 5), 1328),
], ids=["cycle-64", "grid-3x5"])
def test_each_tait_minor_counts_its_spanning_trees_once(monkeypatch, graph, minors):
    counted = []
    monkeypatch.setattr(lspacecert, "tait_det", lambda g: counted.append(g) or tait_det(g))
    nodes = certify_alternating(graph).to_json_dict()["nodes"]
    distinct = [node for node in nodes if node["conclusion"]["kind"] == "branched-double-cover"]
    assert len(counted) == len(distinct) == minors


@pytest.mark.parametrize("build, kind, steps", [
    (lambda: certify_borromean(Fraction(3, 2), Fraction(3, 2), Fraction(fib(31), fib(30))),
     "borromean", 118),
    (lambda: propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(fib(301), fib(300))),
     "surgery", 298),
], ids=["borromean", "slope"])
def test_the_checker_takes_one_determinant_per_farey_step(monkeypatch, build, kind, steps):
    cert = build()
    nodes = cert.to_json_dict()["nodes"]
    farey = [node for node in nodes
             if node["rule"] in ("triangle", "triangle-run") and node["conclusion"]["kind"] == kind]
    assert len(farey) == steps
    det = lspacecert._det
    counted = []
    monkeypatch.setattr(lspacecert, "_det", lambda y0, y1: counted.append(y0) or det(y0, y1))
    check_certificate(cert)
    assert len(counted) == steps


def _six_gated_trees():
    """Random gated trees on 16 vertices, weights degree + 1..3: 9,397
    distinct tree-boundary nodes between them."""
    trees = []
    for seed in range(6):
        rng = random.Random(seed)
        edges = tuple((rng.randrange(i), i) for i in range(1, 16))
        degree = [sum(v in edge for edge in edges) for v in range(16)]
        trees.append(WeightedTree(tuple(d + rng.randint(1, 3) for d in degree), edges))
    return trees


def test_a_build_computes_each_tree_objects_h1_once(monkeypatch):
    """The split checks of the tree search and the fact of the premise they
    derive read one |H1|, and a premise the memo holds is not computed
    again: one |H1| per distinct tree-boundary node.  The list keeps every
    tree alive, so no id is reused."""
    computed = []
    monkeypatch.setattr(lspacecert, "tree_h1", lambda tree: computed.append(tree) or tree_h1(tree))
    for tree in _six_gated_trees():
        certify_tree(tree)
    assert len(computed) <= 9397
    assert len({id(tree) for tree in computed}) == len(computed)


def test_each_tree_and_tait_fact_renders_its_edges_once(monkeypatch):
    rendered, graph_facts = [], []
    edge_text, fact_of = lspacecert._edge_text, lspacecert._fact_of

    def counting_fact_of(view, **extra):
        if view[0] in ("tree-boundary", "branched-double-cover"):
            graph_facts.append(view)
        return fact_of(view, **extra)

    monkeypatch.setattr(lspacecert, "_edge_text", lambda edges: rendered.append(edges) or edge_text(edges))
    monkeypatch.setattr(lspacecert, "_fact_of", counting_fact_of)

    def once_per_fact(run):
        rendered.clear()
        graph_facts.clear()
        result = run()
        assert len(rendered) == len(graph_facts) > 0
        return result

    for manifold in _six_gated_trees()[:2] + [cycle_graph(12), _grid_by_vertex(2, 4)]:
        certify = certify_tree if isinstance(manifold, WeightedTree) else certify_alternating
        cert = once_per_fact(lambda: certify(manifold))
        once_per_fact(lambda: check_certificate(cert))


def _first_premise_twice(moves):
    """A move function whose move repeats its first premise."""
    def patched(*args, **kwargs):
        rule, premises, k = moves(*args, **kwargs)
        return rule, (premises[0], premises[0]), k
    return patched


def _root_miscounted(det):
    """tait_det, one too high on the triangle alone."""
    return lambda graph: det(graph) + (graph == cycle_graph(3))


@pytest.mark.parametrize("name, patch, build, message", [
    ("tait_det", _root_miscounted, lambda: certify_alternating(cycle_graph(3)),
     "triangle move breaks |H1| additivity: 4 != 2 + 1"),
    ("_slope_moves", _first_premise_twice,
     lambda: propagate_slope(surgery_lspace_axiom("K", Fraction(4)), Fraction(5)),
     "triangle move breaks |H1| additivity: 5 != 4 + 4"),
    # M(5/2,1,1) = S3 + 2 * M(2,1,1), a run
    ("_borromean_moves", _first_premise_twice,
     lambda: certify_borromean(Fraction(5, 2), Fraction(1), Fraction(1)),
     "triangle-run move breaks |H1| additivity: 5 != 1 + 2 * 1"),
], ids=["tait", "slope", "borromean"])
def test_builders_check_the_first_moves_h1_sum(monkeypatch, name, patch, build, message):
    """Premises whose |H1| do not add up are a builder bug (InvariantError,
    exit 2), not a domain error.  The checker does not use the patched
    functions."""
    monkeypatch.setattr(lspacecert, name, patch(getattr(lspacecert, name)))
    with pytest.raises(InvariantError, match=re.escape(message)):
        build()


def random_connected_graph(rng: random.Random):
    n = rng.randrange(2, 6)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    extra = rng.randrange(0, 9 - len(edges))
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    return TaitGraph(n, tuple(edges))


def test_deletion_contraction_additivity_randomized():
    rng = random.Random(2718)
    found = 0
    for _ in range(200):
        graph = random_connected_graph(rng)
        assert tait_det(graph) == spanning_tree_count_bruteforce(graph)
        bridges = set(graph.bridges())
        for idx, (a, b) in enumerate(graph.edges):
            if a == b or idx in bridges:
                continue
            from lenslab.lspacecert import _contract, _delete
            found += 1
            assert tait_det(graph) == tait_det(_contract(graph, idx)) + tait_det(
                _delete(graph, idx)
            )
    assert found > 100


def test_propagate_slope_examples():
    base = surgery_lspace_axiom("(-2,3,7)-pretzel", Fraction(18))
    cert = propagate_slope(base, Fraction(19))
    assert cert.conclusion.descriptor == "S3_19((-2,3,7)-pretzel)"
    assert cert.conclusion.h1_order == 19
    assert check_certificate(cert) == 3  # base + sphere + rung

    # 37/2 = 1/0 + 2 * 18: one run, not the triangles through 19 and 37/2
    half = propagate_slope(base, Fraction(37, 2))
    assert half.conclusion.h1_order == 37
    assert half.rule == "triangle-run"
    assert [p.conclusion.h1_order for p in half.premises] == [1, 18]
    check_certificate(half)

    assert propagate_slope(base, Fraction(18)) is base


def test_propagate_slope_rational_base_lifts():
    base = surgery_lspace_axiom("K", Fraction(5, 2))
    cert = propagate_slope(base, Fraction(4))
    rules = set()

    def walk(c):
        rules.add(c.rule)
        for p in c.premises:
            walk(p)

    walk(cert)
    assert "rational-to-integer-lift" in rules
    check_certificate(cert)


def test_propagate_slope_monotone_random_sweep():
    # success at s implies success across [s, s + 10]
    rng = random.Random(55)
    for _ in range(10):
        num = rng.randrange(8, 40)
        den = rng.randrange(1, 5)
        base_slope = Fraction(num, den)
        if base_slope <= 0:
            continue
        base = surgery_lspace_axiom("K", base_slope)
        start = base_slope + Fraction(rng.randrange(0, 8), rng.randrange(1, 4))
        for step in range(0, 11, 2):
            slope = start + step
            cert = propagate_slope(base, slope)
            assert cert.conclusion.h1_order == slope.numerator
            check_certificate(cert)


def test_propagate_slope_domain():
    base = surgery_lspace_axiom("K", Fraction(18))
    with pytest.raises(DomainError):
        propagate_slope(base, Fraction(17))
    with pytest.raises(DomainError, match="does not describe a surgery"):
        propagate_slope(lens_axiom(5), Fraction(6))
    negative = Fact("S3_-1(K)", 1, "surgery", (("knot", "K"), ("slope", "-1")))
    with pytest.raises(DomainError, match="needs a positive base slope"):
        propagate_slope(Certificate(negative, "axiom:given-l-space"), Fraction(2))


def test_propagate_slope_keeps_the_base_knot_as_given():
    for base in (surgery_lspace_axiom("", Fraction(1)), surgery_lspace_axiom("", Fraction(5, 2))):
        cert = propagate_slope(base, Fraction(3))
        assert cert.conclusion.descriptor == "S3_3()"
        check_certificate(cert)
    unnamed = Fact("S3_3(K)", 3, "surgery", (("slope", "3"),))
    with pytest.raises(DomainError, match="^base certificate does not describe a surgery$"):
        propagate_slope(Certificate(unnamed, "axiom:given-l-space"), Fraction(4))


def test_borromean_examples():
    poincare = certify_borromean(Fraction(1), Fraction(1), Fraction(1))
    assert poincare.rule == "axiom:positive-scalar-curvature"
    assert poincare.conclusion.h1_order == 1

    two = certify_borromean(Fraction(2), Fraction(1), Fraction(1))
    assert two.conclusion.h1_order == 2
    assert sorted(p.conclusion.h1_order for p in two.premises) == [1, 1]

    weeks = certify_borromean(Fraction(1), Fraction(5, 2), Fraction(5))
    assert weeks.conclusion.descriptor == "M(1,5/2,5)"
    assert weeks.conclusion.h1_order == 25
    check_certificate(weeks)


def test_borromean_order_formula_exhaustive():
    for a in range(1, 6):
        for b in range(1, 6):
            for c in range(1, 6):
                cert = certify_borromean(Fraction(a), Fraction(b), Fraction(c))
                assert cert.conclusion.h1_order == a * b * c
                check_certificate(cert)


def test_borromean_domain():
    with pytest.raises(DomainError):
        certify_borromean(Fraction(1, 2), Fraction(1), Fraction(1))


def test_int_and_fraction_slopes_give_the_same_certificate():
    pairs = [
        (certify_borromean(1, Fraction(5, 2), 5),
         certify_borromean(Fraction(1), Fraction(5, 2), Fraction(5))),
        (propagate_slope(surgery_lspace_axiom("K", 3), 11),
         propagate_slope(surgery_lspace_axiom("K", Fraction(3)), Fraction(11))),
        (certify_pretzel_surgeries(9, 22), certify_pretzel_surgeries(9, Fraction(22))),
    ]
    for from_ints, from_fractions in pairs:
        assert certificate_json(from_ints) == certificate_json(from_fractions)


@pytest.mark.parametrize("slope", [2.5, "5/2"])
@pytest.mark.parametrize("build", [
    lambda s: surgery_lspace_axiom("K", s),
    lambda s: propagate_slope(surgery_lspace_axiom("K", 3), s),
    lambda s: certify_pretzel_surgeries(9, s),
    lambda s: certify_borromean(s, 1, 1),
], ids=["surgery_lspace_axiom", "propagate_slope", "certify_pretzel_surgeries",
        "certify_borromean"])
def test_slope_builders_reject_a_slope_that_is_no_exact_rational(build, slope):
    message = f"^slope {re.escape(repr(slope))} is not an exact rational$"
    with pytest.raises(DomainError, match=message):
        build(slope)


def test_pretzel_star_orders():
    for n in (7, 9, 11, 13, 21):
        assert tree_h1(pretzel_star(n)) == 2 * n + 4


def test_pretzel_wrapper():
    cert = certify_pretzel_surgeries(7, Fraction(18))
    assert cert.conclusion.h1_order == 18
    check_certificate(cert)
    cert = certify_pretzel_surgeries(9, Fraction(23))
    assert cert.conclusion.descriptor == "S3_23((-2,3,9)-pretzel)"
    check_certificate(cert)
    with pytest.raises(DomainError):
        certify_pretzel_surgeries(9, Fraction(21))
    with pytest.raises(DomainError):
        pretzel_star(8)


def test_checker_rejects_tampering():
    cert = certify_tree(star_tree(3, [[2], [2], [2]]))
    doc = cert.to_json_dict()
    root = doc["nodes"][doc["root"]]
    root["conclusion"]["h1"] = 13
    with pytest.raises(CertificateCheckError, match=rf"^node {doc['root']} "):
        check_certificate(Certificate.from_json_dict(doc))

    doc = cert.to_json_dict()
    doc["nodes"][doc["root"]]["rule"] = "made-up-rule"
    with pytest.raises(CertificateCheckError, match="unknown rule 'made-up-rule'"):
        check_certificate(Certificate.from_json_dict(doc))


def test_certificate_json_round_trip():
    cert = certify_borromean(Fraction(1), Fraction(5, 2), Fraction(5))
    doc = json.loads(json.dumps(cert.to_json_dict()))
    again = Certificate.from_json_dict(doc)
    assert again.to_json_dict() == cert.to_json_dict()
    check_certificate(again)


def test_fact_rejects_non_rhs():
    with pytest.raises(DomainError):
        Fact("junk", 0)


def test_weighted_tree_validation():
    with pytest.raises(DomainError):
        WeightedTree((2, 2, 2), ((0, 1),))  # too few edges
    with pytest.raises(DomainError):
        WeightedTree((2, 2, 2), ((0, 1), (0, 1)))  # cycle, vertex 2 isolated
    with pytest.raises(DomainError):
        WeightedTree((), ())
    with pytest.raises(DomainError, match=r"edge \(0, -1\) out of range"):
        WeightedTree((2, 2), ((0, -1),))
    with pytest.raises(DomainError, match=r"edge \(2, 0\) out of range"):
        WeightedTree((2, 2), ((2, 0),))


def test_named_axioms():
    cert = sphere_axiom()
    assert cert.conclusion.h1_order == 1
    check_certificate(cert)
    # each leaf has one form: S3 is the three-sphere axiom, the Poincare sphere M(1,1,1)
    assert lens_axiom(1).rule == "axiom:three-sphere"
    cert = poincare_sphere_axiom()
    assert cert.conclusion == certify_borromean(Fraction(1), Fraction(1), Fraction(1)).conclusion
    check_certificate(cert)
    cert = connected_sum_lens_axiom([3, 5])
    assert cert.conclusion.h1_order == 15
    check_certificate(cert)
    assert connected_sum_lens_axiom([1, 1]).rule == "axiom:three-sphere"


def test_checker_rejects_the_three_forgeries():
    # a positive-scalar-curvature leaf for an arbitrary named manifold
    with pytest.raises(CertificateCheckError, match=r"^node 0 \(axiom:positive-scalar-curvature\)"):
        check_certificate(Certificate(Fact("anything", 5), "axiom:positive-scalar-curvature"))
    # ... or for a lens space: only the Poincare sphere and M(1,1,1) qualify
    with pytest.raises(CertificateCheckError, match="not an instance of this axiom"):
        check_certificate(Certificate(lens_axiom(5).conclusion, "axiom:positive-scalar-curvature"))
    # a blow-down of [2,3], which has no weight-1 vertex, onto L(5,1)
    two_three = certify_tree(path_tree([2, 3])).conclusion
    assert two_three.h1_order == 5
    with pytest.raises(CertificateCheckError, match=r"^node 1 \(blow-down\): the premises are not"):
        check_certificate(Certificate(two_three, "blow-down", (lens_axiom(5),)))
    # a triangle joining L(3,1) and L(4,1) into a named "Y"
    with pytest.raises(CertificateCheckError, match=r"^node 2 \(triangle\)"):
        check_certificate(Certificate(Fact("Y", 7), "triangle", (lens_axiom(3), lens_axiom(4))))


def test_lens_axiom_rejects_pairs_that_are_no_lens_space():
    for p, q in ((4, 2), (6, 3), (5, 0), (5, 6), (0, 1)):
        with pytest.raises(DomainError, match="no lens space"):
            lens_axiom(p, q)
    assert check_certificate(lens_axiom(7, 3)) == 1


def _swapped(cert):
    return Certificate(cert.conclusion, cert.rule, cert.premises[::-1])


def _replaced(cert, premise):
    return Certificate(cert.conclusion, cert.rule, (premise,))


@pytest.mark.parametrize("cert", [
    # triangles with their premises swapped, so |H1| still adds up: 5/3 is
    # the mediant of 3/2 and 2, and 5/2 of 2 and 3
    _swapped(propagate_slope(surgery_lspace_axiom("K", Fraction(3, 2)), Fraction(5, 3))),
    _swapped(certify_alternating(cycle_graph(4))),
    _swapped(certify_tree(star_tree(3, [[2], [3], [2, 2]]))),
    _swapped(certify_borromean(Fraction(5, 2), Fraction(3, 2), Fraction(1))),
    # one-premise moves onto another certified manifold
    _replaced(certify_tree(path_tree([1, 3])), certify_alternating(theta_graph(2))),
    _replaced(certify_alternating(TaitGraph(3, ((0, 1), (1, 2), (2, 0), (0, 0)))), lens_axiom(3)),
    _replaced(certify_pretzel_surgeries(7, Fraction(18)), lens_axiom(18)),
    _replaced(
        propagate_slope(surgery_lspace_axiom("K", Fraction(5, 2)), Fraction(3)),
        surgery_lspace_axiom("J", Fraction(5, 2)),
    ),
    # runs with their premises swapped: 17/5 = 3 + 2 * 7/2, 5/2 = 1/0 + 2 * 2
    _swapped(propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(17, 5))),
    _swapped(certify_borromean(Fraction(1), Fraction(5, 2), Fraction(5))),
], ids=lambda cert: cert.rule)
def test_checker_rejects_a_premise_that_is_not_the_named_move(cert):
    root = len(cert.to_json_dict()["nodes"]) - 1
    for premise in cert.premises:
        check_certificate(premise)
    with pytest.raises(CertificateCheckError, match=rf"^node {root} \({cert.rule}\): the premises are not"):
        check_certificate(cert)


@pytest.mark.parametrize("cert, rule", [
    (certify_tree(path_tree([1, 3])), "reduce"),
    (certify_alternating(TaitGraph(3, ((0, 1), (1, 2), (2, 0), (0, 0)))), "blow-down"),
], ids=["tree-blow-down-named-reduce", "tait-reduce-named-blow-down"])
def test_checker_rejects_a_legal_move_under_another_rule(cert, rule):
    check_certificate(cert)
    root = len(cert.to_json_dict()["nodes"]) - 1
    with pytest.raises(CertificateCheckError, match=rf"^node {root} \({rule}\): the premises are not"):
        check_certificate(Certificate(cert.conclusion, rule, cert.premises))


@pytest.mark.parametrize("cert", [
    Certificate(poincare_sphere_axiom().conclusion, "blow-down", (sphere_axiom(),)),
    Certificate(certify_borromean(Fraction(2), Fraction(1), Fraction(1)).conclusion, "reduce",
                (connected_sum_lens_axiom([2]),)),
], ids=["blow-down-from-s3", "reduce-from-a-connected-sum"])
def test_checker_rejects_a_one_premise_rule_on_a_borromean_node(cert):
    """The premise's view reads as the 1/0 filling at every coordinate, and
    no Farey step has one premise."""
    message = f"node 1 ({cert.rule}): the premises are not a {cert.rule} move on this borromean node"
    with pytest.raises(CertificateCheckError, match=f"^{re.escape(message)}$"):
        check_certificate(cert)


# M(7/2,5/3,4) is the triangle of M(3,5/3,4) and M(4,5/3,4); M(3,2,1) is the
# run of M(1,2,1) and L(2,1), the 1/0 filling at its first coordinate
_SEVEN_HALVES = certify_borromean(Fraction(7, 2), Fraction(5, 3), Fraction(4))
_THREE = certify_borromean(Fraction(3), Fraction(2), Fraction(1))


@pytest.mark.parametrize("cert, node_id", [
    # M(3,5/2,4) changes two coordinates, though |H1| adds up and 3 is the step at the first
    (Certificate(_SEVEN_HALVES.conclusion, "triangle", (
        certify_borromean(Fraction(3), Fraction(5, 2), Fraction(4)), _SEVEN_HALVES.premises[1])), 20),
    (Certificate(_SEVEN_HALVES.conclusion, "triangle-run", (_SEVEN_HALVES,) * 2), 19),
    (Certificate(_THREE.conclusion, "triangle",  # |H1| 6 = 2 + 4
                 (connected_sum_lens_axiom([2]), connected_sum_lens_axiom([4]))), 2),
    (_swapped(_SEVEN_HALVES), 18),
    (_swapped(_THREE), 4),
], ids=["two-coordinates", "the-conclusion-twice", "two-connected-sums", "swapped-triangle",
        "swapped-run"])
def test_checker_rejects_each_borromean_forgery_in_these_words(cert, node_id):
    for premise in cert.premises:
        check_certificate(premise)
    message = (f"node {node_id} ({cert.rule}): "
               f"the premises are not a {cert.rule} move on this borromean node")
    with pytest.raises(CertificateCheckError, match=f"^{re.escape(message)}$"):
        check_certificate(cert)


@contextlib.contextmanager
def _default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("target, nodes, distinct", [
    (Fraction(10000), 19999, 10001),  # base, 9999 rungs, one shared S3
    (Fraction(1001, 1000), 2001, 1002),  # (k+1)/k -> k/(k-1) and 1: a descent of depth 1000
] + [
    # F(n+1)/F(n) has Farey parents F(n)/F(n-1) and F(n-1)/F(n-2): n+1 distinct slopes
    (Fraction(_fib(n + 1), _fib(n)), None, n + 1) for n in range(2, 31)
])
def test_deep_certificates_are_linear_in_depth(target, nodes, distinct):
    """`nodes` and `distinct` count the Farey descent: the certificate with
    each run expanded into its triangles.  The certificate itself has a
    node per partial quotient of the target, but for the base 1 = a_0 of a
    target below 2, and the leaves S3 and the base."""
    base = surgery_lspace_axiom("K", Fraction(1))
    with _default_recursion_limit():
        cert = propagate_slope(base, target)
        expanded = expand_runs(cert)
        for c in (cert, expanded):
            size = check_certificate(c)
            assert size == c.size()
            doc = json.loads(certificate_json(c))
            again = Certificate.from_json_dict(doc)
            assert check_certificate(again) == size
            assert again.to_json_dict() == doc
        assert certificate_json(expanded) == certificate_json(farey_descent(base, target))
    assert nodes is None or expanded.size() == nodes
    assert len(expanded.to_json_dict()["nodes"]) == distinct
    quotients = len(partial_quotients(target)) - (target < 2)
    assert len(cert.to_json_dict()["nodes"]) == quotients + 2


@pytest.mark.parametrize("n", [10, 20, 30])
def test_borromean_builds_each_slope_triple_once(n):
    with _default_recursion_limit():
        cert = certify_borromean(Fraction(_fib(n + 1), _fib(n)), Fraction(1), Fraction(5))
        assert check_certificate(cert) == cert.size()
    # the slopes F(k+1)/F(k), 3 <= k <= n, then M(2,1,5) and M(1,1,5), each
    # one run from M(1,1,1) or M(2,1,1) and five leaves
    assert len(cert.to_json_dict()["nodes"]) == n + 3


@pytest.mark.parametrize("slopes, nodes, distinct", [
    ((Fraction(1), Fraction(89, 55), Fraction(5)), 177, 13),
    ((Fraction(7, 2), Fraction(5, 3), Fraction(4)), 27, 19),
])
def test_borromean_shares_connected_sum_premises(slopes, nodes, distinct):
    # the connected-sum side premise of equal integer coordinates is one node,
    # although each is met under a different slope triple
    cert = certify_borromean(*slopes)
    assert check_certificate(cert) == cert.size() == nodes
    assert len(cert.to_json_dict()["nodes"]) == distinct


def test_tree_builder_shares_equal_subtrees():
    cert = certify_tree(path_tree([2] * 100))
    assert cert.conclusion.h1_order == 101
    # one node for each path [2]*k and each path [1]+[2]*(k-1), 1 <= k <= 100
    assert (len(cert.to_json_dict()["nodes"]), cert.size()) == (200, 5149)


def _table():
    return certify_alternating(cycle_graph(3)).to_json_dict()


def _drop(key):
    def edit(doc):
        del doc["nodes"][-1][key]
    return edit


def _shift_ids(doc):
    for node in doc["nodes"]:
        node["id"] += 1
        node["premises"] = [p + 1 for p in node["premises"]]
    doc["root"] += 1


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["nodes"].reverse(), "forward or cyclic"),
    (lambda doc: doc["nodes"][-1]["premises"].append(99), "node 99, which is not listed before it"),
    (lambda doc: doc["nodes"][-1]["premises"].append(doc["root"]), "forward or cyclic"),
    (lambda doc: doc["nodes"][0]["premises"].append(1), "forward or cyclic"),
    (lambda doc: doc["nodes"][1].update(id=0), "node 1 has id 0; nodes are not in canonical order"),
    (lambda doc: doc.update(root=99), "field 'root'"),
    (lambda doc: doc.update(format=1), "format-2"),
    (lambda doc: doc.update(root=0), "canonical order"),  # rows 1.. are not part of the proof
    (_shift_ids, "canonical order"),
    (_drop("rule"), "'rule'"),
    (_drop("premises"), "'premises'"),
    (_drop("conclusion"), "'conclusion'"),
    (lambda doc: doc["nodes"][0].update(id=True), "'id'"),
    (lambda doc: doc["nodes"][0]["conclusion"].update(h1="1"), "'h1'"),
    (lambda doc: doc["nodes"][0]["conclusion"].update(h1=0), "rational homology spheres"),
    (lambda doc: doc["nodes"][0]["conclusion"]["params"].update(p=1), "params must be strings"),
    (lambda doc: doc.pop("nodes"), "field 'nodes' is missing or not a non-empty list"),
    (lambda doc: doc.update(nodes=[]), "field 'nodes' is missing or not a non-empty list"),
])
def test_malformed_node_tables_are_domain_errors(edit, message):
    doc = _table()
    Certificate.from_json_dict(doc)
    edit(doc)
    with pytest.raises(DomainError, match=message):
        Certificate.from_json_dict(doc)


def _slopes_1_to_3():
    # the run 3 = 1 + 2 * 1/0 as its triangles: 0: S3_1(K), 1: S3,
    # 2: S3_2(K) = triangle [0, 1], 3: S3_3(K) = triangle [2, 1]
    return expand_runs(propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(3)))


def _root_conclusion(cert):
    return cert.to_json_dict()["nodes"][-1]["conclusion"]


def _set(node_id, **fields):
    def edit(doc):
        doc["nodes"][node_id].update(fields)
    return edit


def _set_params(node_id, **params):
    def edit(doc):
        doc["nodes"][node_id]["conclusion"]["params"].update(params)
    return edit


def _drop_param(node_id, key):
    def edit(doc):
        del doc["nodes"][node_id]["conclusion"]["params"][key]
    return edit


@pytest.mark.parametrize("cert, edit, node_id, reason", [
    (_slopes_1_to_3(), lambda doc: doc["nodes"][1]["premises"].append(0), 1,
     "axiom node with premises"),
    (_slopes_1_to_3(), _set(1, rule="axiom:made-up"), 1, "unknown axiom 'axiom:made-up'"),
    (_slopes_1_to_3(), lambda doc: doc["nodes"][3]["premises"].append(1), 3,
     "triangle node needs 2 premise(s), has 3"),
    (_slopes_1_to_3(),
     _set(3, conclusion=_root_conclusion(
         propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(4))
     )), 3, "additivity fails: 4 != 2 + 1"),
    # [1, 3] blows down to L(2, 1); [1, 4] has |H1| = 3
    (certify_tree(path_tree([1, 3])),
     _set(1, conclusion=_root_conclusion(certify_tree(path_tree([1, 4])))), 1,
     "blow-down must preserve |H1|"),
    (lens_axiom(5), _set_params(0, p="4", q="2"), 0, "no lens space L(4, 2)"),
    (sphere_axiom(), _set(0, rule="axiom:lens-space"), 0, "'S3' is not an instance of this axiom"),
    (poincare_sphere_axiom(),
     _set(0, conclusion={"descriptor": "Poincare homology sphere", "h1": 1, "kind": "named", "params": {}}),
     0, "unknown kind of manifold 'named'"),
    (connected_sum_lens_axiom([3, 5]), _set_params(0, orders="1,5"), 0,
     "connected-sum orders must be >= 2"),
    (certify_borromean(Fraction(1), Fraction(1), Fraction(1)), _set_params(0, slopes="1,1"), 0,
     "Borromean surgeries need three slopes >= 1"),
    (certify_borromean(Fraction(1), Fraction(1), Fraction(1)), _set_params(0, slopes="0,1,1"), 0,
     "Borromean surgeries need three slopes >= 1"),
    (lens_axiom(5), lambda doc: doc["nodes"][0]["conclusion"].update(kind="klein-bottle"), 0,
     "unknown kind of manifold 'klein-bottle'"),
    (lens_axiom(5), _drop_param(0, "q"), 0, "lens fact lacks the parameter 'q'"),
    # the lift's premise, S3_5/2(K), becomes the lens space L(5, 1)
    (propagate_slope(surgery_lspace_axiom("K", Fraction(5, 2)), Fraction(3)),
     _set(0, rule="axiom:lens-space", conclusion=_root_conclusion(lens_axiom(5))), 1,
     "the premises are not a rational-to-integer-lift move on this surgery node"),
    # the pretzel filling S3_18((-2,3,7)-pretzel) becomes S3_18(K)
    (certify_pretzel_surgeries(7, Fraction(18)),
     _set(7, conclusion=_root_conclusion(
         propagate_slope(surgery_lspace_axiom("K", Fraction(17)), Fraction(18))
     )), 7, "the premises are not a seifert-filling-identification move on this surgery node"),
], ids=[
    "axiom-with-premises", "unknown-axiom", "arity", "additivity", "preserve-h1",
    "no-lens-space", "three-sphere-as-lens-space", "named-poincare-sphere", "connected-sum-orders",
    "borromean-two-slopes", "borromean-slope-below-1",
    "unknown-kind", "missing-parameter", "lift-of-no-surgery", "filling-of-no-pretzel",
])
def test_checker_rejects_each_edited_node_table(cert, edit, node_id, reason):
    doc = cert.to_json_dict()
    check_certificate(Certificate.from_json_dict(doc))
    edit(doc)
    rule = doc["nodes"][node_id]["rule"]
    edited = Certificate.from_json_dict(doc)
    with pytest.raises(CertificateCheckError, match=rf"^node {node_id} \({re.escape(rule)}\): "
                       + re.escape(reason)):
        check_certificate(edited)


@pytest.mark.parametrize("edit, node_id, reason", [
    (_set_params(2, note="anything at all"), 2, "only a given L-space has a note"),
    (_drop_param(0, "note"), 0, "the note must be 'lens space'"),
    (_set_params(0, note="an L-space"), 0, "the note must be 'lens space'"),
], ids=["note-on-a-run", "given-axiom-without-its-note", "given-axiom-with-another-note"])
def test_checker_accepts_a_note_only_where_the_given_axiom_writes_it(edit, node_id, reason):
    # 0: S3_1(K), given; 1: S3; 2: S3_3(K), the run 3 = 1 + 2 * 1/0
    doc = propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(3)).to_json_dict()
    check_certificate(Certificate.from_json_dict(doc))
    edit(doc)
    rule = doc["nodes"][node_id]["rule"]
    with pytest.raises(CertificateCheckError, match=rf"^node {node_id} \({rule}\): {reason}$"):
        check_certificate(Certificate.from_json_dict(doc))


def test_tait_graph_refuses_more_vertices_than_edges_plus_one_before_any_search(monkeypatch):
    monkeypatch.setattr(lspacecert, "_connected_with", lambda n, edges: pytest.fail("searched"))
    for n in (3, 10**12):
        with pytest.raises(DomainError, match="^graph is not connected$"):
            TaitGraph(n, ((0, 1),))


def _one_tait_node(vertices):
    conclusion = {"descriptor": "Y", "h1": 1, "kind": "branched-double-cover",
                  "params": {"vertices": str(vertices), "edges": ""}}
    return {"format": 2, "root": 0, "nodes": [
        {"id": 0, "rule": "axiom:three-sphere", "premises": [], "conclusion": conclusion},
    ]}


@pytest.mark.parametrize("table, message", [
    (_one_tait_node(10**12), "node 0 (axiom:three-sphere): graph is not connected"),
    (json.loads((Path(__file__).parent / "data" / "forged_pretzel_star.json").read_text()),
     "node 1 (seifert-filling-identification): "
     "the premises are not a seifert-filling-identification move on this surgery node"),
], ids=["tait-declares-10^12", "forged-pretzel-star"])
def test_the_checker_rejects_a_declared_size_without_building_it(table, message):
    """No CLI cap guards this path: the work is bounded by the table alone."""
    start = time.perf_counter()
    with pytest.raises(CertificateCheckError) as rejected:
        check_certificate(Certificate.from_json_dict(table))
    assert time.perf_counter() - start < 0.1
    assert str(rejected.value) == message


@pytest.mark.parametrize("certify, manifold", [
    (certify_tree, star_tree(3, [[2], [3], [2, 2]])),
    (lambda tree: certify_tree(tree, require_hypothesis=False), path_tree([2, 1, 3])),
    (certify_alternating,
     TaitGraph(5, ((0, 0), (0, 1), (1, 2), (2, 3), (3, 1), (3, 3), (2, 4), (4, 4), (1, 2)))),
    (certify_alternating, cycle_graph(6)),
], ids=["star", "interior-blow-down", "loops-and-bridges", "cycle"])
def test_moves_build_their_trees_and_graphs_without_revalidation(monkeypatch, certify, manifold):
    validated = []
    for cls in (WeightedTree, TaitGraph):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, check=check: validated.append(check(self))
        )
    cert = certify(manifold)
    assert validated == []
    check_certificate(cert)  # the checker rebuilds every tree and graph it reads
    assert validated


def test_every_memo_key_is_the_view_of_its_certificate(monkeypatch):
    """Builders name each sub-problem as the checker names its conclusion."""
    memos = []
    derive = lspacecert._derive

    def recording(root, steps, memo):
        memos.append(memo)
        return derive(root, steps, memo)

    monkeypatch.setattr(lspacecert, "_derive", recording)
    certify_tree(star_tree(3, [[2], [3], [2, 2]]))
    certify_tree(path_tree([2, 1, 3]), require_hypothesis=False)
    # backtracks past three failed sub-trees
    certify_tree(WeightedTree((2, 2, 2, 3, 3, 2), ((0, 1), (1, 2), (2, 3), (1, 4), (4, 5))),
                 require_hypothesis=False)
    certify_alternating(
        TaitGraph(5, ((0, 0), (0, 1), (1, 2), (2, 3), (3, 1), (3, 3), (2, 4), (4, 4), (1, 2)))
    )
    certify_alternating(cycle_graph(6))
    propagate_slope(surgery_lspace_axiom("K", Fraction(5, 2)), Fraction(17, 5))  # a rational base
    certify_borromean(Fraction(7, 2), Fraction(5, 3), Fraction(4))
    certify_pretzel_surgeries(9, Fraction(45, 2))
    entries = [
        (key, cert) for memo in memos for key, cert in memo.items() if isinstance(cert, Certificate)
    ]
    assert any(isinstance(value, HypothesisNotMetError) for memo in memos for value in memo.values())
    assert [key for key, cert in entries if lspacecert._view(cert.conclusion) != key] == []
    assert {key[0] for key, _ in entries} == {
        "lens", "connected-sum-lens", "tree-boundary", "branched-double-cover", "surgery", "borromean",
    }


def _conclusion(fact):
    return {"descriptor": fact.descriptor, "h1": fact.h1_order, "kind": fact.kind,
            "params": dict(fact.params)}


@pytest.mark.parametrize("cert, leaf", [
    # L(2,1), the blow-down of [1, 3], named as the boundary of the single vertex [2]
    (certify_tree(path_tree([1, 3])), lspacecert._fact_of(("tree-boundary", WeightedTree((2,), ())))),
    # S3, the end of the deletion-contraction of the triangle, named by the edgeless graph
    (certify_alternating(cycle_graph(3)), lspacecert._fact_of(("branched-double-cover", TaitGraph(1, ())))),
], ids=["single-vertex-tree", "edgeless-graph"])
def test_a_leaf_named_by_its_tree_or_graph_is_rejected_at_its_own_node(cert, leaf):
    """No move or axiom yields such a node, so the premise fails before its user."""
    doc = cert.to_json_dict()
    node_id = next(i for i, node in enumerate(doc["nodes"]) if node["rule"].startswith("axiom:"))
    rule = doc["nodes"][node_id]["rule"]
    doc["nodes"][node_id]["conclusion"] = _conclusion(leaf)
    edited = Certificate.from_json_dict(doc)
    with pytest.raises(CertificateCheckError, match=rf"^node {node_id} \({rule}\): "
                       + re.escape(f"{leaf.descriptor!r} is not an instance of this axiom")):
        check_certificate(edited)
    for other in ("blow-down", "reduce", "triangle", "axiom:lens-space", "axiom:three-sphere"):
        doc["nodes"][node_id]["rule"] = other
        with pytest.raises(CertificateCheckError, match=rf"^node {node_id} "):
            check_certificate(Certificate.from_json_dict(doc))


_NOT_THE_DATA = "fact {!r} with |H1| = 1 does not match its data, which give {!r} with |H1| = {}"
_NOT_AN_RHS = "certified manifolds are rational homology spheres; got |H1| = {} for {}"
_NEED_THREE = "Borromean surgeries need three slopes >= 1"


@pytest.mark.parametrize("rule, kind, text, message", [
    ("axiom:given-l-space", "surgery", "2/4", _NOT_THE_DATA.format("S3_2/4(K)", "S3_1/2(K)", 1)),
    ("axiom:given-l-space", "surgery", "1/-2", _NOT_AN_RHS.format(-1, "S3_-1/2(K)")),
    ("axiom:given-l-space", "surgery", "-0", _NOT_AN_RHS.format(0, "S3_0(K)")),
    ("axiom:given-l-space", "surgery", "+3", _NOT_THE_DATA.format("S3_+3(K)", "S3_3(K)", 3)),
    ("axiom:given-l-space", "surgery", " 3", _NOT_THE_DATA.format("S3_ 3(K)", "S3_3(K)", 3)),
    ("axiom:given-l-space", "surgery", "03", _NOT_THE_DATA.format("S3_03(K)", "S3_3(K)", 3)),
    ("axiom:given-l-space", "surgery", "1/0", "not a rational slope: '1/0'"),
    ("axiom:given-l-space", "surgery", "0/0", "not a rational slope: '0/0'"),
    ("axiom:given-l-space", "surgery", "x", "not a rational slope: 'x'"),
    ("axiom:given-l-space", "surgery", "-3", _NOT_AN_RHS.format(-3, "S3_-3(K)")),
    ("axiom:positive-scalar-curvature", "borromean", "2/4,1,1", _NEED_THREE),
    ("axiom:positive-scalar-curvature", "borromean", "1,1", _NEED_THREE),
    ("axiom:positive-scalar-curvature", "borromean", "1/2,1,1", _NEED_THREE),
    ("axiom:positive-scalar-curvature", "borromean", "1,1,1,1", _NEED_THREE),
    ("axiom:positive-scalar-curvature", "borromean", "3/2,2,1",
     _NOT_THE_DATA.format("M(3/2,2,1)", "M(3/2,2,1)", 6)),
])
def test_the_checker_reads_non_canonical_slope_texts_as_it_always_has(rule, kind, text, message):
    """A one-node table whose slope text is not in the canonical form
    `_fact_of` writes: the checker parses it, rebuilds the fact and names
    the first difference, in these exact words."""
    if kind == "surgery":
        fact = Fact(f"S3_{text}(K)", 1, kind, (("knot", "K"), ("note", "lens space"), ("slope", text)))
    else:
        fact = Fact(f"M({text})", 1, kind, (("slopes", text),))
    with pytest.raises(CertificateCheckError) as caught:
        check_certificate(Certificate(fact, rule))
    assert str(caught.value) == f"node 0 ({rule}): {message}"


def test_no_slope_fraction_is_hashed(monkeypatch):
    """Views and memo keys hold slopes as integer pairs: building, checking
    and serialising deep slope and Borromean certificates hash no Fraction."""
    deep = Fraction(fib(301), fib(300))
    certs = [
        lambda: propagate_slope(surgery_lspace_axiom("K", Fraction(1)), deep),
        lambda: propagate_slope(surgery_lspace_axiom("K", Fraction(5, 2)), deep + 3),  # lifts 5/2 to 3
        lambda: certify_borromean(Fraction(3, 2), Fraction(3, 2), deep),
    ]

    def refuse(self):
        raise AssertionError(f"Fraction {self} hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    for build in certs:
        cert = build()
        assert check_certificate(cert) > 100
        assert len(certificate_json(cert)) > 10_000


def test_the_checker_builds_no_fraction(monkeypatch):
    """The checker reads slope text into integer pairs and compares them by
    integer arithmetic, and `pretzel_star` expands an integer pair."""
    deep = Fraction(fib(301), fib(300))
    certs = [
        propagate_slope(surgery_lspace_axiom("K", Fraction(1)), deep),
        propagate_slope(surgery_lspace_axiom("K", Fraction(5, 2)), deep + 3),  # lifts 5/2 to 3
        certify_borromean(Fraction(3, 2), Fraction(3, 2), deep),
        certify_borromean(Fraction(7, 2), Fraction(5, 3), Fraction(4)),
        certify_pretzel_surgeries(9, Fraction(45, 2)),
    ]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for cert in certs:
        assert check_certificate(cert) > 10
