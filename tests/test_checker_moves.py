"""The checker confirms a node by rebuilding the one move its premises name.

Two properties of that design are tested here.  Premise substitution: any
node's conclusion, under any rule, on any certified premises of that rule's
arity, is accepted or rejected with a CertificateCheckError or DomainError
and nothing else; a tree or Tait-graph node is accepted exactly when its
move is among those the builders' enumerators list and its |H1| adds up;
and every accepted surgery or Borromean node expands to triangles that the
Farey-parents oracle of `run_oracle.py` confirms.  Directed cost: a split
is confirmed by building that split's premises once, whichever leaf or
edge it is.
"""

import random
from fractions import Fraction

import pytest

from lenslab import lspacecert
from lenslab.errors import DomainError
from lenslab.lspacecert import (
    Certificate,
    CertificateCheckError,
    TaitGraph,
    WeightedTree,
    certify_alternating,
    certify_borromean,
    certify_pretzel_surgeries,
    certify_tree,
    check_certificate,
    propagate_slope,
    star_tree,
    surgery_lspace_axiom,
)
from graph_fixtures import cycle_graph, path_tree, theta_graph
from run_oracle import check_triangles, expand_runs

RULES = [
    "triangle", "triangle-run", "blow-down", "reduce", "rational-to-integer-lift",
    "seifert-filling-identification", *lspacecert._AXIOMS,
]
ARITY = {rule: 0 if rule.startswith("axiom:") else 2 if rule.startswith("triangle") else 1
         for rule in RULES}
ENUMERATORS = {"tree-boundary": "_tree_moves", "branched-double-cover": "_tait_moves"}


def _corpus():
    """Certificates of every kind: gated and ungated trees, Tait graphs with
    loops and bridges, slopes with a lift and with runs, a pretzel filling,
    and Borromean surgeries with 1/0 premises."""
    return [
        certify_tree(star_tree(3, [[2], [3], [2, 2]])),
        certify_tree(star_tree(4, [[1], [2, 3], [2], [3]])),
        certify_tree(path_tree([2, 1, 3]), require_hypothesis=False),
        certify_tree(WeightedTree((2, 2, 2, 3, 3, 2), ((0, 1), (1, 2), (2, 3), (1, 4), (4, 5))),
                     require_hypothesis=False),
        certify_alternating(
            TaitGraph(5, ((0, 0), (0, 1), (1, 2), (2, 3), (3, 1), (3, 3), (2, 4), (4, 4), (1, 2)))
        ),
        certify_alternating(cycle_graph(4)),
        certify_alternating(theta_graph(3)),
        propagate_slope(surgery_lspace_axiom("K", Fraction(5, 2)), Fraction(17, 5)),
        propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(24, 7)),
        certify_pretzel_surgeries(7, Fraction(37, 2)),
        certify_borromean(Fraction(7, 2), Fraction(5, 3), Fraction(4)),
        certify_borromean(Fraction(3), Fraction(2), Fraction(1)),
    ]


class Pool:
    """Every distinct node of the certificates, by its view and by |H1|."""

    def __init__(self, certs):
        self.nodes = list({id(n): n for cert in certs for n in lspacecert._topological(cert)}.values())
        self.by_view = {lspacecert._view(node.conclusion): node for node in self.nodes}
        self.by_h1 = {}
        for node in self.nodes:
            self.by_h1.setdefault(node.conclusion.h1_order, []).append(node)


def _premises(rng, node, arity, pool):
    """`arity` certified premises: those of a legal move, of the node itself
    in either order, any whose |H1| adds up to the node's, or any at all,
    mixed."""
    kind, data = lspacecert._view(node.conclusion)
    options = [list(node.premises), list(node.premises)[::-1]]
    if kind in ENUMERATORS:
        for _, views in getattr(lspacecert, ENUMERATORS[kind])(data):
            if all(view in pool.by_view for view in views):
                options.append([pool.by_view[view] for view in views])
    h1 = node.conclusion.h1_order
    if arity == 1:
        options.append([rng.choice(pool.by_h1[h1])])
    splits = [a for a in pool.by_h1 if h1 - a in pool.by_h1] if arity == 2 else []
    if splits:
        a = rng.choice(splits)
        options.append([rng.choice(pool.by_h1[a]), rng.choice(pool.by_h1[h1 - a])])
    chosen = rng.choice(options) if rng.random() < 0.8 else []
    return tuple(
        chosen[i] if i < len(chosen) and rng.random() < 0.9 else rng.choice(pool.nodes)
        for i in range(arity)
    )


def _builders_accept(node, rule, premises):
    """Today's rule for a tree or Tait-graph node: the move is among those
    the enumerator lists, and a split's |H1| adds up."""
    kind, data = lspacecert._view(node.conclusion)
    views = tuple(lspacecert._view(p.conclusion) for p in premises)
    moves = list(getattr(lspacecert, ENUMERATORS[kind])(data))
    adds_up = rule != "triangle" or node.conclusion.h1_order == sum(
        p.conclusion.h1_order for p in premises
    )
    return (rule, views) in moves and adds_up


def test_premise_substitution_is_total_and_accepts_exactly_the_builders_moves():
    pool = Pool(_corpus())
    rng = random.Random(27)
    accepted = {"tree-boundary": 0, "branched-double-cover": 0, "surgery": 0, "borromean": 0}
    rejected = 0
    for _ in range(3000):
        node = rng.choice(pool.nodes)
        rule = node.rule if rng.random() < 0.5 else rng.choice(RULES)
        cert = Certificate(node.conclusion, rule, _premises(rng, node, ARITY[rule], pool))
        kind = node.conclusion.kind
        try:
            check_certificate(cert)
        except CertificateCheckError as exc:
            assert str(exc).startswith(f"node {len(lspacecert._topological(cert)) - 1} ({rule}): ")
            ok = False
        except DomainError:
            ok = False
        else:
            ok = True
        if kind in ENUMERATORS:
            assert ok == _builders_accept(node, rule, cert.premises), (kind, rule)
        if ok and kind in ("surgery", "borromean"):
            check_triangles(expand_runs(cert))
        if ok and kind in accepted:
            accepted[kind] += 1
        rejected += not ok
    assert min(accepted.values()) >= 20 and rejected >= 500, (accepted, rejected)


def _last_split_steps(view, memo):
    """The builders' steps, except that a tree or Tait graph whose first
    move is a split takes its last split instead."""
    kind, data = view
    if kind not in ENUMERATORS:
        return (yield from lspacecert._steps(view, memo))
    moves = list(getattr(lspacecert, ENUMERATORS[kind])(data))
    move = moves[-1] if moves[0][0] == "triangle" else moves[0]
    return (yield from lspacecert._first_move(lspacecert._fact_of(view), *move))


def _last_split_certificate(view):
    cert = lspacecert._derive(view, _last_split_steps, {})
    nodes = lspacecert._topological(cert)
    firsts = 0
    for node in nodes:
        kind, data = lspacecert._view(node.conclusion)
        if kind in ENUMERATORS and node.rule == "triangle":
            views = tuple(lspacecert._view(p.conclusion) for p in node.premises)
            firsts += views == next(getattr(lspacecert, ENUMERATORS[kind])(data))[1]
    return cert, nodes, firsts


def _counting(monkeypatch, name):
    calls = []
    original = getattr(lspacecert, name)
    monkeypatch.setattr(lspacecert, name, lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize("tree", [
    star_tree(4, [[2, 3], [3], [2, 2, 2], [4]]),
    WeightedTree((3, 4, 2, 3, 3, 2, 4, 2), ((0, 1), (1, 2), (0, 3), (3, 4), (3, 5), (0, 6), (6, 7))),
], ids=["star", "branched"])
def test_the_checker_builds_one_split_per_tree_split_node(monkeypatch, tree):
    """Deleted and decremented once per split node, not once per leaf tried."""
    cert, nodes, firsts = _last_split_certificate(("tree-boundary", tree))
    splits = sum(node.rule == "triangle" and node.conclusion.kind == "tree-boundary" for node in nodes)
    assert splits > 20 and firsts < splits / 2
    decremented = _counting(monkeypatch, "_set_weight")
    check_certificate(cert)
    assert len(decremented) == splits


@pytest.mark.parametrize("graph", [
    TaitGraph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1))),
    TaitGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4))),
], ids=["wheel", "hexagon-with-chords"])
def test_the_checker_builds_one_split_per_tait_split_node(monkeypatch, graph):
    """One deletion per triangle node and per loop deletion, not one per
    edge tried, and no bridge enumeration."""
    cert, nodes, firsts = _last_split_certificate(("branched-double-cover", graph))
    graphs = [(node.rule, lspacecert._view(node.conclusion)[1])
              for node in nodes if node.conclusion.kind == "branched-double-cover"]
    splits = sum(rule == "triangle" for rule, _ in graphs)
    # a graph with a loop reduces by deleting it first
    loops = sum(rule == "reduce" and any(a == b for a, b in g.edges) for rule, g in graphs)
    assert splits > 10 and firsts < splits / 2
    deleted = _counting(monkeypatch, "_delete")
    monkeypatch.setattr(TaitGraph, "bridges", lambda self: pytest.fail("bridges() enumerated"))
    check_certificate(cert)
    assert len(deleted) == splits + loops
