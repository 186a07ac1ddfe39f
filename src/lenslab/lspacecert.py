"""Certificate calculus for monopole L-spaces.

A certificate is a finite proof tree.  Leaves are axioms (lens spaces,
connected sums of lens spaces, the three-sphere, the Poincare sphere, or a
caller-supplied L-space fact).  Interior nodes are:

  * "triangle"   -- two premises, |H1| additivity |H1(Y2)| = |H1(Y0)| + |H1(Y1)|;
  * "blow-down"  -- one premise, same manifold after a weight-1 vertex removal;
  * "reduce"     -- one premise, Tait-graph loop deletion / bridge contraction;
  * "rational-to-integer-lift" -- one premise, slope r lifted to ceil(r).

That a triangle node's three manifolds really form a surgery triad is
carried as descriptor metadata established by each constructor, never
re-derived from topology; the checker re-verifies all arithmetic side
conditions on any certificate independently of construction.

Certified conclusions are monopole L-spaces, hence manifolds admitting no
taut foliation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, prod

from .errors import (
    DomainError,
    HypothesisNotMetError,
    InvariantError,
    RuleViolationError,
)
from .exactnum import INFINITY, farey_parents, format_slope, hj_expand, parse_slope

CONCLUSION_SENTENCE = "monopole L-space => admits no taut foliation"


# ---------------------------------------------------------------------------
# Facts and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fact:
    """A manifold descriptor with the order of its first homology."""

    descriptor: str
    h1_order: int
    status: str = "axiom"  # "axiom" | "derived"
    kind: str = "named"
    params: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.h1_order < 1:
            raise DomainError(
                f"certified manifolds are rational homology spheres; "
                f"got |H1| = {self.h1_order} for {self.descriptor}"
            )

    def param(self, key: str) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class Certificate:
    conclusion: Fact
    rule: str
    premises: tuple["Certificate", ...] = ()

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.premises)

    def to_json_dict(self) -> dict:
        return {
            "conclusion": {
                "descriptor": self.conclusion.descriptor,
                "h1": self.conclusion.h1_order,
                "kind": self.conclusion.kind,
                "params": dict(self.conclusion.params),
            },
            "rule": self.rule,
            "premises": [c.to_json_dict() for c in self.premises],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Certificate":
        conclusion = Fact(
            descriptor=doc["conclusion"]["descriptor"],
            h1_order=doc["conclusion"]["h1"],
            status="axiom" if not doc["premises"] else "derived",
            kind=doc["conclusion"].get("kind", "named"),
            params=tuple(sorted(doc["conclusion"].get("params", {}).items())),
        )
        return cls(
            conclusion,
            doc["rule"],
            tuple(cls.from_json_dict(p) for p in doc["premises"]),
        )


def _axiom(descriptor: str, h1: int, kind: str, rule: str, **params: object) -> Certificate:
    fact = Fact(
        descriptor,
        h1,
        status="axiom",
        kind=kind,
        params=tuple(sorted((k, str(v)) for k, v in params.items())),
    )
    return Certificate(fact, rule)


def lens_axiom(p: int, q: int = 1) -> Certificate:
    return _axiom(f"L({p},{q})", p, "lens", "axiom:lens-space", p=p, q=q)


def sphere_axiom() -> Certificate:
    return _axiom("S3", 1, "lens", "axiom:three-sphere", p=1, q=1)


def connected_sum_lens_axiom(orders: list[int]) -> Certificate:
    orders = [p for p in orders if p != 1]
    if not orders:
        return sphere_axiom()
    desc = " # ".join(f"L({p},1)" for p in orders)
    return _axiom(
        desc, prod(orders), "connected-sum-lens",
        "axiom:connected-sum-of-lens-spaces", orders=",".join(map(str, orders)),
    )


def poincare_sphere_axiom() -> Certificate:
    return _axiom(
        "Poincare homology sphere", 1, "named",
        "axiom:positive-scalar-curvature",
    )


def surgery_lspace_axiom(knot: str, slope: Fraction, note: str = "lens space") -> Certificate:
    """Caller-supplied fact: the slope-r filling of this knot is an L-space."""
    if slope <= 0:
        raise DomainError("surgery L-space facts need a positive slope")
    return _axiom(
        f"S3_{format_slope(slope)}({knot})", slope.numerator, "surgery",
        "axiom:given-l-space", knot=knot, slope=format_slope(slope), note=note,
    )


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def triangle_rule(c0: Certificate, c1: Certificate, target: Fact) -> Certificate:
    """Surgery-triangle rule: premises Y0, Y1 certify Y2 when
    |H1(Y2)| = |H1(Y0)| + |H1(Y1)|."""
    total = c0.conclusion.h1_order + c1.conclusion.h1_order
    if target.h1_order != total:
        raise RuleViolationError(
            f"|H1| additivity fails: {target.h1_order} != "
            f"{c0.conclusion.h1_order} + {c1.conclusion.h1_order}"
        )
    fact = Fact(target.descriptor, target.h1_order, "derived", target.kind, target.params)
    return Certificate(fact, "triangle", (c0, c1))


def _unary_rule(rule: str, premise: Certificate, target: Fact) -> Certificate:
    fact = Fact(target.descriptor, target.h1_order, "derived", target.kind, target.params)
    return Certificate(fact, rule, (premise,))


# ---------------------------------------------------------------------------
# Weighted plumbing trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedTree:
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.weights)
        if n == 0:
            raise DomainError("empty tree")
        if len(self.edges) != n - 1:
            raise DomainError("a tree on n vertices has n - 1 edges")
        _check_endpoints(n, self.edges)
        if not _connected_with(n, self.edges):
            raise DomainError("tree is not connected")

    def describe(self) -> str:
        return (
            "plumbing tree "
            + "[" + ",".join(map(str, self.weights)) + "; "
            + ",".join(f"{a}-{b}" for a, b in self.edges) + "]"
        )


def _degrees(tree: WeightedTree) -> list[int]:
    degree = [0] * len(tree.weights)
    for a, b in tree.edges:
        degree[a] += 1
        degree[b] += 1
    return degree


def star_tree(centre: int, legs: list[list[int]]) -> WeightedTree:
    """Star-shaped tree: a centre vertex with linear chains attached."""
    weights = [centre]
    edges = []
    for leg in legs:
        prev = 0
        for w in leg:
            weights.append(w)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return WeightedTree(tuple(weights), tuple(edges))


def path_tree(weights: list[int]) -> WeightedTree:
    return WeightedTree(
        tuple(weights), tuple((i, i + 1) for i in range(len(weights) - 1))
    )


def _integer_det(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def tree_h1(tree: WeightedTree) -> int:
    """|det| of the weighted adjacency form; 0 signals a non-RHS boundary.

    Leaves are folded into their parents, in O(n) integer steps: rooted at
    vertex 0, A_v is the determinant of the subtree below v and B_v that of
    the subtree with v deleted.  Starting from (w_v, 1), each child c folds
    in as (A_v, B_v) <- (A_v A_c - B_v B_c, B_v A_c), children before parents.
    """
    n = len(tree.weights)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in tree.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    parent = [-1] * n
    order = [0]  # breadth-first, so every parent precedes its children
    for v in order:
        for c in nbrs[v]:
            if c != parent[v]:
                parent[c] = v
                order.append(c)
    det = list(tree.weights)
    rest = [1] * n
    for c in reversed(order[1:]):
        v = parent[c]
        det[v], rest[v] = det[v] * det[c] - rest[v] * rest[c], rest[v] * det[c]
    return abs(det[0])


def _tree_fact(tree: WeightedTree) -> Fact:
    return Fact(
        "boundary of " + tree.describe(),
        tree_h1(tree),
        "derived",
        "tree-boundary",
        (("weights", ",".join(map(str, tree.weights))),),
    )


def _delete_vertex(tree: WeightedTree, v: int) -> WeightedTree:
    keep = [i for i in range(len(tree.weights)) if i != v]
    index = {old: new for new, old in enumerate(keep)}
    return WeightedTree(
        tuple(tree.weights[i] for i in keep),
        tuple((index[a], index[b]) for a, b in tree.edges if v not in (a, b)),
    )


def _set_weight(tree: WeightedTree, v: int, value: int) -> WeightedTree:
    weights = list(tree.weights)
    weights[v] = value
    return WeightedTree(tuple(weights), tree.edges)


def _blow_down_leaf(tree: WeightedTree, v: int) -> WeightedTree:
    (neighbor,) = [b if a == v else a for a, b in tree.edges if v in (a, b)]
    out = _set_weight(tree, neighbor, tree.weights[neighbor] - 1)
    return _delete_vertex(out, v)


def _blow_down_interior(tree: WeightedTree, v: int) -> WeightedTree:
    """Remove an interior weight-1 vertex of degree 2, joining and
    decrementing its two neighbors (the plumbing move [a,1,b] -> [a-1,b-1])."""
    nbrs = [b if a == v else a for a, b in tree.edges if v in (a, b)]
    assert len(nbrs) == 2
    keep = [i for i in range(len(tree.weights)) if i != v]
    index = {old: new for new, old in enumerate(keep)}
    weights = [tree.weights[i] - (1 if i in nbrs else 0) for i in keep]
    edges = [
        (index[a], index[b]) for a, b in tree.edges if v not in (a, b)
    ]
    edges.append((index[nbrs[0]], index[nbrs[1]]))
    return WeightedTree(tuple(weights), tuple(edges))


def certify_tree(tree: WeightedTree, require_hypothesis: bool = True) -> Certificate:
    """Certificate that the plumbing boundary is a monopole L-space.

    Default hypothesis gate: m(v) >= degree(v) everywhere, strict somewhere.
    With require_hypothesis=False the gate is skipped and soundness rests on
    the per-node determinant checks alone (used for Seifert stars whose
    centre weight is below its degree); every produced certificate passes
    the independent checker either way.
    """
    h1 = tree_h1(tree)
    if h1 == 0:
        raise HypothesisNotMetError(
            "boundary is not a rational homology sphere (|H1| = 0)"
        )
    if require_hypothesis:
        degree = _degrees(tree)
        slack = [w - d for w, d in zip(tree.weights, degree)]
        if any(s < 0 for s in slack):
            bad = min(range(len(slack)), key=lambda v: slack[v])
            raise HypothesisNotMetError(
                f"vertex {bad} has weight {tree.weights[bad]} < degree {degree[bad]}"
            )
        if all(s == 0 for s in slack):
            raise HypothesisNotMetError(
                "weight inequality must be strict at at least one vertex"
            )
    return _certify_tree_rec(tree)


def _certify_tree_rec(tree: WeightedTree) -> Certificate:
    n = len(tree.weights)
    h1 = tree_h1(tree)
    if h1 == 0:
        raise HypothesisNotMetError(
            "intermediate stage is not a rational homology sphere: "
            + tree.describe()
        )
    if n == 1:
        weight = tree.weights[0]
        if weight < 1:
            raise HypothesisNotMetError(
                f"single vertex of weight {weight} reached; not certifiable"
            )
        return lens_axiom(weight) if weight > 1 else sphere_axiom()

    degree = _degrees(tree)
    leaves = [v for v in range(n) if degree[v] == 1]
    for v in leaves:
        if tree.weights[v] == 1:
            smaller = _blow_down_leaf(tree, v)
            if tree_h1(smaller) != h1:
                raise InvariantError("blow-down changed |H1|")
            return _unary_rule("blow-down", _certify_tree_rec(smaller), _tree_fact(tree))
    for v in range(n):
        if tree.weights[v] == 1 and degree[v] == 2:
            smaller = _blow_down_interior(tree, v)
            if tree_h1(smaller) != h1:
                raise InvariantError("interior blow-down changed |H1|")
            return _unary_rule("blow-down", _certify_tree_rec(smaller), _tree_fact(tree))

    errors = []
    for v in sorted(leaves, key=lambda v: tree.weights[v]):
        deleted = _delete_vertex(tree, v)
        decremented = _set_weight(tree, v, tree.weights[v] - 1)
        h0, h1_side = tree_h1(deleted), tree_h1(decremented)
        if h0 + h1_side != h1 or h0 == 0 or h1_side == 0:
            errors.append(f"split at leaf {v}: {h1} != {h0} + {h1_side}")
            continue
        try:
            c0 = _certify_tree_rec(deleted)
            c1 = _certify_tree_rec(decremented)
        except HypothesisNotMetError as exc:
            errors.append(f"split at leaf {v}: {exc}")
            continue
        return triangle_rule(c0, c1, _tree_fact(tree))
    raise HypothesisNotMetError(
        "no leaf admits a determinant-positive split: " + "; ".join(errors)
    )


# ---------------------------------------------------------------------------
# Tait graphs of alternating links
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaitGraph:
    """Connected multigraph; edge multiset as a tuple of (a, b) pairs."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise DomainError("need at least one vertex")
        _check_endpoints(self.num_vertices, self.edges)
        if not _connected_with(self.num_vertices, self.edges):
            raise DomainError("graph is not connected")

    def loops(self) -> list[int]:
        return [i for i, (a, b) in enumerate(self.edges) if a == b]

    def bridges(self) -> list[int]:
        out = []
        for i, (a, b) in enumerate(self.edges):
            if a == b:
                continue
            rest = self.edges[:i] + self.edges[i + 1 :]
            if not _connected_with(self.num_vertices, rest):
                out.append(i)
        return out

    def describe(self) -> str:
        return (
            f"Tait graph on {self.num_vertices} vertices "
            + "[" + ",".join(f"{a}-{b}" for a, b in self.edges) + "]"
        )


def _check_endpoints(n: int, edges: tuple[tuple[int, int], ...]) -> None:
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise DomainError(f"edge ({a}, {b}) out of range")


def _connected_with(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    """Whether the graph on vertices 0..n-1 is connected, in O(n + |edges|)."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}  # KeyError outside 0..n-1
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    frontier = [0]
    while frontier:
        for w in adj[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def cycle_graph(n: int) -> TaitGraph:
    if n == 1:
        return TaitGraph(1, ((0, 0),))
    return TaitGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def theta_graph(strands: int = 3) -> TaitGraph:
    return TaitGraph(2, tuple((0, 1) for _ in range(strands)))


def tait_det(graph: TaitGraph) -> int:
    """Number of spanning trees (reduced-Laplacian determinant)."""
    n = graph.num_vertices
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for a, b in graph.edges:
        if a == b:
            continue
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    reduced = [row[1:] for row in lap[1:]]
    return abs(_integer_det(reduced))


def spanning_tree_count_bruteforce(graph: TaitGraph) -> int:
    """Enumerative oracle for tait_det (choose n-1 edges, test acyclicity)."""
    n = graph.num_vertices
    if n == 1:
        return 1
    count = 0
    for subset in itertools.combinations(range(len(graph.edges)), n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i in subset:
            a, b = graph.edges[i]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            count += 1
    return count


def _contract(graph: TaitGraph, idx: int) -> TaitGraph:
    a, b = graph.edges[idx]
    if a == b:
        raise DomainError("cannot contract a loop")
    keep, gone = min(a, b), max(a, b)

    def relabel(v: int) -> int:
        if v == gone:
            return keep
        return v - 1 if v > gone else v

    edges = tuple(
        (relabel(x), relabel(y))
        for i, (x, y) in enumerate(graph.edges)
        if i != idx
    )
    return TaitGraph(graph.num_vertices - 1, edges)


def _delete(graph: TaitGraph, idx: int) -> TaitGraph:
    return TaitGraph(
        graph.num_vertices, graph.edges[:idx] + graph.edges[idx + 1 :]
    )


def _tait_fact(graph: TaitGraph) -> Fact:
    return Fact(
        "branched double cover of " + graph.describe(),
        tait_det(graph),
        "derived",
        "branched-double-cover",
        (("edges", ",".join(f"{a}-{b}" for a, b in graph.edges)),),
    )


def certify_alternating(graph: TaitGraph) -> Certificate:
    """Certificate for the branched double cover of the alternating link with
    this checkerboard graph, by deletion-contraction on crossings.

    Loops and bridges are nugatory crossings; they are consumed by "reduce"
    nodes (loop deletion, bridge contraction), which leave the spanning-tree
    count and the manifold unchanged.  Disconnected graphs (split links) are
    rejected by the TaitGraph constructor.
    """
    return _certify_tait_rec(graph)


def _certify_tait_rec(graph: TaitGraph) -> Certificate:
    det = tait_det(graph)
    if det == 0:
        raise InvariantError("spanning-tree count vanished; diagram not reduced")
    if not graph.edges:
        if graph.num_vertices != 1:
            raise InvariantError("edgeless graph with several vertices")
        return sphere_axiom()
    loops = graph.loops()
    if loops:
        smaller = _delete(graph, loops[0])
        if tait_det(smaller) != det:
            raise InvariantError("loop deletion changed the spanning-tree count")
        return _unary_rule("reduce", _certify_tait_rec(smaller), _tait_fact(graph))
    bridges = graph.bridges()
    if bridges:
        smaller = _contract(graph, bridges[0])
        if tait_det(smaller) != det:
            raise InvariantError("bridge contraction changed the spanning-tree count")
        return _unary_rule("reduce", _certify_tait_rec(smaller), _tait_fact(graph))
    idx = 0
    contracted = _contract(graph, idx)
    deleted = _delete(graph, idx)
    d0, d1 = tait_det(contracted), tait_det(deleted)
    if d0 + d1 != det:
        raise InvariantError(
            f"deletion-contraction additivity failed: {det} != {d0} + {d1}"
        )
    return triangle_rule(
        _certify_tait_rec(contracted), _certify_tait_rec(deleted), _tait_fact(graph)
    )


# ---------------------------------------------------------------------------
# Slope propagation
# ---------------------------------------------------------------------------


def _surgery_fact(knot: str, slope: Fraction) -> Fact:
    return Fact(
        f"S3_{format_slope(slope)}({knot})",
        slope.numerator,
        "derived",
        "surgery",
        (("knot", knot), ("slope", format_slope(slope))),
    )


def propagate_slope(base: Certificate, target: Fraction) -> Certificate:
    """From an L-space filling at slope r, certify the filling at s >= r.

    Chain: lift r to ceil(r) (one named non-triangle node, recorded because
    its justification is homological rather than combinatorial), climb the
    integers by triangles against the three-sphere, and reach non-integral
    slopes by Farey-mediant triangles whose |H1| additivity is the numerator
    sum.
    """
    slope_text = base.conclusion.param("slope")
    knot = base.conclusion.param("knot") or "K"
    if slope_text is None:
        raise DomainError("base certificate does not describe a surgery")
    r = parse_slope(slope_text)
    if r <= 0:
        raise DomainError("slope propagation needs a positive base slope")
    if target < r:
        raise DomainError(f"target {target} below the base slope {r}")

    memo: dict[Fraction, Certificate] = {r: base}

    lifted = r
    if r.denominator != 1:
        lifted = Fraction(ceil(r))
        memo[lifted] = _unary_rule(
            "rational-to-integer-lift", base, _surgery_fact(knot, lifted)
        )

    def integer_cert(value: Fraction) -> Certificate:
        current = lifted
        while current < value:
            nxt = current + 1
            if nxt not in memo:
                memo[nxt] = triangle_rule(
                    memo[current], sphere_axiom(), _surgery_fact(knot, nxt)
                )
            current = nxt
        return memo[value]

    def certify(s: Fraction) -> Certificate:
        if s in memo:
            return memo[s]
        if s.denominator == 1:
            return integer_cert(s)
        high, low = farey_parents(s)
        if high is INFINITY:
            raise InvariantError("non-integral slope with an infinite parent")
        c_low = certify(low)
        c_high = certify(high)
        cert = triangle_rule(c_low, c_high, _surgery_fact(knot, s))
        memo[s] = cert
        return cert

    return certify(target)


# ---------------------------------------------------------------------------
# Borromean surgeries
# ---------------------------------------------------------------------------


def _borromean_fact(a: Fraction, b: Fraction, c: Fraction) -> Fact:
    order = a.numerator * b.numerator * c.numerator
    desc = f"M({format_slope(a)},{format_slope(b)},{format_slope(c)})"
    return Fact(
        desc, order, "derived", "surgery",
        (("slopes", ",".join(format_slope(x) for x in (a, b, c))),),
    )


def certify_borromean(a: Fraction, b: Fraction, c: Fraction) -> Certificate:
    """Certificate for the (a, b, c) surgery on the Borromean rings, a, b, c >= 1.

    Integer coordinates climb from the Poincare sphere M(1,1,1) with a
    connected sum of lens spaces as the second premise; a non-integral
    coordinate descends through its Farey parents.
    """
    slopes = [Fraction(x) for x in (a, b, c)]
    if any(x < 1 for x in slopes):
        raise DomainError("all three slopes must be >= 1")

    def build(xs: tuple[Fraction, Fraction, Fraction]) -> Certificate:
        for idx, x in enumerate(xs):
            if x.denominator != 1:
                high, low = farey_parents(x)
                if high is INFINITY:
                    raise InvariantError("non-integral slope with infinite parent")
                if low < 1:
                    raise DomainError(
                        f"Farey descent of coordinate {idx} leaves the slope range"
                    )
                lo = build(_replace(xs, idx, low))
                hi = build(_replace(xs, idx, high))
                return triangle_rule(lo, hi, _borromean_fact(*xs))
        ints = [int(x) for x in xs]
        if ints == [1, 1, 1]:
            return _axiom(
                "M(1,1,1) = Poincare homology sphere", 1, "surgery",
                "axiom:positive-scalar-curvature", slopes="1,1,1",
            )
        idx = max(range(3), key=lambda i: ints[i])
        below = list(xs)
        below[idx] = xs[idx] - 1
        others = [ints[i] for i in range(3) if i != idx]
        side = connected_sum_lens_axiom(others)
        return triangle_rule(
            build(tuple(below)), side, _borromean_fact(*xs)
        )

    return build(tuple(slopes))


def _replace(
    xs: tuple[Fraction, Fraction, Fraction], idx: int, value: Fraction
) -> tuple[Fraction, Fraction, Fraction]:
    out = list(xs)
    out[idx] = value
    return tuple(out)


# ---------------------------------------------------------------------------
# Pretzel fillings
# ---------------------------------------------------------------------------


def pretzel_star(n: int) -> WeightedTree:
    """Positive plumbing star for the order-(2n+4) Seifert filling of the
    (-2, 3, n) pretzel knot, built from the multiplicities (2, 4, (n-6)/(n-8))."""
    if n < 7 or n % 2 == 0:
        raise DomainError("need odd n >= 7")
    if n == 7:
        return star_tree(3, [[2], [4]])
    leg = hj_expand(Fraction(n - 6, n - 8))
    return star_tree(2, [[2], [4], leg])


def certify_pretzel_surgeries(n: int, target: Fraction) -> Certificate:
    """Certificate that slope-s fillings (s >= 2n+4) of the (-2, 3, n)
    pretzel knot are L-spaces.  The star's order is asserted to be 2n+4,
    which pins the plumbing orientation convention."""
    tree = pretzel_star(n)
    order = tree_h1(tree)
    if order != 2 * n + 4:
        raise InvariantError(
            f"pretzel star for n={n} has |H1| = {order}, expected {2 * n + 4}"
        )
    base_slope = Fraction(2 * n + 4)
    if target < base_slope:
        raise DomainError(f"target {target} below the certified slope {base_slope}")
    tree_cert = certify_tree(tree, require_hypothesis=(n == 7))
    knot = f"(-2,3,{n})-pretzel"
    base_fact = _surgery_fact(knot, base_slope)
    base = _unary_rule("seifert-filling-identification", tree_cert, base_fact)
    return propagate_slope(base, target)


# ---------------------------------------------------------------------------
# Independent checker
# ---------------------------------------------------------------------------


class CertificateCheckError(InvariantError):
    """A certificate failed re-verification."""


def check_certificate(cert: Certificate) -> int:
    """Walk a certificate re-verifying every rule; returns the node count.

    This is a separate code path from the constructors: it re-computes every
    additivity equation and every axiom's order from the descriptor data.
    """
    count = 1
    rule = cert.rule
    fact = cert.conclusion
    if rule.startswith("axiom:"):
        if cert.premises:
            raise CertificateCheckError("axiom node with premises")
        _check_axiom(rule, fact)
    elif rule == "triangle":
        if len(cert.premises) != 2:
            raise CertificateCheckError("triangle node needs two premises")
        total = sum(p.conclusion.h1_order for p in cert.premises)
        if fact.h1_order != total:
            raise CertificateCheckError(
                f"additivity fails at {fact.descriptor}: {fact.h1_order} != {total}"
            )
        _check_triangle_side_conditions(cert)
    elif rule in ("blow-down", "reduce", "seifert-filling-identification"):
        if len(cert.premises) != 1:
            raise CertificateCheckError(f"{rule} node needs one premise")
        if cert.premises[0].conclusion.h1_order != fact.h1_order:
            raise CertificateCheckError(f"{rule} must preserve |H1|")
    elif rule == "rational-to-integer-lift":
        if len(cert.premises) != 1:
            raise CertificateCheckError("lift node needs one premise")
        premise = cert.premises[0].conclusion
        r_text = premise.param("slope")
        s_text = fact.param("slope")
        if r_text is None or s_text is None:
            raise CertificateCheckError("lift node needs surgery descriptors")
        r = parse_slope(r_text)
        s = parse_slope(s_text)
        if r.denominator == 1 or s != Fraction(ceil(r)):
            raise CertificateCheckError(
                f"lift must go from non-integral r to ceil(r); got {r} -> {s}"
            )
        if fact.h1_order != s.numerator:
            raise CertificateCheckError("lifted order must equal the integer slope")
    else:
        raise CertificateCheckError(f"unknown rule {rule!r}")
    for premise in cert.premises:
        count += check_certificate(premise)
    return count


def _check_axiom(rule: str, fact: Fact) -> None:
    name = rule.removeprefix("axiom:")
    if name == "lens-space":
        p = fact.param("p")
        if p is None or int(p) != fact.h1_order:
            raise CertificateCheckError(f"lens axiom order mismatch at {fact.descriptor}")
    elif name == "three-sphere":
        if fact.h1_order != 1:
            raise CertificateCheckError("three-sphere must have |H1| = 1")
    elif name == "connected-sum-of-lens-spaces":
        orders = fact.param("orders")
        if orders is None:
            raise CertificateCheckError("connected sum axiom needs its orders")
        expected = prod(int(x) for x in orders.split(","))
        if expected != fact.h1_order:
            raise CertificateCheckError("connected sum order mismatch")
    elif name == "positive-scalar-curvature":
        if fact.h1_order < 1:
            raise CertificateCheckError("bad positive-scalar-curvature axiom")
    elif name == "given-l-space":
        slope = fact.param("slope")
        if slope is None or parse_slope(slope).numerator != fact.h1_order:
            raise CertificateCheckError("given L-space fact order mismatch")
    else:
        raise CertificateCheckError(f"unknown axiom {name!r}")


def _check_triangle_side_conditions(cert: Certificate) -> None:
    """Descriptor-level consistency for the triangle instances this package
    constructs (surgery slopes must be Farey-compatible when present)."""
    fact = cert.conclusion
    slope_text = fact.param("slope")
    if fact.kind != "surgery" or slope_text is None:
        return
    s = parse_slope(slope_text)
    premise_slopes = []
    for p in cert.premises:
        text = p.conclusion.param("slope")
        if text is None:
            return
        premise_slopes.append(parse_slope(text))
    if s.denominator == 1:
        return  # integer rung against the three-sphere
    nums = sorted(x.numerator for x in premise_slopes)
    dens = sorted(x.denominator for x in premise_slopes)
    if sum(nums) != s.numerator or sum(dens) != s.denominator:
        raise CertificateCheckError(
            f"Farey mediant mismatch at {fact.descriptor}"
        )


def certificate_json(cert: Certificate) -> str:
    return json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)
