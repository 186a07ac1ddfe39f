"""Certificate calculus for monopole L-spaces.

A certificate is a finite proof DAG: a sub-proof used twice is one shared
node.  Each build derives every distinct sub-problem once, through a memo
keyed by the sub-problem, and that memo is what shares the nodes.  Leaves
are axioms (lens spaces, connected sums of lens spaces, the three-sphere,
the Poincare sphere M(1,1,1), or a caller-supplied L-space fact), and the
checker accepts each axiom only in the form its constructor builds: S3 is
`sphere_axiom()` alone, never a lens space L(1,1) or an empty connected sum.
Interior nodes are:

  * "triangle"   -- two premises, |H1| additivity |H1(Y2)| = |H1(Y0)| + |H1(Y1)|,
    along a surgery triad;
  * "triangle-run" -- two premises, the fillings Y0, Y1 of one knot (or of one
    component of the Borromean rings, the others fixed) at Farey neighbours
    y0 = p0/q0 and y1 = p1/q1, |p0*q1 - p1*q0| = 1, concluding the filling at
    y0 + k*y1 = (p0 + k*p1)/(q0 + k*q1), k >= 2, with |H1(Y)| = |H1(Y0)| +
    k*|H1(Y1)|.  It stands for the k triangles through y0 + j*y1,
    0 < j <= k: y0 + (j-1)*y1 and y1 are neighbours too, and each |H1| is
    its numerator, so each adds up (Ozsvath-Szabo, arXiv:math/0504404: the
    L-space slopes of a knot from one upward form an interval);
  * "blow-down"  -- one premise, same manifold after a weight-1 vertex removal;
  * "reduce"     -- one premise, Tait-graph loop deletion / bridge contraction;
  * "rational-to-integer-lift" -- one premise, slope r lifted to ceil(r);
  * "seifert-filling-identification" -- one premise, the pretzel star whose
    boundary is the (2n+4)-filling of the (-2, 3, n) pretzel knot.

Each tree and Tait-graph move is stated once, by the move function of its
kind (`_tree_move`, `_tait_move`): given the manifold, a rule and a vertex
or edge, it returns that one move's (rule, premises), or None when the
move is not legal.  The builders' enumerators call it in order:

  * `_tree_moves`: blow-downs of weight-1 leaves, then of weight-1 vertices
    of degree 2, then each leaf deleted and decremented, lightest leaf
    first.  `certify_tree` takes the first blow-down with no fallback, else
    tries the splits in turn, backtracking past a split that fails, and
    reads a split premise's |H1| from the memo when it holds the premise;
  * `_tait_moves`: loop deletions, then bridge contractions, then the
    contraction and deletion of each other edge.  `certify_alternating`
    counts each minor's spanning trees once and takes the first.

Slopes and Borromean surgeries descend along the target's continued
fraction instead, one node per partial quotient a_i, computed once per
target by `_farey_runs`: a run for a_i >= 2 and a triangle, lower slope
first, for a_i = 1, cut short at a slope the descent stops at.  So a
certificate holds exactly the slopes the plain Farey descent meets, less
those inside runs:

  * `_slope_moves`: the run or triangle of a slope, down to the base, its
    lift and 1/0, the three-sphere;
  * `_borromean_moves`: the run or triangle of the first non-integral
    coordinate, down to its floor and ceiling, or to its floor and 1/0 when
    the coordinates after it are integers; when all three are integers, the
    run of the largest, first of equal ones, down to 1.  1/0 deletes that
    component of the rings, leaving the connected sum of the other two
    fillings.

A manifold is named by its view (kind, data), as `_view` rebuilds it from a
fact, in memo keys, enumerated premises and the checker alike.  A view, like
every Farey helper, holds a slope as its reduced integer pair (p, q), q > 0,
1/0 being (1, 0), from the text `slope_pair` reads to the text `slope_text`
writes.  The public builders take a slope as any exact rational, an int or
a `Fraction`, and read it once, as (numerator, denominator), on entry,
through `_slope`, which rejects anything else with a DomainError.  A
single vertex of weight w is L(w, 1), and the edgeless graph on one vertex
is S3.
`_fact_of` builds the fact of every view, for the axiom constructors, the
builders and the checker, and renders each fact's text once.  A tree's |H1|
is computed once per tree object (`WeightedTree._h1`), which its fact and
the split checks of the tree search share.  Every builder runs one step
function, `_steps`: a leaf takes its axiom from `_LEAF_AXIOMS`, the table
the checker's `_AXIOMS` extends by the caller-supplied fact alone; a tree
runs the tree search; anything else takes its first move.  Every interior
node, the tree search's blow-downs and splits included, is built by
`_first_move`, which derives its premises and checks their |H1| sum.

The checker confirms every interior node one way (`_NAMED_MOVES`): it
reads the hint of the one move the premises name off their views, rebuilds
that move with the builders' move function and compares (rule, premises).
The hint of a split is the leaf the second premise decrements; of a Tait
triangle or loop deletion, the first edge the deleted graph lacks; of a
blow-down or bridge contraction, each weight-1 vertex or edge; of a
Borromean triangle or run, the coordinate the first Borromean premise
changes first.  There a surgery or Borromean node names its premises'
slopes y0, y1, S3 being 1/0 (a Borromean 1/0 only where the other two are
integers); if they are Farey neighbours and the conclusion's slope is
y0 + k*y1, k >= 1, `_farey_move` rebuilds the move with no descent and no
modular inverse: a triangle, lower slope first, for k = 1, else a run with
|H1| = |H1(Y0)| + k*|H1(Y1)|, so one triangle per step still checks.

Every fact carries the data that names its manifold (tree weights and edges,
a Tait edge list, surgery slopes), from which the checker rebuilds it,
recomputing |H1|.  Trees and Tait graphs are validated where they enter, by
their constructors, which the CLI loaders and the checker call on every
graph they read; each shape bound, the vertex bound included, is the
graph's own, and the CLI adds one cost cap per kind.  A move builds the tree
or graph it derives through `_moved`, without re-validation.  Builders,
checker and serialiser visit each distinct node once and never recurse.

Certified conclusions are monopole L-spaces, hence manifolds admitting no
taut foliation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd, prod
from numbers import Rational
from typing import Callable, Generator, Hashable, Iterable, Iterator

from .errors import DomainError, HypothesisNotMetError, InvariantError
from .exactnum import Slope, hj_expand, slope_pair, slope_text

# Not called here; importable because perfbench/tracing.py wraps
# `lspacecert.farey_parents` by name.
from .exactnum import farey_parents  # noqa: F401

CONCLUSION_SENTENCE = "monopole L-space => admits no taut foliation"
JSON_FORMAT = 2


# ---------------------------------------------------------------------------
# Facts and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fact:
    """A manifold descriptor with the order of its first homology."""

    descriptor: str
    h1_order: int
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


def _fact(descriptor: str, h1: int, kind: str, **params: object) -> Fact:
    return Fact(descriptor, h1, kind, tuple(sorted((k, str(v)) for k, v in params.items())))


@dataclass(frozen=True, eq=False)
class Certificate:
    """One node of a certificate DAG.  Nodes compare by identity, so equality
    and hashing never walk the premises."""

    conclusion: Fact
    rule: str
    premises: tuple["Certificate", ...] = ()

    def size(self) -> int:
        """Node count of the certificate expanded into a tree."""
        return _tree_count(_topological(self))

    def to_json_dict(self) -> dict:
        """The format-2 node table: each distinct node once, premises first,
        ids 0..n-1 in that order, the root last."""
        nodes = _topological(self)
        index = {id(node): i for i, node in enumerate(nodes)}
        return {
            "format": JSON_FORMAT,
            "root": len(nodes) - 1,
            "nodes": [
                {
                    "id": i,
                    "rule": node.rule,
                    "premises": [index[id(p)] for p in node.premises],
                    "conclusion": {
                        "descriptor": node.conclusion.descriptor,
                        "h1": node.conclusion.h1_order,
                        "kind": node.conclusion.kind,
                        "params": dict(node.conclusion.params),
                    },
                }
                for i, node in enumerate(nodes)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: object) -> "Certificate":
        """Load a format-2 node table; a malformed table raises DomainError.

        Premises must be listed before the nodes that use them, so the table
        is read in one pass and can hold no cycle.  The table must be in the
        order `to_json_dict` writes, so a checker error's node id is the
        file's own id and every row is part of the proof."""
        if not isinstance(doc, dict) or doc.get("format") != JSON_FORMAT:
            raise DomainError(f"certificate is not a format-{JSON_FORMAT} node table")
        entries = doc.get("nodes")
        if not isinstance(entries, list) or not entries:
            raise DomainError("field 'nodes' is missing or not a non-empty list")
        canonical = (
            "nodes are not in canonical order: ids 0..n-1, each node after its "
            "premises (depth first, premises in order), the root last"
        )
        built: list[Certificate] = []
        for pos, entry in enumerate(entries):
            where = f"node {pos}"
            premises = []
            for ref in _field(entry, "premises", list, where):
                if type(ref) is not int or not 0 <= ref < pos:
                    raise DomainError(
                        f"{where} refers to node {ref!r}, which is not listed before it "
                        "(forward or cyclic reference)"
                    )
                premises.append(built[ref])
            if _field(entry, "id", int, where) != pos:
                raise DomainError(f"{where} has id {entry['id']}; {canonical}")
            conclusion = _field(entry, "conclusion", dict, where)
            params = _field(conclusion, "params", dict, where)
            if not all(type(v) is str for v in params.values()):
                raise DomainError(f"{where}: conclusion params must be strings")
            fact = Fact(
                _field(conclusion, "descriptor", str, where),
                _field(conclusion, "h1", int, where),
                _field(conclusion, "kind", str, where),
                tuple(sorted(params.items())),
            )
            built.append(cls(fact, _field(entry, "rule", str, where), tuple(premises)))
        root = doc.get("root")
        if type(root) is not int or root != len(built) - 1:
            raise DomainError(f"field 'root' must name the last node, {len(built) - 1}, "
                              f"in canonical order; got {root!r}")
        if _topological(built[root]) != built:
            raise DomainError(canonical)
        return built[root]


def _field(doc: object, key: str, kind: type, where: str):
    value = doc.get(key) if isinstance(doc, dict) else None
    if type(value) is not kind:  # JSON true/false load as bool, an int subclass
        raise DomainError(f"{where}: field {key!r} is missing or not of type {kind.__name__}")
    return value


def _topological(root: Certificate) -> list[Certificate]:
    """The distinct nodes under root, premises before the nodes that use them
    (depth first, premises in order), root last."""
    order: list[Certificate] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in reversed(node.premises))
    return order


def _tree_count(nodes: list[Certificate]) -> int:
    """Node count of the tree expansion of a topologically ordered DAG."""
    size: dict[int, int] = {}
    for node in nodes:
        size[id(node)] = 1 + sum(size[id(p)] for p in node.premises)
    return size[id(nodes[-1])]


Steps = Generator[Hashable, object, Certificate]


def _derive(root: Hashable, steps: Callable[[Hashable, dict], Steps], memo: dict) -> Certificate:
    """The certificate steps(root, memo) returns, with its recursion on a stack.

    steps(x, memo) is a generator: it yields each sub-problem it needs and
    receives that sub-problem's certificate, or has its HypothesisNotMetError
    raised at the yield.  Certificates and failures are memoised per
    sub-problem, so each distinct one is derived once; a step may read the
    memo, never write it.
    """
    if root in memo:
        return memo[root]
    stack = [(root, steps(root, memo))]
    value: object = None
    while True:
        key, gen = stack[-1]
        try:
            if isinstance(value, HypothesisNotMetError):
                sub = gen.throw(value.with_traceback(None))
            else:
                sub = gen.send(value)
        except StopIteration as done:
            value = done.value
        except HypothesisNotMetError as exc:
            value = exc
        else:
            value = memo.get(sub)
            if value is None:
                stack.append((sub, steps(sub, memo)))
            continue
        memo[key] = value
        stack.pop()
        if not stack:
            if isinstance(value, HypothesisNotMetError):
                raise value.with_traceback(None)
            return value


def _first_move(fact: Fact, rule: str, premises: tuple, k: int = 1) -> Steps:
    """The node for `fact` by the move (rule, premises), its premises derived
    in turn; a run counts its second premise k times.  Premises whose |H1|
    does not add up to the fact's are a builder bug."""
    certs = []
    for sub in premises:
        certs.append((yield sub))
    orders = [c.conclusion.h1_order for c in certs]
    if sum(orders) + (k - 1) * orders[-1] != fact.h1_order:
        last = f"{k} * {orders[-1]}" if k > 1 else orders[-1]
        terms = " + ".join(map(str, orders[:-1] + [last]))
        raise InvariantError(f"{rule} move breaks |H1| additivity: {fact.h1_order} != {terms}")
    return Certificate(fact, rule, tuple(certs))


def _steps(view: tuple[str, object], memo: dict, first_move: Callable | None = None) -> Steps:
    """The certificate of the manifold `view` names.  `first_move` gives the
    move of a surgery or Borromean view, which its builder reads off the
    target's convergents.  The enumerators and `tait_det` are looked up by
    their global names on each call."""
    kind, data = view
    if kind == "lens" and data[0] < 1:
        raise HypothesisNotMetError(f"single vertex of weight {data[0]} reached; not certifiable")
    rule = next((rule for rule, holds in _LEAF_AXIOMS.items() if holds(view)), None)
    if rule is not None:
        return Certificate(_fact_of(view), rule)
    if kind == "tree-boundary":
        return (yield from _tree_steps(data, memo))
    move = next(_tait_moves(data)) if kind == "branched-double-cover" else first_move(data)
    return (yield from _first_move(_fact_of(view), *move))


# ---------------------------------------------------------------------------
# Facts of each kind of manifold
# ---------------------------------------------------------------------------


def _fact_of(view: tuple[str, object], **extra: str) -> Fact:
    """The fact naming the manifold `view` names, its |H1| computed from the
    view's data: by `tree_h1`, `tait_det` or the slope numerators.  `extra`
    params (the note of a given L-space) go on surgery facts alone."""
    kind, data = view
    if kind == "lens":
        p, q = data
        return _fact("S3" if p == 1 else f"L({p},{q})", p, kind, p=p, q=q)
    if kind == "connected-sum-lens":
        desc = " # ".join(f"L({p},1)" for p in data)
        return _fact(desc, prod(data), kind, orders=",".join(map(str, data)))
    if kind == "tree-boundary":
        weights, edges = ",".join(map(str, data.weights)), _edge_text(data.edges)
        desc = f"boundary of plumbing tree [{weights}; {edges}]"
        return _fact(desc, data._h1, kind, weights=weights, edges=edges)
    if kind == "branched-double-cover":
        n, edges = data.num_vertices, _edge_text(data.edges)
        desc = f"branched double cover of Tait graph on {n} vertices [{edges}]"
        return _fact(desc, tait_det(data), kind, vertices=n, edges=edges)
    if kind == "surgery":
        knot, slope = data
        text = slope_text(slope)
        return _fact(f"S3_{text}({knot})", slope[0], kind, knot=knot, slope=text, **extra)
    slopes = ",".join(map(slope_text, data))
    desc = "M(1,1,1) = Poincare homology sphere" if slopes == "1,1,1" else f"M({slopes})"
    return _fact(desc, prod(p for p, _ in data), kind, slopes=slopes)


_S3_VIEW = ("lens", (1, 1))  # the checker's view of the three-sphere, see _view
_POINCARE_VIEW = ("borromean", ((1, 1),) * 3)


def _edge_text(edges: tuple[tuple[int, int], ...]) -> str:
    return ",".join(f"{a}-{b}" for a, b in edges)


# ---------------------------------------------------------------------------
# Axioms and rules
# ---------------------------------------------------------------------------


def _is_lens_pair(p: int, q: int) -> bool:
    return 1 <= q <= p and gcd(p, q) == 1


def lens_axiom(p: int, q: int = 1) -> Certificate:
    """L(p, q) is an L-space; 1 <= q <= p and gcd(p, q) = 1.  L(1,1) is S3."""
    if not _is_lens_pair(p, q):
        raise DomainError(f"no lens space L({p},{q}): need 1 <= q <= p and gcd(p, q) = 1")
    return Certificate(_fact_of(("lens", (p, q))), "axiom:lens-space") if p > 1 else sphere_axiom()


def sphere_axiom() -> Certificate:
    return Certificate(_fact_of(_S3_VIEW), "axiom:three-sphere")


def connected_sum_lens_axiom(orders: list[int]) -> Certificate:
    orders = [p for p in orders if p != 1]
    if not orders:
        return sphere_axiom()
    view = ("connected-sum-lens", tuple(orders))
    return Certificate(_fact_of(view), "axiom:connected-sum-of-lens-spaces")


def poincare_sphere_axiom() -> Certificate:
    """The Poincare sphere, M(1,1,1): positive scalar curvature."""
    return Certificate(_fact_of(_POINCARE_VIEW), "axiom:positive-scalar-curvature")


def _slope(x: Rational) -> Slope:
    """A builder's slope as its reduced pair (numerator, denominator).  Like
    `GroupRingElem.mu`, it takes any exact rational and nothing else."""
    if not isinstance(x, Rational):
        raise DomainError(f"slope {x!r} is not an exact rational")
    return x.numerator, x.denominator


def surgery_lspace_axiom(knot: str, slope: Rational) -> Certificate:
    """Caller-supplied fact: the slope-r filling of this knot is an L-space."""
    s = _slope(slope)
    if s[0] <= 0:
        raise DomainError("surgery L-space facts need a positive slope")
    fact = _fact_of(("surgery", (knot, s)), note="lens space")
    return Certificate(fact, "axiom:given-l-space")


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

    @cached_property
    def _h1(self) -> int:
        return tree_h1(self)


def _moved(cls: type, *values):
    """The WeightedTree or TaitGraph with these fields, built without
    re-validation: a single vertex, or what a move derives from a valid one.
    Every tree and Tait move (no loop contracted, no bridge deleted) keeps
    the graph connected."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


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


def _delete_vertex(tree: WeightedTree, v: int) -> WeightedTree:
    keep = [i for i in range(len(tree.weights)) if i != v]
    index = {old: new for new, old in enumerate(keep)}
    return _moved(
        WeightedTree,
        tuple(tree.weights[i] for i in keep),
        tuple((index[a], index[b]) for a, b in tree.edges if v not in (a, b)),
    )


def _set_weight(tree: WeightedTree, v: int, value: int) -> WeightedTree:
    weights = list(tree.weights)
    weights[v] = value
    return _moved(WeightedTree, tuple(weights), tree.edges)


def _blow_down(tree: WeightedTree, v: int) -> WeightedTree:
    """Blow down the weight-1 vertex v: decrement each neighbor and delete v,
    joining its neighbors if it had two (the plumbing move [a,1,b] -> [a-1,b-1])."""
    nbrs = [b if a == v else a for a, b in tree.edges if v in (a, b)]
    out = _delete_vertex(tree, v)
    nbrs = [u - (u > v) for u in nbrs]  # the indices _delete_vertex gives them
    weights = list(out.weights)
    for u in nbrs:
        weights[u] -= 1
    joined = (tuple(nbrs),) if len(nbrs) == 2 else ()
    return _moved(WeightedTree, tuple(weights), out.edges + joined)


def certify_tree(tree: WeightedTree, require_hypothesis: bool = True) -> Certificate:
    """Certificate that the plumbing boundary is a monopole L-space.

    Default hypothesis gate: m(v) >= degree(v) everywhere.  It is strict
    somewhere, because |H1| = 0 is rejected first: with m(v) = degree(v)
    everywhere the form is the signed Laplacian of a tree, which is singular.
    With require_hypothesis=False the gate is skipped and soundness rests on
    the per-node determinant checks alone (used for Seifert stars whose
    centre weight is below its degree); every produced certificate passes
    the independent checker either way.
    """
    if tree._h1 == 0:
        raise HypothesisNotMetError("boundary is not a rational homology sphere (|H1| = 0)")
    if require_hypothesis:
        degree = _degrees(tree)
        slack = [w - d for w, d in zip(tree.weights, degree)]
        if any(s < 0 for s in slack):
            bad = min(range(len(slack)), key=lambda v: slack[v])
            raise HypothesisNotMetError(
                f"vertex {bad} has weight {tree.weights[bad]} < degree {degree[bad]}"
            )
    return _derive(_view_of_tree(tree), _steps, {})


def _view_of_tree(tree: WeightedTree) -> tuple[str, object]:
    """A single vertex of weight w bounds L(w, 1)."""
    if len(tree.weights) == 1:
        return "lens", (tree.weights[0], 1)
    return "tree-boundary", tree


def _tree_move(tree: WeightedTree, degree: list[int], rule: str, v: int) -> tuple | None:
    """The move `rule` at vertex v, or None: a blow-down needs weight 1 and
    degree 1 or 2; a split ("triangle") deletes the leaf v, and decrements it."""
    if rule == "blow-down" and tree.weights[v] == 1 and degree[v] in (1, 2):
        return rule, (_view_of_tree(_blow_down(tree, v)),)
    if rule == "triangle" and degree[v] == 1:
        deleted, decremented = _delete_vertex(tree, v), _set_weight(tree, v, tree.weights[v] - 1)
        return rule, (_view_of_tree(deleted), _view_of_tree(decremented))
    return None


def _tree_moves(tree: WeightedTree) -> Iterator[tuple[str, tuple]]:
    n = len(tree.weights)
    degree = _degrees(tree)
    leaves = [v for v in range(n) if degree[v] == 1]
    for v in leaves + [v for v in range(n) if degree[v] == 2]:
        if tree.weights[v] == 1:
            yield _tree_move(tree, degree, "blow-down", v)
    for v in sorted(leaves, key=lambda v: tree.weights[v]):
        yield _tree_move(tree, degree, "triangle", v)


def _tree_steps(tree: WeightedTree, memo: dict) -> Steps:
    """A tree of two or more vertices.  A rejection names the first split
    that failed, at the lightest leaf.  A split premise's |H1| is read from
    its certificate when the memo holds one."""
    fact = _fact_of(("tree-boundary", tree))
    failure = None

    def order(view: tuple[str, object]) -> int:
        known = memo.get(view)
        if isinstance(known, Certificate):
            return known.conclusion.h1_order
        kind, data = view
        return abs(data[0]) if kind == "lens" else data._h1

    for rule, premises in _tree_moves(tree):
        if rule == "blow-down":
            return (yield from _first_move(fact, rule, premises))
        h0, h1_side = map(order, premises)
        if h0 + h1_side != fact.h1_order or h0 == 0 or h1_side == 0:
            failure = failure or f"{fact.h1_order} != {h0} + {h1_side}"
            continue
        try:
            return (yield from _first_move(fact, rule, premises))
        except HypothesisNotMetError as exc:
            failure = failure or str(exc)
    raise HypothesisNotMetError(
        f"no leaf admits a determinant-positive split; the lightest: {failure}"
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
        # a connected graph has at most |E| + 1 vertices: tested before anything is allocated per vertex
        if self.num_vertices > len(self.edges) + 1 or not _connected_with(self.num_vertices, self.edges):
            raise DomainError("graph is not connected")

    def bridges(self) -> list[int]:
        return [i for i in range(len(self.edges)) if _is_bridge(self, i)]


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


def _is_bridge(graph: TaitGraph, i: int) -> bool:
    """Whether edge i is no loop and its deletion disconnects the graph."""
    a, b = graph.edges[i]
    return a != b and not _connected_with(graph.num_vertices, graph.edges[:i] + graph.edges[i + 1 :])


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
    """Contract edge idx, which is no loop: its larger end becomes the
    smaller, and each vertex above the larger end moves down one."""
    a, b = graph.edges[idx]
    n, gone = graph.num_vertices, max(a, b)
    label = [*range(gone), min(a, b), *range(gone, n - 1)]
    rest = graph.edges[:idx] + graph.edges[idx + 1 :]
    return _moved(TaitGraph, n - 1, tuple((label[x], label[y]) for x, y in rest))


def _delete(graph: TaitGraph, idx: int) -> TaitGraph:
    return _moved(TaitGraph, graph.num_vertices, graph.edges[:idx] + graph.edges[idx + 1 :])


def certify_alternating(graph: TaitGraph) -> Certificate:
    """Certificate for the branched double cover of the alternating link with
    this checkerboard graph, by deletion-contraction on crossings.

    Loops and bridges are nugatory crossings; "reduce" nodes remove them,
    leaving the spanning-tree count and the manifold unchanged.
    Disconnected graphs (split links) are rejected by the TaitGraph
    constructor.
    """
    return _derive(_view_of_graph(graph), _steps, {})


def _view_of_graph(graph: TaitGraph) -> tuple[str, object]:
    """The edgeless graph on one vertex is the unknot's: its cover is S3."""
    if graph.edges:
        return "branched-double-cover", graph
    if graph.num_vertices != 1:
        raise InvariantError("edgeless graph with several vertices")
    return _S3_VIEW


def _tait_move(graph: TaitGraph, rule: str, i: int) -> tuple | None:
    """The move `rule` on edge i, or None: "reduce" deletes a loop or
    contracts a bridge (one connectivity test), "triangle" any other edge."""
    a, b = graph.edges[i]
    bridge = _is_bridge(graph, i)
    if rule == "reduce" and (a == b or bridge):
        return rule, (_view_of_graph(_contract(graph, i) if bridge else _delete(graph, i)),)
    if rule == "triangle" and a != b and not bridge:
        return rule, (_view_of_graph(_contract(graph, i)), _view_of_graph(_delete(graph, i)))
    return None


def _tait_moves(graph: TaitGraph) -> Iterator[tuple[str, tuple]]:
    edges = range(len(graph.edges))
    tried = [("reduce", i) for i in sorted(edges, key=lambda i: graph.edges[i][0] != graph.edges[i][1])]
    tried += [("triangle", i) for i in edges]
    return filter(None, (_tait_move(graph, rule, i) for rule, i in tried))


# ---------------------------------------------------------------------------
# Farey runs
# ---------------------------------------------------------------------------


def _multiple(x: Slope, y0: Slope, y1: Slope) -> int | None:
    """The k with x = y0 + k*y1, numerators and denominators added, or None."""
    (p, q), (p0, q0), (p1, q1) = x, y0, y1
    k, rest = divmod(p - p0, p1) if p1 else divmod(q - q0, q1)
    return k if rest == 0 and q == q0 + k * q1 else None


def _det(y0: Slope, y1: Slope) -> int:
    """p0*q1 - p1*q0: +-1 for Farey neighbours, -1 when y0 is the lower."""
    (p0, q0), (p1, q1) = y0, y1
    return p0 * q1 - p1 * q0


def _farey_runs(target: Slope, stops: set) -> dict[Slope, tuple[Slope, Slope, int]]:
    """The move of each slope met on the way from `target` down to `stops`:
    slope -> (y0, y1, k) with slope = y0 + k*y1, read off the target's
    convergents.

    With partial quotients a_i and c_-2 = 0/1, c_-1 = 1/0, convergent c_i is
    c_(i-2) + a_i*c_(i-1): a run of a_i triangles through the slopes
    c_(i-2) + j*c_(i-1), 0 < j < a_i, each also resting on c_(i-1).  The
    plain Farey descent from the target stops at the first stop among those
    slopes, so the run starts at that stop with k = a_i - j; otherwise it
    starts at c_(i-2), which is met too.  c_(i-1) is always met.  A met
    c_0 = a_0 whose run holds no stop gets no move, and its caller rejects
    it.
    """
    p, q = target
    quotients = []
    while q:
        a, r = divmod(p, q)
        quotients.append(a)
        p, q = q, r
    convergents: list[Slope] = [(0, 1), (1, 0)]  # c_-2, c_-1, then c_i at i + 2
    for a in quotients:
        (p0, q0), (p1, q1) = convergents[-2:]
        convergents.append((p0 + a * p1, q0 + a * q1))
    runs = {}
    reached = {len(quotients) - 1}
    for i in reversed(range(len(quotients))):
        x, y0, y1, a = convergents[i + 2], convergents[i], convergents[i + 1], quotients[i]
        if i not in reached or x in stops:
            continue
        cuts = {_multiple(s, y0, y1): s for s in stops}
        j = max((j for j in cuts if j is not None and 0 < j < a), default=0)
        if j:
            y0 = cuts[j]
        elif i == 0:
            continue
        runs[x] = y0, y1, a - j
        reached.update((i - 1,) if j else (i - 1, i - 2))
    return runs


def _farey_move(
    y0: Slope, y1: Slope, k: int, view: Callable[[Slope], tuple], det: int | None = None
) -> tuple:
    """The move y0 + k*y1: a run for k >= 2, else a triangle, its lower
    slope first; det is _det(y0, y1) when the caller has it."""
    if k == 1 and (_det(y0, y1) if det is None else det) > 0:
        y0, y1 = y1, y0
    return ("triangle-run" if k > 1 else "triangle"), (view(y0), view(y1)), k


# ---------------------------------------------------------------------------
# Slope propagation
# ---------------------------------------------------------------------------


def _surgery_view(knot: str, s: Slope) -> tuple[str, object]:
    return _S3_VIEW if s == (1, 0) else ("surgery", (knot, s))


def _slope_moves(data: tuple[str, Slope], runs: dict) -> tuple:
    knot, s = data
    return _farey_move(*runs[s], lambda y: _surgery_view(knot, y))


def propagate_slope(base: Certificate, target: Rational) -> Certificate:
    """From an L-space filling at slope r, certify the filling at s >= r.

    Chain: lift r to ceil(r) (one named non-triangle node, recorded because
    its justification is homological rather than combinatorial), then one
    node per partial quotient of s, down its convergents (`_farey_runs`),
    each a run or a triangle whose |H1| additivity is the numerator sum.  S3
    is seeded, so `steps` meets surgery views alone.
    """
    end = _slope(target)
    base_text, knot = base.conclusion.param("slope"), base.conclusion.param("knot")
    if base_text is None or knot is None:
        raise DomainError("base certificate does not describe a surgery")
    start = p, q = slope_pair(base_text)
    if p <= 0:
        raise DomainError("slope propagation needs a positive base slope")
    if end[0] * q < p * end[1]:
        raise DomainError(f"target {target} below the base slope {slope_text(start)}")
    lifted = (-(-p // q), 1)
    memo = {_S3_VIEW: sphere_axiom(), _surgery_view(knot, start): base}
    if start != lifted:
        memo[_surgery_view(knot, lifted)] = Certificate(
            _fact_of(("surgery", (knot, lifted))), "rational-to-integer-lift", (base,)
        )
    moves = partial(_slope_moves, runs=_farey_runs(end, {start, lifted, (1, 0)}))

    def steps(view: tuple[str, tuple[str, Slope]], memo: dict) -> Steps:
        p, q = view[1][1]
        if q == 1 and p < lifted[0]:
            raise DomainError(
                f"the Farey descent of {target} reaches {p}, below the base slope {slope_text(start)}"
            )
        return _steps(view, memo, moves)

    return _derive(_surgery_view(knot, end), steps, memo)


# ---------------------------------------------------------------------------
# Borromean surgeries
# ---------------------------------------------------------------------------


def certify_borromean(a: Rational, b: Rational, c: Rational) -> Certificate:
    """Certificate for the (a, b, c) surgery on the Borromean rings, a, b, c >= 1.

    The Poincare sphere M(1,1,1) is the one leaf that is no lens space, and
    equal connected sums are one node wherever they are met.
    """
    xs = tuple(map(_slope, (a, b, c)))
    if any(p < q for p, q in xs):
        raise DomainError("all three slopes must be >= 1")
    # Fractional coordinates descend in order, so only the last has integers
    # after it: it ends at floor(x) and 1/0, the others at floor(x) and floor(x) + 1.
    fractional = [i for i, (_, q) in enumerate(xs) if q != 1]
    runs = {}
    for i in fractional:
        low = xs[i][0] // xs[i][1]
        runs[i] = _farey_runs(xs[i], {(low, 1), (1, 0) if i == fractional[-1] else (low + 1, 1)})
    moves = partial(_borromean_moves, runs=runs)
    return _derive(("borromean", xs), partial(_steps, first_move=moves), {})


def _borromean_moves(xs: tuple[Slope, ...], runs: dict) -> tuple:
    """The first fractional coordinate's run, or, when all three are
    integers, the largest coordinate's run down to 1 (1/0 deletes that
    component of the rings, leaving the connected sum of the other two
    fillings)."""
    fractional = [i for i, (_, q) in enumerate(xs) if q != 1]
    if fractional:
        idx = fractional[0]
        move = runs[idx][xs[idx]]
    else:
        idx = max(range(3), key=lambda i: xs[i][0])  # the first of equal ones
        move = (1, 1), (1, 0), xs[idx][0] - 1
    return _farey_move(*move, lambda y: _borromean_view(xs, idx, y))


def _borromean_view(xs: tuple[Slope, ...], idx: int, x: Slope) -> tuple[str, object]:
    """The view of M(xs) with slope x at coordinate idx.  Slope 1/0 deletes
    that component, which leaves the other two unlinked: the connected sum
    of their fillings, in the form `_view` gives it."""
    if x != (1, 0):
        return "borromean", xs[:idx] + (x,) + xs[idx + 1 :]
    orders = tuple(p for i, (p, _) in enumerate(xs) if i != idx and p != 1)
    return ("connected-sum-lens", orders) if orders else _S3_VIEW


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
    leg = hj_expand((n - 6, n - 8))  # coprime: n is odd
    return star_tree(2, [[2], [4], leg])


def certify_pretzel_surgeries(n: int, target: Rational) -> Certificate:
    """Certificate that slope-s fillings (s >= 2n+4) of the (-2, 3, n)
    pretzel knot are L-spaces.  The star's order is asserted to be 2n+4,
    which pins the plumbing orientation convention."""
    p, q = _slope(target)
    tree = pretzel_star(n)
    if tree._h1 != 2 * n + 4:
        raise InvariantError(
            f"pretzel star for n={n} has |H1| = {tree._h1}, expected {2 * n + 4}"
        )
    if p < (2 * n + 4) * q:
        raise DomainError(f"target {target} below the certified slope {2 * n + 4}")
    tree_cert = certify_tree(tree, require_hypothesis=(n == 7))
    knot = f"(-2,3,{n})-pretzel"
    base_fact = _fact_of(("surgery", (knot, (2 * n + 4, 1))))
    base = Certificate(base_fact, "seifert-filling-identification", (tree_cert,))
    return propagate_slope(base, target)


# ---------------------------------------------------------------------------
# Independent checker
# ---------------------------------------------------------------------------


class CertificateCheckError(InvariantError):
    """A certificate failed re-verification."""


def check_certificate(cert: Certificate) -> int:
    """Re-verify every distinct node once; returns the tree-expanded node
    count, in which a run counts as one node.

    Each fact is rebuilt from its own data (|H1| by tree_h1, tait_det or the
    slope numerators), and each node's premises must be exactly the move its
    rule names.  An error names the failing node by its id in the node table
    `Certificate.to_json_dict` writes (and `from_json_dict` requires).
    """
    nodes = _topological(cert)
    views: dict[int, tuple[str, object]] = {}
    for i, node in enumerate(nodes):
        try:
            view = _view(node.conclusion)
            _check_rule(node, view, [views[id(p)] for p in node.premises])
        except (CertificateCheckError, ValueError) as exc:
            raise CertificateCheckError(f"node {i} ({node.rule}): {exc}") from None
        views[id(node)] = view
    return _tree_count(nodes)


def _param(fact: Fact, key: str, read: Callable[[str], object] = str):
    """The param `key`, read by `read`; text it cannot read names the kind and the param."""
    value = fact.param(key)
    if value is None:
        raise CertificateCheckError(f"{fact.kind} fact lacks the parameter {key!r}")
    try:
        return read(value)
    except ValueError:
        raise CertificateCheckError(f"{fact.kind} fact has a malformed parameter {key!r}") from None


def _ints(text: str, sep: str = ",") -> tuple[int, ...]:
    return tuple(map(int, text.split(sep)))


def _edges(text: str) -> tuple[tuple[int, int], ...]:
    edges = tuple(_ints(edge, "-") for edge in text.split(",") if text)
    if any(len(edge) != 2 for edge in edges):
        raise ValueError("an edge joins two vertices")
    return edges


def _view(fact: Fact) -> tuple[str, object]:
    """(kind, data): the manifold a fact names, rebuilt from its params.

    The fact must equal the fact built afresh from that data, so its
    descriptor and |H1| are recomputed, not trusted.
    """
    kind = fact.kind
    if kind == "lens":
        data = (_param(fact, "p", int), _param(fact, "q", int))
        if not _is_lens_pair(*data):
            raise CertificateCheckError(f"no lens space L{data}")
    elif kind == "connected-sum-lens":
        data = _param(fact, "orders", _ints)
        if min(data) < 2:
            raise CertificateCheckError("connected-sum orders must be >= 2")
    elif kind == "tree-boundary":
        data = WeightedTree(_param(fact, "weights", _ints), _param(fact, "edges", _edges))
    elif kind == "branched-double-cover":
        data = TaitGraph(_param(fact, "vertices", int), _param(fact, "edges", _edges))
    elif kind == "surgery":
        data = (_param(fact, "knot"), slope_pair(_param(fact, "slope")))
    elif kind == "borromean":
        data = tuple(map(slope_pair, _param(fact, "slopes").split(",")))
        if len(data) != 3 or any(p < q for p, q in data):
            raise CertificateCheckError("Borromean surgeries need three slopes >= 1")
    else:
        raise CertificateCheckError(f"unknown kind of manifold {kind!r}")
    note = fact.param("note") if kind == "surgery" else None
    rebuilt = _fact_of((kind, data), **({} if note is None else {"note": note}))
    if rebuilt != fact:
        raise CertificateCheckError(
            f"fact {fact.descriptor!r} with |H1| = {fact.h1_order} does not match "
            f"its data, which give {rebuilt.descriptor!r} with |H1| = {rebuilt.h1_order}"
        )
    return kind, data


# leaf axiom -> whether a view is an instance; builders and checker alike
_LEAF_AXIOMS: dict[str, Callable[[tuple[str, object]], bool]] = {
    "axiom:lens-space": lambda view: view[0] == "lens" and view != _S3_VIEW,
    "axiom:three-sphere": lambda view: view == _S3_VIEW,
    "axiom:connected-sum-of-lens-spaces": lambda view: view[0] == "connected-sum-lens",
    "axiom:positive-scalar-curvature": lambda view: view == _POINCARE_VIEW,
}
_AXIOMS = {**_LEAF_AXIOMS, "axiom:given-l-space": lambda view: view[0] == "surgery"}


_ARITY = {"triangle": 2, "triangle-run": 2, "blow-down": 1, "reduce": 1,
          "rational-to-integer-lift": 1, "seifert-filling-identification": 1}


def _check_rule(node: Certificate, view: tuple[str, object], premises: list) -> None:
    rule, fact = node.rule, node.conclusion
    kind, data = view
    note = "lens space" if rule == "axiom:given-l-space" else None  # as `surgery_lspace_axiom` writes it
    if fact.param("note") != note:
        raise CertificateCheckError(f"the note must be {note!r}" if note else "only a given L-space has a note")
    if rule.startswith("axiom:"):
        if premises:
            raise CertificateCheckError("axiom node with premises")
        allowed = _AXIOMS.get(rule)
        if allowed is None:
            raise CertificateCheckError(f"unknown axiom {rule!r}")
        if not allowed(view):
            raise CertificateCheckError(f"{fact.descriptor!r} is not an instance of this axiom")
        return
    arity = _ARITY.get(rule)
    if arity is None:
        raise CertificateCheckError(f"unknown rule {rule!r}")
    if len(premises) != arity:
        raise CertificateCheckError(f"{rule} node needs {arity} premise(s), has {len(premises)}")
    orders = [p.conclusion.h1_order for p in node.premises]
    if rule == "triangle" and fact.h1_order != sum(orders):
        raise CertificateCheckError(
            f"additivity fails: {fact.h1_order} != {orders[0]} + {orders[1]}"
        )
    if rule in ("blow-down", "reduce", "seifert-filling-identification") and orders[0] != fact.h1_order:
        raise CertificateCheckError(f"{rule} must preserve |H1|")
    moves = _NAMED_MOVES[kind](data, rule, premises) if kind in _NAMED_MOVES else ()
    move = next((m for m in moves if m and m[:2] == (rule, tuple(premises))), None)
    if move is None:
        raise CertificateCheckError(f"the premises are not a {rule} move on this {kind} node")
    if rule == "triangle-run" and fact.h1_order != orders[0] + move[2] * orders[1]:
        raise CertificateCheckError(
            f"additivity fails: {fact.h1_order} != {orders[0]} + {move[2]} * {orders[1]}"
        )


def _first_change(old: tuple, new: tuple) -> list[int]:
    """[the first index of `old` at which `new` differs], or [] if there is none."""
    return next(([i] for i in range(len(old)) if i >= len(new) or old[i] != new[i]), [])


def _named_tree_moves(tree: WeightedTree, rule: str, premises: list) -> Iterable[tuple | None]:
    """A split at the leaf the second premise decrements, or a blow-down at each weight-1 vertex."""
    kind, lowered = premises[-1]
    if rule == "triangle":
        vertices = _first_change(tree.weights, lowered.weights) if kind == "tree-boundary" else []
    else:
        vertices = [v for v in range(len(tree.weights)) if tree.weights[v] == 1]
    degree = _degrees(tree)
    return (_tree_move(tree, degree, rule, v) for v in vertices)


def _named_tait_moves(graph: TaitGraph, rule: str, premises: list) -> Iterable[tuple | None]:
    """The move on the first edge a deletion, the last premise, lacks, or on
    each edge in turn when that premise is a contraction or S3."""
    kind, minor = premises[-1]
    edges = range(len(graph.edges))
    if kind == "branched-double-cover" and minor.num_vertices == graph.num_vertices:
        edges = _first_change(graph.edges, minor.edges)
    return (_tait_move(graph, rule, i) for i in edges)


def _farey_step(x: Slope, slopes: list, view: Callable[[Slope], tuple]) -> tuple | None:
    """The move x = y0 + k*y1, k >= 1, between two premises' neighbouring slopes y0, y1."""
    if len(slopes) != 2 or None in slopes or abs(det := _det(*slopes)) != 1:
        return None
    k = _multiple(x, *slopes)
    return _farey_move(*slopes, k, view, det) if k is not None and k > 0 else None


def _named_surgery_moves(data: tuple[str, Slope], rule: str, premises: list) -> Iterable[tuple | None]:
    """The lift of the premise's slope r to ceil(r), the pretzel star of the
    knot, or the Farey step between the premises' slopes, 1/0 being S3."""
    knot, s = data
    slopes = [view[1][1] if view[0] == "surgery" else (1, 0) for view in premises]
    (p, q), (kind, tree) = slopes[0], premises[0]
    if rule == "rational-to-integer-lift" and q > 1 and s == (-(-p // q), 1):
        return [(rule, (_surgery_view(knot, (p, q)),))]
    if rule == "seifert-filling-identification" and kind == "tree-boundary":
        n = 2 * len(tree.weights) + 1  # the star of n has (n - 1)/2 vertices, so its cost is the premise's
        if knot == f"(-2,3,{n})-pretzel" and s == (2 * n + 4, 1):
            return [(rule, (_view_of_tree(pretzel_star(n)),))]
    return [_farey_step(s, slopes, partial(_surgery_view, knot))]


def _named_borromean_moves(xs: tuple[Slope, ...], rule: str, premises: list) -> Iterable[tuple | None]:
    """The Farey step between the premises' slopes at the first coordinate
    the first Borromean premise changes, 1/0 read only where the other two
    are integers, as the builder makes it."""
    for idx in next((_first_change(xs, data) for kind, data in premises if kind == "borromean"), []):
        integral = all(q == 1 for i, (_, q) in enumerate(xs) if i != idx)
        slopes = [view[1][idx] if view[0] == "borromean" else (1, 0) if integral else None
                  for view in premises]
        yield _farey_step(xs[idx], slopes, partial(_borromean_view, xs, idx))


# kind of conclusion -> the moves a node's premises name: (rule, premise views[, k]) or None
_NAMED_MOVES: dict[str, Callable[[object, str, list], Iterable[tuple | None]]] = {
    "tree-boundary": _named_tree_moves,
    "branched-double-cover": _named_tait_moves,
    "surgery": _named_surgery_moves,
    "borromean": _named_borromean_moves,
}


def certificate_json(cert: Certificate) -> str:
    """The certificate's format-2 node table as one line of JSON."""
    return json.dumps(cert.to_json_dict(), sort_keys=True)
