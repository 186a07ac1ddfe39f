"""Negative-definite linear plumbing lattices and characteristic-vector maxima.

The chain lattice of an expansion [a_1..a_n] has Gram matrix -a_i on the
diagonal and 1 on the off-diagonals.  For each of the p = |det| classes of
characteristic covectors we maximize K^T G^{-1} K exactly; the multiset of
(max + n) over all classes is an oracle for 4 * d_rec over all labels, and
`lattice_vs_recursion_check` reports whether the two multisets agree.

The maximization works in the coordinates y = p G^{-1} K (integral), where
the quadratic form is local along the chain:

    y^T G y = -(a_1 - 1) y_1^2 - sum (y_i - y_{i+1})^2
              - sum_interior (a_i - 2) y_i^2 - (a_n - 1) y_n^2.

The start vector y_0 = p G^{-1} K_0 comes from the continuants in O(n), with
no matrix.  The maximum over the class, y in y_0 + 2p Z^n, is taken on the
kept vertices, the two ends and every interior a_i >= 3; `_kept_chain`
gives their weights and their indices in the chain.  Two consecutive kept
indices u < v are joined by a run of m = v - u unit edges through vertices
with a_i = 2, which have weight 0, and there y_(i-1) - 2 y_i + y_(i+1) =
p K_i with K_i even, so every edge difference y_i - y_(i+1) along the run
lies in one class delta + 2p Z, delta = y_u - y_(u+1) (the run
congruence).  The run is one edge whose cost at T = y_u - y_v is the least
sum of squares of m such differences adding up to T.  The most even split
attains it: with T - m delta = 2p (m b + r) and 0 <= r < m, it costs
(m - r) x^2 + r (x + 2p)^2 for x = delta + 2p b, and T^2 when m = 1.  A run
whose T - m delta is not a multiple of 2p is an invariant error.
`_check_runs` checks the runs and gives each edge's (m, delta mod 2p),
which is all the search reads of y off the kept vertices.

The maximum on the kept vertices is found by steepest ascent: over the box
of the three coset points y_i - 2p, y_i, y_i + 2p per kept vertex the best
point is a dynamic program along the kept chain with three states per
vertex and five edge costs per step.  A unit edge (m = 1) costs the squares
(d + 2pk)^2, k = -2..2, which the DP forms itself; only a run goes through
the even split.  The run cost is convex in T, so the form is
L-natural-concave in the coset coordinates and a point that is best in its
own box is a global maximum (`_ascent` gives the argument).  Every entry
a_i >= 3 at least doubles the continuant, so there are at most
log2(p) + 2 kept vertices, and an ascent costs O(log p) per box whatever
the chain's length.  The DP keeps the current point on a tie, so an ascent
stops at the first box whose best point is its centre.  `max_char_square`
and the sweep take each class's maximum by one step, `_class_max`: centre
the kept values into (-p, p], the coset point nearest 0, and ascend from
there; from that start every ascent measured is one DP, which confirms
the start.  Every arithmetic step is integer arithmetic.

`lattice_vs_recursion_check` sweeps the classes once per lattice.  It
computes the continuants and the kept chain once, and the continuants check
the chain: a_1 - 1/(a_2 - ...) is theta_n / phi_(n-1) up to sign, in lowest
terms, so the chain must be normalized with |theta_n| = p and
|phi_(n-1)| = q, or the check is an invariant error naming L(p,q).  A
determinant alone would pass the chain of another q with the same p, such as
that of 13/10 for L(13,4).  Class c = 0..p-1 is represented by K_0 + 2c e_1,
and the start vector is linear in K, so class c starts at y_0 + c step,
where step is the start vector of 2 e_1; no per-class representative is
built.  The run congruence and each run's delta mod 2p are linear in the
start vector, so `_check_runs` on the two generators' classes 0 (y_0) and
1 (y_0 + step) checks every class and gives class c's deltas
d_0 + c (d_1 - d_0); a break names the class and L(p,q).  Per class only
the kept values and the run deltas are formed, since a run's cost depends
on its delta mod 2p only, so the sweep costs O(p log p) for every q.

A class's value is a key, the integer p * (max K^2 + n), which the sweep and
`max_char_square` alike take from the integer maximum by one step,
`_class_key`: max / p + n p.  p divides the maximum because K^T G^{-1} K
has a denominator dividing p, and a maximum that p does not divide is an
invariant error.  The report holds integer keys only: the class keys in
class order, and the labels' keys 4p d, the scaled d-table, in label order.
`equal` compares the sorted keys, and each multiset is written from its
sorted keys as k / p in lowest terms; no Fraction is built here.

Conjugation K -> -K maps characteristic covectors to characteristic
covectors and y to -y, and the form has Q(-y) = Q(y), so conjugate classes
have equal maxima.  With y_c = y_0 + c step, class c is conjugate to class
(s - c) mod p, where 2 y_0 + s step = 0 (mod 2p); the last entry of step is
+-2, so it fixes s, and the sweep checks the whole congruence once.  The
ascent then runs once per conjugate pair, for the class with the smaller
index, and only those classes get a start vector: (p + 1) / 2 of them for
odd p, at most p / 2 + 1 for even p.

One continuant recurrence serves the determinant, the start vectors and the
class representatives; `_start_vector` alone states the closed-form adjugate
they rely on.  The adjugate itself, class membership, a brute-force box
search for the maxima, the run cost by enumerating splits and the check
built class by class through `max_char_square` are test oracles, kept apart
from this module in tests/lattice_oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError, InvariantError
from .exactnum import hj_eval, hj_expand, is_normalized_hj
from .lensdi import LensSpace, scaled_d_table
from .lensdi import d_table  # noqa: F401  perfbench/tracing.py wraps it at this name


def _continuants(terms: tuple[int, ...]) -> list[int]:
    """Leading principal minors theta_0 = 1, theta_1, ..., theta_n of the chain's
    Gram matrix: theta_k = -a_k theta_(k-1) - theta_(k-2)."""
    theta = [0, 1]
    for a in terms:
        theta.append(-a * theta[-1] - theta[-2])
    return theta[1:]


@dataclass(frozen=True)
class Lattice:
    terms: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.terms)

    def determinant(self) -> int:
        return _continuants(self.terms)[-1]


@dataclass(frozen=True)
class CharClass:
    """A characteristic covector class, held by one representative vector."""

    lattice: Lattice
    rep: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rep) != self.lattice.rank:
            raise DomainError("representative length does not match lattice rank")
        for k, a in zip(self.rep, self.lattice.terms):
            if (k - a) % 2 != 0:
                raise DomainError(f"vector {self.rep} is not characteristic")


def lattice_from_hj(terms: list[int] | tuple[int, ...]) -> Lattice:
    """Chain lattice of a normalized expansion; |det| must equal the numerator."""
    terms = tuple(terms)
    if not is_normalized_hj(list(terms)):
        raise DomainError(f"not a normalized expansion: {terms}")
    # A normalized chain is negative definite, so nothing checks it: s_k =
    # (-1)^k theta_k has s_0 = 1, s_1 = a_1 >= 1 and s_k - s_(k-1) =
    # (a_k - 2) s_(k-1) + (s_(k-1) - s_(k-2)) >= 0, so every s_k >= 1.
    det = abs(_continuants(terms)[-1])
    p = hj_eval(list(terms))[0]
    if det != p:
        raise InvariantError(f"|det| = {det} != numerator {p} for {terms}")
    return Lattice(terms)


def char_classes(lat: Lattice) -> list[CharClass]:
    """One representative per class; there are exactly |det| classes.

    Representatives are K_0 + 2c * e_1 for c = 0..p-1: e_1 generates the
    cyclic discriminant group because the cofactor adj[n-1][0] =
    (-1)^(n-1) theta_0 phi_0 is +-1 (closed form in `_start_vector`).
    """
    p = abs(lat.determinant())
    base = [-a for a in lat.terms]
    out = []
    for c in range(p):
        rep = list(base)
        rep[0] += 2 * c
        out.append(CharClass(lat, tuple(rep)))
    return out


def _start_vector(theta: list[int], phi: list[int], rep: tuple[int, ...]) -> list[int]:
    """y0 = sign(det) adj K in O(n) from the continuants, without the adjugate.

    With theta_k the leading principal minors of G (theta_0 = 1) and phi_k
    those of the reversed chain, det = theta_n and the adjugate has the
    closed form adj[i][j] = (-1)^(i+j) theta_min(i,j) phi_(n-1-max(i,j))
    for 0-based i, j (Usmani, "Inversion of a tridiagonal Jacobi matrix",
    1994), so

        (adj K)_i = (-1)^i (theta_i sum_(j>=i) (-1)^j phi_(n-1-j) K_j
                            + phi_(n-1-i) sum_(j<i) (-1)^j theta_j K_j).
    """
    n = len(rep)
    tail = [0] * (n + 1)  # tail[i] = sum_(j>=i) (-1)^j phi_(n-1-j) K_j
    for j in range(n - 1, -1, -1):
        v = phi[n - 1 - j] * rep[j]
        tail[j] = tail[j + 1] + (-v if j % 2 else v)
    sign = 1 if theta[n] > 0 else -1
    head = 0  # sum_(j<i) (-1)^j theta_j K_j
    y0 = []
    for i in range(n):
        v = theta[i] * tail[i] + phi[n - 1 - i] * head
        y0.append(-sign * v if i % 2 else sign * v)
        v = theta[i] * rep[i]
        head += -v if i % 2 else v
    return y0


def _run_costs(d: int, step: int, m: int, delta: int) -> list[int]:
    """f(d + k step) for k = -2..2, where f(T) is the least sum of squares of
    m integers in delta + step Z that add up to T; step divides d - m delta.

    The most even split is best: with T = m delta + e step and e = m b + r,
    0 <= r < m, it has m - r parts x = delta + b step and r parts x + step,
    and (m - r) x^2 + r (x + step)^2 = (T^2 + step^2 r (m - r)) / m, which
    is T^2 for m = 1.
    """
    e = (d - m * delta) // step - 2  # T = d - 2 step is m delta + e step
    ss = step * step
    t = d - 2 * step
    costs = []
    for _ in range(5):
        r = e % m
        costs.append((t * t + ss * r * (m - r)) // m)
        t += step
        e += 1
    return costs


def _box_max(
    w: list[int], y: list[int], step: int, runs: list[tuple[int, int]]
) -> tuple[int, list[int]]:
    """max of -sum w_i z_i^2 - sum f_i(z_i - z_(i+1)) over the box of z with
    each z_i in {y_i - step, y_i, y_i + step}, and a z attaining it, which is
    y itself whenever y attains it.

    The edge from vertex i to i+1 is a run of m unit edges, (m, delta) =
    runs[i], and f_i is its cost: T^2 for a unit edge (m = 1), whatever
    delta is, and `_run_costs` for a run, whose differences lie in
    delta + step Z, with step dividing y_i - y_(i+1) - m delta.  A dynamic
    program along the chain over the three states of each vertex, state 1
    being z_i = y_i.  Between vertices i-1 and i the nine differences
    z_(i-1) - z_i are d + k step for d = y_(i-1) - y_i and k = -2..2, so
    five edge costs give the nine candidate values.  Each state keeps the
    best of its three predecessors, taking state 1 first, then 0, then 2, so
    that state 1 wins a tie, and at the last vertex state 1 wins a tie too.

    So y is returned exactly when it attains the maximum.  Suppose it does.
    No path ending at z_i = y_i is better than y's prefix to i, or it would
    make, with y's suffix from i on, a point better than y; so state 1 of
    every vertex has y's prefix value, which predecessor state 1 attains, and
    the backtrack, from state 1 at the last vertex, stays on state 1.
    Conversely a returned y attains the maximum.
    """
    lo, mid, hi = y[0] - step, y[0], y[0] + step
    a = w[0]
    s0, s1, s2 = -a * lo * lo, -a * mid * mid, -a * hi * hi
    back = []  # the best predecessor state of states 0, 1, 2 of each vertex after the first
    for v, a, (m, delta) in zip(y[1:], w[1:], runs):
        d = mid - v
        if m == 1:
            dm, dp = d - step, d + step
            qmm, qm, q0, qp, qpp = (dm - step) ** 2, dm * dm, d * d, dp * dp, (dp + step) ** 2
        else:
            qmm, qm, q0, qp, qpp = _run_costs(d, step, m, delta)
        lo, mid, hi = v - step, v, v + step
        # state 0 (z_i = lo) from states 1, 0, 2 of vertex i-1
        t0, e0 = s1 - qp, 1
        if s0 - q0 > t0:
            t0, e0 = s0 - q0, 0
        if s2 - qpp > t0:
            t0, e0 = s2 - qpp, 2
        # state 1 (z_i = mid)
        t1, e1 = s1 - q0, 1
        if s0 - qm > t1:
            t1, e1 = s0 - qm, 0
        if s2 - qp > t1:
            t1, e1 = s2 - qp, 2
        # state 2 (z_i = hi)
        t2, e2 = s1 - qm, 1
        if s0 - qmm > t2:
            t2, e2 = s0 - qmm, 0
        if s2 - q0 > t2:
            t2, e2 = s2 - q0, 2
        s0, s1, s2 = t0 - a * lo * lo, t1 - a * mid * mid, t2 - a * hi * hi
        back += e0, e1, e2
    best, state = s1, 1
    if s0 > best:
        best, state = s0, 0
    if s2 > best:
        best, state = s2, 2
    point = [y[-1] + (state - 1) * step]
    for i in range(len(y) - 2, -1, -1):
        state = back[3 * i + state]
        point.append(y[i] + (state - 1) * step)
    return best, point[::-1]


def _kept_chain(terms: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The kept vertices of a normalized chain, the two ends and every
    interior a_i >= 3: their weights w_i, a_i less the number of chain
    neighbours of vertex i, and their indices in the chain.  Two consecutive
    indices u < v are joined by a run of m = v - u unit edges through
    vertices of weight 0, the interior a_i = 2.  It depends on the lattice
    alone."""
    n = len(terms)
    keep = [i for i, a in enumerate(terms) if a > 2 or i == 0 or i == n - 1]
    return [terms[i] - (i > 0) - (i < n - 1) for i in keep], keep


def _check_runs(y: list[int], keep: list[int], step: int) -> list[tuple[int, int]]:
    """Each edge of the kept chain at the chain vector y as (m, delta mod
    step): a run of m = v - u unit edges between consecutive kept indices
    u < v whose differences lie in the class of delta = y_u - y_(u+1).
    Along a run (m > 1) T - m delta = 0 (mod step) for T = y_u - y_v, or it
    is an invariant error."""
    runs = []
    for u, v in zip(keep, keep[1:]):
        m, delta = v - u, y[u] - y[u + 1]
        if m > 1 and (y[u] - y[v] - m * delta) % step:
            raise InvariantError(
                f"a run of {m} edges has differences in two classes mod {step}"
            )
        runs.append((m, delta % step))
    return runs


def _ascent(kept: list[int], y: list[int], step: int, runs: list[tuple[int, int]]) -> int:
    """The maximum of the kept chain's form over y + step Z^k: move to the
    best point of the box around the current one until that is the current
    point.

    On the whole chain y^T G y = -sum w_i y_i^2 - sum (y_i - y_(i+1))^2,
    and w_i >= 0 for a normalized expansion.  A run of m unit edges between
    kept vertices u and v, through m - 1 vertices of weight 0, costs the
    least sum of squares of m differences in one class delta + step Z with
    total T = y_u - y_v (`_run_costs`), since its interior is free; that is
    convex in T, being an infimal convolution of m convex functions.  So in
    the coordinates y = y_start + step k the kept chain's form is a sum of
    concave functions of single k_i and of differences k_i - k_(i+1), that
    is an L-natural-concave function of k, and such a function is maximal
    at k as soon as no k + chi_S and no k - chi_S (chi_S a 0/1 vector) is
    larger (Murota, "Discrete Convex Analysis", SIAM 2003, ch. 7).  Those
    points all lie in the box k +- 1, so the ascent climbs from box to box.
    `_box_max` returns the current point whenever it is a best point of its
    box, so a move is strictly uphill; the form is definite, so the ascent
    ends.  From the centred start of `_class_max` every ascent measured
    (every coprime p < 120, and a sample up to p = 400 and at the CLI cap)
    ends at its first box: one DP that confirms the start.
    """
    while True:
        best, z = _box_max(kept, y, step, runs)
        if z == y:
            return best
        y = z


def _class_max(kept: list[int], y: list[int], p: int, runs: list[tuple[int, int]]) -> int:
    """max of y^T G y over the class of a start vector, exact: y holds the
    start's values at the kept vertices, and runs its `_check_runs` edges.
    The ascent starts at the coset point nearest 0 in every coordinate, in
    (-p, p]: (v + p - 1) mod 2p - (p - 1)."""
    step = 2 * p
    return _ascent(kept, [(v + p - 1) % step - (p - 1) for v in y], step, runs)


def _class_key(top: int, p: int, n: int, where: str) -> int:
    """The key p * (max K^2 + n) of a class whose maximum of y^T G y is
    `top`: top / p + n p, since K^T G^{-1} K = y^T G y / p^2.  p divides
    `top`, or the maximum has a denominator off the 1/p grid, an invariant
    error naming `where`, the class."""
    key, rest = divmod(top, p)
    if rest:
        raise InvariantError(f"max K^2 of {where} has a denominator not dividing {p}")
    return key + n * p


def max_char_square(lat: Lattice, cls: CharClass) -> int:
    """The class's key p * (max K^T G^{-1} K + rank), p = |det|: p times the
    exact maximum, an integer (`_class_key`)."""
    if cls.lattice != lat:
        raise DomainError("class does not belong to this lattice")
    if not is_normalized_hj(list(lat.terms)):
        raise DomainError(f"not a normalized expansion: {lat.terms}")
    theta = _continuants(lat.terms)
    phi = _continuants(lat.terms[::-1])
    p = abs(theta[-1])
    kept, keep = _kept_chain(lat.terms)
    y = _start_vector(theta, phi, cls.rep)
    top = _class_max(kept, [y[i] for i in keep], p, _check_runs(y, keep, 2 * p))
    return _class_key(top, p, lat.rank, f"the class {cls.rep} of {lat.terms}")


@dataclass(frozen=True)
class LatticeCheckReport:
    """Both sides of the check as integer keys, p times each value: p (max K^2
    + n) per class in class order, 4p d per label in label order.  Each
    multiset of values is its keys sorted, each key k standing for k / p."""

    p: int
    q: int
    equal: bool
    class_keys: tuple[int, ...]
    label_keys: tuple[int, ...]

    def to_json_dict(self) -> dict:
        def texts(keys: tuple[int, ...]) -> list[str]:  # "num/den" reduced, "/1" kept
            return [f"{k // g}/{self.p // g}" for k in sorted(keys) for g in (gcd(k, self.p),)]

        return {
            "p": self.p,
            "q": self.q,
            "lattice_multiset": texts(self.class_keys),
            "recursion_multiset": texts(self.label_keys),
            "equal": self.equal,
        }


def lattice_vs_recursion_check(p: int, q: int) -> LatticeCheckReport:
    """Compare {max K^2 + n over classes} with {4 d_rec(L(p,q), i) over labels}.

    Each conjugate pair of classes c and (s - c) mod p is maximized once, at
    the smaller index, and both get its key; a chain whose continuants are
    not p and q, a start vector that breaks the pairing congruence, or one
    whose run differences fall in two classes mod 2p, is an invariant error
    naming L(p,q).  A mismatch is reported, not raised.  The kept chain is
    built once, and the report keeps each class's key,
    p * (max K^2 + n), in class order, and the scaled d-table.
    """
    if not (0 < q < p) or gcd(p, q) != 1:
        raise DomainError(f"need coprime 0 < q < p, got ({p}, {q})")
    terms = hj_expand((p, q))
    n = len(terms)
    theta = _continuants(terms)
    phi = _continuants(terms[::-1])
    # a_1 - 1/(a_2 - ...) = theta_n / phi_(n-1) up to sign, a reduced fraction
    # (consecutive continuants are coprime): the chain is that of p/q exactly
    # when |theta_n| = p and |phi_(n-1)| = q.
    if not is_normalized_hj(terms) or abs(theta[n]) != p or abs(phi[n - 1]) != q:
        raise InvariantError(f"the chain of L({p},{q}) is not the normalized expansion of {p}/{q}")
    # Class c, K_0 + 2c e_1, starts at y_0 + c step: the start vector is linear in K.
    y0 = _start_vector(theta, phi, tuple(-a for a in terms))
    step = _start_vector(theta, phi, (2,) + (0,) * (n - 1))
    # -y_c = y_0 + (s - c) step (mod 2p) for every c once 2 y_0 + s step = 0
    # (mod 2p); the last entry of step is +-2 (phi_0 = 1), so it fixes s mod p.
    s = -y0[-1] * (step[-1] // 2) % p
    if any((2 * u + s * d) % (2 * p) for u, d in zip(y0, step)):
        raise InvariantError(f"conjugation does not pair the classes of L({p},{q})")
    kept, keep = _kept_chain(terms)
    two_p = 2 * p
    # The run congruence and the run deltas mod 2p are linear in y, so
    # classes 0 and 1, y_0 and y_0 + step, check every y_0 + c step, and
    # class c's deltas are d_0 + c (d_1 - d_0).
    ends = []
    for c, y in enumerate((y0, [u + d for u, d in zip(y0, step)])):
        try:
            ends.append(_check_runs(y, keep, two_p))
        except InvariantError as err:
            raise InvariantError(f"class {c} of L({p},{q}): {err}") from None
    runs = [(m, d, e - d) for (m, d), (_, e) in zip(*ends)]
    base = [y0[i] for i in keep]
    slope = [step[i] for i in keep]
    # Both sides are keyed by the integer p * value: a class's maximum of
    # y^T G y by maximum / p + n p, a label's 4d = N / p by its table entry N.
    class_keys: list[int] = []
    for c in range(p):
        mate = (s - c) % p
        if mate < c:  # Q(-y) = Q(y): the conjugate class has the same maximum
            class_keys.append(class_keys[mate])
            continue
        y = [u + c * d for u, d in zip(base, slope)]
        top = _class_max(kept, y, p, [(m, (d + c * e) % two_p) for m, d, e in runs])
        class_keys.append(_class_key(top, p, n, f"class {c} of L({p},{q})"))
    label_keys = scaled_d_table(LensSpace(p, q))
    return LatticeCheckReport(
        p, q, sorted(class_keys) == sorted(label_keys), tuple(class_keys), label_keys
    )
