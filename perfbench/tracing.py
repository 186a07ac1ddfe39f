"""Spans and counters for the traced run, recorded from the benchmark's side.

`install` replaces each public library function at every name where a
caller looks it up (a consumer module's namespace, a class, or the
benchmark's own `workloads` module) with a wrapper that records a span.
Private helpers are never wrapped and nothing in the package changes.

Functions called once per label or per matrix product (`d_rec`, GF(2)
products and eliminations) are summed per op instead of getting one span
each.  A span's self time is its duration minus its wrapped children.  The
tracer's bookkeeping after each call is left out of every span (it shows in
trace_overhead), so for every op

    op time = harness self time + sum of wrapped self times.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter_ns

OP_SPAN = "harness.op"


class Tracer:
    """Holds spans and per-name totals in memory until `dump`."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open frames: [child_ns, span id, bookkeeping_ns]
        self.depth: defaultdict[str, int] = defaultdict(int)
        self.setup_totals: dict[str, list[int]] = {}  # name -> [calls, outer_ns, self_ns]
        self.op_totals: dict[str, list[int]] = {}
        self.totals = self.setup_totals
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.spans: list[tuple | None] = []  # (id, parent id, op, name, start, end)
        self.summed: dict[tuple, list[int]] = {}  # (op, name) -> [calls, ns]
        self.op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def run_op(self, index: int, fn):
        """Run one op under its own span; everything after is op phase."""
        self.op = index
        self.totals = self.op_totals
        return self.call(OP_SPAN, False, None, fn, (), {})

    def call(self, name, summed, hook, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        if summed:
            frame = [0, parent[1] if parent else None, 0]
        else:
            frame = [0, len(self.spans), 0]
            self.spans.append(None)
        stack.append(frame)
        self.depth[name] += 1
        start = perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.depth[name] -= 1
            duration = end - start
            totals = self.totals.get(name)
            if totals is None:
                totals = self.totals[name] = [0, 0, 0]
            totals[0] += 1
            if not self.depth[name]:
                totals[1] += duration - frame[2]
            totals[2] += duration - frame[0]
            if summed:
                agg = self.summed.setdefault((self.op, name), [0, 0])
                agg[0] += 1
                agg[1] += duration
            else:
                self.spans[frame[1]] = (
                    frame[1], parent[1] if parent else None, self.op, name, start, end
                )
            if hook is not None and result is not None:
                hook(result, self.counters)
            if parent is not None:
                done = perf_counter_ns()
                parent[0] += done - start
                parent[2] += frame[2] + done - end

    def wrap(self, owner, attr: str, name: str, summed=False, hook=None) -> None:
        fn = getattr(owner, attr)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, summed, hook, fn, args, kwargs)

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        doc = {
            "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "summed_fields": ["op", "name", "calls", "ns"],
            "summed": [[op, name, *agg] for (op, name), agg in self.summed.items()],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


def certificate_shape(cert) -> tuple[int, int, int]:
    """(tree nodes, distinct node objects, depth), walked without recursion."""
    size: dict[int, int] = {}
    depth: dict[int, int] = {}
    stack = [(cert, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in size:
            continue
        if expanded:
            size[key] = 1 + sum(size[id(p)] for p in node.premises)
            depth[key] = 1 + max((depth[id(p)] for p in node.premises), default=0)
        else:
            stack.append((node, True))
            stack.extend((p, False) for p in node.premises if id(p) not in size)
    return size[id(cert)], len(size), depth[id(cert)]


def _count_len(counter: str):
    def hook(result, counters):
        counters[counter] += len(result)
    return hook


def _count_labels(table, counters) -> None:
    counters["lensdi.d_table.labels"] += len(table.values)


def _count_certificate(cert, counters) -> None:
    nodes, distinct, depth = certificate_shape(cert)
    counters["lspacecert.nodes"] += nodes
    counters["lspacecert.distinct_nodes"] += distinct
    counters["lspacecert.depth"] = max(counters["lspacecert.depth"], depth)


def _count_bytes(text, counters) -> None:
    counters["lspacecert.json_bytes"] += len(text)  # json.dumps output is ASCII


def install(tracer: Tracer, bench) -> None:
    """Wrap every traced function; `bench` is the benchmark's workloads module."""
    from lenslab import alexobstruct, exactnum, lspacecert, plumblat
    from lenslab.f2homalg import complexes, gf2

    wrap = tracer.wrap
    wrap(bench, "candidate_polynomials", "alexobstruct.candidate_polynomials",
         hook=_count_len("alexobstruct.candidates"))
    wrap(alexobstruct, "enumerate_correspondences", "alexobstruct.enumerate_correspondences",
         hook=_count_len("alexobstruct.correspondences"))
    wrap(alexobstruct, "t_vector", "alexobstruct.t_vector")
    wrap(alexobstruct, "alex_from_torsion", "alexobstruct.alex_from_torsion")
    wrap(alexobstruct, "d_rec", "lensdi.d_rec", summed=True)

    wrap(bench, "lattice_vs_recursion_check", "plumblat.lattice_vs_recursion_check")
    for attr in ("lattice_from_hj", "char_classes", "max_char_square"):
        wrap(plumblat, attr, f"plumblat.{attr}")
    for owner in (bench, plumblat):
        wrap(owner, "d_table", "lensdi.d_table", hook=_count_labels)
    # lattice_vs_recursion_check imports hj_expand from exactnum at call time
    for owner in (exactnum, lspacecert):
        wrap(owner, "hj_expand", "exactnum.hj_expand")
    wrap(lspacecert, "farey_parents", "exactnum.farey_parents")

    for attr in ("propagate_slope", "certify_borromean", "certify_alternating", "certify_tree"):
        wrap(bench, attr, "lspacecert.build", hook=_count_certificate)
    wrap(bench, "check_certificate", "lspacecert.check")
    wrap(bench, "certificate_json", "lspacecert.serialise", hook=_count_bytes)

    for owner in (bench, complexes):  # octet_assemble calls octet_verify too
        wrap(owner, "octet_verify", "f2homalg.octet_verify")
    for attr in ("octet_assemble", "cone_verify", "cone_exactness"):
        wrap(bench, attr, f"f2homalg.{attr}")
    for attr in ("random_octet", "random_cone_triple"):
        wrap(bench, attr, "f2homalg.fuzz")
    wrap(gf2.F2Matrix, "__matmul__", "f2homalg.gf2.matmul", summed=True)
    for attr in ("rank", "nullspace"):
        wrap(gf2.F2Matrix, attr, "f2homalg.gf2.elim", summed=True)
    for attr in ("span_basis", "preimage_in_span", "spans_equal"):
        wrap(complexes, attr, "f2homalg.gf2.elim", summed=True)
    wrap(gf2, "span_basis", "f2homalg.gf2.elim", summed=True)


# (metric, unit, better).  A metric "<span>.calls", "<span>.ms" or
# "<span>.self_ms" reads the op-phase totals of that span; ".ms" is busy time
# (outermost calls only, so recursion and nesting are not counted twice).
# Other metrics are counters or the ratios below.  trace_overhead is added by
# run.py.
PER_LAYER = (
    ("lensdi.d_rec.calls", "count", "lower"),
    ("lensdi.d_rec.ms", "ms", "lower"),
    ("lensdi.d_table.calls", "count", "lower"),
    ("lensdi.d_table.labels", "count", "higher"),
    ("lensdi.d_table.ms", "ms", "lower"),
    ("alexobstruct.enumerate_correspondences.ms", "ms", "lower"),
    ("alexobstruct.correspondences", "count", "lower"),
    ("alexobstruct.t_vector.calls", "count", "lower"),
    ("alexobstruct.t_vector.self_ms", "ms", "lower"),
    ("alexobstruct.alex_from_torsion.calls", "count", "lower"),
    ("alexobstruct.alex_from_torsion.ms", "ms", "lower"),
    ("alexobstruct.candidate_polynomials.self_ms", "ms", "lower"),
    ("alexobstruct.candidates", "count", "higher"),
    ("alexobstruct.t_pass_ratio", "ratio", "higher"),
    ("alexobstruct.candidate_yield", "ratio", "higher"),
    ("plumblat.lattice_from_hj.ms", "ms", "lower"),
    ("plumblat.char_classes.ms", "ms", "lower"),
    ("plumblat.max_char_square.calls", "count", "lower"),
    ("plumblat.max_char_square.ms", "ms", "lower"),
    ("plumblat.lattice_vs_recursion_check.self_ms", "ms", "lower"),
    ("exactnum.hj_expand.calls", "count", "lower"),
    ("exactnum.hj_expand.ms", "ms", "lower"),
    ("exactnum.farey_parents.calls", "count", "lower"),
    ("exactnum.farey_parents.ms", "ms", "lower"),
    ("lspacecert.build.ms", "ms", "lower"),
    ("lspacecert.check.ms", "ms", "lower"),
    ("lspacecert.serialise.ms", "ms", "lower"),
    ("lspacecert.nodes", "count", "lower"),
    ("lspacecert.distinct_nodes", "count", "lower"),
    ("lspacecert.distinct_ratio", "ratio", "lower"),
    ("lspacecert.depth", "count", "lower"),
    ("lspacecert.json_bytes", "bytes", "lower"),
    ("f2homalg.octet_verify.ms", "ms", "lower"),
    ("f2homalg.octet_assemble.ms", "ms", "lower"),
    ("f2homalg.cone_verify.ms", "ms", "lower"),
    ("f2homalg.cone_exactness.ms", "ms", "lower"),
    ("f2homalg.gf2.matmul.calls", "count", "lower"),
    ("f2homalg.gf2.matmul.ms", "ms", "lower"),
    ("f2homalg.gf2.elim.calls", "count", "lower"),
    ("f2homalg.gf2.elim.ms", "ms", "lower"),
    ("f2homalg.fuzz.ms", "ms", "lower"),  # input generation, in set-up
    ("harness.op.ms", "ms", "lower"),
    ("harness.op.self_ms", "ms", "lower"),
)
RATIOS = {
    "alexobstruct.t_pass_ratio": ("alexobstruct.alex_from_torsion.calls",
                                  "alexobstruct.t_vector.calls"),
    "alexobstruct.candidate_yield": ("alexobstruct.candidates", "alexobstruct.correspondences"),
    "lspacecert.distinct_ratio": ("lspacecert.distinct_nodes", "lspacecert.nodes"),
}
SETUP_PHASE = {"f2homalg.fuzz"}
_SPAN_FIELDS = {"calls": 0, "ms": 1, "self_ms": 2}  # index into a span's totals


def raw_totals(tracer: Tracer) -> dict:
    """What a traced group reports: per-name totals of both phases and the counters."""
    return {"ops": tracer.op_totals, "setup": tracer.setup_totals,
            "counters": dict(tracer.counters)}


def merge_raw(parts: list[dict]) -> dict:
    """Sum the raw totals of the groups of one pass.  Every counter comes
    from a single group, so summing also keeps `lspacecert.depth` a maximum."""
    merged: dict = {"ops": {}, "setup": {}, "counters": defaultdict(int)}
    for part in parts:
        for phase in ("ops", "setup"):
            for name, values in part[phase].items():
                acc = merged[phase].setdefault(name, [0, 0, 0])
                for i, value in enumerate(values):
                    acc[i] += value
        for name, value in part["counters"].items():
            merged["counters"][name] += value
    return merged


def layer_metrics(raw: dict) -> dict[str, float]:
    def value(metric: str) -> float:
        if metric in RATIOS:
            num, den = (value(part) for part in RATIOS[metric])
            return num / den if den else 0.0
        span, _, field = metric.rpartition(".")
        if field not in _SPAN_FIELDS:
            return raw["counters"].get(metric, 0)
        totals = raw["setup" if span in SETUP_PHASE else "ops"].get(span, (0, 0, 0))
        count_or_ns = totals[_SPAN_FIELDS[field]]
        return count_or_ns if field == "calls" else count_or_ns / 1e6

    return {metric: value(metric) for metric, _, _ in PER_LAYER}
