"""Command-line surface.

Exit codes: 0 success, 1 domain error (single-line diagnostic), 2 internal
invariant failure (names the failing assertion), 64 usage error.  Output is
deterministic: collections are sorted and rationals rendered "num/den" with
the denominator omitted when it is 1, except in the multisets of
`lattice-check --json`, which keep it ("0/1", "4/1"); `dinv`, `alexlens` and
`lattice-check` write them from their scaled integers with `ratio_text`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Callable
from fractions import Fraction

from .errors import DomainError, InvariantError
from .exactnum import Slope, farey_parents, hj_expand, ratio_text, slope_pair, slope_text
from .lensdi import d_values, lens_normalize
from .alexobstruct import (
    candidate_polynomials,
    default_scan_radius,
    literal_reconstruction,
    scan_realizable,
)
from .plumblat import lattice_vs_recursion_check
from .f2homalg.gf2 import F2Matrix
from .f2homalg.complexes import (
    OCTET_MAPS,
    ConeTriple,
    GradedComplex,
    Octet,
    cone_exactness,
    cone_verify,
    octet_assemble,
    octet_verify,
)
from .f2homalg.series import surgery_series, tau_series, twisted_genus1_series
from .lspacecert import (
    CONCLUSION_SENTENCE,
    Certificate,
    CertificateCheckError,
    TaitGraph,
    WeightedTree,
    certify_alternating,
    certify_borromean,
    certify_tree,
    check_certificate,
    propagate_slope,
    surgery_lspace_axiom,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INVARIANT = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's negative numbers -7 and -1.5, and negative slopes -p/q
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message: str) -> None:  # exit 64 on usage problems
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _is_int(value: object) -> bool:
    return type(value) is int  # JSON true/false load as bool, an int subclass


def _read_json(path: str) -> object:
    """The JSON document in an input file; every input file is read here, and
    an unreadable or malformed one is a DomainError naming the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except ValueError as exc:  # bad syntax, or an integer too long to convert
        raise DomainError(f"malformed JSON input in {path}: {exc}") from None
    except RecursionError:
        raise DomainError(f"malformed JSON input in {path}: nested too deeply") from None


def _load_object(path: str, kind: str) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise DomainError(f"{kind} document is not a JSON object")
    return doc


# The largest dimension an octet or cone-triple document may declare.  Every
# map is allocated at its declared size before any entry is read, so without
# a cap a 28-byte document such as {"dims": [100000000, 0, 0]} runs out of
# memory.  At the cap, with dense maps, loading the document costs about as
# much as checking it (3 runs each, wall time of a fresh interpreter on a
# 2-vCPU VM, Python 3.11): `octet verify` on a conjugated block sum of fuzzed
# octets at dims (897, 960, 999), a 34 MB document of 3.2 million entries,
# took 7.1-7.8 s, of which loading took 3.3-4.3 s; `triangle verify` on a
# conjugated block sum of cone triples at dims (999, 994, 957), 47 MB and
# 4.4 million entries, took 6.5-7.5 s, of which loading took 4.9-5.3 s.
# Decoding the JSON is 0.4-0.6 s of the loading; the rest is the one pass
# of _parse_matrix over the "r,c" entries.
MAX_DIM = 1000

# The largest order p that `dinv`, `alexlens` and `lattice-check` accept.  Their
# work grows with p whatever q is, and a p of 20 digits made `dinv` and
# `alexlens` overflow a list size and `lattice-check` sweep its classes for
# ever.  At the caps, in wall time of the command in a fresh interpreter on a
# 2-vCPU VM (Python 3.11, 5 runs each), `dinv 399999 399998` took 0.52-0.78 s
# and `dinv 400000 123457` 0.47-0.65 s, at a peak RSS of 88 and 84 MiB (the
# text written in one piece, see `_emit`); the slowest `alexlens` q found (the
# torus-knot spaces and 250 random q at each of p = 79,999 and 80,000),
# `alexlens 80000 69609 --literal-Lsigma --no-pm1-filter` (three candidates,
# 5.1 MB of output), took 0.75-1.03 s.  `lattice-check` sweeps its classes in
# O(p log p) for every q, since a run of 2s in the chain is one edge.  Its
# slow q are those whose kept chain has the most vertices and runs:
# over every q at p = 5,000 each of the slowest hundred had at least 7, and
# none was a golden-ratio neighbour.  So the cap was timed on the sample of
# earlier caps (the nine q around 0.382p and 0.618p, 2, p - 2, p - 1 and ten
# seeded random q) plus the 40 q with the most kept vertices and runs: in the
# library first, then the ten slowest as the command, cap lifted in-process.
# The slowest found at 40,000, 29039 (9 kept vertices, 6 runs), took
# 1.01-1.73 s in 11 runs; at 50,000 the slowest took up to 1.97 s, too close
# to 2 s on a host whose speed varies by half.
MAX_DINV_P = 400_000
MAX_ALEXLENS_P = 80_000
MAX_LATTICE_P = 40_000
# The largest pmax `genus-scan` accepts, given as --pmax or else the default
# radius max(12g - 7, 4g + 3), which is 12g - 7 for g >= 2.  The scan builds
# the d-tables of every order up to pmax: a 20-digit genus overflowed a list
# size and a 20-digit --pmax never returned.
# The cap admits g = 60, whose default radius is 713, and is not a time
# bound.  The scan runs one space of each homeomorphic pair L(p, q),
# L(p, q^-1), and with the pm1 filter the square test and the Casson-Walker
# prune keep about 5 % of the q for their tables (3,764 of 76,757 at g = 60),
# and a hit is read off the walk's integer vectors, with no polynomial:
# `genus-scan 60` took 0.57-0.75 s (5 runs) and `genus-scan 2 --pmax 720`
# 0.26-0.37 s (5 runs).  Without the filter they keep about 31 % (23,694),
# and `genus-scan 60 --no-pm1-filter`, the slowest scan at the cap, took
# 4.3-4.7 s (5 runs; fresh interpreters on a 2-vCPU VM).  A cap admitting
# g = 100 (pmax 1193) would cost about 1.6 s with the filter and 18 s
# without it (one in-process run each), so the cap stays at 720.
MAX_SCAN_PMAX = 720
# The largest truncation order N that `series` accepts.  A series is built
# and printed in time and memory linear in N, about 0.4 bytes per order at
# the peak, which comes from making the coefficient integer out of an
# N/8-byte bytearray; `str` holds the integer's bytes, another N/8, and
# visits only the nonzero ones.  At the cap the slowest kinds, `series tau`
# and `series surgery 3 1` (most printed terms), took 0.63-0.82 s (wall time
# of a fresh interpreter on the VM above) at a peak RSS of 126-127 MiB;
# `series surgery 1 0`, whose terms all cancel, took 0.22-0.29 s at 88 MiB.
MAX_SERIES_TRUNCATION = 300_000_000


# The largest total bit length of the slopes `lspace slope` and `lspace
# borromean` accept: the sum, over the slopes given, of the bit lengths of
# numerator and denominator, checked before anything is built.  A certificate
# has one node per partial quotient of each slope's continued fraction,
# however large the quotient, so a 20-digit integer is three nodes.  The
# worst case is every quotient 1 but the last, F(n+1)/F(n), whose n - 1
# quotients take 1.39n bits, and a node costs time growing with the bit
# lengths.  The slowest case at the cap is `lspace --json borromean 3/2 3/2
# F(2300)/F(2299)` (3199 bits), which descends the last slope under each of
# four integer pairs: it took 1.39-1.73 s and printed 14 MB, and `lspace
# check` on that 1.06-1.31 s (wall time of a fresh interpreter on the VM
# above, compiling the package from source, 5 runs each).  `lspace --json
# slope` with the same target took 0.40-0.53 s; `lspace --json slope --base
# 1` to F(10001)/F(10000) (13,886 bits) took 3.5-4.6 s and printed 56 MB
# with the cap lifted, and its check 2.1-2.9 s (3 runs each).
MAX_SLOPE_BITS = 3_200


def _slope_bits(*slopes: Slope) -> int:
    return sum(p.bit_length() + q.bit_length() for p, q in slopes)


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise DomainError(f"{name}={value} is above the cap {cap}")


def _load_dims(doc: dict) -> list[int]:
    dims = doc.get("dims")
    if not (
        isinstance(dims, list) and len(dims) == 3
        and all(_is_int(n) and n >= 0 for n in dims)
    ):
        raise DomainError("field 'dims' is missing or not a list of 3 non-negative integers")
    if max(dims) > MAX_DIM:
        raise DomainError(f"field 'dims' has an entry above the cap {MAX_DIM}")
    return dims


def _parse_matrix(doc: dict, name: str, rows: int, cols: int) -> F2Matrix:
    texts = doc.get(name, [])
    bad = DomainError(
        f"field '{name}' is not a list of \"r,c\" entries with 0 <= r < {rows}, 0 <= c < {cols}"
    )
    if not isinstance(texts, list):
        raise bad
    data = [0] * rows
    for text in texts:
        try:
            r, c = map(int, text.split(","))
        except (AttributeError, ValueError):
            raise bad from None
        if not (0 <= r < rows and 0 <= c < cols):
            raise bad
        data[r] ^= 1 << c  # a repeated entry cancels
    return F2Matrix(rows, cols, tuple(data))


def _load_octet(path: str) -> Octet:
    doc = _load_object(path, "octet")
    dims = _load_dims(doc)
    return Octet(*dims, **{
        name: _parse_matrix(doc, name, dims[cod], dims[dom])
        for name, cod, dom in OCTET_MAPS
    })


def _load_cone_triple(path: str) -> ConeTriple:
    doc = _load_object(path, "triangle")
    dims = _load_dims(doc)
    complexes = tuple(
        GradedComplex(dims[n], _parse_matrix(doc, f"d{n}", dims[n], dims[n]))
        for n in range(3)
    )
    f = tuple(
        _parse_matrix(doc, f"f{n}", dims[(n + 1) % 3], dims[n]) for n in range(3)
    )
    h = tuple(
        _parse_matrix(doc, f"H{n}", dims[(n + 2) % 3], dims[n]) for n in range(3)
    )
    return ConeTriple(complexes, f, h)


# One cost cap per kind, on documents and certificate nodes alike: a tree's
# vertices and a Tait graph's edges.  The vertex bound is the graph's own,
# checked by its constructor.  The certificate search grows faster than the
# document: a weight-3 path tree took 1.7 s and 60 MiB at 500 vertices,
# 6.5 s and 217 MiB at 1000, 28 s and 895 MiB at 2000, and a Tait cycle took
# 1.3 s at 64 edges, 7.2 s at 100 and over 90 s at 200.
#
# The vertex cap does not bound the weights: each split decrements a leaf
# by one, so the distinct nodes of a path grow with the sum of its weights,
# and the 57-byte tree [10^9, 10^9] never finished.  A tree's work is the
# sum of its weights' absolute values times (64 + n), checked before the tree
# is built.  The cap admits the reference path above (500 vertices of weight
# 3, work 846,000), which took 2.1-2.7 s (wall time on the VM above); at
# about the same work, a path of 120 vertices of weight 38 took 2.4 s, one of
# 20 of weight 505 1.6 s, and the pair [6439, 6439] 0.6 s.  Stars and
# branched trees grow faster than this work, which does not bound them.
MAX_TREE_VERTICES = 500
MAX_TREE_WORK = 850_000
MAX_TAIT_EDGES = 64


def _over_cap(field: str, size: int, cap: int, noun: str) -> str | None:
    """The diagnostic of a graph field over its cost cap, or None."""
    return f"field {field!r} has more than the cap of {cap} {noun}" if size > cap else None


def _load_graph(path: str, weighted: bool) -> tuple:
    """(vertices, edges) of a tree (a weight list) or a Tait graph (a vertex count)."""
    doc = _load_object(path, "graph")
    vertices, edges = doc.get("vertices"), doc.get("edges")
    if weighted and isinstance(vertices, list) and all(map(_is_int, vertices)):
        n, vertices = len(vertices), tuple(vertices)
        if over := _over_cap("vertices", n, MAX_TREE_VERTICES, "vertices"):
            raise DomainError(over)
    elif not weighted and _is_int(vertices):
        n = vertices
    else:
        kind = "a list of integer weights" if weighted else "an integer vertex count"
        raise DomainError(f"field 'vertices' is missing or not {kind}")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(_is_int(v) and 0 <= v < n for v in e)
        for e in edges
    ):
        raise DomainError(
            f"field 'edges' is missing or not a list of [i, j] pairs with 0 <= i, j < {n}"
        )
    if weighted:
        _check_cap("tree work", sum(map(abs, vertices)) * (64 + n), MAX_TREE_WORK)
    elif over := _over_cap("edges", len(edges), MAX_TAIT_EDGES, "edges"):
        raise DomainError(over)
    return vertices, tuple(map(tuple, edges))


def _check_node_caps(table: dict) -> None:
    """The cost caps of `lspace tree` and `lspace alt` on every tree and Tait
    graph of a loaded node table, before the checker builds any of them.
    The certificates those commands print pass: their nodes are minors of a
    capped document."""
    for node in table["nodes"]:
        kind, params = node["conclusion"]["kind"], node["conclusion"]["params"]
        if kind == "tree-boundary":
            weights = params.get("weights", "")
            over = _over_cap("weights", weights.count(",") + 1, MAX_TREE_VERTICES, "vertices")
        elif kind == "branched-double-cover":
            edges = params.get("edges", "")
            over = _over_cap("edges", edges.count(",") + 1 if edges else 0, MAX_TAIT_EDGES, "edges")
        else:
            continue
        if over:
            raise CertificateCheckError(f"node {node['id']} ({node['rule']}): {over}")


def _emit(args: argparse.Namespace, payload: Callable, lines: Callable, **json_style) -> None:
    """Write a command's result, calling only the one written: its JSON document
    under --json, otherwise its text lines (str), each ended by a newline, in
    one write: joining the lines as they are makes no second string per line,
    which at `dinv`'s 400,000 lines would cost 23 MiB more at the peak.  The
    CLI writes stdout only here."""
    if args.json:
        print(json.dumps(payload(), **json_style))
    else:
        sys.stdout.write("\n".join([*lines(), ""]))


def _emit_certificate(args: argparse.Namespace, cert: Certificate) -> None:
    nodes = check_certificate(cert)
    _emit(args, lambda: {
        "certificate": (table := cert.to_json_dict()),
        "nodes": nodes,
        "distinct_nodes": len(table["nodes"]),
        "conclusion": CONCLUSION_SENTENCE,
    }, lambda: [
        f"certified: {cert.conclusion.descriptor}",
        f"|H1| = {cert.conclusion.h1_order}",
        f"certificate nodes: {nodes} (re-verified independently)",
        CONCLUSION_SENTENCE,
    ], indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lenslab", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, handler, **kwargs) -> argparse.ArgumentParser:
        # `help` only where given: add_parser(name, help=None) still lists it
        cmd = subparsers.add_parser(name, **kwargs)
        cmd.set_defaults(handler=handler)
        return cmd

    p_dinv = command(sub, "dinv", _cmd_dinv, help="d-invariant table of L(p,q)")
    p_dinv.add_argument("p", type=int)
    p_dinv.add_argument("q", type=int)

    p_hj = command(sub, "hj", _cmd_hj, help="continued-fraction expansion of a slope")
    p_hj.add_argument("slope")

    p_farey = command(sub, "farey", _cmd_farey, help="Farey parents of a slope")
    p_farey.add_argument("slope")

    p_alex = command(sub, "alexlens", _cmd_alexlens,
                     help="candidate knot polynomials for L(p,q)")
    p_alex.add_argument("p", type=int)
    p_alex.add_argument("q", type=int)
    p_alex.add_argument("--literal-Lsigma", action="store_true", dest="literal")
    p_alex.add_argument("--no-pm1-filter", action="store_true")

    p_scan = command(sub, "genus-scan", _cmd_genus_scan, help="lens spaces realizable at a genus")
    p_scan.add_argument("genus", type=int)
    p_scan.add_argument("--pmax", type=int, default=None)
    p_scan.add_argument("--no-pm1-filter", action="store_true")

    p_lat = command(sub, "lattice-check", _cmd_lattice_check, help="lattice oracle vs recursion")
    p_lat.add_argument("p", type=int)
    p_lat.add_argument("q", type=int)

    p_series = command(sub, "series", _cmd_series, help="truncated U-power series")
    p_series.add_argument("kind", choices=["tau", "surgery", "twisted"])
    p_series.add_argument("args", nargs="*", type=int)
    p_series.add_argument("--truncate", type=int, default=20)

    p_octet = command(sub, "octet", _cmd_octet, help="octet identity verification")
    p_octet.add_argument("action", choices=["verify"])
    p_octet.add_argument("file")

    p_tri = command(sub, "triangle", _cmd_triangle, help="mapping-cone triple verification")
    p_tri.add_argument("action", choices=["verify"])
    p_tri.add_argument("file")

    p_ls = sub.add_parser("lspace", help="L-space certificates")
    ls_sub = p_ls.add_subparsers(dest="subcommand", required=True)
    command(ls_sub, "tree", _cmd_lspace_tree).add_argument("file")
    command(ls_sub, "alt", _cmd_lspace_alt).add_argument("file")
    ls_slope = command(ls_sub, "slope", _cmd_lspace_slope)
    ls_slope.add_argument("--base", required=True)
    ls_slope.add_argument("--target", required=True)
    ls_slope.add_argument("--knot", default="K")
    ls_bor = command(ls_sub, "borromean", _cmd_lspace_borromean)
    ls_bor.add_argument("a")
    ls_bor.add_argument("b")
    ls_bor.add_argument("c")
    ls_check = command(ls_sub, "check", _cmd_lspace_check, help="re-verify a certificate file")
    ls_check.add_argument("file")
    return parser


def _cmd_dinv(args: argparse.Namespace) -> None:
    _check_cap("p", args.p, MAX_DINV_P)
    space = lens_normalize(args.p, args.q)
    values = d_values(space, ratio_text)
    _emit(args, lambda: {"p": space.p, "q": space.q, "d": values},
          lambda: [f"{i}\t{value}" for i, value in enumerate(values)])


def _cmd_hj(args: argparse.Namespace) -> None:
    slope = slope_pair(args.slope)
    terms = hj_expand(slope)
    name = slope_text(slope)
    _emit(args, lambda: {"slope": name, "terms": terms},
          lambda: [f"{name} = [{','.join(map(str, terms))}]"])


def _cmd_farey(args: argparse.Namespace) -> None:
    slope = slope_pair(args.slope)
    name, high, low = map(slope_text, (slope, *farey_parents(slope)))
    _emit(args, lambda: {"slope": name, "parents": [high, low]},
          lambda: [f"parents({name}) = ({high}, {low})"])


def _filter_names(args: argparse.Namespace) -> list[str]:
    """The filters `alexlens` and `genus-scan` run; pm1-alternating unless
    --no-pm1-filter is given."""
    return ["t-nonpositive", "t-even"] + ([] if args.no_pm1_filter else ["pm1-alternating"])


def _cmd_alexlens(args: argparse.Namespace) -> None:
    _check_cap("p", args.p, MAX_ALEXLENS_P)
    space = lens_normalize(args.p, args.q)
    scale = 4 * space.p  # t_i is n / 4p, a literal coefficient n / 8p
    found = []  # (candidate, t, literal coefficients by degree)
    for cand in candidate_polynomials(space, pm1=not args.no_pm1_filter):
        literal = literal_reconstruction(cand.t) if args.literal else {}
        found.append((cand, [ratio_text(n, scale) for n in cand.t.scaled],
                      {str(i): ratio_text(a, 2 * scale) for i, a in literal.items()}))

    def lines():
        for cand, t, literal in found:
            c, u = cand.sigma.c, cand.sigma.u
            yield f"{space}: sigma(i) = {c} + {u}*i  t = ({', '.join(t)})  Delta = {cand.poly}"
            if args.literal:
                yield "  one-sided display formula gives: " + ", ".join(
                    f"T^{i}: {v}" for i, v in literal.items())
        if not found:
            yield f"{space}: no candidate polynomials"

    _emit(args, lambda: {
        "candidates": [{
            "p": space.p,
            "q": space.q,
            "sigma": {"c": cand.sigma.c, "u": cand.sigma.u},
            "t": t,
            "alexander": [[i, a] for i, a in cand.poly.coeffs],
            **({"literal_Lsigma": literal} if args.literal else {}),
        } for cand, t, literal in found],
        "filters": _filter_names(args),
    }, lines)


def _cmd_genus_scan(args: argparse.Namespace) -> None:
    pmax = args.pmax if args.pmax is not None else default_scan_radius(args.genus)
    _check_cap("pmax", pmax, MAX_SCAN_PMAX)
    hits = scan_realizable(args.genus, pmax, pm1=not args.no_pm1_filter)
    names = _filter_names(args)
    _emit(args, lambda: {
        "genus": args.genus,
        "pmax": pmax,
        "filters": names,
        "spaces": [
            {
                "canonical": [hit.space.p, hit.space.q],
                "representatives": [[s.p, s.q] for s in hit.representatives],
            }
            for hit in hits
        ],
    }, lambda: [
        f"# genus {args.genus}, orders up to {pmax}, filters: " + ",".join(names),
        ", ".join(str(hit.space) for hit in hits) if hits else "(none)",
    ])


def _cmd_lattice_check(args: argparse.Namespace) -> None:
    _check_cap("p", args.p, MAX_LATTICE_P)
    report = lattice_vs_recursion_check(args.p, args.q)
    _emit(args, report.to_json_dict, lambda: [
        f"L({report.p},{report.q})",
        "lattice oracle:  " + " ".join(ratio_text(k, report.p) for k in sorted(report.class_keys)),
        "4 * d-recursion: " + " ".join(ratio_text(k, report.p) for k in sorted(report.label_keys)),
        "equal" if report.equal else "MISMATCH",
    ])
    if not report.equal:
        raise InvariantError("lattice oracle disagrees with the recursion")


def _cmd_series(args: argparse.Namespace) -> None:
    n = args.truncate
    _check_cap("truncate", n, MAX_SERIES_TRUNCATION)
    if args.kind == "surgery":
        if len(args.args) != 2:
            raise DomainError("series surgery needs P and N0 arguments")
        series = surgery_series(args.args[0], args.args[1], n)
    elif args.args:
        raise DomainError(f"series {args.kind} takes no P or N0 arguments")
    elif args.kind == "tau":
        series = tau_series(n)
    else:
        series = twisted_genus1_series(n)
    text = str(series)
    _emit(args, lambda: {
        "kind": args.kind,
        "truncate": n,
        "series": text,
        "invertible": series.is_invertible(),
    }, lambda: [text])


def _cmd_octet(args: argparse.Namespace) -> None:
    octet = _load_octet(args.file)
    report = octet_verify(octet)
    assembled = octet_assemble(octet) if report.all_ok else None  # the assembly octet_verify built
    h = assembled and {"to": assembled.homology_to, "from": assembled.homology_from,
                       "red": assembled.homology_red}

    def lines():
        for name, ok in report.results:
            yield f"{'ok  ' if ok else 'FAIL'} {name}"
        if not assembled:
            yield "identities fail; complexes not assembled"
        else:
            yield f"homology ranks: to={h['to']} from={h['from']} red={h['red']}"
            yield "exact triangle" if assembled.exact else "NOT EXACT"

    _emit(args, lambda: {
        "identities": [{"identity": name, "ok": ok} for name, ok in report.results],
        "all_identities": report.all_ok,
        **({"homology": h, "exact": assembled.exact} if assembled else {}),
    }, lines)


def _cmd_triangle(args: argparse.Namespace) -> None:
    triple = _load_cone_triple(args.file)
    report = cone_verify(triple)
    exact = cone_exactness(triple)

    def lines():
        rows = zip(report.chain_maps, report.homotopy_identities, report.psi_isomorphisms)
        for n, flags in enumerate(rows):
            chain, homotopy, psi = ("ok" if flag else "FAIL" for flag in flags)
            yield f"n={n}: chain-map {chain}, homotopy {homotopy}, psi iso {psi}"
        yield "hypotheses hold" if report.applicable else "hypotheses do not hold"
        yield "exact" if exact else "NOT EXACT"

    _emit(args, lambda: {
        "chain_maps": list(report.chain_maps),
        "homotopy_identities": list(report.homotopy_identities),
        "psi_isomorphisms": list(report.psi_isomorphisms),
        "hypotheses_hold": report.applicable,
        "exact": exact,
    }, lines)


def _cmd_lspace_tree(args: argparse.Namespace) -> None:
    tree = WeightedTree(*_load_graph(args.file, weighted=True))
    _emit_certificate(args, certify_tree(tree))


def _cmd_lspace_alt(args: argparse.Namespace) -> None:
    graph = TaitGraph(*_load_graph(args.file, weighted=False))
    _emit_certificate(args, certify_alternating(graph))


def _cmd_lspace_slope(args: argparse.Namespace) -> None:
    base, target = slope_pair(args.base), slope_pair(args.target)
    _check_cap("slope bits", _slope_bits(base, target), MAX_SLOPE_BITS)
    base_cert = surgery_lspace_axiom(args.knot, Fraction(*base))
    _emit_certificate(args, propagate_slope(base_cert, Fraction(*target)))


def _cmd_lspace_borromean(args: argparse.Namespace) -> None:
    slopes = [slope_pair(x) for x in (args.a, args.b, args.c)]
    _check_cap("slope bits", _slope_bits(*slopes), MAX_SLOPE_BITS)
    _emit_certificate(args, certify_borromean(*(Fraction(*x) for x in slopes)))


def _cmd_lspace_check(args: argparse.Namespace) -> None:
    doc = _read_json(args.file)
    if isinstance(doc, dict) and "certificate" in doc:  # `lspace ... --json` output
        doc = doc["certificate"]
    try:
        cert = Certificate.from_json_dict(doc)
        _check_node_caps(doc)
        _emit_certificate(args, cert)
    except CertificateCheckError as exc:
        raise DomainError(f"certificate rejected: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
