"""Command-line surface.

Exit codes: 0 success, 1 domain error (single-line diagnostic), 2 internal
invariant failure (names the failing assertion), 64 usage error.  Output is
deterministic: collections are sorted and rationals rendered "num/den" with
the denominator omitted when it is 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import DomainError, InvariantError
from .exactnum import farey_parents, format_slope, hj_expand, parse_slope
from .lensdi import d_table, lens_normalize
from .alexobstruct import (
    FilterSet,
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
    _verify_and_assemble,
    cone_exactness,
    cone_verify,
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
        raise SystemExit(self._usage_error(message))

    def _usage_error(self, message: str) -> int:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        return EXIT_USAGE


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
    except json.JSONDecodeError as exc:
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
# memory.
MAX_DIM = 1000


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
    entries = []
    for text in texts:
        try:
            r, c = map(int, text.split(","))
        except (AttributeError, ValueError):
            raise bad from None
        if not (0 <= r < rows and 0 <= c < cols):
            raise bad
        entries.append((r, c))
    return F2Matrix.from_entries(rows, cols, entries)


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


# The largest tree and Tait-graph documents.  The certificate search grows
# faster than the document: a weight-3 path tree took 1.7 s and 60 MiB at 500
# vertices, 6.5 s and 217 MiB at 1000, 28 s and 895 MiB at 2000, and a Tait
# cycle took 1.3 s at 64 edges, 7.2 s at 100 and over 90 s at 200.  A
# connected graph has at most one vertex more than it has edges.
MAX_TREE_VERTICES = 500
MAX_TAIT_EDGES = 64
MAX_TAIT_VERTICES = MAX_TAIT_EDGES + 1


def _load_graph(path: str, weighted: bool) -> tuple:
    """(vertices, edges) of a tree (a weight list) or a Tait graph (a vertex count)."""
    doc = _load_object(path, "graph")
    vertices, edges = doc.get("vertices"), doc.get("edges")
    if weighted and isinstance(vertices, list) and all(map(_is_int, vertices)):
        n, vertices = len(vertices), tuple(vertices)
        cap, edge_cap = MAX_TREE_VERTICES, MAX_TREE_VERTICES - 1
    elif not weighted and _is_int(vertices):
        n = vertices
        cap, edge_cap = MAX_TAIT_VERTICES, MAX_TAIT_EDGES
    else:
        kind = "a list of integer weights" if weighted else "an integer vertex count"
        raise DomainError(f"field 'vertices' is missing or not {kind}")
    if n > cap:
        raise DomainError(f"field 'vertices' has more than the cap of {cap} vertices")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(_is_int(v) and 0 <= v < n for v in e)
        for e in edges
    ):
        raise DomainError(
            f"field 'edges' is missing or not a list of [i, j] pairs with 0 <= i, j < {n}"
        )
    if len(edges) > edge_cap:
        raise DomainError(f"field 'edges' has more than the cap of {edge_cap} edges")
    return vertices, tuple(map(tuple, edges))


def _emit_certificate(cert: Certificate, as_json: bool) -> None:
    nodes = check_certificate(cert)
    if as_json:
        table = cert.to_json_dict()
        print(json.dumps({
            "certificate": table,
            "nodes": nodes,
            "distinct_nodes": len(table["nodes"]),
            "conclusion": CONCLUSION_SENTENCE,
        }, indent=2, sort_keys=True))
    else:
        print(f"certified: {cert.conclusion.descriptor}")
        print(f"|H1| = {cert.conclusion.h1_order}")
        print(f"certificate nodes: {nodes} (re-verified independently)")
        print(CONCLUSION_SENTENCE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lenslab", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command")

    p_dinv = sub.add_parser("dinv", help="d-invariant table of L(p,q)")
    p_dinv.add_argument("p", type=int)
    p_dinv.add_argument("q", type=int)

    p_hj = sub.add_parser("hj", help="continued-fraction expansion of a slope")
    p_hj.add_argument("slope")

    p_farey = sub.add_parser("farey", help="Farey parents of a slope")
    p_farey.add_argument("slope")

    p_alex = sub.add_parser("alexlens", help="candidate knot polynomials for L(p,q)")
    p_alex.add_argument("p", type=int)
    p_alex.add_argument("q", type=int)
    p_alex.add_argument("--literal-Lsigma", action="store_true", dest="literal")
    p_alex.add_argument("--no-pm1-filter", action="store_true")

    p_scan = sub.add_parser("genus-scan", help="lens spaces realizable at a genus")
    p_scan.add_argument("genus", type=int)
    p_scan.add_argument("--pmax", type=int, default=None)
    p_scan.add_argument("--no-pm1-filter", action="store_true")

    p_lat = sub.add_parser("lattice-check", help="lattice oracle vs recursion")
    p_lat.add_argument("p", type=int)
    p_lat.add_argument("q", type=int)

    p_series = sub.add_parser("series", help="truncated U-power series")
    p_series.add_argument("kind", choices=["tau", "surgery", "twisted"])
    p_series.add_argument("args", nargs="*", type=int)
    p_series.add_argument("--truncate", type=int, default=20)

    p_octet = sub.add_parser("octet", help="octet identity verification")
    p_octet.add_argument("action", choices=["verify"])
    p_octet.add_argument("file")

    p_tri = sub.add_parser("triangle", help="mapping-cone triple verification")
    p_tri.add_argument("action", choices=["verify"])
    p_tri.add_argument("file")

    p_ls = sub.add_parser("lspace", help="L-space certificates")
    ls_sub = p_ls.add_subparsers(dest="subcommand", required=True)
    ls_tree = ls_sub.add_parser("tree")
    ls_tree.add_argument("file")
    ls_alt = ls_sub.add_parser("alt")
    ls_alt.add_argument("file")
    ls_slope = ls_sub.add_parser("slope")
    ls_slope.add_argument("--base", required=True)
    ls_slope.add_argument("--target", required=True)
    ls_slope.add_argument("--knot", default="K")
    ls_bor = ls_sub.add_parser("borromean")
    ls_bor.add_argument("a")
    ls_bor.add_argument("b")
    ls_bor.add_argument("c")
    ls_check = ls_sub.add_parser("check", help="re-verify a certificate file")
    ls_check.add_argument("file")
    return parser


def _cmd_dinv(args: argparse.Namespace) -> None:
    space = lens_normalize(args.p, args.q)
    table = d_table(space)
    if args.json:
        print(json.dumps({
            "p": space.p,
            "q": space.q,
            "d": [format_slope(v) for v in table.values],
        }))
    else:
        for i, value in enumerate(table.values):
            print(f"{i}\t{format_slope(value)}")


def _cmd_hj(args: argparse.Namespace) -> None:
    slope = parse_slope(args.slope)
    terms = hj_expand(slope)
    if args.json:
        print(json.dumps({"slope": format_slope(slope), "terms": terms}))
    else:
        print(f"{format_slope(slope)} = [" + ",".join(map(str, terms)) + "]")


def _cmd_farey(args: argparse.Namespace) -> None:
    slope = parse_slope(args.slope)
    high, low = farey_parents(slope)
    if args.json:
        print(json.dumps({
            "slope": format_slope(slope),
            "parents": [format_slope(high), format_slope(low)],
        }))
    else:
        print(f"parents({format_slope(slope)}) = ({format_slope(high)}, {format_slope(low)})")


def _cmd_alexlens(args: argparse.Namespace) -> None:
    space = lens_normalize(args.p, args.q)
    filters = FilterSet(require_pm1_alternating=not args.no_pm1_filter)
    candidates = candidate_polynomials(space, filters)
    records = []
    for cand in candidates:
        rec = {
            "p": space.p,
            "q": space.q,
            "sigma": {"c": cand.sigma.c, "u": cand.sigma.u},
            "t": [format_slope(x) for x in cand.t.t],
            "alexander": [
                [i, a] for i, a in cand.poly.coeffs
            ],
        }
        if args.literal:
            rec["literal_Lsigma"] = {
                str(i): format_slope(a)
                for i, a in sorted(literal_reconstruction(cand.t).items())
            }
        records.append(rec)
    if args.json:
        print(json.dumps({"candidates": records, "filters": filters.names()}))
    else:
        if not records:
            print(f"{space}: no candidate polynomials")
        for cand, rec in zip(candidates, records):
            sigma = rec["sigma"]
            print(
                f"{space}: sigma(i) = {sigma['c']} + {sigma['u']}*i  "
                f"t = ({', '.join(rec['t'])})  Delta = {cand.poly}"
            )
            if args.literal:
                lit = ", ".join(f"T^{i}: {v}" for i, v in rec["literal_Lsigma"].items())
                print(f"  one-sided display formula gives: {lit}")


def _cmd_genus_scan(args: argparse.Namespace) -> None:
    pmax = args.pmax if args.pmax is not None else default_scan_radius(args.genus)
    filters = FilterSet(require_pm1_alternating=not args.no_pm1_filter)
    hits = scan_realizable(args.genus, pmax, filters)
    if args.json:
        print(json.dumps({
            "genus": args.genus,
            "pmax": pmax,
            "filters": filters.names(),
            "spaces": [
                {
                    "canonical": [hit.space.p, hit.space.q],
                    "representatives": [[s.p, s.q] for s in hit.representatives],
                }
                for hit in hits
            ],
        }))
    else:
        print(f"# genus {args.genus}, orders up to {pmax}, filters: "
              + ",".join(filters.names()))
        print(", ".join(str(hit.space) for hit in hits) if hits else "(none)")


def _cmd_lattice_check(args: argparse.Namespace) -> None:
    report = lattice_vs_recursion_check(args.p, args.q)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"L({report.p},{report.q})")
        print("lattice oracle:  " + " ".join(format_slope(v) for v in report.lattice_multiset))
        print("4 * d-recursion: " + " ".join(format_slope(v) for v in report.recursion_multiset))
        print("equal" if report.equal else "MISMATCH")
    if not report.equal:
        raise InvariantError("lattice oracle disagrees with the recursion")


def _cmd_series(args: argparse.Namespace) -> None:
    n = args.truncate
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
    if args.json:
        print(json.dumps({
            "kind": args.kind,
            "truncate": n,
            "series": str(series),
            "invertible": series.is_invertible(),
        }))
    else:
        print(str(series))


def _cmd_octet(args: argparse.Namespace) -> None:
    report, assembled = _verify_and_assemble(_load_octet(args.file))
    payload: dict = {
        "identities": [{"identity": name, "ok": ok} for name, ok in report.results],
        "all_identities": report.all_ok,
    }
    if assembled is not None:
        payload["homology"] = {
            "to": assembled.homology_to,
            "from": assembled.homology_from,
            "red": assembled.homology_red,
        }
        payload["exact"] = assembled.exact
    if args.json:
        print(json.dumps(payload))
    else:
        for entry in payload["identities"]:
            print(f"{'ok  ' if entry['ok'] else 'FAIL'} {entry['identity']}")
        if report.all_ok:
            h = payload["homology"]
            print(f"homology ranks: to={h['to']} from={h['from']} red={h['red']}")
            print("exact triangle" if payload["exact"] else "NOT EXACT")
        else:
            print("identities fail; complexes not assembled")


def _cmd_triangle(args: argparse.Namespace) -> None:
    triple = _load_cone_triple(args.file)
    report = cone_verify(triple)
    exact = cone_exactness(triple)
    payload = {
        "chain_maps": list(report.chain_maps),
        "homotopy_identities": list(report.homotopy_identities),
        "psi_isomorphisms": list(report.psi_isomorphisms),
        "hypotheses_hold": report.applicable,
        "exact": exact,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for n in range(3):
            print(
                f"n={n}: chain-map {'ok' if report.chain_maps[n] else 'FAIL'}, "
                f"homotopy {'ok' if report.homotopy_identities[n] else 'FAIL'}, "
                f"psi iso {'ok' if report.psi_isomorphisms[n] else 'FAIL'}"
            )
        print("hypotheses hold" if report.applicable else "hypotheses do not hold")
        print("exact" if exact else "NOT EXACT")


def _cmd_lspace(args: argparse.Namespace) -> None:
    if args.subcommand == "tree":
        cert = certify_tree(WeightedTree(*_load_graph(args.file, weighted=True)))
    elif args.subcommand == "alt":
        cert = certify_alternating(TaitGraph(*_load_graph(args.file, weighted=False)))
    elif args.subcommand == "slope":
        base_slope = parse_slope(args.base)
        target = parse_slope(args.target)
        base = surgery_lspace_axiom(args.knot, base_slope)
        cert = propagate_slope(base, target)
    elif args.subcommand == "borromean":
        cert = certify_borromean(
            parse_slope(args.a), parse_slope(args.b), parse_slope(args.c)
        )
    elif args.subcommand == "check":
        doc = _read_json(args.file)
        if isinstance(doc, dict) and "certificate" in doc:  # `lspace ... --json` output
            doc = doc["certificate"]
        try:
            _emit_certificate(Certificate.from_json_dict(doc), args.json)
        except CertificateCheckError as exc:
            raise DomainError(f"certificate rejected: {exc}") from None
        return
    _emit_certificate(cert, args.json)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "dinv": _cmd_dinv,
        "hj": _cmd_hj,
        "farey": _cmd_farey,
        "alexlens": _cmd_alexlens,
        "genus-scan": _cmd_genus_scan,
        "lattice-check": _cmd_lattice_check,
        "series": _cmd_series,
        "octet": _cmd_octet,
        "triangle": _cmd_triangle,
        "lspace": _cmd_lspace,
    }
    if args.command is None:
        return parser._usage_error("the following arguments are required: command")
    try:
        handlers[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
