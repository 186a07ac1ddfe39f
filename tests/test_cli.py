"""Command-line behavior: output shapes, exit codes, determinism."""

import json
import random
import re
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest

from lenslab import cli
from lenslab.cli import main
from lenslab.errors import DomainError, InvariantError
from lenslab.f2homalg import complexes
from lenslab.lspacecert import (
    TaitGraph,
    WeightedTree,
    certify_alternating,
    certify_borromean,
    certify_tree,
    connected_sum_lens_axiom,
    lens_axiom,
    propagate_slope,
    surgery_lspace_axiom,
)
from lenslab.plumblat import LatticeCheckReport
from run_oracle import expand_runs, fib, partial_quotients

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dinv_table(capsys):
    code, out, _ = run_cli(capsys, "dinv", "9", "7")
    assert code == 0
    values = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert values == ["0", "2/9", "-4/9", "0", "-4/9", "2/9", "0", "8/9", "8/9"]


def test_dinv_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--json", "dinv", "5", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"p": 5, "q": 4, "d": ["1/5", "-1/5", "-1/5", "1/5", "1"]}


def test_dinv_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "dinv", "4", "2")
    assert code == 1
    assert err.strip().splitlines() == ["error: gcd(4, 2) != 1"]


def test_genus_scan_output(capsys):
    code, out, _ = run_cli(capsys, "genus-scan", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# genus 2, orders up to 17")
    assert lines[1] == "L(9,4), L(11,3)"


def test_genus_scan_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "genus-scan", "2", "--pmax", "17")
    doc = json.loads(out)
    assert doc["spaces"][0]["canonical"] == [9, 4]
    assert [11, 4] in doc["spaces"][1]["representatives"]


def test_series_tau(capsys):
    code, out, _ = run_cli(capsys, "series", "tau", "--truncate", "6")
    assert code == 0
    assert out.strip() == "1 + U + U^3 + U^6"


def test_series_surgery(capsys):
    code, out, _ = run_cli(capsys, "series", "surgery", "2", "0", "--truncate", "10")
    assert code == 0
    assert out.strip() == "0"


def test_series_surgery_needs_args(capsys):
    code, _, err = run_cli(capsys, "series", "surgery")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("kind", ["tau", "twisted"])
def test_series_rejects_stray_args(capsys, kind):
    code, out, err = run_cli(capsys, "series", kind, "1", "2")
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [f"error: series {kind} takes no P or N0 arguments"]


def test_hj_and_farey(capsys):
    code, out, _ = run_cli(capsys, "hj", "9/7")
    assert code == 0 and out.strip() == "9/7 = [2,2,2,3]"
    code, out, _ = run_cli(capsys, "farey", "7/5")
    assert code == 0 and out.strip() == "parents(7/5) = (3/2, 4/3)"
    code, out, _ = run_cli(capsys, "farey", "5")
    assert out.strip() == "parents(5) = (1/0, 4)"


def test_alexlens(capsys):
    code, out, _ = run_cli(capsys, "--json", "alexlens", "9", "7")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["candidates"]) == 1
    cand = doc["candidates"][0]
    assert cand["alexander"] == [[0, 1], [1, -1], [2, 1]]
    assert cand["t"] == ["-2", "-2", "0", "0", "0"]
    assert cand["sigma"]["c"] == 3


def test_alexlens_literal_flag(capsys):
    code, out, _ = run_cli(capsys, "--json", "alexlens", "9", "7", "--literal-Lsigma")
    doc = json.loads(out)
    assert "literal_Lsigma" in doc["candidates"][0]


def test_lattice_check(capsys):
    code, out, _ = run_cli(capsys, "lattice-check", "9", "7")
    assert code == 0
    assert out.strip().splitlines()[-1] == "equal"


def test_octet_verify_file(tmp_path, capsys):
    doc = {"dims": [1, 1, 1], "dos": ["0,0"], "dsu": ["0,0"]}
    path = tmp_path / "octet.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "octet", "verify", str(path))
    assert code == 0
    assert "exact triangle" in out
    code, out, _ = run_cli(capsys, "--json", "octet", "verify", str(path))
    parsed = json.loads(out)
    assert parsed["all_identities"] and parsed["exact"]
    assert parsed["homology"] == {"to": 0, "from": 0, "red": 0}


def test_octet_verify_checks_the_identities_once(monkeypatch, capsys):
    """One assembly gives both the identity report and the triangle, and
    the identities are read off it once."""
    calls = []
    for name in ("_assembly", "_identity_report", "octet_verify"):
        original = getattr(complexes, name)

        def counted(arg, name=name, original=original):
            calls.append(name)
            return original(arg)

        monkeypatch.setattr(complexes, name, counted)
    code, out, _ = run_cli(capsys, "octet", "verify", str(DATA / "octet_ok.json"))
    assert code == 0 and "exact triangle" in out
    assert calls == ["_assembly", "_identity_report"]


def test_triangle_verify_file(tmp_path, capsys):
    doc = {
        "dims": [1, 1, 2],
        "d0": [], "d1": [], "d2": ["1,0"],
        "f0": ["0,0"], "f1": ["1,0"], "f2": ["0,0"],
        "H0": ["0,0"], "H1": [], "H2": ["0,1"],
    }
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "--json", "triangle", "verify", str(path))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["hypotheses_hold"] and parsed["exact"]


def test_triangle_verify_on_a_non_chain_map_is_a_domain_error(tmp_path, capsys):
    # cone_exactness raises before anything is emitted, so the output
    # prints no chain-map flags: every triple it reports on has chain maps
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"dims": [2, 1, 0], "d0": ["0,1"], "f0": ["0,0"]}))
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, *flags, "triangle", "verify", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: f_0 is not a chain map"]


def test_lspace_tree(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({
        "vertices": [3, 2, 2, 2],
        "edges": [[0, 1], [0, 2], [0, 3]],
    }))
    code, out, _ = run_cli(capsys, "lspace", "tree", str(path))
    assert code == 0
    assert "|H1| = 12" in out
    assert out.strip().endswith("monopole L-space => admits no taut foliation")


def test_lspace_alt(tmp_path, capsys):
    path = tmp_path / "alt.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    code, out, _ = run_cli(capsys, "lspace", "alt", str(path))
    assert code == 0
    assert "|H1| = 3" in out


def test_lspace_slope_and_borromean(capsys):
    code, out, _ = run_cli(
        capsys, "lspace", "slope", "--base", "18", "--target", "37/2",
        "--knot", "(-2,3,7)-pretzel",
    )
    assert code == 0
    assert "S3_37/2((-2,3,7)-pretzel)" in out

    code, out, _ = run_cli(capsys, "--json", "lspace", "borromean", "1", "5/2", "5")
    assert code == 0
    doc = json.loads(out)
    table = doc["certificate"]
    assert table["format"] == 2
    assert table["nodes"][table["root"]]["conclusion"]["h1"] == 25
    assert (doc["nodes"], doc["distinct_nodes"]) == (7, len(table["nodes"])) == (7, 7)
    assert doc["conclusion"].startswith("monopole L-space")


def test_lspace_tree_hypothesis_failure_is_domain_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [1, 1], "edges": [[0, 1]]}))
    code, _, err = run_cli(capsys, "lspace", "tree", str(path))
    assert code == 1
    assert "rational homology sphere" in err


def test_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    code = exc.value.code
    out, err = capsys.readouterr()
    assert code == 64 and out == ""
    usage, *_, error = err.splitlines()
    assert usage.startswith("usage: lenslab ")
    assert error == "error: the following arguments are required: command"


def test_lspace_without_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lspace"])
    captured = capsys.readouterr()
    assert exc.value.code == 64 and captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: lenslab lspace ")
    assert error == "error: the following arguments are required: subcommand"


def test_invariant_error_in_a_handler_exits_2(monkeypatch, capsys):
    def fail(p, q):
        raise InvariantError("planted")

    monkeypatch.setattr(cli, "lens_normalize", fail)
    code, out, err = run_cli(capsys, "dinv", "9", "7")
    assert (code, out, err.splitlines()) == (2, "", ["internal invariant violated: planted"])


def test_missing_file_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "octet", "verify", "/nonexistent/x.json")
    assert code == 1


def test_output_determinism(capsys):
    first = run_cli(capsys, "--json", "genus-scan", "2")
    second = run_cli(capsys, "--json", "genus-scan", "2")
    assert first == second
    a = run_cli(capsys, "--json", "lattice-check", "8", "5")
    b = run_cli(capsys, "--json", "lattice-check", "8", "5")
    assert a == b


def test_cache_dir_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", str(tmp_path), "dinv", "9", "7"])
    assert exc.value.code == 64


@pytest.mark.parametrize("command, doc, field", [
    ("tree", {"vertices": [2, 2]}, "edges"),
    ("tree", {"vertices": 3, "edges": []}, "vertices"),
    ("tree", {"vertices": [2, 2], "edges": [[0, 2]]}, "edges"),
    ("tree", {"vertices": [2, True], "edges": [[0, 1]]}, "vertices"),
    ("tree", [[2, 2], [[0, 1]]], "JSON object"),
    ("alt", {"edges": [[0, 1]]}, "vertices"),
    ("alt", {"vertices": [2, 2], "edges": [[0, 1]]}, "vertices"),
    ("alt", {"vertices": 3, "edges": [[0, 1, 2]]}, "edges"),
    ("alt", {"vertices": 3, "edges": "0-1"}, "edges"),
])
def test_malformed_graph_document_is_one_line_domain_error(tmp_path, capsys, command, doc, field):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "lspace", command, str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, doc, field", [
    ("octet", {"dims": [1, 1]}, "dims"),
    ("octet", {"dims": [1, True, 1]}, "dims"),
    ("octet", {"dims": [1, 1, 1], "dos": ["0;0"]}, "dos"),
    ("octet", {"dims": [1, 1, 1], "dsu": ["0,1"]}, "dsu"),
    ("octet", {"dims": [1, 1, 1], "doo": "0,0"}, "doo"),
    ("octet", [1], "JSON object"),
    ("triangle", {"dims": [1, 1]}, "dims"),
    ("triangle", {"dims": [1, 1, -2]}, "dims"),
    ("triangle", {"dims": [1, 1, 2], "f0": [[0, 0]]}, "f0"),
    ("triangle", [1], "JSON object"),
])
def test_malformed_f2_document_is_one_line_domain_error(tmp_path, capsys, command, doc, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "verify", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["octet", "triangle"])
@pytest.mark.parametrize("dims", [[100000000, 0, 0], [3000, 0, 0], [0, 0, cli.MAX_DIM + 1]])
def test_dims_over_the_cap_are_one_line_domain_errors(tmp_path, capsys, command, dims):
    # a 28-byte document must not allocate its declared maps
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dims": dims}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: field 'dims' has an entry above the cap {cli.MAX_DIM}"]


@pytest.mark.parametrize("command", ["octet", "triangle"])
def test_dims_at_the_cap_are_accepted(tmp_path, capsys, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dims": [cli.MAX_DIM] * 3}))
    code, out, err = run_cli(capsys, command, "verify", str(path))
    assert (code, err) == (0, "") and out


def _parse_one_entry_at_a_time(texts, rows, cols):
    """The rows of the matrix `cli._parse_matrix` reads from `texts`, each
    entry read alone by `int` and toggled in, or the diagnostic's message."""
    bad = f"field 'm' is not a list of \"r,c\" entries with 0 <= r < {rows}, 0 <= c < {cols}"
    if not isinstance(texts, list):
        return bad
    data = [0] * rows
    for text in texts:
        try:
            r, c = map(int, text.split(","))
        except (AttributeError, ValueError):
            return bad
        if not (0 <= r < rows and 0 <= c < cols):
            return bad
        data[r] ^= 1 << c
    return tuple(data)


def _parse_matrix_outcome(texts, rows, cols):
    try:
        return cli._parse_matrix({"m": texts}, "m", rows, cols).data
    except DomainError as error:
        return str(error)


# Spellings `int` reads, and some it does not, beside the plain "r,c".
_ODD_ENTRIES = [
    " 1,0", "1 ,0", "\t2,\n1", "+1,0", "00,1", "0,01", "-0,0", "1_0,0", "0,1_0", "٣,1",
    "1,１", "", ",", ";", "0;0", "0,0;", "1,2,3", "1", "0,,0", "1e1,0", "0x1,0", "a,b",
    "0,-1", "-1,0", None, 1, 1.5, ["0,0"],
]


@pytest.mark.parametrize("block", [1, 3, 7, cli._ENTRY_BLOCK])
def test_parse_matrix_reads_each_entry_as_int_reads_it_alone(monkeypatch, block):
    # small blocks put repeats across block boundaries and mix plain and odd
    # spellings in one block and across blocks
    monkeypatch.setattr(cli, "_ENTRY_BLOCK", block)
    rng = random.Random(block)
    for _ in range(600):
        rows, cols = rng.randrange(14), rng.randrange(14)
        texts = [
            f"{rng.randrange(-1, rows + 2)},{rng.randrange(-1, cols + 2)}"
            if rng.random() < 0.85 else rng.choice(_ODD_ENTRIES)
            for _ in range(rng.randrange(30))
        ]
        if rows and cols and rng.random() < 0.5:
            texts = [f"{rng.randrange(rows)},{rng.randrange(cols)}" for _ in texts]
            texts += rng.sample(texts, len(texts) // 2)
            if texts and rng.random() < 0.5:
                texts[rng.randrange(len(texts))] = rng.choice(_ODD_ENTRIES[:10])
            rng.shuffle(texts)
        assert _parse_matrix_outcome(texts, rows, cols) == _parse_one_entry_at_a_time(
            texts, rows, cols
        ), (texts, rows, cols)


@pytest.mark.parametrize("block", [1, 2, cli._ENTRY_BLOCK])
def test_parse_matrix_odd_spellings_set_their_bit_and_repeats_cancel(monkeypatch, block):
    monkeypatch.setattr(cli, "_ENTRY_BLOCK", block)
    assert _parse_matrix_outcome([" 1,0", "00,1", "+1,0", "1_0,0"], 11, 2) == (
        (0b10,) + (0,) * 9 + (0b1,)
    )
    # "1,0" and "+1,0" cancel in or across blocks; so do "2,3" and "02,3"
    assert _parse_matrix_outcome(["1,0", "2,3", "+1,0", "0,0", "02,3"], 3, 4) == (1, 0, 0)


@pytest.mark.parametrize("command, cap", [
    ("dinv", cli.MAX_DINV_P),
    ("alexlens", cli.MAX_ALEXLENS_P),
    ("lattice-check", cli.MAX_LATTICE_P),
])
@pytest.mark.parametrize("over", [1, 10**20])
def test_orders_over_the_cap_are_one_line_domain_errors(capsys, command, cap, over):
    # rejected before any d-table or class sweep: a 20-digit p used to
    # overflow a list size or never return
    p = cap + over
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, str(p), str(p - 1))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: p={p} is above the cap {cap}"]


@pytest.mark.parametrize("argv, value", [
    (["2", "--pmax", str(cli.MAX_SCAN_PMAX + 1)], cli.MAX_SCAN_PMAX + 1),
    (["2", "--pmax", "99999999999999999999"], 99999999999999999999),
    # no --pmax: the default radius 12g - 7 is capped
    ([str((cli.MAX_SCAN_PMAX + 7) // 12 + 1)], 12 * ((cli.MAX_SCAN_PMAX + 7) // 12 + 1) - 7),
    (["99999999999999999999"], 12 * 99999999999999999999 - 7),
])
def test_genus_scan_over_the_pmax_cap_is_a_one_line_domain_error(capsys, argv, value):
    # a 20-digit genus used to overflow a list size, a 20-digit --pmax to
    # scan for ever; both are now rejected before any d-table is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "genus-scan", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: pmax={value} is above the cap {cli.MAX_SCAN_PMAX}"]


def test_the_pmax_cap_admits_the_default_radius_of_genus_60():
    assert cli.default_scan_radius(60) == 713 <= cli.MAX_SCAN_PMAX


@pytest.mark.parametrize("argv", [
    ["tau"], ["twisted"], ["surgery", "3", "1"],
])
@pytest.mark.parametrize("over", [1, 10**20])
def test_series_over_the_truncation_cap_is_a_one_line_domain_error(capsys, argv, over):
    n = cli.MAX_SERIES_TRUNCATION + over
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "series", *argv, "--truncate", str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: truncate={n} is above the cap {cli.MAX_SERIES_TRUNCATION}"]


def _fib_ratio(n):
    """F(n+1)/F(n): every partial quotient 1 but the last, the most certificate
    nodes a slope of its bit length can have."""
    return f"{fib(n + 1)}/{fib(n)}"


@pytest.mark.parametrize("argv, cap", [
    # each just past the cap, the first by 1 + 1 + 3322 + 1 bits
    (["slope", "--base", "1", "--target", "1" + "0" * 1000], cli.MAX_SLOPE_BITS),
    (["slope", "--base", "1", "--target", _fib_ratio(2305)], cli.MAX_SLOPE_BITS),
    (["slope", "--base", "2", "--target", f"{10**482}/{10**482 - 1}"], cli.MAX_SLOPE_BITS),
    # the slowest measured case, one Fibonacci number further
    (["borromean", "3/2", "3/2", _fib_ratio(2300)], cli.MAX_SLOPE_BITS),
    (["borromean", "1", "1", f"{10**482 + 1}/{10**482}"], cli.MAX_SLOPE_BITS),
    (["borromean", "1" + "0" * 963, "1", "1"], cli.MAX_SLOPE_BITS),
])
def test_lspace_slopes_over_the_cap_are_one_line_domain_errors(capsys, argv, cap):
    # measured before anything is built: F(10001)/F(10000) took 5 s with the cap lifted
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lspace", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    match = re.fullmatch(rf"error: slope bits=(\d+) is above the cap {cap}", line)
    assert match and int(match.group(1)) > cap


@pytest.mark.parametrize("argv, distinct", [
    # over the work caps that bounded the Farey descent, which ran one node per
    # triangle: a 20-digit slope never finished
    (["slope", "--base", "1", "--target", "25002"], 3),
    (["slope", "--base", "1", "--target", "99999999999999999999"], 3),
    (["slope", "--base", "1", "--target", "12345678901234567890/12345678901234567889"], 3),
    (["borromean", "3/2", "3/2", "3877"], 11),
    (["borromean", "1", "1", "987654321/123456790"], 4),
    (["borromean", "99999999999999999999", "1", "1"], 3),
])
def test_lspace_slopes_past_the_old_descent_caps_are_certified_in_under_2_s(capsys, argv, distinct):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--json", "lspace", *argv)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert json.loads(out)["distinct_nodes"] == distinct


@pytest.mark.parametrize("argv, bits", [
    # the largest slope of the tests, and the lift of a rational base
    (["slope", "--base", "1", "--target", "1000"], 1 + 1 + 10 + 1),
    (["slope", "--base", "5/2", "--target", "17/5"], 3 + 2 + 5 + 3),
    (["borromean", "1", "5/2", "5"], 1 + 1 + 3 + 2 + 3 + 1),
])
def test_lspace_slopes_at_the_cap_are_accepted_and_one_over_rejected(monkeypatch, capsys, argv, bits):
    monkeypatch.setattr(cli, "MAX_SLOPE_BITS", bits)
    code, out, err = run_cli(capsys, "lspace", *argv)
    assert (code, err) == (0, "") and out
    monkeypatch.setattr(cli, "MAX_SLOPE_BITS", bits - 1)
    assert run_cli(capsys, "lspace", *argv) == (
        1, "", f"error: slope bits={bits} is above the cap {bits - 1}\n"
    )


def test_the_caps_admit_the_slowest_measured_cases():
    # four Fibonacci descents of 2299 triangles, under each pair of integers
    # floor and ceil of 3/2 and 3/2: about 2 s, as `lspace borromean`
    slowest = ((3, 2), (3, 2), (fib(2300), fib(2299)))
    assert cli._slope_bits(*slowest) == 3199 < cli.MAX_SLOPE_BITS
    assert cli._slope_bits(*slowest[:2], (fib(2301), fib(2300))) > cli.MAX_SLOPE_BITS


@pytest.mark.parametrize("base, target, distinct", [
    (Fraction(1), Fraction(1001, 1000), 1002),
    (Fraction(5, 2), Fraction(100), 100),
    (Fraction(99), Fraction(100), 3),
])
def test_slope_descents_of_known_length(base, target, distinct):
    # `distinct` counts the Farey descent, one node per triangle: the
    # certificate with each run expanded into its triangles
    cert = propagate_slope(surgery_lspace_axiom("K", base), target)
    descent = sum(partial_quotients(target)) - ceil(base)
    assert len(expand_runs(cert).to_json_dict()["nodes"]) == distinct <= descent + 3
    assert len(cert.to_json_dict()["nodes"]) <= len(partial_quotients(target)) + 3


def test_the_descent_length_bounds_the_distinct_nodes():
    # a certificate has a node per partial quotient, with no more than three
    # leaves, and the Borromean surgeries one per quotient under each of the
    # at most four integer pairs of the coordinates before it, and a run for
    # each of at most three integers below it
    rng = random.Random("descent")
    built = 0
    for _ in range(300):
        base = Fraction(rng.randint(1, 60), rng.randint(1, 9))
        target = base + Fraction(rng.randint(0, 300), rng.randint(1, 20))
        try:
            cert = propagate_slope(surgery_lspace_axiom("K", base), target)
        except DomainError:  # the descent passes an integer below a rational base
            continue
        built += 1
        assert len(cert.to_json_dict()["nodes"]) <= len(partial_quotients(target)) + 3, (base, target)
    assert built > 250
    for _ in range(200):
        slopes = [1 + Fraction(rng.randint(0, 40), rng.randint(1, 9)) for _ in range(3)]
        cert = certify_borromean(*slopes)
        bound = sum(2**i * len(partial_quotients(x)) for i, x in enumerate(slopes)) + 4 * (3 + 3)
        assert len(cert.to_json_dict()["nodes"]) <= bound, slopes


def _path_tree(weights):
    return {"vertices": weights, "edges": [[i, i + 1] for i in range(len(weights) - 1)]}


TREE_CAP = f"error: field 'vertices' has more than the cap of {cli.MAX_TREE_VERTICES} vertices"


@pytest.mark.parametrize("command, doc, message", [
    ("alt", {"vertices": 100000000, "edges": [[0, 1], [1, 0]]}, "error: graph is not connected"),
    ("alt", {"vertices": cli.MAX_TAIT_EDGES + 2, "edges": []}, "error: graph is not connected"),
    ("alt", {"vertices": 2, "edges": [[0, 1]] * (cli.MAX_TAIT_EDGES + 1)},
     f"error: field 'edges' has more than the cap of {cli.MAX_TAIT_EDGES} edges"),
    ("tree", _path_tree([3] * 200000), TREE_CAP),
    ("tree", _path_tree([3] * (cli.MAX_TREE_VERTICES + 1)), TREE_CAP),
    ("tree", {"vertices": [3, 2], "edges": [[0, 1]] * cli.MAX_TREE_VERTICES},
     "error: a tree on n vertices has n - 1 edges"),
])
def test_graphs_over_the_cap_are_one_line_domain_errors(tmp_path, capsys, command, doc, message):
    # both 200,000-vertex documents ran out of a 2 GB address space uncapped
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lspace", command, str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.splitlines() == [message]


@pytest.mark.parametrize("command, doc", [
    # blow-downs from the weight-1 end keep this tree cheap at the cap
    ("tree", _path_tree([1] + [2] * (cli.MAX_TREE_VERTICES - 2) + [3])),
    # a star on MAX_TAIT_EDGES + 1 vertices has MAX_TAIT_EDGES edges
    ("alt", {"vertices": cli.MAX_TAIT_EDGES + 1,
             "edges": [[0, v] for v in range(1, cli.MAX_TAIT_EDGES + 1)]}),
])
def test_graphs_at_the_cap_are_accepted(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "lspace", command, str(path))
    assert (code, err) == (0, "") and out


def test_tree_weights_over_the_work_cap_are_one_line_domain_errors(tmp_path, capsys):
    # a split decrements a leaf by one, so this 57-byte tree never finished uncapped
    path = tmp_path / "doc.json"
    path.write_text('{"vertices": [1000000000, 1000000000], "edges": [[0, 1]]}')
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lspace", "tree", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: tree work=132000000000 is above the cap {cli.MAX_TREE_WORK}"
    ]


def test_tree_weights_just_under_the_work_cap_are_accepted(tmp_path, capsys):
    # the pair [w, w] has work 2w * (64 + 2)
    w = cli.MAX_TREE_WORK // (2 * 66)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_path_tree([w, w])))
    code, out, err = run_cli(capsys, "lspace", "tree", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"|H1| = {w * w - 1}"
    path.write_text(json.dumps(_path_tree([w + 1, w + 1])))
    assert run_cli(capsys, "lspace", "tree", str(path))[0] == 1


def test_lspace_slope_past_the_recursion_limit(capsys):
    code, out, err = run_cli(capsys, "lspace", "slope", "--base", "1", "--target", "1000")
    assert code == 0 and err == ""
    assert out.splitlines()[:3] == [
        "certified: S3_1000(K)", "|H1| = 1000", "certificate nodes: 3 (re-verified independently)",
    ]


def test_lspace_slope_below_the_base_is_one_line_domain_error(capsys):
    # the Farey descent of 5/2 passes the integer 2, below the base 12/5
    code, out, err = run_cli(capsys, "lspace", "slope", "--base", "12/5", "--target", "5/2")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: the Farey descent of 5/2 reaches 2, below the base slope 12/5"
    ]


@pytest.mark.parametrize("argv, expected", [
    ("hj -7/3", 1),
    ("farey -7/3", 1),
    ("lspace borromean 1 -5/2 5", 1),
    ("lspace slope --base 1 --target -3/2", 1),
    ("hj -7", 1),
    ("hj -1.5", 1),
    ("hj", 64),
])
def test_negative_slopes_are_values_not_options(capsys, argv, expected):
    try:
        code = main(argv.split())
    except SystemExit as exc:  # usage errors leave through argparse
        code = exc.code
    captured = capsys.readouterr()
    assert code == expected and captured.out == ""
    if expected == 1:
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["lspace", "borromean", "1", "5/2", "5"],
    ["lspace", "slope", "--base", "5/2", "--target", "13/5"],
    ["lspace", "alt", "{alt}"],
    ["lspace", "tree", "{tree}"],
])
def test_lspace_check_reprints_the_build(tmp_path, capsys, argv):
    (tmp_path / "alt.json").write_text(json.dumps({"vertices": 2, "edges": [[0, 1]] * 4}))
    (tmp_path / "tree.json").write_text(json.dumps({"vertices": [3, 2, 2, 2], "edges": [[0, 1], [0, 2], [0, 3]]}))
    argv = [a.format(alt=tmp_path / "alt.json", tree=tmp_path / "tree.json") for a in argv]
    code, built, _ = run_cli(capsys, *argv)
    assert code == 0
    _, doc, _ = run_cli(capsys, "--json", *argv)
    envelope = tmp_path / "envelope.json"
    envelope.write_text(doc)
    table = tmp_path / "table.json"
    table.write_text(json.dumps(json.loads(doc)["certificate"]))
    for path in (envelope, table):
        assert run_cli(capsys, "lspace", "check", str(path)) == (0, built, "")
    assert run_cli(capsys, "--json", "lspace", "check", str(table)) == (0, doc, "")


@pytest.mark.parametrize("command", ["check", "tree", "alt"])
@pytest.mark.parametrize("make, message", [
    (lambda tmp: tmp, "cannot read"),
    (lambda tmp: _write_bytes(tmp / "latin1.json", b'{"vertices": "\xe9"}'), "is not UTF-8 text"),
    (lambda tmp: _write_bytes(tmp / "deep.json", b"[" * 100_000), "nested too deeply"),
    (lambda tmp: tmp / "missing.json", "cannot read"),
])
def test_unreadable_input_is_one_line_domain_error(tmp_path, capsys, command, make, message):
    path = make(tmp_path)
    code, out, err = run_cli(capsys, "lspace", command, str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert message in err and str(path) in err


def _write_bytes(path, data):
    path.write_bytes(data)
    return path


def test_lspace_check_rejects_a_tampered_file_in_one_line(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "--json", "lspace", "borromean", "1", "5/2", "5")
    table = json.loads(out)["certificate"]
    table["nodes"][table["root"]]["conclusion"]["h1"] = 26
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "lspace", "check", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: certificate rejected: node 6 (triangle-run): ")


def test_lspace_check_rejects_a_one_premise_rule_on_a_borromean_node_in_one_line(capsys):
    """The table: S3, and M(1,1,1) by blow-down from it."""
    code, out, err = run_cli(capsys, "lspace", "check", str(DATA / "forged_one_premise_borromean.json"))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: certificate rejected: node 1 (blow-down): "
        "the premises are not a blow-down move on this borromean node"
    ]


@pytest.mark.parametrize("cert, param, text", [
    (connected_sum_lens_axiom([2, 3]), "orders", "2,x"),
    (connected_sum_lens_axiom([2, 3]), "orders", ""),
    (certify_tree(WeightedTree((2, 2), ((0, 1),))), "edges", "0-1-2"),
    (certify_tree(WeightedTree((2, 2), ((0, 1),))), "weights", "2,,2"),
    (certify_alternating(TaitGraph(2, ((0, 1), (0, 1)))), "edges", "0-1,1"),
    (certify_alternating(TaitGraph(2, ((0, 1), (0, 1)))), "vertices", "2.0"),
    (lens_axiom(5), "p", "5,1"),
    (lens_axiom(5), "q", "9" * 5000),  # past int()'s digit limit
], ids=["orders-not-an-integer", "orders-empty", "edge-of-three-vertices", "weights-empty-entry",
        "edge-of-one-vertex", "vertices-not-an-integer", "p-a-list", "q-too-long"])
def test_lspace_check_names_a_malformed_param_in_one_line(tmp_path, capsys, cert, param, text):
    table = cert.to_json_dict()
    root = table["nodes"][table["root"]]
    root["conclusion"]["params"][param] = text
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "lspace", "check", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: certificate rejected: node {table['root']} ({root['rule']}): "
        f"{root['conclusion']['kind']} fact has a malformed parameter {param!r}"
    ]


def _forged_pretzel_star(n):
    """The committed table with n for 20,000,001: L(2n + 4, 1), and the
    (2n + 4)-filling of the (-2, 3, n) pretzel knot identified with it."""
    text = (DATA / "forged_pretzel_star.json").read_text()
    return text.replace("40000006", str(2 * n + 4)).replace("20000001", str(n))


@pytest.mark.parametrize("n", [20_000_001, 10**40 + 1])
def test_lspace_check_rejects_a_forged_pretzel_star_in_one_line(tmp_path, capsys, n):
    """The star of n has (n - 1)/2 vertices; the checker compares that count
    with the premise's before it builds the star."""
    path = tmp_path / "forged.json"
    path.write_text(_forged_pretzel_star(n))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lspace", "check", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: certificate rejected: node 1 (seifert-filling-identification): "
        "the premises are not a seifert-filling-identification move on this surgery node"
    ]


@pytest.mark.parametrize("base", ["1", "5/2"])
def test_lspace_slope_on_the_empty_knot_name_is_certified(tmp_path, capsys, base):
    argv = ["lspace", "slope", "--base", base, "--target", "3", "--knot", ""]
    code, built, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert built.splitlines()[0] == "certified: S3_3()"
    _, doc, _ = run_cli(capsys, "--json", *argv)
    path = tmp_path / "empty_knot.json"
    path.write_text(doc)
    assert run_cli(capsys, "lspace", "check", str(path)) == (0, built, "")


def _lens_leaf(descriptor, h1, p, q):
    """A one-node table: the lens-space axiom on the lens fact with these params."""
    conclusion = {"descriptor": descriptor, "h1": h1, "kind": "lens", "params": {"p": p, "q": q}}
    return {"format": 2, "root": 0, "nodes": [
        {"id": 0, "rule": "axiom:lens-space", "premises": [], "conclusion": conclusion},
    ]}


@pytest.mark.parametrize("doc, message", [
    ({"format": 1}, "format-2"),
    ({"format": 2, "root": 0, "nodes": [{"id": 0, "rule": "axiom:three-sphere", "premises": [0],
      "conclusion": {"descriptor": "S3", "h1": 1, "kind": "lens", "params": {"p": "1", "q": "1"}}}]},
     "forward or cyclic"),
    ([1, 2], "format-2"),
    (_lens_leaf("L(5,7)", 5, "5", "7"),
     "error: certificate rejected: node 0 (axiom:lens-space): no lens space L(5, 7)"),
    (_lens_leaf("L(5,-2)", 5, "5", "-2"),
     "error: certificate rejected: node 0 (axiom:lens-space): no lens space L(5, -2)"),
    (_lens_leaf("S3", 1, "1", "7"),
     "error: certificate rejected: node 0 (axiom:lens-space): no lens space L(1, 7)"),
])
def test_lspace_check_rejects_a_malformed_table_in_one_line(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "lspace", "check", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("argv", [
    "octet verify", "triangle verify", "lspace tree", "lspace alt", "lspace check",
])
def test_an_over_long_integer_is_malformed_json(tmp_path, capsys, argv):
    # past the 4,300 digits Python converts by default, json.load raises a
    # ValueError that is no JSONDecodeError
    path = tmp_path / "long.json"
    path.write_text('{"dims": [' + "9" * 5000 + ", 0, 0]}")
    code, out, err = run_cli(capsys, *argv.split(), str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: malformed JSON input in {path}: ")


def _one_node(kind, params):
    """A one-node table: the three-sphere axiom on a fact of this kind."""
    conclusion = {"descriptor": "Y", "h1": 1, "kind": kind, "params": params}
    return {"format": 2, "root": 0, "nodes": [
        {"id": 0, "rule": "axiom:three-sphere", "premises": [], "conclusion": conclusion},
    ]}


def _edge_text(pairs):
    return ",".join(f"{a}-{b}" for a, b in pairs)


def _node_over_the_cap(node, rule, field, cap, noun):
    return (f"error: certificate rejected: node {node} ({rule}): "
            f"field '{field}' has more than the cap of {cap} {noun}")


@pytest.mark.parametrize("table, message", [
    # a dense Bareiss elimination took 11.3 s on this 4.8 KB node uncapped
    (_one_node("branched-double-cover", {
        "vertices": "600", "edges": _edge_text((v, v + 1) for v in range(599))}),
     _node_over_the_cap(0, "axiom:three-sphere", "edges", cli.MAX_TAIT_EDGES, "edges")),
    # one list per declared vertex: 149 MiB at 10^6 uncapped
    (_one_node("branched-double-cover", {"vertices": "1000000000", "edges": ""}),
     "error: certificate rejected: node 0 (axiom:three-sphere): graph is not connected"),
    (_one_node("branched-double-cover", {
        "vertices": "2", "edges": _edge_text([(0, 1)] * (cli.MAX_TAIT_EDGES + 1))}),
     _node_over_the_cap(0, "axiom:three-sphere", "edges", cli.MAX_TAIT_EDGES, "edges")),
    (_one_node("tree-boundary", {
        "weights": ",".join(["2"] * 2000), "edges": _edge_text((0, v) for v in range(1, 2000))}),
     _node_over_the_cap(0, "axiom:three-sphere", "weights", cli.MAX_TREE_VERTICES, "vertices")),
    # what `lspace alt` and `lspace tree` would certify one past their caps
    (certify_alternating(TaitGraph(
        cli.MAX_TAIT_EDGES + 2, tuple((v, v + 1) for v in range(cli.MAX_TAIT_EDGES + 1)),
    )).to_json_dict(),
     _node_over_the_cap(cli.MAX_TAIT_EDGES + 1, "reduce", "edges", cli.MAX_TAIT_EDGES, "edges")),
    (certify_tree(WeightedTree(
        (1,) + (2,) * (cli.MAX_TREE_VERTICES - 1) + (3,),
        tuple((v, v + 1) for v in range(cli.MAX_TREE_VERTICES)),
    )).to_json_dict(),
     _node_over_the_cap(cli.MAX_TREE_VERTICES, "blow-down", "weights", cli.MAX_TREE_VERTICES,
                        "vertices")),
], ids=["tait-path-600", "tait-declares-10^9", "tait-edges", "tree-star-2000",
        "alt-one-over", "tree-one-over"])
def test_lspace_check_caps_every_tree_and_tait_graph(tmp_path, capsys, table, message):
    path = tmp_path / "over.json"
    path.write_text(json.dumps(table))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lspace", "check", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.splitlines() == [message]


@pytest.mark.parametrize("command, doc", [
    ("alt", {"vertices": cli.MAX_TAIT_EDGES + 1,
             "edges": [[v, v + 1] for v in range(cli.MAX_TAIT_EDGES)]}),
    ("tree", _path_tree([1] + [2] * (cli.MAX_TREE_VERTICES - 2) + [3])),
], ids=["alt-64-edge-path", "tree-500-vertex-path"])
def test_certificates_built_at_the_caps_check(tmp_path, capsys, command, doc):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(doc))
    code, built, _ = run_cli(capsys, "--json", "lspace", command, str(graph))
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(built)
    assert run_cli(capsys, "--json", "lspace", "check", str(cert)) == (0, built, "")


@pytest.mark.parametrize("argv", [
    "genus-scan 0",
    "genus-scan 2 --pmax 0",
    "series tau --truncate -1",
    "series surgery 3 1 --truncate -1",
    "series twisted --truncate -1",
    "dinv 0 1",
    "dinv 4 0",
    "lspace slope --base 0 --target 1",
])
def test_out_of_range_arguments_are_one_line_domain_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")



def _planted_mismatch(p, q):
    return LatticeCheckReport(p, q, False, (-2 * p,), (0,))


def test_lattice_check_mismatch_prints_then_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "lattice_vs_recursion_check", _planted_mismatch)
    code, out, err = run_cli(capsys, "lattice-check", "9", "7")
    assert code == 2
    assert out.splitlines() == ["L(9,7)", "lattice oracle:  -2", "4 * d-recursion: 0", "MISMATCH"]
    assert err.splitlines() == [
        "internal invariant violated: lattice oracle disagrees with the recursion"
    ]
    code, out, err = run_cli(capsys, "--json", "lattice-check", "9", "7")
    assert code == 2
    assert json.loads(out) == {
        "p": 9, "q": 7, "lattice_multiset": ["-2/1"], "recursion_multiset": ["0/1"],
        "equal": False,
    }
    assert len(err.splitlines()) == 1
