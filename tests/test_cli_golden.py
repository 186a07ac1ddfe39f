"""CLI stdout, byte for byte, against a recorded transcript.

`tests/data/cli_golden.txt` holds the stdout of every invocation below, each
preceded by a `$ lenslab ...` line.  An argument `data/NAME` names a fixture
in `tests/data/`; the transcript shows it in that form, so it does not depend
on the working directory.  Regenerate it (only when an output
change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.txt

`tests/data/cli_pins.txt` pins the cap-size runs, whose stdout is too long for
the transcript, by its SHA-256: one line per run,
`<seconds> <sha256 of stdout> <arguments>`.  CI runs every row with the
installed script under `timeout <seconds>`; here every row with a limit of at
most 15 s runs in-process.  A row records `lenslab <arguments> | sha256sum`
taken at the parent commit, before any code changes, so that a pin checks a
change against the code it replaces; a change that alters a pinned output on
purpose records the new digest and says why in CHANGES.md.  To see which rows
an edit moves, run

    PYTHONPATH=src python tests/test_cli_golden.py --pins

at the parent and at the change and diff the two pin tables: it rewrites
`tests/data/cli_pins.txt` with every digest recomputed in-process, every
row of it included, and every limit and argument list unchanged.
"""

import contextlib
import hashlib
import io
import re
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from lenslab.cli import build_parser, main
from lenslab.lspacecert import Certificate
from lenslab.plumblat import LatticeCheckReport

HERE = Path(__file__).parent
GOLDEN = HERE / "data" / "cli_golden.txt"
PINS = HERE / "data" / "cli_pins.txt"


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def invocations() -> list[list[str]]:
    runs = [
        ["dinv", "9", "7"], ["--json", "dinv", "9", "7"],
        ["dinv", "1009", "13"], ["--json", "dinv", "1009", "13"],
        ["dinv", "12", "5"], ["--json", "dinv", "12", "5"],
    ]
    for p in range(1, 26):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or (q == p and p > 1):
                continue
            pq = ["alexlens", str(p), str(q)]
            runs += [
                pq, pq + ["--literal-Lsigma"], ["--json"] + pq, pq + ["--no-pm1-filter"],
                ["--json"] + pq + ["--no-pm1-filter"],
            ]
    runs += [
        ["--json", "alexlens", "9", "7", "--literal-Lsigma"],
        ["--json", "alexlens", "18", "13", "--literal-Lsigma", "--no-pm1-filter"],
    ]
    for g in ("2", "3", "6", "10"):
        runs += [["genus-scan", g], ["--json", "genus-scan", g, "--no-pm1-filter"]]
    runs.append(["lattice-check", "9", "7"])
    for pq in (["41", "40"], ["30", "19"], ["25", "7"], ["24", "23"]):
        runs += [["lattice-check", *pq], ["--json", "lattice-check", *pq]]
    for n in range(26):
        for kind in ("tau", "twisted"):
            series = ["series", kind, "--truncate", str(n)]
            runs += [series, ["--json"] + series]
    for p in range(1, 9):
        for n0 in range(p):
            for truncate in ([], ["--truncate", "25"]):
                series = ["series", "surgery", str(p), str(n0)] + truncate
                runs += [series, ["--json"] + series]
    files = [
        ["octet", "verify", "data/octet_ok.json"],
        ["octet", "verify", "data/octet_fails.json"],
        ["triangle", "verify", "data/cone_holds.json"],
        ["triangle", "verify", "data/cone_fails.json"],
        ["lspace", "tree", "data/tree.json"],
        ["lspace", "alt", "data/tait.json"],
        ["lspace", "slope", "--base", "3/2", "--target", "17/5"],
        ["lspace", "slope", "--base", "18", "--target", "37/2", "--knot", "(-2,3,7)-pretzel"],
        ["lspace", "borromean", "1", "5/2", "5"],
        ["lspace", "borromean", "7/2", "5/3", "4"],
        ["lspace", "check", "data/certificate.json"],
        ["hj", "17/5"], ["hj", "89/55"], ["hj", "4"],
        ["farey", "17/5"], ["farey", "89/55"], ["farey", "3"],
        ["farey", "1"], ["farey", "1/2"], ["farey", "10/4"], ["farey", "0"], ["farey", "1/0"],
        ["farey", f"{fib(301)}/{fib(300)}"], ["hj", "1"],
    ]
    for argv in files:
        runs += [argv, ["--json"] + argv]
    return runs


def run(argv: list[str]) -> str:
    """The stdout of one invocation as the transcript records it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(HERE / a) if a.startswith("data/") else a for a in argv])
    if code != 0:
        out.write(f"[exit {code}]\n")
    return out.getvalue()


def render() -> str:
    return "".join("$ lenslab " + " ".join(argv) + "\n" + run(argv) for argv in invocations())


def transcript() -> dict[str, str]:
    """The recorded stdout of each invocation, keyed by its arguments joined by spaces."""
    blocks = re.split(r"^\$ lenslab ", GOLDEN.read_text(), flags=re.M)[1:]
    return dict(block.split("\n", 1) for block in blocks)


def test_cli_stdout_matches_golden():
    expected = GOLDEN.read_text()
    actual = render()
    if actual != expected:
        got, want = actual.splitlines(), expected.splitlines()
        first = next(
            (k for k, (a, b) in enumerate(zip(got, want)) if a != b),
            min(len(got), len(want)),
        )
        raise AssertionError(
            f"stdout differs from {GOLDEN.name} at line {first + 1}: "
            f"got {got[first:first + 1]!r}, want {want[first:first + 1]!r}"
        )


def pins() -> list[list[str]]:
    """The rows of the pin table, each split into limit, digest and arguments."""
    return [line.split() for line in PINS.read_text().splitlines()]


@pytest.mark.parametrize("digest, argv", [
    pytest.param(digest, argv, id=" ".join(argv))
    for seconds, digest, *argv in pins() if int(seconds) <= 15
])
def test_pinned_stdout_digest(digest, argv):
    assert hashlib.sha256(run(argv).encode()).hexdigest() == digest


def test_every_pin_row_is_well_formed():
    for seconds, digest, *argv in pins():
        assert seconds.isdigit() and int(seconds) > 0, seconds
        assert re.fullmatch("[0-9a-f]{64}", digest), digest
        try:
            assert build_parser().parse_args(argv).command, argv
        except SystemExit:
            pytest.fail(f"lenslab rejects the arguments {argv}")


def _refuse(*args, **kwargs):
    raise AssertionError("built what the output does not need")


def test_dinv_and_alexlens_print_without_a_fraction(monkeypatch):
    """`dinv`, `alexlens` and `lattice-check` write every rational from its
    scaled integer, and `lattice-check` expands p/q as an integer pair."""
    golden = transcript()
    monkeypatch.setattr(Fraction, "__new__", _refuse)
    for argv in (
        ["dinv", "12", "5"], ["--json", "dinv", "12", "5"],
        ["alexlens", "18", "13", "--literal-Lsigma"],
        ["--json", "alexlens", "9", "7", "--literal-Lsigma"],
        ["--json", "alexlens", "18", "13", "--literal-Lsigma", "--no-pm1-filter"],
        ["lattice-check", "9", "7"], ["--json", "lattice-check", "41", "40"],
    ):
        assert run(argv) == golden[" ".join(argv)], argv


def test_text_mode_builds_no_json_document(monkeypatch):
    golden = transcript()
    monkeypatch.setattr(LatticeCheckReport, "to_json_dict", _refuse)
    monkeypatch.setattr(Certificate, "to_json_dict", _refuse)
    for argv in (
        ["lattice-check", "9", "7"],
        ["lspace", "slope", "--base", "3/2", "--target", "17/5"],
        ["lspace", "check", "data/certificate.json"],
    ):
        assert run(argv) == golden[" ".join(argv)], argv


def repinned() -> str:
    """The pin table with each digest recomputed in-process."""
    return "".join(
        f"{seconds} {hashlib.sha256(run(argv).encode()).hexdigest()} {' '.join(argv)}\n"
        for seconds, _, *argv in pins()
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--pins"]:
        PINS.write_text(repinned())
    else:
        sys.stdout.write(render())
