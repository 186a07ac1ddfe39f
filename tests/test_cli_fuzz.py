"""Mutated input documents: the CLI exits 0 or 1, and on 1 prints one line.

Each example starts from a valid octet, cone-triple, tree or Tait-graph
document and applies a few random edits anywhere in it: replace a value,
mostly by one of the same JSON type, delete a key or list item, or add one;
now and then it also cuts the JSON text short.  Every call must return
exit code 0 with nothing on stderr, or exit code 1 with a one-line
diagnostic; any other exception fails the test.
Every integer drawn lies in -3..12, so every mutated document stays small.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslab.cli import main

DOCUMENTS = {
    "octet": (
        ["octet", "verify"],
        {"dims": [1, 1, 1], "dos": ["0,0"], "dsu": ["0,0"], "doo": [], "duu": []},
    ),
    "triangle": (
        ["triangle", "verify"],
        {
            "dims": [1, 1, 2],
            "d0": [], "d1": [], "d2": ["1,0"],
            "f0": ["0,0"], "f1": ["1,0"], "f2": ["0,0"],
            "H0": ["0,0"], "H1": [], "H2": ["0,1"],
        },
    ),
    "tree": (
        ["lspace", "tree"],
        {"vertices": [3, 2, 2, 2], "edges": [[0, 1], [0, 2], [0, 3]]},
    ),
    "tait": (
        ["lspace", "alt"],
        {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
    ),
}

KEYS = ("dims", "vertices", "edges", "doo", "dos", "duo", "dIus", "dss", "dsu",
        "dus", "duu", "d0", "d1", "f0", "f2", "H1", "")
ENTRY_TEXTS = st.sampled_from(["0,0", "1,0", "0,1", "1,1", "2,1", "0,-1", "0;0",
                               "1", "", "0,0,0", " 1,0", "a,b", "1_0,0"])
SCALARS = (st.none() | st.booleans() | st.integers(-3, 12) | ENTRY_TEXTS
           | st.floats(allow_nan=False, allow_infinity=False, width=16))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8,
)


def containers(doc):
    """Every list and dict in `doc`, outermost first."""
    found = [doc]
    for child in (doc.values() if isinstance(doc, dict) else doc):
        if isinstance(child, (dict, list)):
            found += containers(child)
    return found


def similar(data, value):
    """A value of the same JSON type as `value`, mostly; any value otherwise."""
    if data.draw(st.integers(0, 4)) == 4:
        return data.draw(VALUES)
    if isinstance(value, bool) or value is None:
        return data.draw(VALUES)
    if isinstance(value, int):
        return data.draw(st.integers(-1, 6))
    if isinstance(value, str):
        return data.draw(ENTRY_TEXTS)
    if isinstance(value, list) and value:
        return [similar(data, item) for item in value]
    return data.draw(VALUES)


def mutate(data, doc):
    """Apply one random edit to `doc` in place."""
    target = data.draw(st.sampled_from(containers(doc)))
    slots = sorted(target) if isinstance(target, dict) else range(len(target))
    action = data.draw(st.sampled_from(["tweak", "delete", "add"] if slots else ["add"]))
    if action == "add":
        if isinstance(target, dict):
            target[data.draw(st.sampled_from(KEYS))] = data.draw(VALUES)
        else:
            model = target[data.draw(st.sampled_from(slots))] if slots else None
            target.insert(data.draw(st.integers(0, len(target))), similar(data, model))
        return
    slot = data.draw(st.sampled_from(slots))
    if action == "delete":
        del target[slot]
    else:
        target[slot] = similar(data, target[slot])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_cleanly(kind, data):
    argv, valid = DOCUMENTS[kind]
    doc = json.loads(json.dumps(valid))
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 5)) == 5:
        text = text[:data.draw(st.integers(0, len(text)))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        code, out, err = run_cli([*argv, str(path)])
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out
    else:
        assert code == 1, err
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_unmutated_documents_succeed(kind):
    argv, valid = DOCUMENTS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(valid))
        code, out, err = run_cli([*argv, str(path)])
    assert (code, err) == (0, "") and out
