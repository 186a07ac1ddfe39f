"""Mutated input documents: the CLI exits 0 or 1, and on 1 prints one line.

Each example starts from a valid octet, cone-triple, tree or Tait-graph
document, or the node table of a slope certificate (one with a run node
among its triangles, one a single run), and applies a few
random edits anywhere in it: replace a value, mostly by one of the same
JSON type, delete a key or list item, or add one; now and then it also
cuts the JSON text short.  Every call must return
exit code 0 with nothing on stderr, or exit code 1 with a one-line
diagnostic; any other exception fails the test.
Every integer drawn lies in -3..12, so every mutated document stays small,
except that one example in three ends with an edit of a size the loaders
cap: it sets a Tait vertex count, or one entry of `dims`, `vertices` or an
edge, to a negative integer or to one from just below its cap to far above
it, or it grows the `vertices` or `edges` list to anywhere from just below
its cap to four times it.  One example in six also writes a 5,000-digit
integer somewhere, past the 4,300 digits Python converts by default.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslab.cli import (
    MAX_DIM,
    MAX_TAIT_EDGES,
    MAX_TAIT_VERTICES,
    MAX_TREE_VERTICES,
    main,
)
from lenslab.lspacecert import propagate_slope, surgery_lspace_axiom

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
    "certificate": (
        ["lspace", "check"],
        propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(5, 2)).to_json_dict(),
    ),
    # 12 = 1 + 11 * (1/0), one run node
    "run-certificate": (
        ["lspace", "check"],
        propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(12)).to_json_dict(),
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


def large(data, cap):
    """A negative integer, or one from just below `cap` to far above it; about
    one draw in three is -1, cap - 1, cap, cap + 1, 10^8 or 10^12."""
    return data.draw(
        st.sampled_from([-1, cap - 1, cap, cap + 1, 10**8, 10**12])
        | st.integers(-10**12, -1) | st.integers(cap - 1, 10**12)
    )


def set_large(data, doc):
    """Make one size in `doc` large or negative; False if it has none to edit."""
    tree = isinstance(doc.get("vertices"), list)
    caps = {
        "dims": MAX_DIM,
        "vertices": MAX_TREE_VERTICES if tree else MAX_TAIT_VERTICES,
        "edges": MAX_TREE_VERTICES - 1 if tree else MAX_TAIT_EDGES,
    }
    names = [name for name in sorted(caps) if name in doc]
    if not names:
        return False
    name = data.draw(st.sampled_from(names))
    value, cap = doc[name], caps[name]
    if type(value) is int:
        doc[name] = large(data, cap)
    elif not isinstance(value, list) or not value:
        return False
    elif name != "dims" and data.draw(st.booleans()):
        doc[name] = (value * 4 * cap)[:data.draw(st.integers(cap - 1, 4 * cap))]
    else:
        i = data.draw(st.integers(0, len(value) - 1))
        if isinstance(value[i], list) and value[i]:  # an edge: one endpoint
            value[i][data.draw(st.integers(0, len(value[i]) - 1))] = large(data, cap)
        else:
            value[i] = large(data, cap)
    return True


HUGE = "<huge>"  # written out as a 5,000-digit integer


def set_huge(data, doc):
    """Put HUGE into one slot of `doc`, or insert it into one of its lists."""
    target = data.draw(st.sampled_from(containers(doc)))
    if isinstance(target, dict):
        target[data.draw(st.sampled_from(sorted(target) + list(KEYS)))] = HUGE
    else:
        target.insert(data.draw(st.integers(0, len(target))), HUGE)


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
    sized = data.draw(st.integers(0, 2)) == 0
    for _ in range(data.draw(st.integers(0 if sized else 1, 3))):
        mutate(data, doc)
    if sized:
        set_large(data, doc)  # last, so that no other edit undoes it
    if data.draw(st.integers(0, 5)) == 0:
        set_huge(data, doc)
    text = json.dumps(doc).replace(json.dumps(HUGE), "9" * 5000)
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
