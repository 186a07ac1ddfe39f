"""Every Python file of the project parses under the Python 3.10 grammar.

`pyproject.toml` requires Python >= 3.10.  This parses each `.py` file under
`src/`, `tests/` and `perfbench/` with `ast.parse(..., feature_version=(3,
10))`, so syntax that is new in 3.11 or later (an `except*` clause, say)
fails here on any interpreter.  It cannot catch library calls that are new
in 3.11 (a module, function or argument 3.10 lacks): those need a 3.10
interpreter to run the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_the_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
