"""`Fraction` only where a public signature or a digest still needs it.

Slopes are reduced integer pairs and d-values integers scaled by 4p, so a
module imports `fractions` only for one of the reasons below.
"""

import ast
from pathlib import Path

import lenslab

MAY_IMPORT_FRACTIONS = {
    "lensdi.py": "d_rec, d_table, froy_closed_form and grading_diff are Fraction views",
    "lspacecert.py": "the builders take Fraction slopes and turn them into pairs on entry",
    "f2homalg/series.py": "GroupRingElem keeps rational exponents",
    "cli.py": "`lspace slope` and `lspace borromean` pass Fraction slopes to the builders",
}


def fraction_imports(tree: ast.AST) -> list[int]:
    """The line of each `import fractions` or `from fractions import ...`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names if alias.name == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions" and node.level == 0:
            found.append(node.lineno)
    return sorted(found)


def test_fractions_is_imported_only_where_listed():
    root = Path(lenslab.__file__).parent
    importing = {
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        if fraction_imports(ast.parse(path.read_text(), str(path)))
    }
    assert importing == set(MAY_IMPORT_FRACTIONS)


def test_the_guard_sees_each_kind_of_import():
    source = "\n".join([
        "from fractions import Fraction",
        "import fractions",
        "import os, fractions as fr",
        "from .fractions import Fraction",
        "from math import gcd",
        "x = Fraction(1, 2)",
    ])
    assert fraction_imports(ast.parse(source)) == [1, 2, 3]
