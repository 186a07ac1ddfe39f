"""`Fraction` only where a public signature or a digest still needs it.

Slopes are reduced integer pairs and d-values integers scaled by 4p, so a
module imports `fractions` only for one of the reasons below.
"""

import ast
from fractions import Fraction
from pathlib import Path

import lenslab
from lenslab.f2homalg.series import twisted_genus1_series
from lenslab.lspacecert import (
    certify_borromean,
    certify_pretzel_surgeries,
    check_certificate,
    propagate_slope,
    surgery_lspace_axiom,
)

MAY_IMPORT_FRACTIONS = {
    "lensdi.py": "d_rec and d_table are Fraction views: perfbench/tracing.py wraps d_rec "
                 "by name, and perfbench/workloads.py's `tables` oracle digests d_table",
    "cli.py": "`lspace slope` and `lspace borromean` hand the builders Fraction slopes",
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


def test_integer_slopes_and_exponents_build_no_fraction(monkeypatch):
    def forbidden(cls, *args, **kwargs):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(Fraction, "__new__", forbidden)
    assert check_certificate(certify_borromean(1, 5, 1)) > 0
    assert check_certificate(propagate_slope(surgery_lspace_axiom("K", 3), 11)) > 0
    assert check_certificate(certify_pretzel_surgeries(9, 22)) > 0
    assert str(twisted_genus1_series(25)).startswith("mu(-1) + mu(1) + U*(mu(-3) + mu(3))")
