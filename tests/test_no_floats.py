"""lenslab computes with integers and Fraction only: no float anywhere."""

import ast
from pathlib import Path

import lenslab

# the integer functions of math; the rest of math takes or returns floats
MATH_ALLOWED = {"gcd", "ceil", "floor", "prod", "isqrt", "lcm", "comb"}


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float or complex literal, each name float or
    complex, and each import from math outside MATH_ALLOWED in `tree`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"the literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, f"the name {node.id}"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import math") for alias in node.names if alias.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and node.level == 0:
            found += [
                (node.lineno, f"math.{alias.name}")
                for alias in node.names
                if alias.name not in MATH_ALLOWED
            ]
    return sorted(found)


def test_no_float_in_the_package():
    root = Path(lenslab.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(root)}:{line}: {what}"
        for path in modules
        for line, what in float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_guard_sees_each_kind_of_float():
    source = "\n".join([
        "if rng.random() < 0.5: pass",
        "z = 2j",
        "x = float(y)",
        "ok = isinstance(x, complex)",
        "import math",
        "from math import gcd, sqrt",
        "from math import isqrt as root, prod",
        "from .math import sqrt",
        "n = 7 // 2",
    ])
    assert float_uses(ast.parse(source)) == [
        (1, "the literal 0.5"),
        (2, "the literal 2j"),
        (3, "the name float"),
        (4, "the name complex"),
        (5, "import math"),
        (6, "math.sqrt"),
    ]
