"""The README's "As a library" example runs and prints what its comments say.

Each statement of the block is run in order; each expression's value is
checked against the comment on its line, so the example fails here when a
documented name is deleted or renamed, or when a value it states changes.
"""

import ast
import json
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    return README.read_text().split("As a library:\n\n```python\n", 1)[1].split("```", 1)[0]


def run_block(block: str) -> dict[str, tuple[object, str]]:
    """For each expression statement, its source mapped to (its value, the
    comment on its line)."""
    namespace: dict = {}
    lines = block.splitlines()
    values = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            values[ast.get_source_segment(block, stmt)] = (value, comment)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), namespace)
    return values


def test_the_library_example_prints_what_its_comments_state():
    values = run_block(library_block())
    table, stated = values["scaled_d_table(LensSpace(9, 7))"]
    assert table == ast.literal_eval(stated) == (0, 8, -16, 0, -16, 8, 0, 32, 32)
    expansion, stated = values["hj_expand((9, 7))"]
    assert expansion == ast.literal_eval(stated) == [2, 2, 2, 3]
    polys, stated = values["[c.poly for c in candidate_polynomials(LensSpace(9, 7))]"]
    assert stated == "the (2,5)-torus knot"
    assert [str(p) for p in polys] == ["T^2 - T + 1 - T^-1 + T^-2"]
    count, stated = values["check_certificate(cert)"]
    assert stated == "re-verifies every node, returns node count"
    assert count == 7
    text, stated = values["certificate_json(cert)"]
    assert stated == "the format-2 node table, one line of JSON"
    assert "\n" not in text and json.loads(text)["format"] == 2
    assert len(json.loads(text)["nodes"]) == count
