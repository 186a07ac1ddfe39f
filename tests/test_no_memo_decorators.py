"""lenslab keeps no memo decorator: an lru_cache or cache on a module-level
function outlives every call, and the package holds no such memo."""

import ast
from pathlib import Path

import lenslab

MEMOS = {"lru_cache", "cache"}


def test_no_module_uses_functools_memo_decorators():
    root = Path(lenslab.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                names = {node.attr}
            else:
                continue
            assert not names & MEMOS, (
                f"{path.relative_to(root)}:{node.lineno} uses functools.{min(names & MEMOS)}"
            )
