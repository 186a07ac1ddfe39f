"""lenslab has no runtime dependency outside the standard library."""

import ast
import sys
from pathlib import Path

import lenslab

ALLOWED = {"lenslab", "__future__"}


def test_every_absolute_import_is_stdlib_or_lenslab():
    root = Path(lenslab.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in ALLOWED or top in sys.stdlib_module_names, (
                    f"{path.relative_to(root)}:{node.lineno} imports {name}"
                )
