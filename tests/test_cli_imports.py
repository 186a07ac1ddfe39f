"""The CLI uses the package through its public names: cli.py imports no
underscore name from a lenslab module."""

import ast
from pathlib import Path

import lenslab


def test_cli_imports_no_private_lenslab_name():
    path = Path(lenslab.__file__).parent / "cli.py"
    private = [
        f"cli.py:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "lenslab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
