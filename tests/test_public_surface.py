"""`src/lenslab` keeps only what is called or documented.

Every module-level public function and class of the package, and every
public method of such a class, must be
  - referenced in `src/` outside its own definition, as a name, an
    attribute or an imported name (docstrings and comments do not count);
  - or named in `perfbench/*.py`, as a name or a string constant, since the
    benchmark's tracer wraps functions by their names as strings (the files
    are parsed, not imported);
  - or listed in an `__all__`;
  - or named in backticks in the README's "What is inside" table.
A name that meets none of these is dead weight or a test fixture, and
belongs deleted or under `tests/`.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def references(tree: ast.AST) -> Counter:
    """How often each name occurs in `tree` as a name, an attribute or an
    imported name (the last dotted part of it)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def exported(tree: ast.AST) -> set[str]:
    """The strings listed in the module's `__all__` assignments."""
    return {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }


def documented(readme: str) -> set[str]:
    """The identifiers in backticks in the README's "What is inside" section,
    a dotted one by its last part."""
    section = readme.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    return {
        span.rsplit(".", 1)[-1]
        for span in re.findall(r"`([^`]+)`", section)
        if re.fullmatch(r"[A-Za-z_][\w.]*", span)
    }


def public_definitions(tree: ast.Module):
    """(label, node) for each public module-level function and class, and
    for each public method of such a class, labelled "Class.method"."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused_public_names(root: Path) -> list[str]:
    """"module:name" for each public definition under `root/src/lenslab`
    (see `public_definitions`) that meets none of the four conditions."""
    package = root / "src" / "lenslab"
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(package.rglob("*.py"))}
    used, kept = Counter(), set()
    for tree in trees.values():
        used.update(references(tree))
        kept |= exported(tree)
    for path in sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        kept |= set(references(tree)) | {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    kept |= documented((root / "README.md").read_text())
    return [
        f"{path.relative_to(package).as_posix()}:{label}"
        for path, tree in trees.items()
        for label, node in public_definitions(tree)
        if node.name not in kept and used[node.name] == references(node)[node.name]
    ]


def test_every_public_name_is_called_or_documented():
    assert unused_public_names(ROOT) == []


def test_the_guard_sees_each_kind_of_use(tmp_path):
    package = tmp_path / "src" / "lenslab"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text(
        '"""recursive() is named in a docstring only"""\n'
        "from .mod import imported\n"
        '__all__ = ["exported"]\n'
    )
    (package / "mod.py").write_text(
        "def imported(): pass\n"
        "def exported(): pass\n"
        "def called(): pass\n"
        "def as_attribute(): pass\n"
        "def benched(): pass\n"
        "def wrapped(): pass\n"
        "def readme(): pass\n"
        "def recursive(n): return recursive(n - 1)  # Dead\n"
        "class Dead:\n"
        "    def make(self): return Dead()\n"
        "class Kept:\n"
        "    def method(self): pass\n"
        "    def documented(self): pass\n"
        "    def benched(self): pass\n"
        "    def again(self): return self.again()\n"
        "    def _private(self): pass\n"
        "def _private(): pass\n"
        "def user(x): return called() + x.as_attribute() + Kept().method()\n"
    )
    (tmp_path / "perfbench" / "tracing.py").write_text(
        "benched()\nwrap(owner, 'wrapped')\n"
    )
    (tmp_path / "README.md").write_text(
        "## What is inside\n\n| `lenslab.mod` | `mod.readme`, `Dead()`, `Kept.documented` |\n\n"
        "## CLI\n\n`user`\n"
    )
    assert unused_public_names(tmp_path) == [
        "mod.py:recursive", "mod.py:Dead", "mod.py:Dead.make", "mod.py:Kept.again", "mod.py:user",
    ]
