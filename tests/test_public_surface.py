"""`src/lenslab` keeps only what is called or documented.

Every module-level public function and class of the package, and every
public method of such a class, must be used outside its own definition:
  - a function or class by its bare name in its own module, or anywhere in
    `src/` or `perfbench/*.py` by an attribute (`module.name`) or by an
    import whose module also uses the name it binds, so an import kept
    only to be wrapped or re-exported does not count;
  - a method by an attribute (`x.name`) in `src/` or `perfbench/*.py`, so
    a local variable of the same name does not count;
  - or either by a string constant in `perfbench/*.py`, since the
    benchmark's tracer wraps functions by their names as strings (the files
    are parsed, not imported);
  - or either named in backticks in the README's "What is inside" table.
Docstrings, comments and `__all__` lists do not count.  A name that meets
none of these is dead weight or a test fixture, and belongs deleted or
under `tests/`.  Each package `__init__.py` holds only its docstring, so
every public name has one import path, its module's.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def uses(tree: ast.AST) -> Counter:
    """How often each name occurs in `tree`, keyed by (kind, name): kind
    "name" for a bare name, "attribute" for an attribute and "import" for an
    imported name (the last dotted part of it) whose bound name, its alias
    or its first dotted part, also occurs in `tree` as a bare name."""
    found = Counter()
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            found["attribute", node.attr] += 1
        elif isinstance(node, ast.alias):
            imports.append(node)
    for node in imports:
        if found["name", node.asname or node.name.split(".", 1)[0]]:
            found["import", node.name.rsplit(".", 1)[-1]] += 1
    return found


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
    (see `public_definitions`) that is used in none of the ways the module
    docstring lists."""
    package = root / "src" / "lenslab"
    trees = {path: parse(path) for path in sorted(package.rglob("*.py"))}
    bench = [parse(path) for path in sorted((root / "perfbench").glob("*.py"))]
    everywhere = sum((uses(tree) for tree in (*trees.values(), *bench)), Counter())
    kept = documented((root / "README.md").read_text()) | {
        node.value for tree in bench for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    unused = []
    for path, tree in trees.items():
        module = uses(tree)
        for label, node in public_definitions(tree):
            name, inside = node.name, uses(node)
            seen = everywhere["attribute", name] - inside["attribute", name]
            if "." not in label:  # a function or class, not a method
                seen += module["name", name] - inside["name", name]
                seen += everywhere["import", name] - inside["import", name]
            if not seen and name not in kept:
                unused.append(f"{path.relative_to(package).as_posix()}:{label}")
    return unused


def test_package_init_files_hold_only_a_docstring():
    for path in sorted((ROOT / "src" / "lenslab").rglob("__init__.py")):
        tree = parse(path)
        assert ast.get_docstring(tree) and len(tree.body) == 1, path


def test_every_public_name_is_called_or_documented():
    assert unused_public_names(ROOT) == []


def test_the_guard_sees_each_kind_of_use(tmp_path):
    package = tmp_path / "src" / "lenslab"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text(
        '"""recursive() is named in a docstring only"""\n'
        '__all__ = ["exported"]\n'
    )
    (package / "caller.py").write_text("from .mod import imported as run\nrun()\n")
    (package / "shield.py").write_text("from .mod import shielded  # noqa: F401  never called\n")
    (package / "mod.py").write_text(
        "def imported(): pass\n"
        "def shielded(): pass\n"
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
        "    def shadowed(self): pass\n"
        "    def timed(self): pass\n"
        "    def _private(self): pass\n"
        "def _private(): pass\n"
        "def user(x):\n"
        "    shadowed = called() + x.as_attribute() + Kept().method()\n"
        "    return shadowed\n"
    )
    (tmp_path / "perfbench" / "tracing.py").write_text(
        "from lenslab.mod import benched\n"
        "benched()\nstage.benched()\nwrap(owner, 'wrapped')\ntimed = clock()\n"
    )
    (tmp_path / "README.md").write_text(
        "## What is inside\n\n| `lenslab.mod` | `mod.readme`, `Dead()`, `Kept.documented` |\n\n"
        "## CLI\n\n`user`\n"
    )
    assert unused_public_names(tmp_path) == [
        "mod.py:shielded", "mod.py:exported", "mod.py:recursive", "mod.py:Dead", "mod.py:Dead.make",
        "mod.py:Kept.again", "mod.py:Kept.shadowed", "mod.py:Kept.timed", "mod.py:user",
    ]
