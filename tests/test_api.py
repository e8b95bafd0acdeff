"""Every name the package defines has a caller.

A top-level name of ``src/darkstate/*.py``, public or private (a leading
underscore; dunders aside), or a public method of a top-level class, must
be read somewhere outside its own definition: in ``src/darkstate``
(``__init__.py`` aside), in ``perfbench/*.py``, or as a
``[project.scripts]`` target.  The benchmark tracer looks functions up by
name, so string constants count in ``perfbench``.  Tests are not callers,
so a helper that only the tests read belongs in ``tests/helpers.py``.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "darkstate"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defined_names(tree: ast.Module, methods: bool) -> list[str]:
    """Top-level definitions and assignments, and with ``methods`` the methods of
    top-level classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if methods and isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
        if isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def public_names(tree: ast.Module) -> list[str]:
    """Public top-level definitions and assignments, and public methods of top-level classes."""
    return [name for name in defined_names(tree, methods=True) if not name.startswith("_")]


def private_names(tree: ast.Module) -> list[str]:
    """Private top-level definitions and assignments: a leading underscore, not a dunder."""
    return [name for name in defined_names(tree, methods=False)
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def read_names(tree: ast.Module, strings: bool) -> set[str]:
    """Names read in ``tree`` (loaded names and attributes, and with ``strings`` string
    constants), except where they are read inside a definition of the same name."""
    found = set()

    def visit(node, enclosing: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def callers() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            names |= read_names(parse(path), strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        names |= read_names(parse(path), strings=True)
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for target in scripts.values():
        names.update(target.split(":", 1)[1].split("."))
    return names


def test_every_public_name_has_a_caller():
    called = callers()
    uncalled = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                for name in public_names(parse(path)) if name not in called]
    assert not uncalled, f"public names nothing calls: {uncalled}"


def test_every_private_name_has_a_caller():
    called = callers()
    uncalled = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                for name in private_names(parse(path)) if name not in called]
    assert not uncalled, f"private names nothing in src or perfbench calls: {uncalled}"


def test_guard_sees_definitions_and_callers():
    tree = ast.parse("class A:\n    def m(self):\n        return self.m()\n"
                     "def f():\n    return f()\nX = 1\n_y = A().m\n")
    assert public_names(tree) == ["A", "m", "f", "X"]
    assert private_names(tree) == ["_y"]
    assert private_names(ast.parse("__all__ = []\nclass B:\n    def _m(self): pass\n")) == []
    # recursion is no caller; the read of A.m at top level is
    assert read_names(tree, strings=False) == {"self", "A", "m"}
    assert read_names(ast.parse("g('h')"), strings=True) == {"g", "h"}
