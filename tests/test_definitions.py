"""Tooling: every definition in src/splinemask/ is read somewhere besides its own body.

The definitions are the top-level functions and classes and the methods
and properties of the top-level classes; dunder methods, which Python calls
itself, are left out. A reader is a name, an attribute or an imported name
with the definition's identifier, anywhere in src/, tests/ or perfbench/,
outside the definition itself. The re-exports of the package `__init__.py`
are not readers: a name only re-exported has no caller. Names are matched by
identifier alone, so a reader of one module's name also counts for a
namesake in another, and a reader of one class's method for a namesake
method of another class.
"""
import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splinemask"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
READERS = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py") if path != PACKAGE / "__init__.py")


def read_counts(tree: ast.AST) -> Counter[str]:
    """How often the tree reads each identifier: names, attributes and the names its imports bind."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def read_names(tree: ast.AST) -> set[str]:
    return set(read_counts(tree))


@lru_cache(maxsize=None)
def names_read_in(path: Path) -> frozenset[str]:
    return frozenset(read_names(ast.parse(path.read_text())))


def definitions(tree: ast.Module):
    """(label, node) for each top-level function and class, and each non-dunder method of a top-level class as `Class.name`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{member.name}", member) for member in node.body
                        if isinstance(member, functions) and not member.name.startswith("__"))


def dead_definitions(module: str, read_elsewhere: set[str]) -> list[str]:
    """Definitions of `module` read neither elsewhere nor by the module outside their own body.

    A read inside the definition, such as a recursive call, does not count.
    """
    tree = ast.parse(module)
    read = read_counts(tree)
    return sorted(label for label, node in definitions(tree)
                  if node.name not in read_elsewhere and read[node.name] == read_counts(node)[node.name])


def test_dead_definitions_finds_planted_definitions():
    module = ("def used():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
              "class Orphan:\n    pass\n\n"
              "def _mesh_reach(mesh, quad, grid):\n    return grid\n")
    assert dead_definitions(module, set()) == ["Orphan", "_mesh_reach", "recursive"]
    elsewhere = read_names(ast.parse("from pkg import recursive\nx = pkg.Orphan()\n"))
    assert dead_definitions(module, elsewhere) == ["_mesh_reach"]


def test_dead_definitions_finds_planted_members():
    module = ("class Grid:\n"
              "    def __init__(self):\n        self.size = 2\n\n"
              "    @property\n    def area(self):\n        return self.size * self.size\n\n"
              "    @property\n    def unread(self):\n        return self.unread\n\n"
              "    @classmethod\n    def square(cls):\n        return cls()\n\n"
              "    def used_inside(self):\n        return self.area\n\n"
              "def build():\n    return Grid.square().used_inside()\n")
    assert dead_definitions(module, {"build"}) == ["Grid.unread"]
    assert dead_definitions(module, {"unread"}) == ["build"]
    # with its one caller gone a method is flagged, but not what it reads: the check is not transitive
    assert dead_definitions(module.replace("used_inside()", "size"), {"build"}) == [
        "Grid.unread", "Grid.used_inside"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_top_level_definition_has_a_reader(path):
    elsewhere = set().union(*(names_read_in(reader) for reader in READERS if reader != path))
    assert dead_definitions(path.read_text(), elsewhere) == []
