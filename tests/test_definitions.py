"""Tooling: every top-level function and class in src/splinemask/ is read somewhere besides its own body.

A reader is a name, an attribute or an imported name with the definition's
identifier, anywhere in src/, tests/ or perfbench/, outside the definition
itself. The re-exports of the package `__init__.py` are not readers: a name
only re-exported has no caller. Names are matched by identifier alone, so a
reader of one module's name also counts for a namesake in another.
"""
import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splinemask"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
READERS = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py") if path != PACKAGE / "__init__.py")


def read_names(tree: ast.AST) -> set[str]:
    """Identifiers the tree reads: names, attributes and the names its imports bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@lru_cache(maxsize=None)
def names_read_in(path: Path) -> frozenset[str]:
    return frozenset(read_names(ast.parse(path.read_text())))


def dead_definitions(module: str, read_elsewhere: set[str]) -> list[str]:
    """Top-level functions and classes of `module` read neither elsewhere nor by the module's other statements."""
    tree = ast.parse(module)
    defined = {node.name: node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    read = set(read_elsewhere)
    for node in tree.body:
        names = read_names(node)
        if defined.get(getattr(node, "name", None)) is node:
            names.discard(node.name)  # its own body, such as a recursive call
        read |= names
    return sorted(set(defined) - read)


def test_dead_definitions_finds_planted_definitions():
    module = ("def used():\n    return 1\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
              "class Orphan:\n    pass\n\n"
              "def _mesh_reach(mesh, quad, grid):\n    return grid\n")
    assert dead_definitions(module, set()) == ["Orphan", "_mesh_reach", "recursive"]
    elsewhere = read_names(ast.parse("from pkg import recursive\nx = pkg.Orphan()\n"))
    assert dead_definitions(module, elsewhere) == ["_mesh_reach"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_top_level_definition_has_a_reader(path):
    elsewhere = set().union(*(names_read_in(reader) for reader in READERS if reader != path))
    assert dead_definitions(path.read_text(), elsewhere) == []
