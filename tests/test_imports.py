"""Tooling: static checks on the imports of the modules under tests/ and src/splinemask/.

No module imports a name it never reads; the package `__init__.py` is
skipped, as its imports are the public re-exports. And no package module
imports scipy when it is loaded: the CLI runs on numpy alone, and scipy is
imported inside the library functions that need it.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "splinemask").glob("*.py"))
MODULES = sorted(
    path for path in [*(ROOT / "tests").glob("*.py"), *PACKAGE]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_finds_planted_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.sin(pi))\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def load_time_imports(source: str) -> set[str]:
    """Top-level package names a module imports when it is loaded.

    Statements at module level and in class bodies run on import, at any
    depth of `if`, `try` or `with`; function bodies do not. Relative
    imports name the module's own package and are left out.
    """
    found = set()

    def visit(node):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(ast.parse(source))
    return found


def test_load_time_imports_finds_planted_imports():
    source = (
        "import numpy as np\n"
        "from .optics import cis\n"
        "def kernel():\n    from scipy.special import j1\n    return j1\n"
        "class Table:\n    import scipy.sparse as sparse\n"
        "try:\n    from scipy import spatial\nexcept ImportError:\n    pass\n"
    )
    assert load_time_imports(source) == {"numpy", "scipy"}
    assert load_time_imports(source.replace("scipy", "math")) == {"numpy", "math"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_package_module_imports_scipy_when_loaded(path):
    assert "scipy" not in load_time_imports(path.read_text())
