"""Every name a package module imports or keeps private is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "pillartune"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_guard_sees_used_and_unused_names():
    source = "import os\nimport scipy.sparse as sp\nfrom math import pi, tau\nsp.eye(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_names(source: str) -> list[str]:
    """Module-level ``_names`` (not dunders) that the module never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(private - read)


def test_private_guard_sees_read_and_unread_names():
    source = (
        "_A = 1\n_B, _C = 2, 3\n__all__ = []\n"
        "def _used():\n    return _A\n"
        "def _unused():\n    _local = 4\n"
        "class _Thing:\n    _attr = 5\n"
        "print(_used(), _C)\n"
    )
    assert unreferenced_private_names(source) == ["_B", "_Thing", "_unused"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_private_names(path):
    assert unreferenced_private_names(path.read_text()) == []
