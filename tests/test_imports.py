"""Every name a package module, test or script imports is used there, every
name a package module keeps private is used in that module, every public name
has a reader, every script imports, and the command line starts without
``scipy.optimize``."""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "pillartune"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", [*MODULES, *TESTS, *SCRIPTS], ids=lambda p: p.name)
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


def defined_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and assigned names, with their statement."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node
    return defined


def names_read(node: ast.AST) -> Counter:
    """Names a tree reads: loaded names, attributes and ``from`` imports."""
    read = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read[n.id] += 1
        elif isinstance(n, ast.Attribute):
            read[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
    return read


def unread_public_names(source: str, readers: Counter) -> list[str]:
    """Public module-level names of ``source`` read nowhere but in their own
    definition; ``readers`` counts the reads of every reading file, this
    module's own included."""
    defined = defined_names(ast.parse(source))
    return sorted(
        name
        for name, node in defined.items()
        if not name.startswith("_") and readers[name] <= names_read(node)[name]
    )


def test_public_guard_sees_read_and_unread_names():
    source = (
        "LIMIT = 1\nUNUSED = 2\n"
        "def used():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Thing:\n    pass\n"
        "def _private():\n    pass\n"
    )
    readers = names_read(ast.parse(source)) + names_read(
        ast.parse("from m import used\nimport m\nm.Thing()\n")
    )
    assert unread_public_names(source, readers) == ["UNUSED", "recursive"]


# Reference code that tests compare against; no program path reads it.
PUBLIC_ALLOWLIST = {
    "make_strip_mesh",  # Laplace-limit strip of criterion 5 and the solver tests
    "splitting_hamiltonian",  # dense oracle of criterion 6
}


def test_no_unread_public_names():
    reader_files = [
        *MODULES,
        *SCRIPTS,
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    readers = Counter()
    for path in reader_files:
        readers += names_read(ast.parse(path.read_text()))
    unread = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in unread_public_names(path.read_text(), readers)
        if name not in PUBLIC_ALLOWLIST
    ]
    assert unread == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # a __main__ guard keeps main() from running
    assert callable(module.main)


def test_cli_starts_without_scipy_optimize():
    # a fresh interpreter: this test process may import scipy.optimize itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = "import sys, pillartune.cli; print(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    modules = ast.literal_eval(out.stdout)
    assert "pillartune.cli" in modules
    assert "scipy.optimize" not in modules
