"""The package imports only the standard library and its declared runtime dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "conecert").glob("*.py"))


def _dependency_names(requirements):
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}


def _packages(node):
    """Top-level package of each name an absolute import statement imports."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def _imported_packages(path):
    """Top-level package of every absolute import in a module, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        yield from _packages(node)


def _import_time_imports(path):
    """The import statements that run when the module is imported.

    Function bodies run only when called, and ``if TYPE_CHECKING:`` blocks
    only under a type checker.
    """
    pending = list(ast.parse(path.read_text(), filename=str(path)).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            pending += node.orelse
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        pending += ast.iter_child_nodes(node)


def test_package_imports_only_its_declared_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _dependency_names(project["dependencies"])
    assert runtime == {"numpy"}
    # mpmath and sympy are independent cross-checks in the tests only.
    assert {"mpmath", "sympy"} <= _dependency_names(project["optional-dependencies"]["test"])
    undeclared = sorted(
        (path.name, name)
        for path in MODULES
        for name in _imported_packages(path)
        if name not in sys.stdlib_module_names and name != "conecert" and name not in runtime
    )
    assert undeclared == []


def test_no_module_imports_numpy_when_it_is_imported():
    # numpy is imported inside the float functions only, so certify, table
    # and optimize never load it.
    eager = sorted(
        (path.name, node.lineno)
        for path in MODULES
        for node in _import_time_imports(path)
        if "numpy" in _packages(node)
    )
    assert eager == []
