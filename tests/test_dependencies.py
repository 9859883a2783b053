"""The package imports only the standard library and its declared runtime dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _dependency_names(requirements):
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}


def _imported_packages(path):
    """Top-level package of every absolute import in a module, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_its_declared_runtime_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _dependency_names(project["dependencies"])
    assert runtime == {"click", "numpy"}
    # mpmath and sympy are independent cross-checks in the tests only.
    assert {"mpmath", "sympy"} <= _dependency_names(project["optional-dependencies"]["test"])
    undeclared = sorted(
        (path.name, name)
        for path in (ROOT / "src" / "conecert").glob("*.py")
        for name in _imported_packages(path)
        if name not in sys.stdlib_module_names and name != "conecert" and name not in runtime
    )
    assert undeclared == []
