"""The package imports only the standard library and its declared runtime dependencies,
every top-level definition is reached from a command or an export, every method is
referenced, every record field is read, and every parameter default is overridden
by some call."""

import ast
import importlib
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


def _top_level_bindings(tree):
    """Each name a module binds at top level with a def, class or assignment, and its node."""
    bindings = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bindings[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = node
    return bindings


def _package_imports(tree):
    """Local name -> (module, name) for a package import; name is None for a whole module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (alias.name, None) if node.module is None else (node.module, alias.name)
                aliases[alias.asname or alias.name] = target
    return aliases


def test_every_top_level_definition_is_reached_from_a_command_or_an_export():
    # Roots: the registered commands, main, and the names the package exports.
    # From them, follow every name and module attribute a definition refers to.
    from conecert import cli

    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    bindings = {module: _top_level_bindings(tree) for module, tree in trees.items()}
    imports = {module: _package_imports(tree) for module, tree in trees.items()}
    roots = [("cli", func.__name__) for func, _ in cli._COMMANDS.values()] + [("cli", "main")]
    roots += [target for target in imports["__init__"].values() if target[1] is not None]

    reached, pending = set(), roots
    while pending:
        module, name = pending.pop()
        if (module, name) in reached or name not in bindings[module]:
            continue
        reached.add((module, name))
        for node in ast.walk(bindings[module][name]):
            if isinstance(node, ast.Name):
                if node.id in bindings[module]:
                    pending.append((module, node.id))
                elif node.id in imports[module]:
                    pending.append(imports[module][node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = imports[module].get(node.value.id)
                if target is not None and target[1] is None:
                    pending.append((target[0], node.attr))

    unreached = sorted(
        f"{module}.{name}"
        for module, names in bindings.items()
        for name, node in names.items()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and (module, name) not in reached
    )
    assert unreached == []


def _annotations(tree):
    """Every annotation of a module: of arguments, return values and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _unused_imports(path):
    """The names a module imports, at any depth, and never uses.

    A name is used if the module reads it anywhere, in an annotation too
    (quoted or not), or lists it in ``__all__``; ``__future__`` imports
    count as used.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
    return imported - used


def test_no_module_imports_a_name_it_does_not_use():
    unused = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path in MODULES + sorted((ROOT / "tests").glob("*.py"))
        for name in _unused_imports(path)
    )
    assert unused == []


def test_no_two_modules_define_a_function_or_class_of_one_name():
    # A helper written twice drifts apart: its copies come to differ in checks and messages.
    owners = {}
    for path in MODULES:
        for name, node in _top_level_bindings(ast.parse(path.read_text(), filename=str(path))).items():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owners.setdefault(name, []).append(path.stem)
    assert {name: modules for name, modules in owners.items() if len(modules) > 1} == {}


def _methods(tree):
    """(class name, method node) for every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item


def _defaulted_parameters(tree):
    """(callee, name, position, default text) for every parameter with a default.

    The callee is the name a call uses: the class for ``__init__``, else the
    function's own name.  A method's position skips ``self`` or ``cls``;
    ``position`` is None for a keyword-only parameter.
    """
    methods = {id(item): cls for cls, item in _methods(tree)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = methods.get(id(node))
        callee = cls if node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        static = any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)
        skip = 1 if cls is not None and not static else 0
        for index, default in enumerate(node.args.defaults, len(positional) - len(node.args.defaults)):
            yield callee, positional[index].arg, index - skip, ast.unparse(default)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None, ast.unparse(default)


def _passed_values(call):
    """Source text of each value a call passes, keyed by position and by keyword.

    None for a call that unpacks ``*args`` or ``**kwargs``, which may pass anything.
    """
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords):
        return None
    values = {index: ast.unparse(arg) for index, arg in enumerate(call.args)}
    values.update((keyword.arg, ast.unparse(keyword.value)) for keyword in call.keywords)
    return values


def test_every_parameter_default_is_overridden_by_some_call_in_the_package():
    # A parameter that every call leaves at its default is a constant with a
    # second configuration no run reaches.  main's argv is how tests drive the CLI.
    exempt = {"cli.main(argv)"}
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(_passed_values(node))

    def overridden(callee, name, position, default):
        for values in calls.get(callee, ()):
            if values is None:
                return True
            value = values.get(name, values.get(position))
            if value is not None and value != default:
                return True
        return False

    unset = sorted(
        f"{module}.{callee}({name})"
        for module, tree in trees.items()
        for callee, name, position, default in _defaulted_parameters(tree)
        if f"{module}.{callee}({name})" not in exempt and not overridden(callee, name, position, default)
    )
    assert unset == []


def test_every_method_is_referenced_in_the_package():
    # Overrides that a base class outside the package calls, such as
    # argparse's ArgumentParser.error, are reached without a reference.
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    referenced = {
        node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }

    def overrides_a_foreign_base(module, cls, name):
        mro = getattr(importlib.import_module(f"conecert.{module}"), cls).__mro__[1:]
        return any(name in vars(base) for base in mro if base.__module__.split(".")[0] != "conecert")

    unreferenced = sorted(
        f"{module}.{cls}.{node.name}"
        for module, tree in trees.items()
        for cls, node in _methods(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
        and not overrides_a_foreign_base(module, cls, node.name)
    )
    assert unreferenced == []


def _record_slots(tree):
    """(class name, field) for every slot of a top-level class derived from Record."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and "Record" in map(ast.unparse, node.bases):
            for item in node.body:
                if isinstance(item, ast.Assign) and ast.unparse(item.targets[0]) == "__slots__":
                    for name in ast.literal_eval(item.value):
                        yield node.name, name


def test_every_record_field_is_read():
    # A field that nothing reads is computed and carried by every record for no caller;
    # Record's generic ==, hash and repr read fields by name, which does not count.
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{module}.{cls}.{name}"
        for module, tree in trees.items()
        for cls, name in _record_slots(tree)
        if name not in loaded
    )
    assert unread == []
