import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import isingbraid

PACKAGE = Path(isingbraid.__file__).parent


def _imports_in_functions(path):
    """(file name, function name) of every import inside a function body."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((path.name, node.name))
    return found


def _runtime_imports(path):
    """The package modules ``path`` imports at runtime: every relative
    import, those inside function bodies too, but none under
    ``if TYPE_CHECKING:``."""
    tree = ast.parse(path.read_text())
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in typing_only:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


# The imports a function may make: the standard modules only a sweep needs,
# which ``import isingbraid.cli`` (every ``run`` and every perfbench
# worker) leaves out; concurrent.futures imports logging. No package
# module is imported inside a function.
ALLOWED = [("cli.py", "derive_seed"), ("cli.py", "cmd_sweep")]


def test_no_import_inside_a_function_but_the_sweep_modules():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _imports_in_functions(path)]
    assert found == ALLOWED


def test_runtime_import_graph_has_no_cycle():
    graph = {path.stem: _runtime_imports(path) for path in PACKAGE.glob("*.py")}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as err:
        pytest.fail("import cycle: " + " -> ".join(err.args[1]))
    # The field schedule sits below both of its consumers, the gate compiler
    # and the exact oracle.
    assert graph["schedule"] == {"trotter"}


def _private_names(tree):
    """Module-level private functions, classes and constants of ``tree``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_helper_is_read_in_the_package():
    """A private helper that only tests read is dead code of the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    defined = {(name, file) for file, tree in trees.items() for name in _private_names(tree)}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert len(defined) > 50
    assert sorted(d for d in defined if d[0] not in read) == []
