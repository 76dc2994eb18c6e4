import ast
from pathlib import Path

import isingbraid

# The one import left inside a function: ``exact_evolve`` reaches the
# schedule walker of ``protocol``, which imports ``analysis`` at its top. It
# goes when the exact oracle leaves ``analysis``.
ALLOWED = [("analysis.py", "exact_evolve")]


def _imports_in_functions(path):
    """(file name, function name) of every import inside a function body."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((path.name, node.name))
    return found


def test_no_import_inside_a_function_but_the_oracle_walker():
    package = Path(isingbraid.__file__).parent
    found = [hit for path in sorted(package.glob("*.py"))
             for hit in _imports_in_functions(path)]
    assert found == ALLOWED
