"""Source scans: the library imports the standard library only, and no assert
statement or ``__debug__`` test sits outside the test modules, where python -O
would strip it."""

import ast
import sys
from pathlib import Path

import lapsim

SRC = Path(lapsim.__file__).resolve().parent


def imported_modules(tree):
    """(line, top-level module) of every absolute import in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.rglob("*.py"))
    assert files
    bad = [
        f"{path.relative_to(SRC)}:{line}: {module}"
        for path in files
        for line, module in imported_modules(ast.parse(path.read_text(), str(path)))
        if module != "lapsim" and module not in sys.stdlib_module_names
    ]
    assert not bad, bad


def test_the_scan_sees_a_third_party_import():
    tree = ast.parse("import numpy as np\nfrom networkx.algorithms import tree\nfrom . import graph\n")
    assert list(imported_modules(tree)) == [(1, "numpy"), (2, "networkx")]


def test_no_assert_outside_the_test_modules():
    # pytest rewrites the asserts of test modules only, so they still run under
    # python -O; pyproject.toml silences its warning about all other asserts,
    # which this test keeps true.  No code may read __debug__ either: python -O
    # sets it False, so a check behind it would run in the tests and nowhere else.
    files = [*sorted(SRC.rglob("*.py")), Path(__file__).with_name("oracles.py")]
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert not found, found
