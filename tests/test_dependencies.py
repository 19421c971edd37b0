"""The library imports numpy, the standard library and itself only.

``pyproject.toml`` declares numpy as the one dependency; scipy and the test
tools may be used by tests and scratch work, never by ``src/affinemaps``.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "affinemaps").glob("*.py"))
ALLOWED = {"numpy", "affinemaps"} | set(sys.stdlib_module_names)


def imported_roots(tree):
    """(line, top-level module) of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_library_imports_only_numpy_and_the_standard_library():
    assert SOURCES
    foreign = [
        f"{path.name}:{line} imports {root}"
        for path in SOURCES
        for line, root in imported_roots(ast.parse(path.read_text(), filename=str(path)))
        if root not in ALLOWED
    ]
    assert not foreign, foreign


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse("import numpy as np\nfrom scipy.linalg import eigh\nfrom . import maps\nimport json\n")
    assert [root for _, root in imported_roots(tree) if root not in ALLOWED] == ["scipy"]
