"""Source hygiene: every name a module imports is used in that module, and
every import sits at module level, not inside a function body.

`__init__.py` is exempt from the unused-import scan because it imports names
only to re-export them through `__all__`."""

import ast
from pathlib import Path

import pytest

import dsnkit

SOURCES = sorted(Path(dsnkit.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def function_body_imports(source):
    tree = ast.parse(source)
    return sorted(
        (node.lineno, func.name)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Dict, List\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "os"), (2, "Dict")]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"graphs.py", "ladders.py", "structure.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_a_function_body_import():
    source = "import os\n\ndef f():\n    def g():\n        import sys\n    from os import path\n"
    assert function_body_imports(source) == [(5, "f"), (5, "g"), (6, "f")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert function_body_imports(path.read_text()) == []
