"""Rules every module of the package keeps, checked on its syntax tree.

Theorem guards must still fire under ``python -O``, which strips
``assert`` statements, so the package raises ``TheoremContractError``
instead; and the package imports nothing beyond the standard library.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "zdposet").glob("*.py"))


def is_stdlib(module: str) -> bool:
    return module.split(".")[0] in sys.stdlib_module_names


def violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"line {node.lineno}: raise AssertionError")
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names
                if not is_stdlib(alias.name)
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if not is_stdlib(node.module):
                found.append(f"line {node.lineno}: imports {node.module}")
    return found


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"cmcert.py", "homology.py", "poset.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_asserts_and_stdlib_only(path):
    assert violations(ast.parse(path.read_text(), str(path))) == []


def test_rules_catch_each_violation():
    bad = (
        "import numpy\n"
        "from scipy.linalg import lu\n"
        "from . import homology\n"
        "import os.path\n"
        "assert True\n"
        "raise AssertionError('x')\n"
        "raise AssertionError\n"
    )
    assert violations(ast.parse(bad)) == [
        "line 1: imports numpy",
        "line 2: imports scipy.linalg",
        "line 5: assert statement",
        "line 6: raise AssertionError",
        "line 7: raise AssertionError",
    ]
