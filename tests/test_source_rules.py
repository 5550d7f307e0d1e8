"""Rules every module of the package keeps, checked on its syntax tree.

Theorem guards must still fire under ``python -O``, which strips
``assert`` statements, so the package raises ``TheoremContractError``
instead; the package imports nothing beyond the standard library; and
every function or class it defines is referred to by code in the
package or its benchmark, so code that only the tests call leaves the
package.  Each exception class is the base class, carries data, or is
caught by name somewhere in the package.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "zdposet").glob("*.py"))


def corpus_files(root: Path) -> list[Path]:
    """The Python files whose code may keep a package definition alive:
    the package and its benchmark, not the tests."""
    return sorted(p for d in ("src", "bench") for p in (root / d).rglob("*.py"))


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


def references(tree: ast.AST) -> set[str]:
    """The names that code in ``tree`` refers to: ``Name`` ids,
    ``Attribute`` names, and imported names with their aliases.  Words in
    strings, comments and docstrings do not count, nor does a
    definition's own name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
            found.add(node.asname or node.name)
    return found


def unreferenced(sources: list[str], corpus: list[str]) -> list[str]:
    """The non-dunder function and class names defined in ``sources``
    that no code in ``corpus`` refers to."""
    defined = {
        node.name
        for text in sources
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    used = set().union(*(references(ast.parse(text)) for text in corpus))
    return sorted(defined - used)


def test_every_definition_is_referenced():
    sources = [p.read_text() for p in SOURCES]
    corpus = [p.read_text() for p in corpus_files(ROOT)]
    assert unreferenced(sources, corpus) == []


def test_unreferenced_catches_a_dead_definition():
    source = (
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        '    def dead(self):\n'
        '        """dead is named in its docstring"""\n'
        '        return "dead"  # and in a string\n'
        "def twice(): pass\n"
        "def twice(): pass\n"
        "def imported(): pass\n"
        "def aliased(): pass\n"
    )
    other = (
        "from m import imported\n"
        "from m import aliased as a2\n"
        "Kept().used()\n"
        "used_elsewhere = twice_over = 1\n"
    )
    assert unreferenced([source], [source, other]) == ["dead", "twice"]


def test_unreferenced_reports_a_method_only_a_test_calls(tmp_path):
    module = (
        "class Thing:\n"
        "    def run(self): return self.helper()\n"
        "    def helper(self): return 1\n"
        "    def probe(self): return 2\n"
        "def main(): return Thing().run()\n"
    )
    files = {
        "src/pkg/thing.py": module,
        "bench/run.py": "from pkg.thing import main\nmain()\n",
        "tests/test_thing.py": "from pkg.thing import Thing\n"
        "def test_probe():\n    assert Thing().probe() == 2\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    corpus = [p.read_text() for p in corpus_files(tmp_path)]
    assert unreferenced([module], corpus) == ["probe"]


def caught_names(tree: ast.AST) -> set[str]:
    """The exception names that an ``except`` clause or a ``suppress(...)``
    call in ``tree`` catches."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "suppress":
            types = node.args
        else:
            continue
        found.update(t.id for t in types if isinstance(t, ast.Name))
    return found


def idle_error_classes(errors: str, sources: list[str]) -> list[str]:
    """The classes in ``errors`` that are not the base class, define no
    ``__init__`` of their own (carry no data) and are caught by name
    nowhere in ``sources``: no caller reacts to them apart from their
    base, so they only add names."""
    classes = [node for node in ast.parse(errors).body if isinstance(node, ast.ClassDef)]
    local = {node.name for node in classes}
    caught = set().union(*(caught_names(ast.parse(text)) for text in sources))
    return sorted(
        node.name
        for node in classes
        if any(isinstance(b, ast.Name) and b.id in local for b in node.bases)
        and not any(
            isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body
        )
        and node.name not in caught
    )


def test_every_error_class_is_caught_or_carries_data():
    errors = (ROOT / "src" / "zdposet" / "errors.py").read_text()
    assert idle_error_classes(errors, [p.read_text() for p in SOURCES]) == []


def test_idle_error_classes_catches_an_uncaught_subclass():
    errors = (
        "class Base(Exception): pass\n"
        "class WithData(Base):\n"
        "    def __init__(self, line): self.line = line\n"
        "class Caught(Base): pass\n"
        "class Suppressed(Base): pass\n"
        "class Idle(Base): pass\n"
        "class AlsoIdle(WithData): pass\n"
    )
    source = (
        "try:\n    pass\nexcept (Caught, KeyError):\n    pass\n"
        "with suppress(Suppressed):\n    pass\n"
    )
    assert idle_error_classes(errors, [source]) == ["AlsoIdle", "Idle"]
