"""Source hygiene: every module under ``src/`` uses what it imports, and
every private function and class it defines.

AST scans, with no linter needed.  A name bound by an import must be read
somewhere in its module (as a name, or as the base of an attribute) or be
listed in the module's ``__all__``.  The package's ``__init__.py`` is left
out: its imports are the package's public names.  A module-level function
or class whose name starts with ``_`` must be named somewhere in ``src/``
outside its own definition: as a name, an attribute or an imported name.
Code kept only for the tests belongs in ``tests/``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rangesynth"


def unused_imports(source: str) -> list[str]:
    """The names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_catches_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from typing import Sequence, Iterator\n"
              "from .x import a, b\n"
              "__all__ = ['b']\n"
              "def f(it: Iterator) -> int:\n"
              "    return os.sep and a\n")
    assert unused_imports(source) == ["line 2: system", "line 3: Sequence"]


def unreferenced_privates(sources: dict) -> list[str]:
    """The private module-level functions and classes of ``sources`` (module
    name -> source) that no statement but their own definition names."""
    defined, named = [], []  # (module, name, statement); (statement, names)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                defined.append((module, stmt.name, stmt))
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            named.append((stmt, names))
    return [f"{module}: {name}" for module, name, stmt in defined
            if not any(name in names for other, names in named if other is not stmt)]


def test_no_unreferenced_private_definitions():
    assert unreferenced_privates({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_scan_catches_an_unreferenced_private():
    sources = {"a.py": ("def _used(): pass\n"
                        "def _recursive(k): return _recursive(k - 1)\n"
                        "class _Orphan: pass\n"
                        "def _imported(): pass\n"
                        "def _attribute(): pass\n"
                        "def __dunder__(): pass\n"
                        "def public(): return _used()\n"),
               "b.py": ("from .a import _imported\n"
                        "from . import a\n"
                        "x = a._attribute\n")}
    assert unreferenced_privates(sources) == ["a.py: _recursive", "a.py: _Orphan"]
