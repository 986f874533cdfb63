"""Every module imports only what it uses.

A name bound by ``import`` or ``from ... import`` at any depth must be read
somewhere in its module: as a name, as the root of an attribute chain, or in
``__all__``. Package ``__init__.py`` files re-export and are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*ROOT.glob("src/heavyrff/*.py"), *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ count as read
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for _, name in sorted(imported) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import dataclasses\n", ["dataclasses"]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nx = np.pi\n", []),
    ("from a import (b, c)\nb()\n", ["c"]),
    ("from a import b as c\nb\n", ["c"]),
    ("def f():\n    import json\n    return 1\n", ["json"]),
    ("from __future__ import annotations\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("import pytest\n@pytest.fixture\ndef f(): pass\n", []),
])
def test_finds_what_is_imported_and_never_read(source, unused):
    assert unused_imports(source) == unused
