"""Import hygiene, read from the source with the standard library's ast:
no module of the package imports a name it never uses.  The package's
``__init__.py`` imports names to re-export them, so it is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "holoreduce"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name bound by an import statement that no
    expression of the module reads.  A name read only inside a quoted
    annotation counts as unused: under ``from __future__ import
    annotations`` the annotation needs no quotes."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_detects_an_unused_import():
    source = "import os.path\nfrom math import gcd, lcm as l\n\nx = gcd(4, 6)\n"
    assert unused_imports(source) == [(1, "os"), (2, "l")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
