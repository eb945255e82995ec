"""Import and parameter hygiene, read from the source with the standard
library's ast: no module of the package imports a name it never uses, and
no function has a parameter its body never reads.  The package's
``__init__.py`` imports names to re-export them, so it is exempt from the
first rule."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "holoreduce"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# (module, function, parameter) kept on purpose: perfbench/wl_verify.py calls
# verify.rederive(fix, source), so its unread ``source`` stays in the signature
UNREAD_KEPT = {("verify.py", "rederive", "source")}


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


def unread_parameters(source: str) -> list:
    """``(line, function, parameter)`` of each parameter that nothing in its
    function's body reads.  The ``self`` or ``cls`` first parameter of a
    method and parameters named ``_`` are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        if params[:1] in (["self"], ["cls"]):
            params = params[1:]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, name, p) for p in params if p != "_" and p not in read]
    return sorted(out)


def test_detects_an_unread_parameter():
    source = ("def f(a, b, *rest, c=1, **kw):\n    return a + kw['x']\n\n"
              "class K:\n    def m(self, x):\n        return 0\n\n"
              "g = lambda x, _: x\n")
    assert unread_parameters(source) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "rest"),
                                         (5, "m", "x")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    found = unread_parameters(path.read_text(encoding="utf-8"))
    assert [f for f in found if (path.name, *f[1:]) not in UNREAD_KEPT] == []


def test_kept_parameters_are_unread():
    # an entry that no longer matches is stale and goes from UNREAD_KEPT
    for module, function, param in UNREAD_KEPT:
        found = unread_parameters((SRC / module).read_text(encoding="utf-8"))
        assert (function, param) in {f[1:] for f in found}
