"""Every name a module of the package imports is used where it is
imported: in the module for a top-level import, in the function or class
body for one inside it; and every private helper it defines is named
somewhere else in the package: stdlib stand-ins for a linter's
unused-import and dead-code checks."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "hodgegauge")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported(body):
    # the names bound by the imports of a block and of the blocks nested in
    # it, but not of the functions and classes it defines
    names = []
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def unused_imports(source):
    """Imported names that the importing scope never reads; a function's
    nested functions count as part of it."""
    tree = ast.parse(source)
    out = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, _SCOPES)]:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        out += [name for name in _imported(scope.body) if name not in used]
    return sorted(out)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import random\nfrom .x import a, b as c\nc()\n") == [
        "a", "random"
    ]


def test_the_check_sees_an_unused_import_inside_a_function():
    source = (
        "import json\n"
        "def f():\n    from fractions import Fraction\n    return json\n"
        "def g(x):\n    if x:\n        from math import gcd\n    return Fraction\n"
        "def h():\n    import os.path\n    def k():\n        return os.sep\n"
        "    return k\n"
        "class C:\n    def m(self):\n        import re\n        return re\n"
    )
    assert unused_imports(source) == ["Fraction", "gcd"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def orphaned_helpers(sources):
    """Private module-level functions, and private methods of module-level
    classes, that no module of sources (file name -> text) names anywhere
    but in their own definition; as "module.name" or "module.Class.name"."""
    named = set()
    defined = []
    for f, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        for node in tree.body:
            prefix, body = f[:-3] + ".", [node]
            if isinstance(node, ast.ClassDef):
                prefix, body = prefix + node.name + ".", node.body
            defined += [
                (prefix, d.name) for d in body
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _private(d.name)
            ]
    return sorted(p + name for p, name in defined if name not in named)


def test_the_check_sees_an_orphaned_helper():
    sources = {
        "a.py": "def _used():\n    pass\ndef _orphan():\n    pass\n"
                "def __getattr__(name):\n    pass\n"
                "class C:\n    def _m(self):\n        pass\n"
                "    def _called(self):\n        pass\n"
                "    def __init__(self):\n        _used()\n",
        "b.py": "from .a import _imported\ndef _imported():\n    pass\n"
                "def f(c):\n    c._called()\n",
    }
    assert orphaned_helpers(sources) == ["a.C._m", "a._orphan"]


def test_no_orphaned_private_helpers():
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module)) as fh:
            sources[module] = fh.read()
    assert orphaned_helpers(sources) == []
