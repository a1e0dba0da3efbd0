"""Static checks of the package source: every imported name is used, and
every module-level private function or class is referenced."""

import ast
import pathlib

import amerbound

MODULES = sorted(pathlib.Path(amerbound.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names that a module's import statements bind but its code never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_detector():
    assert unused_imports("import os, sys as s\nfrom a import b, c as d\n"
                          "print(d)\n") == ["b", "os", "s"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from __future__ import annotations\n"
                          "def f():\n    from . import m\n    return m.x\n") == []


def test_package_has_no_unused_imports():
    assert MODULES
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in found.items() if names} == {}


def unreferenced_private(sources):
    """Module-level ``_private`` functions and classes that none of the
    sources reads, by name or as an attribute."""
    defined, used = set(), set()
    for source in sources:
        tree = ast.parse(source)
        defined |= {n.name for n in tree.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name.startswith("_") and not n.name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_unreferenced_private_detector():
    assert unreferenced_private([
        "def _a():\n    pass\ndef _b():\n    return _a()\n"
        "class _C:\n    def _m(self):\n        pass\ndef pub():\n    pass\n",
        "import m\nm._C()\n"]) == ["_b"]


def test_package_private_definitions_are_referenced():
    assert unreferenced_private(p.read_text() for p in MODULES) == []
