"""Static checks of the package source: every imported name is used, every
module-level private function or class is referenced, and every public
function, class, method or property has a caller."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import amerbound

MODULES = sorted(pathlib.Path(amerbound.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
# the benchmark harness beside the tests, when the checkout has one
PERFBENCH = sorted((pathlib.Path(__file__).parent.parent / "perfbench")
                   .glob("*.py"))


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


def _is_command(node):
    """Whether a definition is decorated as a click command or group."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def unreferenced_public(package, others=(), by_string=()):
    """Public module-level functions and classes, and public methods and
    properties of those classes, that no source reads by name or as an
    attribute.  ``package`` holds the sources that define them; ``others``
    only read them; in ``by_string`` every identifier inside a string
    constant counts as read too, since a tracer looks names up by string.
    Dunders and click commands are skipped."""
    defined, used = {}, set()
    for source in package:
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and not _is_command(node):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update((m.name, "%s.%s" % (node.name, m.name))
                               for m in node.body
                               if isinstance(m, ast.FunctionDef)
                               and not m.name.startswith("_"))
    for source, strings in ([(s, False) for s in (*package, *others)]
                            + [(s, True) for s in by_string]):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return sorted(label for name, label in defined.items() if name not in used)


def test_unreferenced_public_detector():
    package = ["import click\n"
               "def used():\n    pass\ndef unused():\n    pass\n"
               "def by_string():\n    pass\n"
               "class C:\n    def __init__(self):\n        pass\n"
               "    def m(self):\n        pass\n"
               "    @property\n    def p(self):\n        return 1\n"
               "@click.command()\ndef cmd():\n    pass\n"]
    assert unreferenced_public(package, ["used(); C().p\n"],
                               ["HOOKS = ('by_string',)\n"]) == [
        "C.m", "unused"]


def test_package_public_definitions_have_callers():
    assert unreferenced_public(
        [p.read_text() for p in MODULES], [p.read_text() for p in TESTS],
        [p.read_text() for p in PERFBENCH]) == []


def package_imports(source):
    """Modules of the package that a source imports anywhere, inside
    functions too: ``from . import a, b`` and ``from .a import x`` give
    a and b."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= ({node.module.split(".")[0]} if node.module
                      else {a.name for a in node.names})
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("amerbound.")}
    return found


def test_package_imports_detector():
    assert package_imports("from . import a, b\nfrom .c import d\n"
                           "import amerbound.e\nimport numpy\n"
                           "def f():\n    from . import g\n") == {
        "a", "b", "c", "e", "g"}


def sparse_imports(source):
    """The modules and names that a source imports from scipy.sparse or a
    submodule of it, inside functions too."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names += ["%s.%s" % (node.module, a.name) for a in node.names]
    return [n for n in names
            if n == "scipy.sparse" or n.startswith("scipy.sparse.")]


def test_sparse_imports_detector():
    assert sparse_imports("from scipy import sparse, optimize\n"
                          "import scipy.sparse.linalg\nimport scipy\n"
                          "def f():\n    from scipy.sparse import diags\n"
                          "from . import sparse\nfrom scipy import sparsetools\n"
                          ) == ["scipy.sparse", "scipy.sparse.linalg",
                                "scipy.sparse.diags"]


def test_package_does_not_import_scipy_sparse():
    # an LP is held once, as the CSR arrays that its builder made
    found = {p.name: sparse_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in found.items() if names} == {}


def test_certify_takes_arrays_not_lps():
    # certify checks what the LP layer returns: it solves no LP and knows no
    # LP layout, so it imports neither lpcore nor bound
    source = (pathlib.Path(amerbound.__file__).parent / "certify.py").read_text()
    assert package_imports(source) & {"lpcore", "bound"} == set()


def test_import_leaves_scipy_optimize_sparse_and_special_out():
    # scipy.optimize's package __init__ loads about 300 modules and with
    # them scipy.sparse and scipy.special; lpcore loads the HiGHS core from
    # its file, and bench imports ndtr when it first prices a call.  Nothing
    # is made at import either: payoff draws its sampling points (which
    # loads numpy.random), bound builds its LP layouts and lpcore makes its
    # HiGHS object on first use
    src = os.path.dirname(os.path.dirname(amerbound.__file__))
    code = ("import sys\n"
            + "".join("import amerbound.%s\n" % p.stem for p in MODULES
                      if p.stem != "__init__")
            + "print(sorted({'numpy.random', 'scipy.optimize', "
              "'scipy.sparse', 'scipy.special'} & set(sys.modules)))\n"
              "from amerbound import bound, lpcore, payoff\n"
              "print(len(bound._LAYOUTS), hasattr(lpcore._THREAD, 'highs'), "
              "payoff._unit_samples.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         check=True)
    assert out.stdout.splitlines() == ["[]", "0 False 0"]
