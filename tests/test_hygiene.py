"""Source hygiene checks over the chmkit package."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

import chmkit

_PACKAGE = pathlib.Path(chmkit.__file__).parent
_SPANS = pathlib.Path(__file__).resolve().parents[1] / "chmbench" / "spans.py"


def _unused_module_imports(tree: ast.Module) -> list:
    """Names bound by the module's top-level imports that nothing reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_module_imports():
    modules = sorted(_PACKAGE.glob("*.py"))
    assert len(modules) > 5
    unused = {}
    for path in modules:
        # the package's own imports are its public API, read by importers
        if path.name == "__init__.py":
            continue
        found = _unused_module_imports(ast.parse(path.read_text()))
        if found:
            unused[path.name] = found
    assert unused == {}


def test_scan_finds_an_unused_import():
    tree = ast.parse(
        "import os\nimport math as m\nfrom a.b import c, d\nprint(m.pi, d)\n")
    assert _unused_module_imports(tree) == [(1, "os"), (3, "c")]


_ROOT = pathlib.Path(__file__).resolve().parents[1]
_READERS = ("src", "tests", "chmbench")


def _foreign_imports(tree: ast.Module, allowed: set) -> list:
    """(line, top-level name) of each absolute import, at any depth, whose
    top-level name is not in ``allowed``."""
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [(node.lineno, n.split(".")[0]) for n in names
                    if n.split(".")[0] not in allowed]
    return foreign


def _declared_imports() -> set:
    """chmkit, the standard library and the declared runtime dependencies."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    dependencies = {re.match(r"[\w.-]+", d).group().lower().replace("-", "_")
                    for d in project["dependencies"]}
    return {"chmkit"} | set(sys.stdlib_module_names) | dependencies


def test_imports_are_declared_dependencies():
    # test-only packages such as networkx stay out of the package
    allowed = _declared_imports()
    assert {"numpy", "sympy", "mpmath"} <= allowed and "networkx" not in allowed
    foreign = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        found = _foreign_imports(ast.parse(path.read_text()), allowed)
        if found:
            foreign[path.name] = found
    assert foreign == {}


def test_scan_finds_an_undeclared_import():
    tree = ast.parse(
        "import os.path\nfrom . import census\nfrom numpy import array\n"
        "def f():\n    import networkx as nx\n"
        "    from networkx.algorithms import clique\n")
    assert _foreign_imports(tree, _declared_imports()) == [
        (5, "networkx"), (6, "networkx")]


def _dead_definitions(defining: dict, reading: list) -> list:
    """(module, line, name) of each function, method and class defined
    in the ``defining`` trees (by module name) that no ``reading`` tree
    reads.

    The scan is by name: a definition counts as read when its name
    occurs anywhere as a variable, an attribute or a string constant
    (``getattr``, ``monkeypatch.setattr``). A definition that shares
    its name with something else, such as a local variable, therefore
    escapes it. Dunder methods are called by the language and exempt.
    """
    read = set()
    for tree in reading:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    dead = []
    for module, tree in defining.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")) and name not in read:
                dead.append((module, node.lineno, name))
    return sorted(dead)


def test_every_definition_is_read():
    defining = {path.name: ast.parse(path.read_text())
                for path in sorted(_PACKAGE.glob("*.py"))}
    reading = [ast.parse(path.read_text())
               for top in _READERS for path in sorted((_ROOT / top).rglob("*.py"))]
    assert len(reading) > len(defining) > 5
    assert _dead_definitions(defining, reading) == []


def test_scan_finds_a_dead_definition():
    defining = {"m.py": ast.parse(
        "class A:\n    def __eq__(self, o): ...\n    def used(self): ...\n"
        "    def unused(self): ...\n"
        "def by_string(): ...\ndef shadowed(): ...\ndef gone(): ...\n")}
    reading = [ast.parse(
        "A().used()\ngetattr(m, 'by_string')\nshadowed = 1\n")]
    assert _dead_definitions(defining, reading) == [
        ("m.py", 4, "unused"), ("m.py", 7, "gone")]


# sympy calls that write values out as expressions or isolate roots
# through them, instead of handing sympy coefficient lists
_SYMPY_WRITES = ("simplify", "cos", "subs", "expand", "roots", "real_roots", "CRootOf")


def _sympy_cosine_writes(tree: ast.AST, names=_SYMPY_WRITES, exempt=()) -> list:
    """(line, source) of each ``sympy.<name>`` or ``<value>.<name>`` for
    the given ``names`` (``math`` and ``cmath`` excepted), and each
    import of such a name from sympy, outside the functions named in
    ``exempt``."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None)
            if node.attr in names and owner not in ("math", "cmath"):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module == "sympy":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in names]
    return sorted(found)


# The radical report of the {1,1,2,2} elimination writes its roots out
# by design; whether it stays is ROADMAP item 6's question.
_RADICAL_REPORT = ("real_part_system", "_exact_real_roots")


def test_package_writes_no_sympy_cosines():
    # exact points and sympy handed coefficient lists only, everywhere
    found = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        exempt = _RADICAL_REPORT if path.name == "pairs.py" else ()
        writes = _sympy_cosine_writes(ast.parse(path.read_text()), exempt=exempt)
        if writes:
            found[path.name] = writes
    assert found == {}
    # the one-variable solver divides by cyclotomic polynomials instead
    cleared = next(node for node in ast.walk(ast.parse((_PACKAGE / "solve.py").read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == "_solve_cleared")
    assert _sympy_cosine_writes(cleared, names=("factor_list",)) == []


def test_scan_finds_sympy_cosine_writes():
    tree = ast.parse(
        "import math, sympy\nfrom sympy import cos, sqrt, CRootOf\n"
        "x = sympy.simplify(sympy.cos(t))\ny = e.subs(t, 1) + math.cos(1)\n"
        "z = sympy.expand(p * q).real_roots()\nw = sympy.roots(p)\n"
        "def kept():\n    return sympy.expand(p)\n"
        "def f():\n    return p.factor_list()\n")
    assert _sympy_cosine_writes(tree, exempt=("kept",)) == [
        (2, "CRootOf"), (2, "cos"), (3, "sympy.cos"), (3, "sympy.simplify"),
        (4, "e.subs"), (5, "sympy.expand"), (5, "sympy.expand(p * q).real_roots"),
        (6, "sympy.roots")]
    assert _sympy_cosine_writes(tree, names=("factor_list",)) == [(10, "p.factor_list")]


def _spans_tables() -> dict:
    """The literal TIMED and COUNTED tables of the benchmark's tracer."""
    tables = {}
    for node in ast.parse(_SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TIMED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_names_resolve():
    # a traced name that no longer exists breaks only traced benchmark runs
    tables = _spans_tables()
    assert set(tables) == {"TIMED", "COUNTED"}
    missing = []
    for modname, attr in tables["TIMED"].values():
        if not callable(getattr(importlib.import_module(modname), attr, None)):
            missing.append(f"{modname}.{attr}")
    for modname, cls, attr in tables["COUNTED"].values():
        owner = importlib.import_module(modname)
        if cls is not None:
            owner = getattr(owner, cls, None)
        # the tracer patches a class's own attribute, not an inherited one
        found = vars(owner).get(attr) if owner is not None else None
        if not callable(found):
            missing.append(f"{modname}.{cls}.{attr}")
    assert missing == []
