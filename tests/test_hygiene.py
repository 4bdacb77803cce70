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


def _sympy_cosine_writes(tree: ast.Module) -> list:
    """(line, source) of each use of ``sympy.simplify`` or ``sympy.cos``,
    each import of either name from sympy, and each ``.subs``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None)
            if node.attr == "subs" or (owner == "sympy" and node.attr in ("simplify", "cos")):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module == "sympy":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ("simplify", "cos")]
    return found


def test_pairs_writes_no_sympy_cosines():
    # the pair verdicts hold exact points; a cosine is never written out
    assert _sympy_cosine_writes(ast.parse((_PACKAGE / "pairs.py").read_text())) == []


def test_scan_finds_sympy_cosine_writes():
    tree = ast.parse(
        "import math, sympy\nfrom sympy import cos, sqrt\n"
        "x = sympy.simplify(sympy.cos(t))\ny = e.subs(t, 1) + math.cos(1)\n")
    assert _sympy_cosine_writes(tree) == [
        (2, "cos"), (3, "sympy.simplify"), (3, "sympy.cos"), (4, "e.subs")]


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
