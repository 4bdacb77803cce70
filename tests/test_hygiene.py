"""Source hygiene checks over the chmkit package."""

import ast
import pathlib

import chmkit

_PACKAGE = pathlib.Path(chmkit.__file__).parent


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
