"""No library module imports a name at module level that it never uses,
defines a module-level name that nothing reads, and the package exports
exactly what its __init__ imports."""

import ast
from pathlib import Path

import pytest

import trapsurf

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trapsurf"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    # an attribute chain such as np.linalg.inv starts at the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd.x()\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source):
    """The top-level module of every import statement, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_are_found():
    source = "import os.path\ndef f():\n    from sympy import Symbol\n    from . import x\n"
    assert imported_modules(source) == {"os", "sympy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_sympy(path):
    # expression templates are parsed and differentiated in `expressions`
    assert "sympy" not in imported_modules(path.read_text())


def test_package_exports_exactly_its_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(trapsurf.__all__) == sorted(imported)
    for name in trapsurf.__all__:
        assert getattr(trapsurf, name) is not None, name


def defined_names(source):
    """Module-level functions, classes and assigned names, dunders excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def read_names(source):
    """Names a source reads: Name loads, attributes and import aliases."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
    return read


def test_dead_names_are_found():
    source = "A = 1\nB = 2\n__all__ = []\ndef f():\n    return A\nclass C:\n    pass\n"
    assert sorted(set(defined_names(source)) - read_names(source)) == ["B", "C", "f"]


def test_every_module_level_name_is_read():
    read = set().union(*(read_names(p.read_text()) for p in READERS))
    dead = [f"{path.stem}.{name}" for path in MODULES
            for name in defined_names(path.read_text()) if name not in read]
    assert dead == []
