"""No library module imports a name at module level that it never uses,
and the package exports exactly what its __init__ imports."""

import ast
from pathlib import Path

import pytest

import trapsurf

SRC = Path(__file__).resolve().parents[1] / "src" / "trapsurf"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def test_package_exports_exactly_its_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(trapsurf.__all__) == sorted(imported)
    for name in trapsurf.__all__:
        assert getattr(trapsurf, name) is not None, name
