"""Source hygiene: every module-level import in the package and its tests is
read by its own file.  No linter is assumed; the check uses only ast."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "curveband").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unread_imports(source: str) -> list:
    """Names a module-level import binds that the module never loads, apart
    from the names its __all__ exports."""
    tree = ast.parse(source)
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - loaded - exported)


def test_the_check_finds_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import numpy.linalg\n"
        "from a.b import c, d, e\n"
        "from f import *\n"
        "__all__ = [*f.__all__, 'd']\n"
        "def g():\n"
        "    import json\n"
        "    return system.argv, numpy.linalg, e.x\n"
    )
    assert unread_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
