"""Source hygiene: every module-level import in the package and its tests is
read by its own file, every module-level definition in the package is read
by some package module or exported, and every default of an unexported
package function is passed by some call.  No linter is assumed; the checks
use only ast."""

import ast
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "curveband").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def exported(tree: ast.Module) -> set:
    """The names a module's __all__ lists."""
    return {
        n.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for n in ast.walk(node.value) if isinstance(n, ast.Constant)
    }


def unread_imports(source: str) -> list:
    """Names a module-level import binds that the module never loads, apart
    from the names its __all__ exports."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*")
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - loaded - exported(tree))


def unused_definitions(sources: list) -> list:
    """Module-level functions, classes and constants of the sources that no
    source loads, by name or as an attribute, and no __all__ lists.  An
    import alone is no use: the name must be read after it."""
    defined, used = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        used |= exported(tree)
        used.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
        used.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    return sorted(name for name in defined - used if not name.startswith("__"))


def unpassed_defaults(sources: list) -> list:
    """Defaulted parameters of module-level functions that no __all__ lists
    and that no call in the sources passes, by position or by keyword, as
    "function.parameter": a default that no call overrides is a knob nothing
    turns.  Calls match by name, plain or as an attribute; *args passes
    every positional parameter and **kwargs every parameter."""
    trees = list(map(ast.parse, sources))
    public = set().union(*map(exported, trees))
    positional, keywords = {}, {}  # per function name: most positional arguments, keywords
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        count = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
        positional[name] = max(positional.get(name, 0), count)
        keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    found = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name in public:
                continue
            args = node.args
            ordered = [*args.posonlyargs, *args.args]
            first = len(ordered) - len(args.defaults)
            defaulted = [(i, arg) for i, arg in enumerate(ordered) if i >= first]
            defaulted += [(math.inf, arg) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            given, named = positional.get(node.name, 0), keywords.get(node.name, set())
            found += [f"{node.name}.{arg.arg}" for i, arg in defaulted
                      if i >= given and not named & {arg.arg, None}]
    return sorted(found)


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


def test_the_check_finds_an_unused_definition():
    a = (
        "__all__ = ['public']\n"
        "LIMIT, _SPARE = 3, 4\n"
        "TABLE: dict = {}\n"
        "def public():\n"
        "    return _helper() + LIMIT\n"
        "def _helper():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return 2\n"
        "class Thing:\n"
        "    pass\n"
        "class _Unused:\n"
        "    pass\n"
    )
    b = "import a\nfrom a import Thing, orphan\nprint(a.TABLE, Thing)\n"
    assert unused_definitions([a, b]) == ["_SPARE", "_Unused", "orphan"]


def test_the_check_finds_an_unpassed_default():
    a = (
        "__all__ = ['public']\n"
        "def public(x, flag=False):\n"
        "    return _scale(x) + _shift(x, by=2) + _pair(*x) + _opts(**x)\n"
        "def _scale(x, factor=1.0, *, clip=None):\n"
        "    return x * factor\n"
        "def _shift(x, by=0, wrap=True):\n"
        "    return x + by\n"
        "def _pair(a, b=1, c=2):\n"
        "    return a + b + c\n"
        "def _opts(a=0, *, b=1):\n"
        "    return a + b\n"
    )
    b = "from a import _scale\nprint(_scale(3, 2.0))\n"
    assert unpassed_defaults([a, b]) == ["_scale.clip", "_shift.wrap"]


def test_every_default_of_an_unexported_package_function_is_passed():
    assert unpassed_defaults([path.read_text(encoding="utf-8") for path in PACKAGE]) == []


def test_every_package_definition_is_read_or_exported():
    assert unused_definitions([path.read_text(encoding="utf-8") for path in PACKAGE]) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
