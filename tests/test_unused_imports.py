"""No module of the package or of its tests binds an import it never uses,
every helper module in ``tests/`` is imported by a test module, and each
module of the package imports only the layers below it.

No linter is a test dependency, so this walks each module's syntax tree with
the standard library's `ast`.  An imported name counts as used when the
module reads it, lists it in ``__all__``, or names it inside a string
annotation; an import marked ``# noqa: F401`` is kept for its side effect.
A helper module is a file of ``tests/`` not named ``test_*.py`` or
``conftest.py``; one that no ``test_*.py`` imports is left over.  The layers
are the modules that the package docstring lists, bottom to top.
"""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mnlbandit"


def _imports(tree, lines):
    """``(name, line)`` of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # `import a.b` binds `a`; `from m import x as y` binds `y`
            yield (alias.asname or alias.name.split(".")[0]), node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        exported = any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
        # a computed ``__all__`` reads its sources as names, counted above
        if exported and isinstance(node.value, (ast.List, ast.Tuple)):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    """``(name, line)`` of each import in ``source`` that nothing uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _imports(tree, source.splitlines())
            if name not in used]


def imported_modules(source):
    """Top-level names of the modules ``source`` imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def relative_imports(source):
    """Modules of the package that ``source`` imports, at module level or in a
    function (``from . import x`` names the package itself, no layer)."""
    return {node.module.split(".")[0] for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def layers():
    """The modules of the package docstring's "Layers, bottom to top" list."""
    doc = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    listing = doc.split("Layers, bottom to top:")[1].split("\n\n")[1]
    return re.findall(r"^\* `mnlbandit\.(\w+)`", listing, re.MULTILINE)


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_every_module_is_a_layer():
    assert sorted(layers()) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_lower_layers(path):
    order = layers()
    below = set(order[: order.index(path.stem)])
    assert sorted(relative_imports(path.read_text(encoding="utf-8")) - below) == []


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_helper_module_is_imported_by_a_test():
    imported = set()
    for path in TESTS.glob("test_*.py"):
        imported |= imported_modules(path.read_text(encoding="utf-8"))
    helpers = {p.stem for p in TESTS.glob("*.py")
               if not p.name.startswith("test_") and p.name != "conftest.py"}
    assert sorted(helpers - imported) == []


def test_the_check_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "from dataclasses import dataclass, replace\n"
        "from typing import Dict, List\n"
        "from .model import Instance\n"
        "__all__ = ['List']\n"
        "CACHE: 'Dict[Instance, int]' = {}\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
    )
    assert unused_imports(source) == [("os", 2), ("replace", 4)]
    computed = "from .model import NAMES, Instance\n__all__ = [n for n in NAMES]\n"
    assert unused_imports(computed) == [("Instance", 1)]
    assert imported_modules("import a.b, c\nfrom d.e import f\nfrom .g import h\n") == {
        "a", "c", "d"}
    nested = "from . import x\nfrom .g.h import i\nimport os\ndef f():\n    from .j import k\n"
    assert relative_imports(nested) == {"g", "j"}
