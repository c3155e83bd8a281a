"""Source hygiene: every module of the package reads every name it imports,
every module-level private name is used somewhere in the package, and no
module reads another module's private constant.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules.
`__init__.py` is left out of the import scan, since its imports are the
package's re-exports. A private name that only tests use counts as dead:
code that only its own tests call is deleted. A private constant, such as a
file format's header layout, belongs to its module: another module that
needs it calls that module's functions instead of repeating its logic.
Every name a module lists in `__all__` exists, and the package re-exports
only names that their module lists.
"""

import ast
import importlib
import pathlib
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lau"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """'name (line n)' for each imported name the module never reads.

    `from __future__` imports are compiler directives, not names, so they
    are never reported.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_scanner_reports_only_unread_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .core import Rng, IGNORE\n\ndef f():\n    return np.zeros(IGNORE)\n")
    assert unused_imports(source) == ["Rng (line 4)", "os (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def _references(tree) -> Counter:
    """How often each name is read, as a name, an attribute or an imported name."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_private_names(sources: dict) -> list:
    """'module.name' for each module-level private function, class or constant
    that no module of `sources` (module name -> source) reads outside the
    name's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _references(node)
            for name in names:
                if name.startswith("_") and not name.startswith("__") and refs[name] == own[name]:
                    found.append(f"{module}.{name}")
    return sorted(found)


def test_private_name_scan_reports_only_unreferenced():
    sources = {
        "a": ("_USED, _PAIRED = 1, 2\n_UNUSED: int = 3\n__version__ = '1'\n"
              "def _recursive(n):\n    return _recursive(n - 1)\nclass _Thing:\n    pass\n"),
        "b": "from .a import _USED\nimport a\nx = a._Thing, _PAIRED\n",
    }
    assert unreferenced_private_names(sources) == ["a._UNUSED", "a._recursive"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def _private_constants(tree) -> set:
    """The module-level private names a module binds by assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def foreign_private_constants(sources: dict) -> list:
    """'module: other.name' for each private constant of another module of
    `sources` (module name -> source) that a module imports by name, as in
    `from .other import _NAME`, or reads off an imported module, as in
    `from . import other` then `other._NAME`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    constants = {module: _private_constants(tree) for module, tree in trees.items()}
    found = set()
    for module, tree in trees.items():
        aliases = {}  # local name -> package module, for `from . import other`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module in constants and alias.name in constants[node.module]:
                        found.add(f"{module}: {node.module}.{alias.name}")
                    elif node.module is None and alias.name in constants:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.attr in constants.get(aliases.get(node.value.id), ())):
                found.add(f"{module}: {aliases[node.value.id]}.{node.attr}")
    return sorted(found)


def test_private_constant_scan_reports_only_other_modules_constants():
    sources = {
        "core": "_HEADER = 1\n_LIMIT: int = 2\nPUBLIC = 3\n\ndef _read():\n    return _HEADER\n",
        "net": ("from .core import _HEADER, _read, PUBLIC\nfrom . import core as c\n"
                "x = c._LIMIT + c._read() + c.PUBLIC\n"),
        "cli": "_OWN = 1\nfrom .net import x\ny = _OWN\n",
    }
    assert foreign_private_constants(sources) == ["net: core._HEADER", "net: core._LIMIT"]


def test_no_module_reads_another_modules_private_constant():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert foreign_private_constants(sources) == []


@pytest.mark.parametrize("module", [p[:-3] for p in MODULES])
def test_every_all_entry_names_an_attribute(module):
    # a deleted function's stale string only fails `from lau.<module> import *`
    mod = importlib.import_module(f"lau.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_re_exports_only_listed_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    unlisted = [f"{node.module}.{alias.name}" for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name not in importlib.import_module(f"lau.{node.module}").__all__]
    assert unlisted == []
