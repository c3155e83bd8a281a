"""Source hygiene: every module of the package reads every name it imports.

A stdlib-only stand-in for a linter's unused-import rule. `__init__.py` is
left out, since its imports are the package's re-exports.
"""

import ast
import pathlib

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
