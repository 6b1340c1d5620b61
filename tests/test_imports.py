"""Static check: every name a module of the package imports is used there.

No linter ships with the test environment, so this scans the AST of each
module: a name bound by `import` or `from ... import` that the module
never loads is dead.  `__init__.py` is skipped, since its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import alloymsa

PACKAGE = Path(alloymsa.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in loaded]


def test_scanner_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from .lattice import Box, make_box as mb\n"
              "def f(b: Box):\n"
              "    return mb(math.pi)\n")
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
