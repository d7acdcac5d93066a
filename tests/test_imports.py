"""Every module under src/poisdirac/ reads each name it imports, so an import
that a refactor left behind fails here.  `__init__.py` is left out: it
imports names to re-export them."""

import ast
from pathlib import Path

import pytest

import poisdirac

MODULES = sorted(p for p in Path(poisdirac.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names a module binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_a_stray_import_is_found():
    source = "import os.path\nfrom fractions import Fraction as F\nfrom typing import Any\nx: Any = F(1)\n"
    assert unread_imports(source) == ["os"]
