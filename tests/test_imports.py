"""Every module under src/poisdirac/ reads each name it imports, and the package
reads each private function, class, constant and method it defines, so an
import or a helper that a refactor left behind fails here.  `__init__.py` is
left out of the import check: it imports names to re-export them."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import poisdirac

PACKAGE = sorted(Path(poisdirac.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def read_names(tree: ast.AST) -> Counter:
    """How often each name is read in a tree, as a variable or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    )


def private_definitions(tree: ast.Module):
    """(name, node) for each private module-level function, class and constant and each
    private method of a module-level class; dunder names are not private."""
    methods = [item for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)]
    for node in tree.body + methods:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names if name.startswith("_") and not name.endswith("__"))


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The private names defined in the sources and read nowhere in them outside their own
    definition, so a helper that only calls itself is unread too."""
    trees = [ast.parse(source) for source in sources]
    reads = sum(map(read_names, trees), Counter())
    return sorted(name for tree in trees for name, node in private_definitions(tree)
                  if reads[name] == read_names(node)[name])


def test_every_private_definition_is_read():
    assert unread_private_definitions([path.read_text(encoding="utf-8") for path in PACKAGE]) == []


def test_a_stray_private_definition_is_found():
    used = "_LIMIT = 3\nclass _Table(dict):\n    def _grow(self):\n        return _LIMIT\n"
    stray = ("def _reciprocal(c):\n    return _reciprocal(c)\n"
             "class Poly:\n    def _dead(self):\n        return _Table()._grow()\n    def __repr__(self):\n        return ''\n")
    assert unread_private_definitions([used, stray]) == ["_dead", "_reciprocal"]
