"""Every module under src/poisdirac/ reads each name it imports, the package
reads each private function, class, constant and method it defines, and each
public one is read by the package, a script, the benchmark or the acceptance
run, so an import or a helper that a refactor left behind, or one that only
unit tests read, fails here.  `__init__.py` is left out of the import check:
it imports names to re-export them."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import poisdirac

PACKAGE = sorted(Path(poisdirac.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
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


def definitions(tree: ast.Module, private: bool = True):
    """(name, node) for each private (or, with private=False, public) module-level
    function, class and constant and each such method of a module-level class; dunder
    names are neither."""
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
        yield from ((name, node) for name in names
                    if not (name.startswith("__") and name.endswith("__")) and name.startswith("_") == private)


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The private names defined in the sources and read nowhere in them outside their own
    definition, so a helper that only calls itself is unread too."""
    trees = [ast.parse(source) for source in sources]
    reads = sum(map(read_names, trees), Counter())
    return sorted(name for tree in trees for name, node in definitions(tree)
                  if reads[name] == read_names(node)[name])


def test_every_private_definition_is_read():
    assert unread_private_definitions([path.read_text(encoding="utf-8") for path in PACKAGE]) == []


def test_a_stray_private_definition_is_found():
    used = "_LIMIT = 3\nclass _Table(dict):\n    def _grow(self):\n        return _LIMIT\n"
    stray = ("def _reciprocal(c):\n    return _reciprocal(c)\n"
             "class Poly:\n    def _dead(self):\n        return _Table()._grow()\n    def __repr__(self):\n        return ''\n")
    assert unread_private_definitions([used, stray]) == ["_dead", "_reciprocal"]


def dotted_strings(tree: ast.AST) -> Counter:
    """The dot-separated parts of every string constant in a tree: the benchmark names the
    functions it traces as "layer.name"."""
    return Counter(part for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   for part in node.value.split("."))


def unit_test_only_definitions(package: list[str], readers: list[str], named_by: list[str]) -> list[str]:
    """The public names defined in the package sources and read neither there, outside their
    own definition, nor in the reader sources, nor as a dotted name in a string of named_by."""
    trees = [ast.parse(source) for source in package]
    reads = sum(map(read_names, trees + [ast.parse(source) for source in readers]), Counter())
    reads += sum((dotted_strings(ast.parse(source)) for source in named_by), Counter())
    return sorted(name for tree in trees for name, node in definitions(tree, private=False)
                  if reads[name] == read_names(node)[name])


def inherited(name: str) -> bool:
    """Whether a method of that name overrides one of a base class outside the package, which
    calls it: `cli`'s argument parser overrides `parse_known_args`."""
    return any(hasattr(base, name) for path in PACKAGE if path.name != "__init__.py"
               for cls in vars(importlib.import_module(f"poisdirac.{path.stem}")).values()
               if isinstance(cls, type) and name in vars(cls) for base in cls.__mro__[1:])


def test_every_public_definition_is_read_outside_the_unit_tests():
    # the acceptance run reads the paper's constructions (from_subspace_form, change_basis,
    # range_and_form, leaf_form_value)
    scripts, bench = sorted((ROOT / "scripts").glob("*.py")), sorted((ROOT / "perfbench").glob("*.py"))
    readers = [path.read_text(encoding="utf-8") for path in scripts + bench + [ROOT / "tests" / "test_acceptance.py"]]
    named_by = [path.read_text(encoding="utf-8") for path in bench]
    unread = unit_test_only_definitions([path.read_text(encoding="utf-8") for path in PACKAGE], readers, named_by)
    assert [name for name in unread if not inherited(name)] == []


def test_a_public_name_only_tests_read_is_found():
    package = ("def used():\n    return helper()\ndef helper():\n    return 1\n"
               "def traced():\n    return 2\ndef tested_only():\n    return tested_only()\n"
               "class Field:\n    def permuted(self):\n        return 3\n    def at(self):\n        return 4\n")
    readers = ["from lib import used, Field\nused()\nField().at()\n"]
    assert unit_test_only_definitions([package], readers, ['SPANS = ("lib.traced",)']) == ["permuted", "tested_only"]
