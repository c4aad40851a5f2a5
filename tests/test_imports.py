"""Every name a library module imports is used in that module, and
every module it imports from outside the package is in the standard
library, as `dependencies = []` in pyproject.toml promises.

A stdlib `ast` stand-in for a linter's unused-import rule.  The
package `__init__` is exempt from it: its imports are the public
re-exports.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polystress"


def unused_imports(source: str) -> list:
    """(line, name) of every imported name never read in `source`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_unused_names():
    source = "import os\nfrom a import b, c as d\nfrom __future__ import annotations\n__all__ = ['b']\nos.sep\n"
    assert unused_imports(source) == [(2, "d")]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def absolute_imports(source: str) -> list:
    """(line, top-level module) of every absolute import in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_absolute_imports_are_found():
    source = "import os.path\nfrom . import a\nfrom .b import c\nfrom fractions import Fraction\n"
    assert absolute_imports(source) == [(1, "os"), (4, "fractions")]


def referenced_names(source: str) -> set:
    """Every name, attribute and imported name that `source` mentions."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(filter(None, (node.name, node.asname)))
    return out


def test_referenced_names_are_found():
    source = "from .stress import a as b, c\nimport d\nx = exactla.e(f)\n"
    assert referenced_names(source) == {"a", "b", "c", "d", "x", "exactla", "e", "f"}


def test_detect_builds_no_stress_of_its_own():
    # detect takes every stress from stress_basis or power_stress: it
    # neither assembles a rigidity matrix nor expands or differentiates one
    names = referenced_names((SRC / "detect.py").read_text(encoding="utf-8"))
    assert names & {"rigidity_matrix", "expand_squarefree", "poly_directional", "kernel_basis"} == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    imports = absolute_imports(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in imports if name not in sys.stdlib_module_names] == []
