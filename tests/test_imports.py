"""Every import in a kmlat module or a test module is used (a stdlib-ast
check)."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kmlat"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def _annotations(tree):
    """Every annotation: of an assignment, an argument or a return."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def unused_imports(source):
    """Names bound by an import statement and never read as a name outside
    an annotation.  Under `from __future__ import annotations` annotations
    are strings that nothing evaluates, so a name read only there is
    unused."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    in_annotations = {id(node) for ann in _annotations(tree) if ann
                      for node in ast.walk(ann)}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and id(node) not in in_annotations}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nimport os\nos.sep\n") == [(1, "math")]
    assert unused_imports("from .gf import a, b as c\nc()\n") == [(1, "a")]
    assert unused_imports("from __future__ import annotations\n") == []
    annotated = ("from typing import Optional\nfrom a import B, C, D\n"
                 "x: Optional[int] = None\n"
                 "def f(y: B) -> C:\n    return D\n")
    assert unused_imports(annotated) == [(1, "Optional"), (2, "B"),
                                         (2, "C")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
