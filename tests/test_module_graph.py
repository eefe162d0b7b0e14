"""What src/kmlat defines, imports and raises: the code that only tests
reach lives in tests/reference.py, every error class in kmlat/errors.py is
raised by the package, and every name perfbench/tracer.py patches is
still in the package (a stdlib-ast check, and one traced run)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kmlat import errors

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "kmlat"

# name once defined in src/kmlat -> its name in tests/reference.py; a
# method, Class.method, became a free function
MOVED = {
    "recognize": "recognize", "_is_p_power": "_is_p_power",
    "GroupType": "GroupType", "PROFILE_S4": "PROFILE_S4",
    "PROFILE_A4": "PROFILE_A4", "PROFILE_A5": "PROFILE_A5",
    "sl2_group": "sl2_group", "_SL2_CACHE": "_SL2_CACHE",
    "FiniteGroup.order_profile": "order_profile",
    "FiniteGroup.is_abelian": "is_abelian",
    "FiniteGroup.is_cyclic": "is_cyclic", "FiniteGroup.center": "center",
    "FiniteGroup.is_subgroup": "is_subgroup",
    "FiniteGroup.is_normal": "is_normal",
    "FiniteGroup.derived_subgroup": "derived_subgroup",
    "FiniteGroup.is_perfect": "is_perfect", "FiniteGroup.cosets": "cosets",
    "covering_check": "covering_check",
    "zp_fixes_ball2": "zp_fixes_ball2", "_x1": "_x1", "_x2": "_x2",
    "_xm1": "_xm1", "_xm2": "_xm2", "_w1": "_w1", "_w2": "_w2",
    "letter_matrix": "letter_matrix", "realize_edge": "realize_edge",
    "crosscheck_affine": "crosscheck_affine",
    "membership": "membership", "edge_distance": "edge_distance",
    "Vertex.x1": "vertex_x1", "Vertex.x2": "vertex_x2",
    "Mat2.identity": "mat2_identity", "Edge.base": "base_edge",
    "RadiusExceeded": "RadiusExceeded",
    "EdgeOfGroups": "EdgeOfGroups", "NotAHomomorphism": "NotAHomomorphism",
    "ball2_edges": "ball2_edges", "_word_table": "ball2_word_table",
    "_power_fixes_all": "_power_fixes_all",
    "alternating_word": "alternating_word", "_entry": "_entry",
}
# the same for tests/oracles.py: F_{q^2} on ExtElement, and the errors only
# the Mat2 check and the exceptional-subgroup scan raise
TO_ORACLES = {"_mult_matrix": "mult_matrix", "ext_one": "ext_one",
              "WrongFixedVertex": "WrongFixedVertex",
              "SearchBudgetExceeded": "SearchBudgetExceeded"}
# the exceptional-subgroup search, deleted when find_subgroup_of_type began
# to build from a trace triple; tests/oracles.py keeps a scan of its own
DELETED = {"_trace_order_map", "_trace_class", "_SEARCH_BUDGET"}


def definitions(source):
    """The top-level functions, classes and assigned names of a module,
    and the methods of its classes as Class.method."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        if isinstance(node, ast.ClassDef):
            out.update("%s.%s" % (node.name, item.name) for item in node.body
                       if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def kmlat_imports(source):
    """The kmlat modules a module imports from: `from .gf import x` and
    `from . import gf` both give "gf"."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module] if node.module
                       else (alias.name for alias in node.names))
    return out


def raised(source):
    """The names a module raises: `raise X(...)` and `raise X` give "X"."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name):
                out.add(exc.id)
    return out


def test_the_checks_see_definitions_and_imports():
    source = ("from . import gf, groups\nfrom .serretree import Mat2\n"
              "import json\nX = 1\nclass A:\n    def f(self):\n"
              "        Y = 2\ndef g():\n    from .lattice import classify\n"
              "    raise NotFound('x')\n    raise Stop\n    raise\n")
    assert definitions(source) == {"X", "A", "A.f", "g"}
    assert kmlat_imports(source) == {"gf", "groups", "serretree", "lattice"}
    assert raised(source) == {"NotFound", "Stop"}


@pytest.mark.parametrize("module,banned", [
    ("lattice", {"serretree"}), ("kmaction", {"laurent", "serretree"})])
def test_module_does_not_import(module, banned):
    assert kmlat_imports((SRC / (module + ".py")).read_text()) & banned == set()


def test_moved_names_live_only_in_the_reference_module():
    in_src = set()
    for path in SRC.glob("*.py"):
        in_src |= definitions(path.read_text())
    assert sorted((set(MOVED) | set(TO_ORACLES) | DELETED) & in_src) == []
    in_reference = definitions((TESTS / "reference.py").read_text())
    assert sorted(set(MOVED.values()) - in_reference) == []
    in_oracles = definitions((TESTS / "oracles.py").read_text())
    assert sorted(set(TO_ORACLES.values()) - in_oracles) == []


def test_every_error_class_is_raised_by_the_package():
    """Each KmlatError subclass that kmlat/errors.py defines is raised by
    some other src/kmlat module; an error that only tests raise lives in
    the test module that raises it."""
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.KmlatError)
               and obj is not errors.KmlatError}
    assert len(defined) > 10
    in_src = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            in_src |= raised(path.read_text())
    assert sorted(defined - in_src) == []


def test_the_tracer_installs_and_traces_a_run():
    """perfbench/tracer.py patches kmlat names by string, so each name it
    patches must stay in src/kmlat.  install() patches kmlat for the whole
    process, hence the subprocess.  The traced verify run prints its
    report and counts one call each of cli.main, lubotzky_check,
    torus_normalizer and gf.norm1_subgroup, the last through the name
    groups imports it by."""
    code = ("import contextlib, io, kmlat.cli, tracer\n"
            "t = tracer.Tracer()\nt.install()\nout = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    rc = kmlat.cli.main(['verify', '--q', '5', '--kind', "
            "'torus_normalizer'])\n"
            "figs = t.layer_figures()\n"
            "print(rc, '\"command\": \"verify\"' in out.getvalue(), "
            "figs['calls.cli.main'], figs['calls.lattice.lubotzky_check'], "
            "figs['calls.groups.torus_normalizer'], "
            "figs['calls.gf.norm1_subgroup'])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(ROOT / "src"), str(ROOT / "perfbench"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0 True 1 1 1 1\n"
