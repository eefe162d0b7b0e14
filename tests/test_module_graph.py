"""What src/kmlat defines, imports, raises and writes: the code that only
tests reach lives in tests/reference.py, every error class in
kmlat/errors.py is raised by the package, only cli.main writes output,
every name perfbench/tracer.py patches is still in the package, and every
function the package defines is entered by some command or is listed with
its reason (a stdlib-ast check, one traced run, and one settrace run)."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kmlat import errors
from test_verify_golden import benchmark_workloads

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
    "zp_criterion": "zp_criterion", "Edge": "Edge", "_TERM": "_TERM",
}
# the same for tests/oracles.py: F_{q^2} on ExtElement, and the errors only
# the Mat2 check and the exceptional-subgroup scan raise
TO_ORACLES = {"_mult_matrix": "mult_matrix", "ext_one": "ext_one",
              "WrongFixedVertex": "WrongFixedVertex",
              "SearchBudgetExceeded": "SearchBudgetExceeded"}
# the exceptional-subgroup search, deleted when find_subgroup_of_type began
# to build from a trace triple (tests/oracles.py keeps a scan of its own),
# the report writers deleted when cli.main became the one writer, the
# exceptional rows' table, deleted when classify derived them by
# arithmetic, the eigenvector alignment, deleted when build_standard_lattice
# came to align by a unipotent (tests/oracles.py keeps it),
# FiniteGroup.identity, which the tests replaced by CODE_ONE, the
# dihedral search's scalar helpers, folded into its loop over code triples,
# the report records, now the plain dicts that cli.dumps writes, and the
# edge label and root letter records, now plain tuples
DELETED = {"_trace_order_map", "_trace_class", "_SEARCH_BUDGET", "_emit",
           "VerificationReport.to_json_dict", "LatticeDescriptor.to_json_dict",
           "EXCEPTIONAL_TABLE", "_diagonalizing_conjugator",
           "FiniteGroup.identity", "_low_squares", "_p1_hits", "_p2_hits",
           "VerificationReport", "LatticeDescriptor", "DicksonEntry",
           "EdgeLabel", "RootIndex", "RootLetter", "ClassificationInput",
           "ClassificationInput.__new__", "ClassificationInput.validate"}


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


def stdlib_imports(source):
    """The modules a module imports by absolute name, anywhere in it:
    `import a.b` and `from a.b import x` both give "a"."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.partition(".")[0])
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


def writers(source):
    """Where a module calls print or json.dumps: the enclosing function
    as Class.method or outer.inner, or "<module>" outside any."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and ast.unparse(node.func) in ("print", "json.dumps")):
            names = []
            while node in parents:
                node = parents[node]
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.append(node.name)
            out.add(".".join(reversed(names)) or "<module>")
    return out


def test_the_checks_see_definitions_and_imports():
    source = ("from . import gf, groups\nfrom .serretree import Mat2\n"
              "import json\nX = 1\nclass A:\n    def f(self):\n"
              "        Y = 2\ndef g():\n    from .lattice import classify\n"
              "    raise NotFound('x')\n    raise Stop\n    raise\n")
    assert definitions(source) == {"X", "A", "A.f", "g"}
    assert kmlat_imports(source) == {"gf", "groups", "serretree", "lattice"}
    assert raised(source) == {"NotFound", "Stop"}
    source = ("import json\nprint(1)\nclass A:\n    def f(self):\n"
              "        def h():\n            return json.dumps(2)\n"
              "def g():\n    sys.stdout.write(json.loads('3'))\n")
    assert writers(source) == {"<module>", "A.f.h"}


def test_only_cli_main_writes_output():
    """Every command's handler returns its report, and cli.main alone
    turns it into JSON and prints it."""
    found = {(path.stem, name) for path in SRC.glob("*.py")
             for name in writers(path.read_text())}
    assert found == {("cli", "main")}


@pytest.mark.parametrize("module,banned", [
    ("lattice", {"serretree"}), ("kmaction", {"laurent", "serretree"})])
def test_module_does_not_import(module, banned):
    assert kmlat_imports((SRC / (module + ".py")).read_text()) & banned == set()


def test_groups_does_not_import_collections():
    """The subgroup profiles are plain dicts.  Other modules load
    collections at run time, so only the source can show this."""
    assert "collections" not in stdlib_imports((SRC / "groups.py").read_text())


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


# why a function that no golden or benchmark argv enters stays in src/kmlat;
# the names perfbench/tracer.py patches need no entry (tracer_patched)
UNDER_TRACED = "called in src/kmlat only by a name the tracer patches"
COMPARED = "equality, hash or repr (or a part of one) that tests compare by"
TEST_BUILT = "a constructor that tests build values with"
TEST_API = "an operation the tests use on a value they build"
UNREACHED = {
    "gf.FieldSpec.__repr__": COMPARED, "gf.FieldSpec.short_str": COMPARED,
    "gf.FieldSpec.element": TEST_BUILT, "gf.FieldSpec.elements": TEST_BUILT,
    "gf.FieldSpec.zero": TEST_BUILT, "gf.FieldSpec.one": TEST_BUILT,
    "gf.FieldElement.__init__": TEST_BUILT,
    "gf.FieldElement._check": UNDER_TRACED,
    "gf.FieldElement.is_zero": TEST_API,
    "gf.FieldElement.__eq__": COMPARED, "gf.FieldElement.__hash__": COMPARED,
    "gf.FieldElement.__repr__": COMPARED,
    "gf.ExtElement.__init__": TEST_BUILT, "gf.ExtElement.is_zero": TEST_API,
    "gf.ExtElement.norm": TEST_API, "gf.ExtElement.__eq__": COMPARED,
    "gf.ExtElement.__hash__": COMPARED, "gf.ExtElement.__repr__": COMPARED,
    "groups.FiniteGroup.__eq__": COMPARED,
    "groups.FiniteGroup.__hash__": COMPARED,
    "groups.FiniteGroup.__repr__": COMPARED,
    "groups.order_of": UNDER_TRACED, "groups.sl2_codes": UNDER_TRACED,
    "kmaction._check_alternating": UNDER_TRACED,
    "laurent.LaurentPoly.__hash__": COMPARED,
    "laurent.LaurentPoly.__repr__": COMPARED,
    "serretree.Mat2.from_codes": UNDER_TRACED,
    "serretree.Mat2.__eq__": COMPARED,
    "serretree.Mat2.__hash__": COMPARED, "serretree.Mat2.__repr__": COMPARED,
    "serretree.Vertex.__repr__": COMPARED,
}

# run in a fresh interpreter: the trace is on before kmlat is imported, so
# calls made at import time count; prints the (file, first line) entered
REACH = r"""
import contextlib, io, json, sys
src, argvs, entered = sys.argv[1], json.load(sys.stdin), set()

def trace(frame, event, arg):
    if frame.f_code.co_filename.startswith(src):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.settrace(trace)
import kmlat.cli
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            kmlat.cli.main(argv)
        except SystemExit:  # argparse's usage errors
            pass
sys.settrace(None)
print(json.dumps(sorted(entered)))
"""


def functions(path):
    """Every def of a module, nested ones included, as module.qualname ->
    the first line of its code object (its first decorator's line)."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    out[name] = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), path.stem + ".")
    return out


def tracer_patched():
    """layer.qualname of each name perfbench/tracer.py patches: its
    SPANNED and HOT tables, and the patch(layer, qualname, ...) calls
    install() makes by hand."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {layer + "." + name for table in (tracer.SPANNED, tracer.HOT)
             for layer, qualnames in table.items() for name in qualnames}
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "patch"
                and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            names.add(node.args[0].value + "." + node.args[1].value)
    return names


def reach_argvs():
    """The argvs of the five golden files and of the benchmark, once each."""
    argvs = [job["argv"]
             for path in sorted((TESTS / "golden").glob("*_jobs.json"))
             for job in json.loads(path.read_text())]
    argvs += [list(job) for jobs in benchmark_workloads().values()
              for job in jobs]
    return list(map(list, dict.fromkeys(map(tuple, argvs))))


def test_every_function_is_entered_or_listed_with_its_reason():
    """Every def in src/kmlat is entered by some golden or benchmark argv
    run through cli.main, is patched by perfbench/tracer.py, or is in
    UNREACHED with its reason; and every name UNREACHED lists is a def
    that no such argv enters and the tracer does not patch."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", REACH, str(SRC)],
                         input=json.dumps(reach_argvs()), capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    entered = {tuple(x) for x in json.loads(out.stdout)}
    unreached = {name for path in SRC.glob("*.py")
                 for name, line in functions(path).items()
                 if (str(path), line) not in entered}
    assert sorted(unreached - tracer_patched() - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - (unreached - tracer_patched())) == []

