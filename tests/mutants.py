"""One-site mutants of chosen kmlat functions, run against a chosen pytest
selection in a copy of the repository.  Stdlib only; pytest does not
collect this file (its name does not start with test_).

    python tests/mutants.py --function groups.dickson_table \\
        --function groups.order_available --timeout 120 -- \\
        tests/test_groups.py::test_order_available

Each mutant changes one site of a named function (module.function, or
module.Class.method for a method), found by ast:
- a comparison operator swapped: == and !=, < and <=, > and >=, in and
  not in, is and is not;
- an int constant c with |c| <= 64 (not a bool) made c + 1;
- a call of the builtin max, min, any or all by its bare name made a
  call of its partner: max and min, any and all;
- a boolean operator swapped: and and or (one site per chain, so
  `a and b and c` becomes `a or b or c`).

The repository is copied once into a temporary directory, without .git
and __pycache__, and the copy is removed at the end.  The checkout is
never written.  For each mutant the module in the copy is rewritten with
ast.unparse, pytest runs there on the selection with -x and
-p no:cacheprovider under the timeout, and the module is restored.
A mutant is killed when pytest fails or cannot collect, survives when it
passes, and hangs when the timeout ends it.  The unmutated copy must
pass first.  Each pytest run may map at most MEMORY bytes, so a mutant
that loops while a list grows fails with MemoryError (killed) long
before it could exhaust the machine.
"""

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE,
         ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is}
SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
           ast.Gt: ">", ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in",
           ast.Is: "is", ast.IsNot: "is not"}
SMALL = 64
MEMORY = 2 << 30
CALLS = {"max": "min", "min": "max", "any": "all", "all": "any"}


def find_function(tree, name):
    """The function called name: a top-level function, or Class.method."""
    body = tree.body
    *classes, last = name.split(".")
    for cls in classes:
        body = next((node.body for node in body
                     if isinstance(node, ast.ClassDef) and node.name == cls),
                    [])
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == last:
            return node
    raise SystemExit("no function %r" % name)


def sites(func):
    """The mutable sites of a function, in ast.walk order: (node, index)
    with index the operator's position in a Compare, or None for an int
    constant, a call or a boolean chain."""
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            out.extend((node, i) for i, op in enumerate(node.ops)
                       if type(op) in SWAPS)
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and abs(node.value) <= SMALL):
            out.append((node, None))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in CALLS):
            out.append((node, None))
        elif isinstance(node, ast.BoolOp):
            out.append((node, None))
    return out


def mutate(source, function, k):
    """(mutated source, description) for site k of function."""
    tree = ast.parse(source)
    node, index = sites(find_function(tree, function))[k]
    if isinstance(node, ast.BoolOp):
        what = "and -> or" if isinstance(node.op, ast.And) else "or -> and"
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, ast.Call):
        what = "%s -> %s" % (node.func.id, CALLS[node.func.id])
        node.func.id = CALLS[node.func.id]
    elif index is None:
        what = "%d -> %d" % (node.value, node.value + 1)
        node.value += 1
    else:
        op = type(node.ops[index])
        what = "%s -> %s" % (SYMBOLS[op], SYMBOLS[SWAPS[op]])
        node.ops[index] = SWAPS[op]()
    return ast.unparse(tree) + "\n", "line %d: %s" % (node.lineno, what)


def run_pytest(copy, selection, timeout):
    """"killed", "survived" or "hung" for one pytest run in the copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(copy / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *selection], cwd=copy, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, start_new_session=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (MEMORY, MEMORY)))
    try:
        out = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "hung"
    # 1: a test failed; 2: a collection error, such as a mutant that
    # fails at import
    if proc.returncode in (0, 1, 2):
        return "survived" if proc.returncode == 0 else "killed"
    raise SystemExit("pytest exited %d:\n%s" % (proc.returncode,
                                                out.decode()[-2000:]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--function", action="append", required=True,
                        help="module.function or module.Class.method in "
                        "src/kmlat, repeatable")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds per mutant run (default 120)")
    parser.add_argument("selection", nargs="+",
                        help="pytest arguments: the tests to run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="kmlat-mutants-") as tmp:
        return probe(args, Path(tmp) / "repo")


def probe(args, copy):
    """Copy the repository to `copy`, run every mutant, print the results."""
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache"))
    if run_pytest(copy, args.selection, args.timeout) != "survived":
        raise SystemExit("the selection does not pass on the unmutated copy")
    results = {"killed": [], "survived": [], "hung": []}
    for target in args.function:
        module, _, function = target.partition(".")
        path = copy / "src" / "kmlat" / (module + ".py")
        source = path.read_text()
        for k in range(len(sites(find_function(ast.parse(source),
                                               function)))):
            mutated, what = mutate(source, function, k)
            path.write_text(mutated)
            try:
                outcome = run_pytest(copy, args.selection, args.timeout)
            finally:
                path.write_text(source)
            label = "%s %s" % (target, what)
            results[outcome].append(label)
            print("%-8s %s" % (outcome, label), flush=True)
    print("killed %d, survived %d, hung %d" % tuple(
        len(results[k]) for k in ("killed", "survived", "hung")))
    for outcome in ("survived", "hung"):
        for label in results[outcome]:
            print("%s: %s" % (outcome, label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
