"""The fast parse of `<command> (--flag value)*` against argparse.

cli.fast_parse reads an argv of that shape off cli.COMMANDS, and declines
every other argv, which argparse then parses.  argparse is the oracle:
for each argv, the fast parse declines or gives argparse's namespace.
tests/golden/usage_jobs.json pins exit code, stdout and stderr of
USAGE_ARGVS; it was recorded at commit e6c74e0, where argparse parsed every
argv, by running this file there:

    PYTHONPATH=src python tests/test_parse.py

It was recorded again when every integer flag came to read ASCII digits
alone: the seven argvs with the value " 3" for --p, --q, --z, --pairs or
--window, once read as 3, became usage errors.  It was recorded again
when the normalizer rows came to give their vertex group order as
(q+1)z, not 2(q+1)z: the eight `classify --p 7 --q 7 --levi psl` runs.
"""

import contextlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kmlat import cli, kmaction, serretree
from test_cli import NAMED_RUNS, SUBCOMMANDS, VALID_RUNS
from test_verify_golden import benchmark_workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USAGE_GOLDEN = ROOT / "tests" / "golden" / "usage_jobs.json"


def golden_argvs():
    return [tuple(job["argv"]) for path in sorted(
        (ROOT / "tests" / "golden").glob("*_jobs.json"))
        if path != USAGE_GOLDEN
        for job in json.loads(path.read_text())]


def benchmark_argvs():
    return [tuple(job) for jobs in benchmark_workloads().values()
            for job in jobs]


def readme_argvs():
    """The `kmlat ...` lines of the README, split as a shell splits them."""
    return [tuple(shlex.split(line)[1:])
            for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("kmlat ")]


def _groups(argv):
    """argv[1:] cut before each token that starts with '--'."""
    out = []
    for token in argv[1:]:
        if token.startswith("--"):
            out.append([token])
        else:
            out[-1].append(token)
    return out


def _join(command, groups):
    return tuple([command] + [t for g in groups for t in g])


TREE_BASE = ("tree", "--q", "2", "--distance", "1,0;0,1", "t,0;0,1")
BASES = [(c,) + VALID_RUNS[c] for c in SUBCOMMANDS] + [TREE_BASE]
BAD_VALUES = ("", "x", "-1", "1.5", " 3", "0", "bogus")


def reorderings():
    """Each base run with its flags reversed and rotated: argparse takes
    flags in any order, and so must the fast parse."""
    out = []
    for base in BASES:
        groups = _groups(base)
        out += [_join(base[0], groups[::-1]),
                _join(base[0], groups[1:] + groups[:1])]
    return out


def generated_argvs():
    """Variations of the base runs: reorderings and repeats, `=` forms and
    abbreviations, missing and extra flags, bad types and choices, empty
    and negative-looking values, a flag name where a value belongs, and
    tree's --distance with and without --neighbors."""
    out = reorderings()
    for base in BASES:
        command, groups = base[0], _groups(base)
        first = groups[0]
        out += [_join(command, groups + [first]),
                _join(command, groups + [[first[0], "1"]]),
                _join(command, [["%s=%s" % tuple(first)]] + groups[1:]),
                base + ("extra",), (command, "extra") + base[1:],
                base + ("--bogus", "1"), base + ("--json-indent", "2"),
                ("--json-indent", "2") + base, base + ("-h",),
                base + ("--help",), base + ("--",), base[:-1]]
        for i, group in enumerate(groups):
            rest = groups[:i] + groups[i + 1:]
            out.append(_join(command, rest))
            if len(group[0]) > 4:
                out.append(_join(command, rest + [[group[0][:-1]]
                                                  + group[1:]]))
            out += [_join(command, rest + [[group[0]]
                                           + [v] * (len(group) - 1)])
                    for v in BAD_VALUES]
    q = ("tree", "--q", "2")
    m1, m2 = "1,0;0,1", "t,0;0,1"
    out += [q + ("--distance", m1, m2, "--neighbors", m1),
            q + ("--neighbors", m1, "--distance", m1, m2),
            q + ("--distance", m1), q + ("--distance", m1, "--neighbors", m2),
            q + ("--distance", m1, m2, m1), q + ("--distance", "", ""),
            q, ("classify", "--p", "7", "--q", "7", "--levi", "psl",
                "--z", "-1"),
            ("classify", "--p", "7", "--q", "7", "--levi", "psl",
             "--qi-central", "maybe"),
            ("verify", "--q", "--kind", "--kind", "SL2(5)"),
            ("km-act", "--q", "3", "--word", "--edge", "--edge", "base"),
            ("verify", "--q", "-", "--kind", "SL2(5)")]
    return list(dict.fromkeys(out))


def _argparse(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(list(argv)))
        except SystemExit:
            return None


SOURCES = {"golden": golden_argvs, "benchmark": benchmark_argvs,
           "readme": readme_argvs, "named": lambda: NAMED_RUNS,
           "generated": generated_argvs}
# the sources whose every argv is a valid run of the fast parse's shape
ALL_TAKEN = ("golden", "benchmark", "readme")


@pytest.mark.parametrize("source", SOURCES)
def test_fast_parse_declines_or_matches_argparse(source):
    """For each argv, the fast parse declines, or argparse accepts the argv
    and its namespace has the same vars().  Every golden, benchmark and
    README run and every reordering takes the fast parse.  A type call
    that raises (`--pairs 0`, `--p x`) makes it decline, with no error let
    through."""
    argvs = SOURCES[source]()
    must_take = set(reorderings()) | set(argvs if source in ALL_TAKEN
                                         else ())
    taken = 0
    for argv in argvs:
        fast = cli.fast_parse(list(argv))
        if fast is None:
            assert argv not in must_take, argv
            continue
        assert vars(fast) == _argparse(argv), argv
        taken += 1
    assert taken >= 8, source


def test_the_zp_size_cap_admits_every_taken_run():
    """Every golden, benchmark and README zp-test run, and (16, 2) and
    (64, 1), the largest at the cap, passes kmaction's size check."""
    runs = [cli.fast_parse(list(argv)) for source in ALL_TAKEN
            for argv in SOURCES[source]() if argv[0] == "zp-test"]
    assert len(runs) > 6
    sizes = {(cli._field_for(args.q).q, args.pairs) for args in runs}
    for q, pairs in sizes | {(16, 2), (64, 1)}:
        kmaction.check_zp_size(q, pairs)


def test_the_dihedral_size_cap_admits_every_taken_run():
    """Every golden, benchmark and README dihedral-search run, and (4, 3),
    (16, 1) and (8, 2), the last at the cap, passes serretree's size
    check."""
    runs = [cli.fast_parse(list(argv)) for source in ALL_TAKEN
            for argv in SOURCES[source]() if argv[0] == "dihedral-search"]
    assert len(runs) > 6
    sizes = {(cli._field_for(args.q).q, args.window) for args in runs}
    for q, window in sizes | {(4, 3), (16, 1), (8, 2)}:
        serretree.check_dihedral_size(q, window)


def _subcommand_help(name):
    parser = cli.build_parser()
    action, = [a for a in parser._actions if a.dest == "command"]
    return action.choices[name].format_help()


def test_a_benchmark_job_never_imports_argparse():
    """Run as the benchmark runs a job (-E -S, src on sys.path), one
    process runs every job of perfbench/jobs.py, and none of them loads
    argparse, gettext or locale.  Help still goes through argparse, and
    prints what build_parser's parsers format."""
    code = r"""
import io, json, sys
sys.path.insert(0, %r)
from kmlat import cli
real, sys.stdout = sys.stdout, io.StringIO()
rcs = [cli.main(list(argv)) for argv in %r]
loaded = sorted({"argparse", "gettext", "locale"} & set(sys.modules))
helps = []
for argv in (["--help"], ["verify", "-h"]):
    sys.stdout = io.StringIO()
    try:
        cli.main(argv)
    except SystemExit as exc:
        helps.append([exc.code, sys.stdout.getvalue()])
sys.stdout = real
print(json.dumps([rcs, loaded, helps]))
""" % (str(SRC), benchmark_argvs())
    out = subprocess.run([sys.executable, "-E", "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    rcs, loaded, helps = json.loads(out.stdout)
    assert rcs == [0] * 61
    assert loaded == []
    assert helps == [[0, cli.build_parser().format_help()],
                     [0, _subcommand_help("verify")]]


# every argv whose exit code, stdout and stderr usage_jobs.json pins
USAGE_ARGVS = ([list(a) for a in NAMED_RUNS + generated_argvs()]
               + [["--help"], ["-h", "verify"], [], ["verif"],
                  ["--json-indent", "-3", "verify", "--q", "5"]])

RUNNER = r"""
import io, json, sys
sys.path.insert(0, sys.argv[1])
from kmlat import cli
real, runs = (sys.stdout, sys.stderr), []
for argv in json.load(sys.stdin):
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    runs.append({"argv": argv, "exit": code, "stdout": sys.stdout.getvalue(),
                 "stderr": sys.stderr.getvalue()})
sys.stdout, sys.stderr = real
print("[\n" + ",\n".join(json.dumps(run) for run in runs) + "\n]")
"""


def run_usage_argvs():
    """Exit code, stdout and stderr of each USAGE_ARGVS run, in one -E -S
    process."""
    out = subprocess.run([sys.executable, "-E", "-S", "-c", RUNNER,
                          str(SRC)], input=json.dumps(USAGE_ARGVS),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_usage_errors_and_help_match_the_argparse_only_cli():
    """Every named run and every generated argv, valid runs, help and usage
    errors alike, prints the bytes and exits with the code that the CLI
    printed when argparse parsed every argv."""
    golden = json.loads(USAGE_GOLDEN.read_text())
    assert [g["argv"] for g in golden] == USAGE_ARGVS
    runs = json.loads(run_usage_argvs())
    assert len(runs) == len(golden)
    for got, want in zip(runs, golden):
        assert got == want


if __name__ == "__main__":
    USAGE_GOLDEN.write_text(run_usage_argvs())
