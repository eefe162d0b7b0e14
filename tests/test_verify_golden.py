"""The benchmark's verify, dihedral-search and zp-test jobs, and a set of
tree and km-act runs, print exactly the pinned golden output.

tests/golden/verify_jobs.json holds, for each `verify` job in
perfbench/jobs.py plus the EXTRA_VERIFY below, the argv, the exit code of
kmlat.cli.main and its full stdout; tests/golden/dihedral_jobs.json holds the same for the
`char2-search` jobs plus the larger (q, window) = (4, 2) and (8, 1);
tests/golden/root_action_jobs.json for the `root-action` jobs; and
tests/golden/tree_jobs.json for the TREE_JOBS below, which print Laurent
entries and F_q labels as they are rendered.
Regenerate them only when an output changes on purpose:

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from kmlat import gf
from kmlat.cli import main
from kmlat.gf import ExtElement, FieldElement, make_field
from kmlat.laurent import LaurentPoly
from kmlat.serretree import Mat2
from reference import mat2_identity

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verify_jobs.json"
DIHEDRAL_GOLDEN = ROOT / "tests" / "golden" / "dihedral_jobs.json"
ROOT_ACTION_GOLDEN = ROOT / "tests" / "golden" / "root_action_jobs.json"
TREE_GOLDEN = ROOT / "tests" / "golden" / "tree_jobs.json"

# larger than the benchmark's jobs: 17,950,464 triples at (4, 2) and
# 44,782,080 at (8, 1)
EXTRA_DIHEDRAL = [["dihedral-search", "--q", "4", "--window", "2"],
                  ["dihedral-search", "--q", "8", "--window", "1"]]

# the exceptional argvs that reach the alignment of a built subgroup and
# that no benchmark job runs: three failing reports and three refusals
# with no split element of order d0 (d0 does not divide q - 1)
EXTRA_VERIFY = [["verify", "--q", str(q), "--kind", kind]
                for q, kind in ((3, "SL2(3)"), (5, "SL2(5)"), (7, "SL2(3)"),
                                (9, "SL2(5)"), (23, "SL2(3)"), (47, "2S4"))]

# prime, char-2 and odd non-prime fields (negation there is not p - x);
# the last tree run pins the error for a non-monomial determinant.  The
# km-act runs print edge labels as text: codes without leading zeros, and
# in the last three an UnsupportedActionDomain detail naming the root and
# the edge it has no rule for (in the first, the image of the rightmost
# letter, which acts first)
TREE_JOBS = [
    ["tree", "--q", "2", "--neighbors", "t,1;0,1"],
    ["tree", "--q", "3", "--neighbors", "2,1;1,1"],
    ["tree", "--q", "4", "--neighbors", "1,t;0,1"],
    ["tree", "--q", "8", "--neighbors", "t^2,0;3,1"],
    ["tree", "--q", "9", "--neighbors", "t,5*t+3;0,7"],
    ["tree", "--q", "25", "--neighbors", "1,0;4*t^-1+2,8"],
    ["tree", "--q", "3", "--distance", "2,1;1,1", "t,2;0,2*t^-1"],
    ["tree", "--q", "4", "--distance", "1,t;0,1", "t,0;3,t^-1"],
    ["tree", "--q", "9", "--distance", "1,0;0,1", "t^2,5*t+3;0,1"],
    ["tree", "--q", "25", "--distance", "t,0;0,1", "1,0;7*t+11,t^3"],
    ["tree", "--q", "27", "--distance", "2*t+1,t;2,1", "t^-1,0;13,t"],
    ["tree", "--q", "9", "--neighbors", "2*t+3,5;0,t^-1"],
    ["km-act", "--q", "3", "--word", "x1:1,x2:1", "--edge", "L:1,0"],
    ["km-act", "--q", "4", "--word", "x1:3,x2:2,x2@1:1", "--edge", "R:3,2"],
    ["km-act", "--q", "9", "--word", "x1:5,x2:7,x1@1:3", "--edge", "L:4,2"],
    ["km-act", "--q", "9", "--word", "x2:8,x1:2", "--edge", "R:6,1",
     "--mode", "twisted_phi"],
    ["km-act", "--q", "25", "--word", "x1:13,x2:21", "--edge", "L:17",
     "--mode", "twisted_phi"],
    ["km-act", "--q", "5", "--m", "3", "--word", "x1:4,x2:2", "--edge",
     "base"],
    ["km-act", "--q", "2", "--word", "x2@7:1", "--edge", "base"],
    ["km-act", "--q", "9", "--word", "x1:5,x2:7,x1@1:3", "--edge", "L:04,2",
     "--mode", "twisted_phi"],
    ["km-act", "--q", "5", "--m", "3", "--word", "x1:2,x2@1:4", "--edge",
     "R:0,03,1", "--mode", "twisted_phi"],
    ["km-act", "--q", "3", "--word", "x2:1", "--edge", "L:1,1,1"],
    ["km-act", "--q", "4", "--word", "x1@1:2", "--edge", "R:0,3,1,2"],
]


def benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs.WORKLOADS


def verify_jobs():
    return [list(j) for j in benchmark_workloads()["verify"]
            if j[0] == "verify"] + EXTRA_VERIFY


def dihedral_jobs():
    return ([list(j) for j in benchmark_workloads()["char2-search"]]
            + EXTRA_DIHEDRAL)


def root_action_jobs():
    return [list(j) for j in benchmark_workloads()["root-action"]]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def check_golden(path, jobs):
    golden = json.loads(path.read_text())
    assert [g["argv"] for g in golden] == jobs
    for want in golden:
        assert run(want["argv"]) == want


def test_verify_jobs_match_golden():
    check_golden(GOLDEN, verify_jobs())


def test_verify_workload_builds_no_laurent_objects(monkeypatch):
    """Every job of the benchmark's verify workload runs on F_q codes: with
    the Mat2 and LaurentPoly constructors patched to raise, each verify
    job prints its golden bytes, and each classify job (which has no
    golden file) the bytes it prints unpatched."""
    golden = {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text())}
    jobs = [list(j) for j in benchmark_workloads()["verify"]]
    assert len(jobs) == 51 and len(golden) == 29 + len(EXTRA_VERIFY)
    want = [golden.get(tuple(argv)) or run(argv) for argv in jobs]

    def refuse(*args):
        raise AssertionError("a Laurent object was built")
    monkeypatch.setattr(Mat2, "__init__", refuse)
    monkeypatch.setattr(LaurentPoly, "__init__", refuse)
    with pytest.raises(AssertionError):
        mat2_identity(None)
    for argv, w in zip(jobs, want):
        assert run(argv) == w


def test_no_command_builds_a_field_element(monkeypatch):
    """F_q and F_{q^2} are computed on codes: with the FieldElement and
    ExtElement constructors patched to raise, every job of the three
    benchmark workloads, the tree and km-act golden jobs, and a dickson
    and a classify run print the bytes they print unpatched.  The field
    cache is emptied first, so that no element list or generator an
    earlier run built hides a constructor call."""
    jobs = [list(j) for work in benchmark_workloads().values() for j in work]
    jobs += TREE_JOBS + [["dickson", "--q", "2^3", "--ambient", "sl2"],
                         ["classify", "--p", "5", "--q", "5", "--levi",
                          "pgl", "--qi-central", "yes", "--qi0-central",
                          "yes"]]
    want = [run(argv) for argv in jobs]

    def refuse(*args):
        raise AssertionError("a FieldElement or ExtElement was built")
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    monkeypatch.setattr(FieldElement, "__init__", refuse)
    monkeypatch.setattr(ExtElement, "__init__", refuse)
    with pytest.raises(AssertionError):
        make_field(3).element(0)
    for argv, w in zip(jobs, want):
        assert run(argv) == w


def test_dihedral_jobs_match_golden():
    check_golden(DIHEDRAL_GOLDEN, dihedral_jobs())


def test_root_action_jobs_match_golden():
    check_golden(ROOT_ACTION_GOLDEN, root_action_jobs())


def test_tree_and_km_act_jobs_match_golden():
    check_golden(TREE_GOLDEN, TREE_JOBS)


if __name__ == "__main__":
    for path, jobs in ((GOLDEN, verify_jobs()),
                       (DIHEDRAL_GOLDEN, dihedral_jobs()),
                       (ROOT_ACTION_GOLDEN, root_action_jobs()),
                       (TREE_GOLDEN, TREE_JOBS)):
        path.write_text(json.dumps([run(a) for a in jobs], indent=1) + "\n")
