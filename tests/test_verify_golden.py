"""The benchmark's verify and dihedral-search jobs print exactly the pinned
golden output.

tests/golden/verify_jobs.json holds, for each `verify` job in
perfbench/jobs.py, the argv, the exit code of kmlat.cli.main and its full
stdout; tests/golden/dihedral_jobs.json holds the same for the
`char2-search` jobs plus the larger (q, window) = (4, 2) and (8, 1).
Regenerate them only when an output changes on purpose:

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from kmlat.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verify_jobs.json"
DIHEDRAL_GOLDEN = ROOT / "tests" / "golden" / "dihedral_jobs.json"

# larger than the benchmark's jobs: 17,950,464 triples at (4, 2) and
# 44,782,080 at (8, 1)
EXTRA_DIHEDRAL = [["dihedral-search", "--q", "4", "--window", "2"],
                  ["dihedral-search", "--q", "8", "--window", "1"]]


def benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs.WORKLOADS


def verify_jobs():
    return [list(j) for j in benchmark_workloads()["verify"]
            if j[0] == "verify"]


def dihedral_jobs():
    return ([list(j) for j in benchmark_workloads()["char2-search"]]
            + EXTRA_DIHEDRAL)


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


def test_dihedral_jobs_match_golden():
    check_golden(DIHEDRAL_GOLDEN, dihedral_jobs())


if __name__ == "__main__":
    for path, jobs in ((GOLDEN, verify_jobs()),
                       (DIHEDRAL_GOLDEN, dihedral_jobs())):
        path.write_text(json.dumps([run(a) for a in jobs], indent=1) + "\n")
