"""The verify jobs of the benchmark print exactly the pinned golden output.

tests/golden/verify_jobs.json holds, for each `verify` job in
perfbench/jobs.py, the argv, the exit code of kmlat.cli.main and its full
stdout.  Regenerate it only when an output changes on purpose:

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


def verify_jobs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return [list(j) for j in jobs.WORKLOADS["verify"] if j[0] == "verify"]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_verify_jobs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == verify_jobs()
    for want in golden:
        assert run(want["argv"]) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(a) for a in verify_jobs()], indent=1)
                      + "\n")
