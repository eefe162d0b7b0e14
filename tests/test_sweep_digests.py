"""The sweep's fast domains (tests/sweep.py) print what
tests/golden/sweep_digests.json records: per command the argv count, the
histogram of exit codes and the sha256 of the lines.  The file holds
every command's digest; Tier-1 recomputes verify, dickson, classify,
min-covolume, km-act and tree, which run in about 4 s together, and
`python tests/sweep.py` prints the rest.  Regenerate the file only when an output changes on purpose:

    PYTHONPATH=src python tests/test_sweep_digests.py
"""

import json
from pathlib import Path

import pytest

import sweep

DIGESTS = Path(__file__).resolve().parent / "golden" / "sweep_digests.json"


def record(command):
    count, codes, digest = sweep.summary(list(sweep.lines(command)))
    return {"argvs": count, "exit_codes": {str(c): n for c, n in
                                           codes.items()}, "sha256": digest}


def test_the_file_records_every_domain():
    assert list(json.loads(DIGESTS.read_text())) == list(sweep.DOMAINS)


@pytest.mark.parametrize("command", ["verify", "dickson", "classify",
                                     "min-covolume", "km-act", "tree"])
def test_fast_domain_matches_recorded_digest(command):
    assert record(command) == json.loads(DIGESTS.read_text())[command]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({c: record(c) for c in sweep.DOMAINS},
                                  indent=1) + "\n")
