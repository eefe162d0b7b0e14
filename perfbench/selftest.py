"""Self-test of the output checks: real kmlat outputs pass, doctored ones fail.

    python3 perfbench/selftest.py

run.py runs it before every run and refuses to measure when a check
accepts a doctored output or rejects a real one.  The reports below were
printed by kmlat; each doctoring changes one value a check covers.
"""

import json
import sys

from checks import (check_classify, check_round, involution_family_sizes,
                    parse_report)

_V = {"command": "verify", "notes": [], "radius": 1,
      "schema": "kmlat-report-v1"}

VERIFY = [
    (("verify", "--q", "3", "--kind", "torus_normalizer"),
     dict(_V, a1_order=8, a2_order=8, covolume="1/4", intersection_order=2,
          kernel_order=2, kind="torus_normalizer", orbit_sizes=[4, 4],
          passes=True, q=3, stab_orders=[2, 2]),
     [("a1_order", 16), ("a2_order", 4), ("covolume", "1/8"),
      ("kernel_order", 1), ("passes", False), ("orbit_sizes", [2, 2]),
      ("intersection_order", 4), ("q", 7), ("kind", "cyclic_p2")]),
    (("verify", "--q", "5", "--kind", "torus_normalizer"),
     dict(_V, a1_order=12, a2_order=12, covolume="1/6", intersection_order=4,
          kernel_order=2, kind="torus_normalizer", orbit_sizes=[3, 3],
          passes=False, q=5, stab_orders=[4, 4],
          notes=["neighbor action not transitive"]),
     [("passes", True), ("orbit_sizes", [6, 6]), ("covolume", "1/12"),
      ("kernel_order", 4)]),
    (("verify", "--q", "4", "--kind", "cyclic_p2"),
     dict(_V, a1_order=5, a2_order=5, covolume="2/5", intersection_order=1,
          kernel_order=1, kind="cyclic_p2", orbit_sizes=[5, 5], passes=True,
          q=4, stab_orders=[1, 1]),
     [("passes", False), ("a1_order", 10), ("intersection_order", 2),
      ("kernel_order", 2), ("covolume", "1/5"), ("covolume", "two fifths")]),
    (("verify", "--q", "5", "--kind", "SL2(3)"),
     dict(_V, a1_order=24, a2_order=24, covolume="1/12", intersection_order=4,
          kernel_order=2, kind="SL2(3)", orbit_sizes=[6, 6], passes=True,
          q=5, stab_orders=[4, 4]),
     [("passes", False), ("intersection_order", 2), ("a1_order", 12),
      ("a2_order", 48), ("covolume", "1/6")]),
]

_ROW3 = {"a0_order": 2, "case": "psl-q3mod4-normalizer", "covolume": "1/4",
         "delta0": 1, "exceptional": False, "q": 3,
         "vertex_type": "nonsplit torus normalizer, order 16"}
_ROW5 = {"a0_order": 4, "case": "exceptional-SL2(3)", "covolume": "1/12",
         "delta0": None, "exceptional": True, "q": 5, "vertex_type": "SL2(3)"}
CLASSIFY = [
    (("classify", "--p", "3", "--q", "3", "--levi", "psl", "--z", "2"),
     {"command": "classify", "q": 3, "rows": [_ROW3],
      "schema": "kmlat-report-v1"},
     VERIFY[0][1],
     [("rows", []), ("rows", [dict(_ROW3, a0_order=1)]),
      ("rows", [dict(_ROW3, covolume="1/8")]), ("q", 7)]),
    (("classify", "--p", "5", "--q", "5", "--levi", "psl", "--z", "2"),
     {"command": "classify", "q": 5, "rows": [_ROW5],
      "schema": "kmlat-report-v1"},
     VERIFY[3][1],
     [("rows", []), ("rows", [_ROW5, dict(_ROW3, q=5)]),
      ("rows", [dict(_ROW5, covolume="1/24")])]),
]

OTHERS = [
    (("dihedral-search", "--q", "2", "--window", "1"),
     {"command": "dihedral-search", "family_sizes":
      {"B": 5, "P1-B": 4, "P2-B": 6}, "q": 2, "schema": "kmlat-report-v1",
      "triples_checked": 120, "violations": [], "window": 1},
     [("violations", [["1,t;0,1", "1,0;1,1", "1,t;0,1"]]),
      ("family_sizes", {"B": 5, "P1-B": 4, "P2-B": 5}),
      ("family_sizes", {"B": 4, "P1-B": 5, "P2-B": 6}),
      ("triples_checked", 119), ("window", 2)]),
    (("zp-test", "--q", "3", "--pairs", "1"),
     {"agreements": 7, "agreements_t1_nonzero": 6, "checked": 9,
      "checked_t1_nonzero": 6, "command": "zp-test", "pairs": 1, "q": 3,
      "schema": "kmlat-report-v1"},
     [("agreements", 6), ("agreements_t1_nonzero", 5), ("checked", 8),
      ("checked_t1_nonzero", 9), ("pairs", 2)]),
    (("zp-test", "--q", "4", "--pairs", "1"),
     {"agreements": 13, "agreements_t1_nonzero": 12, "checked": 16,
      "checked_t1_nonzero": 12, "command": "zp-test", "pairs": 1, "q": 4,
      "schema": "kmlat-report-v1"},
     [("checked", 15), ("checked_t1_nonzero", 13)]),
]

# family sizes kmlat printed for the char2-search inputs; the own count
# must give the same
FAMILY_SIZES = {
    (2, 1): {"B": 5, "P1-B": 4, "P2-B": 6},
    (2, 2): {"B": 15, "P1-B": 12, "P2-B": 12},
    (2, 3): {"B": 39, "P1-B": 24, "P2-B": 32},
    (4, 1): {"B": 27, "P1-B": 48, "P2-B": 84},
}

NOT_REPORTS = [
    "",
    "usage: kmlat ...",
    json.dumps(VERIFY[0][1]) + "\n" + json.dumps(VERIFY[0][1]),
    json.dumps({"schema": "kmlat-report-v1", "error": "NonPrime",
                "detail": "p = 4 is not prime"}),
    json.dumps(dict(VERIFY[0][1], schema="kmlat-report-v0")),
    "[1, 2]",
]


def selftest():
    """Problems found; an empty list means every check works."""
    broken = []

    def expect(name, problems, should_fail):
        if bool(problems) != should_fail:
            broken.append("%s: %s" % (name, "accepted" if should_fail
                                      else "rejected: %s" % problems))

    for argv, report, doctorings in VERIFY + OTHERS:
        name = " ".join(argv)
        expect(name, check_round({argv: report})[argv], False)
        for key, bad in doctorings:
            doctored = dict(report, **{key: bad})
            expect("%s with %s=%r" % (name, key, bad),
                   check_round({argv: doctored})[argv], True)
    for argv, report, verify, doctorings in CLASSIFY:
        name = " ".join(argv)
        expect(name, check_classify(argv, report, [verify]), False)
        for key, bad in doctorings:
            doctored = dict(report, **{key: bad})
            expect("%s with %s=%r" % (name, key, bad),
                   check_classify(argv, doctored, [verify]), True)
    # a failing verify takes its classify row out of the cross-check
    argv, report = VERIFY[0][0], dict(VERIFY[0][1], passes=False)
    cls_argv = CLASSIFY[0][0]
    out = check_round({argv: report, cls_argv: dict(CLASSIFY[0][1], rows=[])})
    expect("round with a failing verify", out[argv], True)
    for (q, w), sizes in FAMILY_SIZES.items():
        own = involution_family_sizes(q, w)
        expect("own involution count at q=%d, window=%d: %s" % (q, w, own),
               [] if own == sizes else ["differs"], False)
    for stdout in NOT_REPORTS:
        report, problem = parse_report(stdout)
        expect("stdout %r" % stdout[:40], problem, True)
    report, problem = parse_report(json.dumps(VERIFY[0][1]) + "\n")
    expect("stdout of verify --q 3", problem, False)
    return broken


if __name__ == "__main__":
    broken = selftest()
    for line in broken:
        print("BROKEN", line)
    print("selftest: %s" % ("FAILED" if broken else "ok"))
    sys.exit(1 if broken else 0)
