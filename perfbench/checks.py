"""Output checks for every job, against values worked out apart from kmlat.

Each check takes the job's argv and its parsed report and returns a list
of problems; an empty list means the output is right.  Nothing here
imports kmlat: the expected values come from closed formulas, from the
paper's table in jobs.py, and, for the characteristic-2 involution
families, from a count made with this file's own F_q and Laurent
arithmetic.
"""

import itertools
import json
from fractions import Fraction
from functools import lru_cache

from jobs import EXCEPTIONAL_ROWS, prime_of

SCHEMA = "kmlat-report-v1"


def parse_report(stdout):
    """(report, problem): stdout must be exactly one kmlat-report-v1 object."""
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return None, "stdout is not one JSON value: %s" % exc
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        return None, "stdout is not a %s object" % SCHEMA
    if "error" in report:
        return None, "error report: %s" % report.get("detail")
    return report, None


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _expect(problems, report, key, want):
    got = report.get(key)
    if key == "covolume":
        try:
            got = Fraction(got)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    if got != want:
        problems.append("%s = %r, expected %r" % (key, got, want))


def check_verify(argv, r):
    q, kind = int(_flag(argv, "--q")), _flag(argv, "--kind")
    problems = []
    _expect(problems, r, "q", q)
    _expect(problems, r, "kind", kind)
    if kind == "torus_normalizer":
        _expect(problems, r, "a1_order", 2 * (q + 1))
        _expect(problems, r, "a2_order", 2 * (q + 1))
        _expect(problems, r, "covolume", Fraction(1, q + 1))
        _expect(problems, r, "kernel_order", 2)
        if q % 4 == 3:
            _expect(problems, r, "passes", True)
            _expect(problems, r, "orbit_sizes", [q + 1, q + 1])
            _expect(problems, r, "intersection_order", 2)
        else:
            _expect(problems, r, "passes", False)
            _expect(problems, r, "orbit_sizes", [(q + 1) // 2, (q + 1) // 2])
    elif kind == "cyclic_p2":
        _expect(problems, r, "passes", True)
        _expect(problems, r, "a1_order", q + 1)
        _expect(problems, r, "a2_order", q + 1)
        _expect(problems, r, "intersection_order", 1)
        _expect(problems, r, "kernel_order", 1)
        _expect(problems, r, "covolume", Fraction(2, q + 1))
    else:
        a0 = {(rq, rk): n for rq, rk, n in EXCEPTIONAL_ROWS}[(q, kind)]
        _expect(problems, r, "passes", True)
        _expect(problems, r, "intersection_order", a0)
        _expect(problems, r, "a1_order", a0 * (q + 1))
        _expect(problems, r, "a2_order", a0 * (q + 1))
        _expect(problems, r, "covolume", Fraction(2, (q + 1) * a0))
    return problems


def check_classify(argv, r, passing_verify):
    """passing_verify: the passing verify reports of this round at this q."""
    q = int(_flag(argv, "--q"))
    problems = []
    _expect(problems, r, "q", q)
    rows = r.get("rows")
    if not isinstance(rows, list):
        return problems + ["rows is not a list"]
    have = set()
    for row in rows:
        try:
            have.add((row["a0_order"], Fraction(row["covolume"])))
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            problems.append("malformed row %r" % (row,))
    for v in passing_verify:
        want = (v.get("intersection_order"), Fraction(v.get("covolume")))
        if want not in have:
            problems.append("no row with a0_order %r and covolume %s for "
                            "verify --kind %s" % (want[0], want[1],
                                                  v.get("kind")))
    if q % 4 == 1 and any("normalizer" in str(row.get("case"))
                          for row in rows if isinstance(row, dict)):
        problems.append("normalizer row at q = 1 (mod 4)")
    return problems


# --- characteristic 2: own F_q and Laurent arithmetic -----------------------

# an irreducible polynomial of degree a over F_2, as a bit mask
_IRRED = {1: 0b11, 2: 0b111, 3: 0b1011}


def _gf2_mul_table(q):
    a = q.bit_length() - 1
    mod = _IRRED[a]
    table = [[0] * q for _ in range(q)]
    for x in range(q):
        for y in range(q):
            acc = 0
            for i in range(a):
                if y >> i & 1:
                    acc ^= x << i
            for i in range(2 * a - 2, a - 1, -1):
                if acc >> i & 1:
                    acc ^= mod << (i - a)
            table[x][y] = acc
    return table


def _polys(q, lo, hi, nonzero=False, lead=None):
    """Laurent polynomials {t-degree: code} on t-degrees lo..hi, as tuples
    of (degree, code) pairs; lead: a degree whose coefficient is nonzero."""
    degs = range(lo, hi + 1)
    out = []
    for codes in itertools.product(range(q), repeat=len(degs)):
        poly = tuple((d, c) for d, c in zip(degs, codes) if c)
        if nonzero and not poly:
            continue
        if lead is not None and not dict(poly).get(lead):
            continue
        out.append(poly)
    return out


def _lmul(mul, u, v):
    out = {}
    for d1, c1 in u:
        for d2, c2 in v:
            out[d1 + d2] = out.get(d1 + d2, 0) ^ mul[c1][c2]
    return tuple(sorted((d, c) for d, c in out.items() if c))


@lru_cache(maxsize=None)
def involution_family_sizes(q, w):
    """Sizes of the B, P1-B and P2-B involution families at (q, window).

    A family holds the unipotents [[1,b],[0,1]] or [[1,0],[c,1]] and the
    matrices [[a,b],[c,a]] with a^2 + bc = 1 whose entries lie on the
    region's t-degrees.  In characteristic 2 the a with a^2 = 1 + bc are
    counted from a table of squares, not by trying every triple.
    """
    mul = _gf2_mul_table(q)
    a_range = _polys(q, -w, 0)
    squares = {}
    for a in a_range:
        sq = _lmul(mul, a, a)
        squares[sq] = squares.get(sq, 0) + 1

    def balanced(bs, cs):
        n = 0
        for b in bs:
            for c in cs:
                rest = dict(_lmul(mul, b, c))
                rest[0] = rest.get(0, 0) ^ 1
                n += squares.get(tuple(sorted((d, x) for d, x in rest.items()
                                              if x)), 0)
        return n

    b_b = _polys(q, -w, 0, nonzero=True)
    c_b = _polys(q, -w, -1, nonzero=True)
    c_1 = _polys(q, -w, 0, lead=0)
    b_2 = _polys(q, -w, 1, lead=1)
    return {
        "B": len(b_b) + len(c_b) + balanced(b_b, c_b),
        "P1-B": len(c_1) + balanced(b_b, c_1),
        "P2-B": len(b_2) + balanced(b_2, c_b),
    }


def check_dihedral(argv, r):
    q, w = int(_flag(argv, "--q")), int(_flag(argv, "--window"))
    problems = []
    _expect(problems, r, "q", q)
    _expect(problems, r, "window", w)
    _expect(problems, r, "violations", [])
    sizes = r.get("family_sizes")
    _expect(problems, r, "family_sizes", involution_family_sizes(q, w))
    if isinstance(sizes, dict) and all(isinstance(n, int)
                                       for n in sizes.values()):
        prod = 1
        for n in sizes.values():
            prod *= n
        _expect(problems, r, "triples_checked", prod)
    return problems


def check_zp(argv, r):
    q, n = int(_flag(argv, "--q")), int(_flag(argv, "--pairs"))
    problems = []
    _expect(problems, r, "q", q)
    _expect(problems, r, "pairs", n)
    words = q ** (2 * n)
    t1_nonzero = words - q ** (2 * n - 1)
    _expect(problems, r, "checked", words)
    _expect(problems, r, "checked_t1_nonzero", t1_nonzero)
    if prime_of(q) == q:
        _expect(problems, r, "agreements_t1_nonzero", t1_nonzero)
        _expect(problems, r, "agreements", t1_nonzero + q ** (2 * n - 2))
    return problems


SINGLE = {"verify": check_verify, "dihedral-search": check_dihedral,
          "zp-test": check_zp}


def check_round(results):
    """Check one round's outputs.

    results: {argv: report or None}, None for a job whose stdout was not a
    report.  Returns {argv: [problems]} for the jobs with a report.
    """
    out = {}
    passing = {}
    for argv, r in results.items():
        if r is not None and argv[0] in SINGLE:
            out[argv] = SINGLE[argv[0]](argv, r)
            if argv[0] == "verify" and not out[argv] and r.get("passes"):
                passing.setdefault(int(_flag(argv, "--q")), []).append(r)
    for argv, r in results.items():
        if r is not None and argv[0] == "classify":
            out[argv] = check_classify(argv, r,
                                       passing.get(int(_flag(argv, "--q")),
                                                   []))
    return out
