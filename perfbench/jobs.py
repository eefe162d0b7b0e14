"""The benchmark's workloads: fixed lists of kmlat CLI jobs.

README.md says why each workload was chosen and which layers it drives.
"""

from math import gcd

# The paper's table of exceptional pairs, copied here so that the checks do
# not read it from the program: (q, kind, |A0|) with |A0| at center order 2.
EXCEPTIONAL_ROWS = (
    (5, "SL2(3)", 4),
    (7, "2S4", 6),
    (11, "SL2(3)", 2),
    (11, "SL2(5)", 10),
    (19, "SL2(5)", 6),
    (23, "2S4", 2),
    (29, "SL2(5)", 4),
    (59, "SL2(5)", 2),
)

# odd prime powers 3..43: q = 3 (mod 4) passes, q = 1 (mod 4) does not;
# 9, 25 and 27 take F_q with q not prime
TORUS_Q = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43)
CYCLIC_Q = (2, 4, 8, 16, 32)
DIHEDRAL = ((2, 1), (2, 2), (2, 3), (4, 1))  # (q, window)
ZP = ((2, 4), (3, 3), (5, 2), (7, 1), (11, 1), (4, 2))  # (q, pairs)


def prime_of(q):
    p = 2
    while q % p:
        p += 1
    return p


def _verify_jobs():
    jobs = [("verify", "--q", str(q), "--kind", "torus_normalizer")
            for q in TORUS_Q]
    jobs += [("verify", "--q", str(q), "--kind", "cyclic_p2")
             for q in CYCLIC_Q]
    jobs += [("verify", "--q", str(q), "--kind", kind)
             for q, kind, _ in EXCEPTIONAL_ROWS]
    qs = sorted(set(TORUS_Q) | set(CYCLIC_Q)
                | {q for q, _, _ in EXCEPTIONAL_ROWS})
    jobs += [("classify", "--p", str(prime_of(q)), "--q", str(q),
              "--levi", "psl", "--z", str(gcd(2, q - 1))) for q in qs]
    return jobs


WORKLOADS = {
    "verify": _verify_jobs(),
    "char2-search": [("dihedral-search", "--q", str(q), "--window", str(w))
                     for q, w in DIHEDRAL],
    "root-action": [("zp-test", "--q", str(q), "--pairs", str(n))
                    for q, n in ZP],
}
