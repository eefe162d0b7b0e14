"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with -s (or read the terminal summary block) to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

from kmlat.gf import make_field
from kmlat.groups import (CODE_ONE, FiniteGroup, dickson_table,
                          find_subgroup_of_type, generate)
from kmlat.kmaction import KMParams, zp_fix_test
from kmlat.lattice import (build_standard_lattice, classify, lubotzky_check,
                           min_covolume)
from kmlat.serretree import Mat2, dihedral_obstruction_search
from oracles import mat2_pair, member_mat2s
from reference import (GroupType, alternating_word, crosscheck_affine,
                       mat2_identity, recognize, sl2_group, zp_criterion,
                       zp_fixes_ball2)


def _report(n, ok, desc):
    print("[criterion %d] %s - %s" % (n, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d: %s" % (n, desc)


def _field(q):
    p = 2
    while q % p:
        p += 1
    a = 0
    while q > 1:
        q //= p
        a += 1
    return make_field(p, a)


def test_criterion_01_char2_cyclic_lattices():
    start = time.monotonic()
    ok = True
    for q in (2, 4, 8):
        spec = _field(q)
        rep = lubotzky_check(build_standard_lattice(spec, "cyclic_p2"))
        rows = classify(2, q, "psl", 1)
        ok &= rep["passes"]
        ok &= rep["intersection_order"] == 1
        ok &= Fraction(rep["covolume"]) == Fraction(2, q + 1)
        ok &= len(rows) == 1 and not rows[0]["exceptional"]
        ok &= rows[0]["covolume"] == rep["covolume"]
        ok &= rows[0]["a0_order"] == rep["intersection_order"]
    elapsed = time.monotonic() - start
    ok &= elapsed < 5
    _report(1, ok, "q in {2,4,8} cyclic pairs, covolume 2/(q+1), "
            "classify agrees (%.2fs)" % elapsed)


def test_criterion_02_normalizer_lattices_q3mod4():
    start = time.monotonic()
    ok = True
    for q in (3, 7, 11, 19, 23):
        spec = _field(q)
        a1 = build_standard_lattice(spec, "torus_normalizer")
        rep = lubotzky_check(a1)
        ok &= rep["passes"]
        ok &= rep["a1_order"] == 2 * (q + 1) and rep["a2_order"] == 2 * (q + 1)
        ok &= Fraction(rep["covolume"]) == Fraction(1, q + 1)
        m1, m2 = mat2_pair(a1)
        inter = m1.elements & m2.elements
        ident = mat2_identity(spec)
        minus = Mat2.from_codes(spec, (spec.q - 1) % spec.q, 0, 0,
                                (spec.q - 1) % spec.q)
        ok &= inter == frozenset((ident, minus))
    elapsed = time.monotonic() - start
    ok &= elapsed < 30
    _report(2, ok, "q in {3,7,11,19,23} normalizer pairs, A1^A2 = {+-I}, "
            "covolume 1/(q+1) (%.2fs)" % elapsed)


def test_criterion_03_exceptional_table():
    start = time.monotonic()
    table = [(5, "SL2(3)", 4), (7, "2S4", 6), (11, "SL2(3)", 2),
             (11, "SL2(5)", 10), (19, "SL2(5)", 6), (23, "2S4", 2),
             (29, "SL2(5)", 4), (59, "SL2(5)", 2)]
    names = {"SL2(3)": "SL2(3)", "SL2(5)": "SL2(5)",
             "2S4": "BinaryOctahedral"}
    ok = True
    for q, kind, a0 in table:
        spec = _field(q)
        h = find_subgroup_of_type(spec, kind)
        ok &= h is not None and recognize(h).kind == names[kind]
        rep = lubotzky_check(build_standard_lattice(spec, kind))
        ok &= rep["passes"]
        ok &= rep["intersection_order"] == a0
        ok &= rep["a1_order"] == a0 * (q + 1)  # vertex index q+1
    elapsed = time.monotonic() - start
    ok &= elapsed < 300
    _report(3, ok, "8 exceptional rows: found, recognized, |A0| and vertex "
            "index verified (%.2fs)" % elapsed)


def test_criterion_04_q1mod4_obstruction():
    start = time.monotonic()
    ok = True
    for q in (13, 17):
        spec = _field(q)
        rep = lubotzky_check(build_standard_lattice(spec, "torus_normalizer"))
        ok &= not rep["passes"]
        ok &= rep["orbit_sizes"] == ((q + 1) // 2, (q + 1) // 2)
        ok &= classify(q, q, "psl", 1) == []
    elapsed = time.monotonic() - start
    ok &= elapsed < 10
    _report(4, ok, "q in {13,17}: normalizer pair fails with orbits "
            "(q+1)/2, classify empty (%.2fs)" % elapsed)


def test_criterion_05_zp_criterion():
    """The t2 = 0 equivalence holds on its domain t1 != 0; when t1 = 0 the
    p rounds of z cancel and z^p fixes everything regardless of t2.  The
    exact criterion on codes, reference.zp_criterion, agrees on every
    word.  The ball-2 statement is likewise checked on the unmixed
    domain."""
    start = time.monotonic()
    checked = agree = 0
    ok = True
    for q in (2, 3):
        spec = _field(q)
        params = KMParams(2, spec)
        for npairs in (1, 2):
            for codes in itertools.product(range(q), repeat=2 * npairs):
                pairs = list(zip(codes[::2], codes[1::2]))
                word = alternating_word(params, pairs)
                fixes, t1, t2 = zp_fix_test(params, word)
                ok &= zp_criterion(spec, pairs) == fixes
                checked += 1
                if t1 == 0:
                    agree += fixes  # p identical rounds cancel
                else:
                    agree += fixes == (t2 == 0)
                ball = zp_fixes_ball2(params, word)
                if t1 == 0 and t2 == 0:
                    ok &= ball
                elif t1 != 0 and t2 != 0:
                    ok &= not ball
    ok &= agree == checked
    elapsed = time.monotonic() - start
    ok &= elapsed < 10
    _report(5, ok, "z^p criterion: %d/%d words agree (t1 != 0 domain plus "
            "t1 = 0 always-fixes), ball-2 on unmixed domain (%.2fs)"
            % (agree, checked, elapsed))


def test_criterion_06_affine_crosscheck():
    start = time.monotonic()
    checked = passed = 0
    for q in (2, 3):
        spec = _field(q)
        params = KMParams(2, spec)
        edges = [("base", ())]
        for c in range(q):
            for region in ("L", "R"):
                edges.append((region, (c,)))
                for c2 in range(q):
                    edges.append((region, (c, c2)))
        letters = [((side, 0, c),) for side in (1, 2) for c in range(q)]
        for word in letters:
            for e in edges:
                checked += 1
                passed += crosscheck_affine(params, word, e, "twisted_phi")
    ok = checked == passed
    elapsed = time.monotonic() - start
    ok &= elapsed < 10
    _report(6, ok, "affine cross-check %d/%d exhaustive single-letter cases, "
            "q in {2,3} (%.2fs)" % (passed, checked, elapsed))


def test_criterion_07_dihedral_obstruction():
    start = time.monotonic()
    spec = make_field(2)
    out = dihedral_obstruction_search(spec, 2)
    ok = out["violations"] == [] and out["triples_checked"] > 0
    # the conjugation identity behind the search, on sampled triples:
    # for s = [[a,b],[c,a]] and gamma = [[e,f],[g,e]] with e^2 + fg = 1,
    # gamma s gamma = [[a+beg+cef, be^2+cf^2], [bg^2+ce^2, a+beg+cef]]
    rng = random.Random(0)
    s_pool = member_mat2s(spec, "B", 2)
    g_pool = member_mat2s(spec, "P1-B", 2) + member_mat2s(spec, "P2-B", 2)
    for _ in range(100):
        s = rng.choice(s_pool)
        gamma = rng.choice(g_pool)
        a, b, c = s.a, s.b, s.c
        e, f, g = gamma.a, gamma.b, gamma.c
        diag = a + b * e * g + c * e * f
        want = Mat2(spec, diag, b * e * e + c * f * f,
                    b * g * g + c * e * e, diag)
        ok &= gamma.mul(s).mul(gamma) == want
    elapsed = time.monotonic() - start
    ok &= elapsed < 60
    _report(7, ok, "dihedral search empty at q=2 window 2 (%d triples); "
            "conjugation identity on 100 samples (%.2fs)"
            % (out["triples_checked"], elapsed))


def test_criterion_08_property_suites():
    import test_properties as props
    start = time.monotonic()
    ok = True
    try:
        props.test_congruence_subgroups_are_closed()
        props.test_congruence_subgroups_are_normal_in_integral_sl2()
        props.test_congruence_quotients_are_elementary_abelian()
        props.test_passing_lattices_have_no_p_torsion()
        props.test_unipotent_centralizer_is_unipotent()
    except AssertionError:
        ok = False
    elapsed = time.monotonic() - start
    ok &= elapsed < 30
    _report(8, ok, "congruence filtration and no-p-torsion property suites, "
            "0 counterexamples (%.2fs)" % elapsed)


def test_criterion_09_dickson_coverage():
    start = time.monotonic()
    expected = {
        3: {GroupType("Cyclic", 1), GroupType("Cyclic", 2),
            GroupType("Cyclic", 3), GroupType("Cyclic", 4),
            GroupType("Cyclic", 6), GroupType("Dicyclic", 8),
            GroupType("SL2(3)")},
        5: {GroupType("Cyclic", 1), GroupType("Cyclic", 2),
            GroupType("Cyclic", 3), GroupType("Cyclic", 4),
            GroupType("Cyclic", 5), GroupType("Cyclic", 6),
            GroupType("Cyclic", 10), GroupType("Dicyclic", 8),
            GroupType("Dicyclic", 12), GroupType("Dicyclic", 20),
            GroupType("SL2(3)"), GroupType("SL2(5)")},
    }
    ok = True
    for q in (3, 5):
        spec = _field(q)
        g = sl2_group(spec)
        elems = sorted(g.elements)
        n = len(elems)
        seen = {}
        for i in range(n):
            for j in range(i, n):
                key = frozenset(generate(CODE_ONE, (elems[i], elems[j]),
                                         g.mul, n))
                if key in seen:
                    continue
                seen[key] = recognize(FiniteGroup(spec, key))
        types = set(seen.values())
        ok &= all(t.kind != "Unknown" for t in types)
        ok &= types == expected[q]
        row_orders = {r["order"] for r in dickson_table(spec, "sl2")}
        for t in types:
            order = t.param if t.param else {"SL2(3)": 24, "SL2(5)": 120}[t.kind]
            ok &= any(o % order == 0 for o in row_orders)
    rows8 = dickson_table(make_field(2, 3), "sl2")
    div = {(r["type"], r["order"]) for r in rows8 if r["div_q_plus_1"]}
    ok &= div == {("Cyclic(9)", 9), ("Dihedral(18)", 18)}
    elapsed = time.monotonic() - start
    ok &= elapsed < 120
    _report(9, ok, "pair-closure coverage at q in {3,5} matches the subgroup "
            "table; q=8 divisible rows are {C9, D18} (%.2fs)" % elapsed)


def test_criterion_10_min_covolume_table():
    start = time.monotonic()
    ok = True
    inputs = []
    for z in (1, 2, 4):
        inputs.append(dict(p=2, q=8, levi="psl", z_order=z))
        inputs.append(dict(p=307, q=307, levi="psl", z_order=z))
        inputs.append(dict(p=313, q=313, levi="pgl", z_order=z,
                           qi_in_zg=True, qi0_in_zg=True))
        inputs.append(dict(p=313, q=313, levi="pgl", z_order=z,
                           qi_in_zg=False, qi0_in_zg=True))
        inputs.append(dict(p=307, q=307, levi="pgl", z_order=z,
                           zmi_in_zg=True))
        inputs.append(dict(p=307, q=307, levi="pgl", z_order=z,
                           zmi_in_zg=False))
    for inp in inputs:
        cov, delta0 = min_covolume(classify(**inp))
        ok &= delta0 is not None
        ok &= Fraction(cov) == Fraction(2, (inp["q"] + 1) * inp["z_order"]
                                        * delta0)
        rows = [r for r in classify(**inp) if not r["exceptional"]]
        ok &= Fraction(cov) == min(Fraction(r["covolume"]) for r in rows)
    elapsed = time.monotonic() - start
    ok &= elapsed < 2
    _report(10, ok, "min_covolume = 2/((q+1)|Z|delta0) and row minimum "
            "across %d validated inputs (%.2fs)" % (len(inputs), elapsed))
