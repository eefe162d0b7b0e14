"""Edge-transitive lattice verification, covering maps, classification."""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from kmlat.errors import InvalidInput, KindInadmissible, MinUndefined
from kmlat.gf import make_field
from kmlat.groups import (CODE_ONE, FiniteGroup, closure, generate,
                          nonsplit_torus, torus_normalizer)
from kmlat.laurent import LaurentPoly
from kmlat.lattice import (build_standard_lattice, classify, covolume,
                           faithfulness_kernel, lubotzky_check, min_covolume)
from kmlat.serretree import Mat2, act
from oracles import (Mat2Group, WrongFixedVertex, cored_faithfulness_kernel,
                     mat2_faithfulness_kernel, mat2_lubotzky_check,
                     mat2_pair, scanned_base_stabilizer, to_mat2)
from reference import (EdgeOfGroups, NotAHomomorphism, center,
                       covering_check, eog_faithfulness_kernel,
                       mat2_identity, sl2_group, vertex_x1, vertex_x2)

F2 = make_field(2)
F3 = make_field(3)


def _mat2_key(g):
    """str of the Mat2 of code tuple g: the order cosets use."""
    return "%d,%d;%d,%d" % g


def _scanned_orbit_size(group, target):
    """Distinct images of a vertex under a group, counted by a linear scan
    with geometric equality (the orbit count before orbit-stabilizer)."""
    reps = []
    for g in group.elements:
        v = act(g, target)
        if not any(v == u for u in reps):
            reps.append(v)
    return len(reps)


@pytest.mark.parametrize("p,a,kind", [
    (3, 1, "torus_normalizer"), (5, 1, "torus_normalizer"),
    (7, 1, "torus_normalizer"), (3, 2, "torus_normalizer"),
    (13, 1, "torus_normalizer"), (2, 1, "cyclic_p2"), (2, 2, "cyclic_p2"),
    (2, 3, "cyclic_p2"), (5, 1, "SL2(3)"), (7, 1, "2S4"), (11, 1, "SL2(3)")])
def test_orbit_sizes_match_a_linear_scan(p, a, kind):
    spec = make_field(p, a)
    a1 = build_standard_lattice(spec, kind)
    rep = lubotzky_check(a1)
    m1, m2 = mat2_pair(a1)
    x1, x2 = vertex_x1(spec), vertex_x2(spec)
    assert rep["orbit_sizes"] == (_scanned_orbit_size(m1, x2),
                                  _scanned_orbit_size(m2, x1))


def _field_of(q):
    """F_q, or None when q is not a prime power."""
    p = next(r for r in range(2, q + 1) if q % r == 0)
    a = 1
    while p ** a < q:
        a += 1
    return make_field(p, a) if p ** a == q else None


# every odd prime power up to 64, which is exhaustive for the exceptional
# kinds (q+1 must divide 24, 48 or 120), and the char-2 fields of verify
PAIR_Q = [q for q in range(3, 65, 2) if _field_of(q)] + [2, 4, 8, 16, 32]


@lru_cache(maxsize=None)
def _standard_pairs(q):
    """(kind, a1) for every kind build_standard_lattice admits at q."""
    spec = _field_of(q)
    kinds = (("cyclic_p2",) if spec.p == 2 else
             ("torus_normalizer", "SL2(3)", "SL2(5)", "2S4"))
    out = []
    for kind in kinds:
        try:
            out.append((kind, build_standard_lattice(spec, kind)))
        except KindInadmissible:
            continue
    return tuple(out)


def _without_gens(group):
    return type(group)(group.spec, group.elements)


def _assert_kernels_agree(a0, a1, m1, m2):
    """faithfulness_kernel(a0, a1), with A1's gens and with them dropped,
    equals the reference edge-of-groups kernel of by_inclusion(A0, A1, A1)
    and the Mat2 kernel of m1 <- A0 -> m2, each without gens too."""
    spec = a1.spec
    f0, m0 = FiniteGroup(spec, a0), Mat2Group(spec, to_mat2(spec, a0))
    for grp, n1, n2 in ((a1, m1, m2), (_without_gens(a1), _without_gens(m1),
                                       _without_gens(m2))):
        got = faithfulness_kernel(a0, grp)
        assert isinstance(got, frozenset) and got <= a0
        eog = EdgeOfGroups.by_inclusion(f0, grp, grp)
        assert got == eog_faithfulness_kernel(eog).elements
        assert set(to_mat2(spec, got)) == mat2_faithfulness_kernel(
            m0, n1, n2).elements
    return got


@pytest.mark.parametrize("q", PAIR_Q)
def test_stabilizers_and_kernel_match_the_tree_oracles(q):
    """The code reading of the pair (A1, delta A1 delta^-1) agrees with the
    tree, for every standard pair at q.  A1 fixes x1 and A2 fixes x2; the
    stabilizer of x2 in A1 is the c = 0 part of A1, that of x1 in A2 the
    delta-conjugate of the b = 0 part, and A1 cap A2 the diagonal, as
    the vertex-equality scan finds them on the Mat2 pair.  The kernel on
    codes, with the gens and with the all-elements fallback, equals
    alternating normal cores on the Mat2 pair, the reference edge-of-groups
    kernel and the Mat2 fixed point."""
    pairs = _standard_pairs(q)
    assert pairs  # torus_normalizer (q odd) or cyclic_p2 always builds
    for kind, a1 in pairs:
        spec = a1.spec
        m1, m2 = mat2_pair(a1)
        delta = Mat2.diag(spec, LaurentPoly.monomial(spec, -1),
                          LaurentPoly.one(spec))
        di = delta.inv()
        lower = [g for g in a1.elements if not g[2]]
        upper = [g for g in a1.elements if not g[1]]
        diagonal = [g for g in a1.elements if not g[1] and not g[2]]
        assert scanned_base_stabilizer(m1, 1) == m1.elements, kind
        assert scanned_base_stabilizer(m2, 2) == m2.elements, kind
        assert scanned_base_stabilizer(m1, 2) == set(to_mat2(spec, lower))
        assert scanned_base_stabilizer(m2, 1) == {
            delta.mul(x).mul(di) for x in to_mat2(spec, upper)}, kind
        assert m1.elements & m2.elements == set(to_mat2(spec, diagonal))
        want = cored_faithfulness_kernel(EdgeOfGroups.by_inclusion(
            Mat2Group(spec, m1.elements & m2.elements), m1, m2))
        for grp in (a1, _without_gens(a1)):
            got = faithfulness_kernel(frozenset(diagonal), grp)
            assert set(to_mat2(spec, got)) == want.elements, kind
        _assert_kernels_agree(frozenset(diagonal), a1, m1, m2)
        rep = lubotzky_check(a1)
        assert rep["kernel_order"] == want.order
        assert rep["stab_orders"] == (len(lower), len(upper))
        assert rep["intersection_order"] == len(diagonal)


def test_kernel_in_sl2_3_matches_the_edge_of_groups_and_mat2_kernels():
    """by_inclusion(T, SL2(3), SL2(3)) keeps only the center of T, and
    by_inclusion(SL2(3), SL2(3), SL2(3)) all of SL2(3); SL2(3) generated
    by u(1) and its transpose."""
    g = sl2_group(F3)
    gens = [(1, 1, 0, 1), (1, 0, 1, 1)]
    a1 = FiniteGroup(F3, g.elements, gens)
    assert generate(CODE_ONE, gens, a1.mul, g.order) == set(g.elements)
    m1 = Mat2Group(F3, to_mat2(F3, g.elements), to_mat2(F3, gens))
    t = nonsplit_torus(F3)
    assert len(_assert_kernels_agree(t.elements, a1, m1, m1)) == 2
    assert len(_assert_kernels_agree(g.elements, a1, m1, m1)) == 24


@pytest.mark.parametrize("q", PAIR_Q)
def test_standard_pairs_carry_generating_sets(q):
    """Both groups of every standard pair carry gens that generate them (a
    short set would make faithfulness_kernel too large): A1 on codes, and
    A2 = delta A1 delta^-1 on Mat2.  PAIR_Q covers every (q, kind) of the
    benchmark's verify workload."""
    for kind, a1 in _standard_pairs(q):
        assert a1.gens, kind
        assert generate(CODE_ONE, a1.gens, a1.mul,
                        a1.order) == set(a1.elements), kind
        _, m2 = mat2_pair(a1)
        assert generate(m2.identity(), m2.gens, Mat2.mul,
                        m2.order) == set(m2.elements), kind


def test_kernel_with_non_identity_structure_maps():
    """A cyclic C4 of SL2(3) mapped in by conjugation or inversion; the
    groups without gens take the all-elements fallback."""
    g24 = sl2_group(F3)
    mul = g24.mul
    fours = sorted((x for x in g24.elements if g24.element_order(x) == 4),
                   key=_mat2_key)
    q8 = closure(F3, fours)
    c4 = closure(F3, fours[:1])
    t = next(x for x in sorted(g24.elements, key=_mat2_key)
             if g24.element_order(x) == 3)
    ti = g24.inv(t)
    incl = {x: x for x in c4.elements}
    conj = {x: mul(mul(t, x), ti) for x in c4.elements}
    inv = {x: g24.inv(x) for x in c4.elements}
    assert set(conj.values()) != c4.elements
    cases = [
        (EdgeOfGroups(c4, q8, q8, incl, conj), 4),  # both normal in Q8
        (EdgeOfGroups(c4, g24, q8, conj, incl), 2),  # not normal in SL2(3)
        (EdgeOfGroups(c4, c4, g24, inv, conj), 2),
        (EdgeOfGroups(c4, _without_gens(q8), q8, inv, conj), 4),
    ]
    for eog, order in cases:
        kernel = eog_faithfulness_kernel(eog)
        assert kernel == cored_faithfulness_kernel(eog)
        assert kernel.order == order


def test_covolume_is_exact():
    assert covolume([3, 3]) == "2/3"
    assert covolume([8, 8]) == "1/4"
    assert covolume([48, 48]) == "1/24"


def test_covolume_is_the_reduced_fraction_text():
    """covolume's text is Fraction's sum of the 1/|G_s| as "n/d", so
    reduced, and with d = 1 kept: for no groups, for every pair of orders
    in 1..48, and for triples of unequal orders."""
    def want(orders):
        f = sum((Fraction(1, o) for o in orders), Fraction(0))
        return "%d/%d" % (f.numerator, f.denominator)
    assert covolume([]) == "0/1"
    assert covolume([1, 1]) == "2/1"
    for pair in itertools.product(range(1, 49), repeat=2):
        assert covolume(pair) == want(pair), pair
    for triple in itertools.combinations(
            (1, 2, 3, 4, 5, 6, 8, 10, 12, 24, 48, 60, 120), 3):
        assert covolume(triple) == want(triple), triple


def test_edge_of_groups_validation():
    t = nonsplit_torus(F3)
    g = sl2_group(F3)
    eog = EdgeOfGroups.by_inclusion(t, g, g)
    assert eog.a0.order == 4
    # a non-injective map is rejected
    bad = {x: CODE_ONE for x in t.elements}
    with pytest.raises(NotAHomomorphism):
        EdgeOfGroups(t, g, g, bad, {x: x for x in t.elements})
    # a bijective non-homomorphism is rejected
    elems = sorted(t.elements, key=_mat2_key)
    swapped = dict(zip(elems, elems[1:] + elems[:1]))
    with pytest.raises(NotAHomomorphism):
        EdgeOfGroups(t, g, g, swapped, {x: x for x in t.elements})


def test_edge_of_groups_sides():
    """by_inclusion(a0, a1, a1) has one side to check and step through;
    different groups or maps give two."""
    t, g = nonsplit_torus(F3), sl2_group(F3)
    one = EdgeOfGroups.by_inclusion(t, g, g)
    assert one.sides() == ((g, one.alpha1),)
    assert len(EdgeOfGroups.by_inclusion(t, g, t).sides()) == 2


def test_edge_of_groups_needs_a0_closed():
    """A0 = {1, x} with x of order 4 is no group: x*x lies outside it."""
    n = torus_normalizer(F3)
    x = next(g for g in n.elements if n.element_order(g) == 4)
    a0 = FiniteGroup(F3, {CODE_ONE, x})
    with pytest.raises(NotAHomomorphism, match="not closed under products"):
        EdgeOfGroups.by_inclusion(a0, n, n)


def test_faithfulness_kernel_of_full_sl2():
    g = sl2_group(F3)
    eog = EdgeOfGroups.by_inclusion(g, g, g)
    k = eog_faithfulness_kernel(eog)
    assert k.order == g.order  # everything is normal in itself
    t = nonsplit_torus(F3)
    eog = EdgeOfGroups.by_inclusion(t, g, g)
    k = eog_faithfulness_kernel(eog)
    assert k.order == 2  # only the center survives


@pytest.mark.parametrize("q,a", [(2, 1), (4, 2)])
def test_cyclic_pair_passes(q, a):
    spec = make_field(2, a)
    rep = lubotzky_check(build_standard_lattice(spec, "cyclic_p2"))
    assert rep["passes"]
    assert rep["orbit_sizes"] == (q + 1, q + 1)
    assert rep["intersection_order"] == 1
    assert rep["kernel_order"] == 1
    assert Fraction(rep["covolume"]) == Fraction(2, q + 1)


# every odd prime power below 128; the torus normalizer's pair passes
# exactly at the q = 3 mod 4 ones (classify's docstring says why)
ODD_Q = [q for q in range(3, 128, 2) if _field_of(q)]


@pytest.mark.parametrize("q", [q for q in ODD_Q if q % 4 == 3])
def test_normalizer_pair_passes(q):
    """At q = 3 mod 4 no element of the normalizer but +-I fixes a point
    of P^1(F_q), so the stabilizers are {+-I} and the orbits are whole."""
    spec = _field_of(q)
    a1 = build_standard_lattice(spec, "torus_normalizer")
    rep = lubotzky_check(a1)
    assert rep["passes"]
    assert rep["a1_order"] == 2 * (q + 1)
    assert rep["stab_orders"] == (2, 2)
    assert rep["orbit_sizes"] == (q + 1, q + 1)
    assert rep["intersection_order"] == 2
    assert Fraction(rep["covolume"]) == Fraction(1, q + 1)
    m1, m2 = mat2_pair(a1)
    inter = m1.elements & m2.elements
    z = center(sl2_group(spec)) if q == 3 else None
    if z is not None:
        assert inter == set(to_mat2(spec, z.elements))


@pytest.mark.parametrize("q", [q for q in ODD_Q if q % 4 == 1])
def test_normalizer_pair_fails_q1mod4(q):
    """At q = 1 mod 4 the order-4 elements outside the torus have their
    eigenvalues +-i in F_q and fix two points each: the stabilizers have
    order 4 and the orbits are half of P^1(F_q)."""
    rep = lubotzky_check(build_standard_lattice(_field_of(q),
                                                "torus_normalizer"))
    assert not rep["passes"]
    assert rep["a1_order"] == 2 * (q + 1)
    assert rep["stab_orders"] == (4, 4)
    assert rep["orbit_sizes"] == ((q + 1) // 2, (q + 1) // 2)


@pytest.mark.parametrize("q", ODD_Q)
def test_normalizer_rows_give_their_vertex_group_order(q):
    """Each normalizer row of classify, at z from 1 to 4 under both levis,
    says "order N" with N = (q+1)|A0|, the vertex group order its own
    covolume 2/N implies.  At psl with z = 2, Z = {+-I} is the center of
    the built torus_normalizer A1, and N is that A1's order.  Only
    q = 3 mod 4 has the rows: one at psl, and one at pgl when -I is
    central (zmi_in_zg)."""
    spec = _field_of(q)
    a1_order = lubotzky_check(build_standard_lattice(
        spec, "torus_normalizer"))["a1_order"]
    flags = {"pgl": (None,) * 3 + (True,) if q % 4 == 3
             else (True, True, None, None), "psl": ()}
    seen = 0
    for levi, z in itertools.product(("psl", "pgl"), range(1, 5)):
        for r in classify(spec.p, q, levi, z, *flags[levi]):
            if not r["case"].endswith("normalizer"):
                continue
            seen += 1
            n = int(r["vertex_type"].rpartition(" ")[2])
            assert n == (q + 1) * r["a0_order"], r
            assert Fraction(r["covolume"]) == Fraction(2, n), r
            if levi == "psl" and z == 2:
                assert n == a1_order, r
    assert seen == (8 if q % 4 == 3 else 0)


def test_wrong_fixed_vertex():
    """A pair in the wrong order, A2 = delta A1 delta^-1 first, does not fix
    x1: the Mat2 check refuses it.  lubotzky_check cannot be given such a
    pair, since it takes A1 alone and A1 is constant."""
    spec = make_field(2)
    m1, m2 = mat2_pair(build_standard_lattice(spec, "cyclic_p2"))
    with pytest.raises(WrongFixedVertex):
        mat2_lubotzky_check(m2, m1)


def test_kind_admissibility():
    with pytest.raises(KindInadmissible):
        build_standard_lattice(F3, "cyclic_p2")
    with pytest.raises(KindInadmissible):
        build_standard_lattice(F2, "torus_normalizer")
    with pytest.raises(KindInadmissible):
        build_standard_lattice(make_field(13), "SL2(5)")
    with pytest.raises(KindInadmissible):
        build_standard_lattice(F2, "unheard-of")


@pytest.mark.parametrize("q,kind,reason", [
    (3, "SL2(5)", "SL2(5) does not embed at q = 3"),
    (13, "SL2(5)", "order 120 not divisible by q+1"),
    (5, "SL2(5)", "no split element of order 20"),
])
def test_exceptional_kind_rejection_reasons(q, kind, reason):
    """Each reason is reported on its own; q = 13 fails both the
    divisibility test and the embedding, and the cheap test comes first."""
    with pytest.raises(KindInadmissible) as exc:
        build_standard_lattice(make_field(q), kind)
    assert str(exc.value) == reason


def _covering_data(spec):
    """The cyclic_p2 pair as an edge of groups A1 <- A0 -> A1, A0 the
    diagonal of A1, with A1 standing for the abstract A2: rho0 and rho1
    send x to its Mat2, rho2 to delta x delta^-1.  Returns (eog, rho0,
    rho1, rho2, delta)."""
    a1 = build_standard_lattice(spec, "cyclic_p2")
    a0 = FiniteGroup(spec, (g for g in a1.elements if not g[1] and not g[2]))
    eog = EdgeOfGroups.by_inclusion(a0, a1, a1)
    delta = Mat2.diag(spec, LaurentPoly.monomial(spec, -1),
                      LaurentPoly.one(spec))
    di = delta.inv()
    rho1 = {x: Mat2.from_codes(spec, *x) for x in a1.elements}
    rho0 = {x: rho1[x] for x in a0.elements}
    rho2 = {x: delta.mul(m).mul(di) for x, m in rho1.items()}
    return eog, rho0, rho1, rho2, delta


def test_covering_check_inclusion():
    spec = F2
    eog, rho0, rho1, rho2, delta = _covering_data(spec)
    ident = mat2_identity(spec)
    assert covering_check(eog, rho0, rho1, rho2, ident, delta)
    # pushing A2 two steps away breaks the edge bijection at x2
    assert not covering_check(eog, rho0, rho1, rho2, ident,
                              delta.mul(delta))


def test_covering_check_rejects_bad_rho():
    spec = F2
    eog, rho0, rho1, rho2, delta = _covering_data(spec)
    elems = sorted(rho2, key=lambda x: str(rho2[x]))
    images = [rho2[x] for x in elems]
    rho2 = dict(zip(elems, images[1:] + images[:1]))
    with pytest.raises(NotAHomomorphism):
        covering_check(eog, rho0, rho1, rho2, mat2_identity(spec), delta)


def test_classification_input_validation():
    classify(3, 3, "psl", 1)
    classify(3, 9, "pgl", 2, qi_in_zg=True, qi0_in_zg=True)
    classify(3, 3, "pgl", 1, zmi_in_zg=False)
    with pytest.raises(InvalidInput):
        classify(3, 8, "psl", 1)
    with pytest.raises(InvalidInput, match="p = 4 is not prime"):
        classify(4, 16, "psl", 1)
    with pytest.raises(InvalidInput):
        classify(2, 4, "psl", 1, zmi_in_zg=True)
    with pytest.raises(InvalidInput):
        classify(3, 3, "psl", 1, qi_in_zg=True)
    with pytest.raises(InvalidInput):
        classify(5, 5, "pgl", 1)
    with pytest.raises(InvalidInput):
        classify(5, 5, "pgl", 1, qi_in_zg=True, qi0_in_zg=False)
    with pytest.raises(InvalidInput):
        classify(3, 3, "pgl", 1, zmi_in_zg=True, qi_in_zg=True)
    with pytest.raises(InvalidInput):
        classify(3, 3, "maximal", 1)


@pytest.mark.parametrize("args,detail", [
    ((2, 2, "psl", 2 ** 12999), r"q \* z is over 2\^13000"),
    ((2 ** 64, 2 ** 64, "psl", 1),
     r"p = 18446744073709551616 is not below the bound 2\^64"),
    ((5, 5, "pgl", 1, False), "q = 1 mod 4 needs qi_in_zg and qi0_in_zg"),
    ((5, 5, "pgl", 1, False, False, False), "trivial Q0 is central"),
    ((2, 2, "psl", 2 ** 12998), None),  # 13,000 bits
    ((5, 5, "pgl", 1, False, True, False), None),
    ((5, 5, "pgl", 1, False, False, True), None),
], ids=["qz-bits", "p-bound", "q1mod4-qi0", "trivial-q0", "qz-13000-bits",
        "nontrivial-flag-false", "q0-nontrivial"])
def test_classification_input_checks_at_their_boundaries(args, detail):
    """Each check of classify at the edge of what it accepts: the error
    it names, or no error on the accepting side."""
    if detail is None:
        classify(*args)
    else:
        with pytest.raises(InvalidInput, match=detail):
            classify(*args)


@pytest.mark.parametrize("args", [
    (1, 3, "psl", 1), (3, 1, "psl", 1), (3, 3, "psl", 0)],
    ids=["p-below-2", "q-below-2", "z-below-1"])
def test_classify_refuses_each_number_below_its_least(args):
    """p < 2, q < 2 and z < 1 are each refused on their own, by the first
    check with its text: p = 1 is not reported as 'not prime', q = 1 = p^0
    is not a field, and z = 0 would give rows with |A0| = 0."""
    with pytest.raises(InvalidInput, match="bad numeric parameters"):
        classify(*args)


def test_classify_char2():
    rows = classify(2, 4, "psl", 3)
    assert len(rows) == 1
    assert rows[0]["case"] == "char2-cyclic"
    assert rows[0]["covolume"] == "2/15"


def test_classify_psl_q3mod4():
    rows = classify(7, 7, "psl", 2)
    cases = {r["case"] for r in rows}
    assert "psl-q3mod4-normalizer" in cases
    assert any(r["exceptional"] for r in rows)  # the 2S4 row at q = 7
    gen = [r for r in rows if not r["exceptional"]]
    assert gen[0]["covolume"] == "1/8"


def test_classify_psl_q1mod4():
    assert classify(13, 13, "psl", 1) == []
    rows = classify(5, 5, "psl", 2)
    assert rows and all(r["exceptional"] for r in rows)
    cov, d0 = min_covolume(classify(5, 5, "psl", 2))
    assert cov == "1/12" and d0 is None
    with pytest.raises(MinUndefined):
        min_covolume(classify(13, 13, "psl", 1))


def test_classify_pgl_cases():
    rows = classify(5, 5, "pgl", 1, qi_in_zg=True, qi0_in_zg=True)
    assert {r["case"] for r in rows} == {"pgl-q1mod4-sylow",
                                         "pgl-q1mod4-central-sylow"}
    rows = classify(5, 5, "pgl", 1, qi_in_zg=False, qi0_in_zg=False)
    assert rows == []
    rows = classify(7, 7, "pgl", 1, zmi_in_zg=True)
    assert len(rows) == 3
    rows = classify(7, 7, "pgl", 1, zmi_in_zg=False)
    assert len(rows) == 1 and rows[0]["delta0"] == 4


def test_min_covolume_formula():
    for z in (1, 2, 4):
        cov, d0 = min_covolume(classify(7, 7, "psl", z))
        assert Fraction(cov) == Fraction(2, (7 + 1) * z * d0)
        cov, d0 = min_covolume(classify(7, 7, "pgl", z, zmi_in_zg=True))
        assert Fraction(cov) == Fraction(2, (7 + 1) * z * d0) and d0 == 2
