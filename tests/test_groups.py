"""Finite matrix groups: closure, recognition, and subgroup tables."""

from collections import Counter

import pytest

from kmlat import cli, groups
from kmlat.errors import NotASubgroup, NotFound, SizeCapExceeded
from kmlat.gf import is_prime, make_field
from kmlat.groups import (CODE_ONE, SUBGROUP_TARGETS, FiniteGroup, closure,
                          dickson_table, find_subgroup_of_type, generate,
                          nonsplit_torus, order_available, order_of,
                          torus_normalizer)
from oracles import (aligned_report, full_walk_trace_order_map,
                     scan_find_subgroup_of_type, trace_copies,
                     walked_trace_order_map)
from reference import (GroupType, center, cosets, derived_subgroup,
                       dickson_table_branches, is_abelian, is_cyclic,
                       is_normal, is_subgroup, recognize, sl2_group)


def sl2_order(q):
    return q * (q - 1) * (q + 1)


@pytest.mark.parametrize("q,a", [(2, 1), (3, 1), (4, 2), (5, 1)])
def test_sl2_group_order(q, a):
    spec = make_field(2 if q in (2, 4) else q, a)
    g = sl2_group(spec)
    assert g.order == sl2_order(q)
    add, mul, neg, _ = spec._tables()
    for a, b, c, d in g.elements:
        assert add[mul[a][d]][neg[mul[b][c]]] == 1


def test_closure_cap():
    spec = make_field(5)
    gens = list(sl2_group(spec).elements)[:6]
    with pytest.raises(SizeCapExceeded):
        closure(spec, gens, cap=10)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_nonsplit_torus_is_cyclic(q):
    spec = make_field(2, 2) if q == 4 else make_field(q)
    t = nonsplit_torus(spec)
    assert t.order == q + 1
    assert is_cyclic(t)
    rec = recognize(t)
    assert rec == GroupType("Cyclic", q + 1)
    amb = sl2_group(spec)
    assert is_subgroup(amb, t)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_torus_normalizer(q):
    spec = make_field(q)
    n = torus_normalizer(spec)
    t = nonsplit_torus(spec)
    assert n.order == 2 * (q + 1)
    assert is_subgroup(n, t)
    assert is_normal(n, t)
    rec = recognize(n)
    assert rec.kind == "Dicyclic" and rec.param == 2 * (q + 1)


@pytest.mark.parametrize("p,a", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1),
                                 (13, 1)])
def test_torus_normalizer_matches_definition(p, a):
    spec = make_field(p, a)
    t = nonsplit_torus(spec).elements
    amb = sl2_group(spec)
    mul = amb.mul

    def normalizes(g):
        # g T g^-1 is a set of |T| elements, so inside T means equal to T
        gi = amb.inv(g)
        return all(mul(mul(g, h), gi) in t for h in t)
    normalizer = {g for g in amb.elements if normalizes(g)}
    assert torus_normalizer(spec).elements == normalizer


def test_torus_normalizer_does_not_scan_sl2(monkeypatch):
    def scan(spec):
        raise AssertionError("torus_normalizer iterated over SL2(F_q)")
    monkeypatch.setattr(groups, "sl2_elements", scan)
    monkeypatch.setattr(groups, "sl2_codes", scan)
    spec = make_field(7)
    assert torus_normalizer(spec).order == 16


def test_find_subgroup_of_type_does_not_scan_sl2(monkeypatch):
    """The candidates come from the wanted trace classes, and their orders
    from the trace map, which needs no generator of F_{q^2}*."""
    def scan(spec):
        raise AssertionError("find_subgroup_of_type scanned SL2(F_q)")
    monkeypatch.setattr(groups, "sl2_elements", scan)
    monkeypatch.setattr(groups, "sl2_codes", scan)
    monkeypatch.setattr(groups, "primitive_element", scan)
    for q, kind, order in ((59, "SL2(5)", 120), (23, "2S4", 48),
                           (5, "SL2(3)", 24)):
        assert find_subgroup_of_type(make_field(q), kind).order == order


def test_group_basics():
    spec = make_field(3)
    g = sl2_group(spec)
    t = nonsplit_torus(spec)
    assert not is_abelian(g)
    z = center(g)
    assert z.order == 2
    d = derived_subgroup(g)
    # SL2(3) has derived subgroup the quaternion group of order 8
    assert d.order == 8
    with pytest.raises(NotASubgroup):
        is_normal(t, g)
    reps = cosets(g, t)
    assert len(reps) == g.order // t.order


def test_recognize_small_types():
    spec = make_field(3)
    g = sl2_group(spec)
    assert recognize(g) == GroupType("SL2(3)")
    assert recognize(sl2_group(make_field(5))) == GroupType("SL2(5)")
    z = center(g)
    assert recognize(z) == GroupType("Cyclic", 2)
    triv = FiniteGroup(spec, [CODE_ONE], (CODE_ONE,))
    assert recognize(triv) == GroupType("Cyclic", 1)


def test_recognize_klein_four_group():
    spec = make_field(2, 2)
    u1 = (1, 1, 0, 1)
    u2 = (1, 2, 0, 1)
    k = closure(spec, [u1, u2])
    assert k.order == 4
    assert recognize(k) == GroupType("Dihedral", 4)


def test_profiles_match_independent_reconstruction():
    """Order profiles of SL2(3)/SL2(5) recomputed from the full groups."""
    from kmlat.groups import PROFILE_SL2_3, PROFILE_SL2_5
    for q, profile in ((3, PROFILE_SL2_3), (5, PROFILE_SL2_5)):
        g = sl2_group(make_field(q))
        counted = Counter(g.element_order(m) for m in g.elements)
        assert dict(counted) == dict(profile)


def test_order_available():
    spec = make_field(7)
    for d in (1, 2, 3, 4, 6, 7, 8, 14):
        assert order_available(spec, d)
    for d in (5, 9, 16, 21, 49):
        assert not order_available(spec, d)


@pytest.mark.parametrize("q,kind,order", [
    (5, "SL2(3)", 24), (11, "SL2(3)", 24), (7, "2S4", 48),
    (11, "SL2(5)", 120), (19, "SL2(5)", 120),
])
def test_find_subgroup_of_type(q, kind, order):
    spec = make_field(q)
    h = find_subgroup_of_type(spec, kind)
    assert h is not None
    assert h.order == order
    expected = {"SL2(3)": "SL2(3)", "SL2(5)": "SL2(5)",
                "2S4": "BinaryOctahedral"}[kind]
    assert recognize(h).kind == expected
    amb = sl2_group(spec) if q <= 11 else None
    if amb is not None:
        assert is_subgroup(amb, h)


def test_find_subgroup_of_type_absent():
    assert find_subgroup_of_type(make_field(13), "SL2(5)") is None
    assert find_subgroup_of_type(make_field(13), "2S4") is None


def test_dickson_table_q8():
    spec = make_field(2, 3)
    rows = dickson_table(spec, "sl2")
    div = {(r["type"], r["order"]) for r in rows if r["div_q_plus_1"]}
    assert div == {("Cyclic(9)", 9), ("Dihedral(18)", 18)}


def test_dickson_table_q11_exceptional():
    rows = dickson_table(make_field(11), "sl2")
    names = {r["type"] for r in rows}
    assert "SL2(3)" in names and "SL2(5)" in names
    assert "2S4" not in names


def test_dickson_table_q7():
    rows = dickson_table(make_field(7), "sl2")
    names = {r["type"] for r in rows}
    assert "2S4" in names and "SL2(5)" not in names
    pgl = dickson_table(make_field(7), "pgl2")
    s4 = [r for r in pgl if r["type"].startswith("S4")]
    assert s4 and all("outside" not in r["type"] for r in s4)


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_dickson_char2_a4_s4_rows_match_computation(a):
    """SL2(2^a) = PSL2(2^a) = PGL2(2^a) has no S4, since no element has
    order 4, and has an A4 exactly when a is even.  For a even,
    <u(1), diag(w, 1/w)> with w of order 3 closes to an A4.  For a odd,
    an A4 would be generated by an element of order 3 and an involution;
    elements of order 3 form one trace class, so one fixed x of order 3
    suffices, and every <x, y> with y an involution closes to 6 elements
    or to more than 12."""
    spec = make_field(2, a)
    _, fmul, _, finv = spec._tables()
    g = sl2_group(spec)
    mul = g.mul
    squares = [mul(s, s) for s in g.elements]
    assert all(s2 == CODE_ONE or mul(s2, s2) != CODE_ONE for s2 in squares)
    if a % 2 == 0:
        w = next(c for c in range(2, spec.q) if fmul[fmul[c][c]][c] == 1)
        a4 = closure(spec, [(1, 1, 0, 1), (w, 0, 0, finv[w])])
        assert a4.order == 12 and recognize(a4) == GroupType("A4")
    else:
        torus = nonsplit_torus(spec)
        x = next(h for h in torus.elements if torus.element_order(h) == 3)
        for y, y2 in zip(g.elements, squares):
            if y == CODE_ONE or y2 != CODE_ONE:
                continue
            try:
                assert len(generate(CODE_ONE, (x, y), mul, 13)) == 6
            except SizeCapExceeded:
                pass
    for ambient in ("psl2", "sl2", "pgl2"):
        types = [r["type"] for r in dickson_table(spec, ambient)]
        assert ("A4" in types) == (a % 2 == 0), ambient
        assert not any(t.startswith("S4") for t in types), ambient


# every prime power q = p^a <= 511, the largest q the field builder takes
PRIME_POWERS = [(p, a) for p in range(2, 512) if is_prime(p)
                for a in range(1, 10) if p ** a <= 511]


@pytest.mark.parametrize("ambient", ["psl2", "sl2", "pgl2"])
def test_dickson_table_equals_the_branch_reference(ambient):
    """At every prime power q <= 511, dickson_table, one skeleton for the
    three ambients, gives the rows in order of the table as it was written
    with one branch per ambient."""
    assert len(PRIME_POWERS) == 116
    for p, a in PRIME_POWERS:
        spec = make_field(p, a)
        assert (dickson_table(spec, ambient)
                == dickson_table_branches(spec, ambient)), (p, a)


@pytest.mark.parametrize("q", ["2", "3", "4", "8", "9", "25", "27", "49",
                               "64", "81", "125", "243", "256", "343",
                               "509"])
def test_dickson_stdout_equals_the_branch_reference(q, capsys, monkeypatch):
    """`kmlat dickson` prints the same bytes with the branch reference in
    place of dickson_table, in each ambient."""
    for ambient in ("psl2", "sl2", "pgl2"):
        argv = ["dickson", "--q", q, "--ambient", ambient]
        assert cli.main(argv) == 0
        got = capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(groups, "dickson_table", dickson_table_branches)
            assert cli.main(argv) == 0
        assert got == capsys.readouterr().out, ambient


@pytest.mark.parametrize("p,a", [(2, 1), (2, 3), (3, 1), (5, 2)])
def test_dickson_unknown_ambient_is_not_found(p, a):
    """An unknown ambient is refused at odd and at even q: at p = 2 it is
    not read as psl2."""
    for ambient in ("gl2", "PSL2", ""):
        with pytest.raises(NotFound):
            dickson_table(make_field(p, a), ambient)


def _two_sided_pair_closure(mul, i, j):
    """The subgroup generated by i, j: a BFS from {1, i, j} that
    multiplies by i and j on both sides (the former pair closure)."""
    seen = {CODE_ONE, i, j}
    frontier = [CODE_ONE, i, j]
    while frontier:
        nxt = []
        for x in frontier:
            for g in (i, j):
                for y in (mul(x, g), mul(g, x)):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return seen


def test_generate_matches_two_sided_closure_on_sl2_3():
    g = sl2_group(make_field(3))
    n = g.order
    for i in g.elements:
        for j in g.elements:
            got = generate(CODE_ONE, (i, j), g.mul, n)
            assert got == _two_sided_pair_closure(g.mul, i, j)


def _odd_prime_powers(below):
    return [(p, a) for p in range(3, below, 2) if is_prime(p)
            for a in range(1, 7) if p ** a < below]


ODD_PRIME_POWERS = _odd_prime_powers(65)


@pytest.mark.parametrize("p,a", _odd_prime_powers(128))
def test_trace_order_map_matches_full_walk(p, a):
    """The trace map scan_find_subgroup_of_type draws its candidates by,
    which walks only the 2q powers of a generator of F_{q^2}* whose
    traces lie in F_q, gives the order that the eigenvalue lam of each
    non-central g has in F_{q^2}*, found by walking all its powers."""
    spec = make_field(p, a)
    assert walked_trace_order_map(spec) == full_walk_trace_order_map(spec)


@pytest.mark.parametrize("p,a", ODD_PRIME_POWERS + [(2, 1), (2, 2), (2, 3)])
def test_trace_classes_partition_sl2_by_counting(p, a):
    """sl2_codes, split by trace: the elements of trace t number
    q^2 + (r - 1)*q, r the number of roots of x^2 - t*x + 1 in F_q; for
    odd q, r - 1 is chi(t^2 - 4), chi the quadratic character with
    chi(0) = 0.  Every member has det 1, none repeats, the classes add up
    to |SL2(F_q)| = q^3 - q, and the order of sl2_codes is lexicographic."""
    spec = make_field(p, a)
    q = spec.q
    add, mul, neg, _ = spec._tables()
    codes = list(groups.sl2_codes(spec))
    assert codes == sorted(set(codes))
    assert len(codes) == q ** 3 - q
    sizes = Counter(add[a_][d] for a_, b, c, d in codes)
    squares = {mul[x][x] for x in range(1, q)}
    four = add[add[1][1]][add[1][1]]
    for t in range(q):
        roots = sum(add[mul[x][x]][neg[mul[t][x]]] == neg[1]
                    for x in range(q))
        if p != 2:
            disc = add[mul[t][t]][neg[four]]
            assert roots - 1 == (0 if not disc else
                                 1 if disc in squares else -1), t
        assert sizes[t] == q * q + (roots - 1) * q, t
    for a_, b, c, d in codes:
        assert add[mul[a_][d]][neg[mul[b][c]]] == 1


def _profile(h):
    return Counter(order_of(g, CODE_ONE, h.mul) for g in h.elements)


@pytest.mark.parametrize("p,a", ODD_PRIME_POWERS)
@pytest.mark.parametrize("kind", ["SL2(3)", "SL2(5)", "2S4"])
def test_find_subgroup_matches_the_scan(p, a, kind):
    """The copy built from the trace triple exists where the scan over
    SL2(F_q) finds one, has its order and element-order profile, and gives
    the same lubotzky_check report once build_standard_lattice aligns it
    (or the same refusal)."""
    spec = make_field(p, a)
    got = find_subgroup_of_type(spec, kind)
    want = scan_find_subgroup_of_type(spec, kind)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.order == want.order == SUBGROUP_TARGETS[kind][0]
        assert _profile(got) == _profile(want) == SUBGROUP_TARGETS[kind][1]
    assert (aligned_report(spec, kind, got)
            == aligned_report(spec, kind, want))


@pytest.mark.parametrize("p,a", [(p, a) for p in range(2, 128) if is_prime(p)
                                 for a in range(1, 8) if p ** a < 128])
@pytest.mark.parametrize("kind", ["SL2(3)", "SL2(5)", "2S4"])
def test_construction_has_the_order_and_profile(p, a, kind):
    """At every prime power q < 128 the construction returns a group of
    the kind's order and exact element-order profile wherever every order
    in the profile is available in SL2(F_q), and None elsewhere.  Its gens
    x and y have traces 0 and 1, tr xy is a root of the kind's quadratic,
    and (x, y) is one of the pairs trace_copies finds by trying every b."""
    spec = make_field(p, a)
    order, profile, (c1, c0) = SUBGROUP_TARGETS[kind]
    got = find_subgroup_of_type(spec, kind)
    if not all(order_available(spec, d) for d in profile):
        assert got is None
        return
    assert got.order == order
    assert _profile(got) == profile
    add, mul = spec._tables()[:2]
    x, y = got.gens
    xy = got.mul(x, y)
    tau = add[xy[0]][xy[3]]
    assert (add[x[0]][x[3]], add[y[0]][y[3]]) == (0, 1)
    assert add[add[mul[tau][tau]][mul[c1 % p][tau]]][c0 % p] == 0
    assert got.gens in [h.gens for h in trace_copies(spec, kind, first_a=1)]
