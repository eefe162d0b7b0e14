"""Tree of lattice classes for SL2 over F_q((t^-1)) and involution searches."""

import json
import random

import pytest

from kmlat import cli, serretree
from kmlat.errors import (NonInvertible, OddCharacteristic, SizeCapExceeded,
                          SpecMismatch, WindowTooLarge, ZeroDeterminant)
from kmlat.gf import make_field
from kmlat.laurent import LaurentPoly, parse_laurent
from kmlat.serretree import (Mat2, act, dihedral_obstruction_search,
                             elementary_divisor_valuations,
                             involution_families, neighbors, vertex_distance)
from oracles import (enumerated_involution_families,
                     full_product_obstruction_search, mat2_member,
                     member_mat2s)
from reference import (Edge, base_edge, edge_act, edge_distance,
                       mat2_identity, membership, object_involution_families,
                       vertex_x1, vertex_x2)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)

# (q, window) sizes for the solved-against-enumerated comparison; the
# enumeration at q = 4, window 2 takes about 16 s, too slow to run here
FAMILY_SIZES = [(F2, 0), (F2, 1), (F2, 2), (F2, 3), (F4, 0), (F4, 1)]
# (q, window) sizes for the scalar-against-full-product comparisons; the
# full products at q = 4, window 2 take about 20 s
SEARCH_SIZES = [(F2, 0), (F2, 1), (F2, 2), (F2, 3), (F4, 1)]
PAIR_SIZES = [(F2, 0), (F2, 1), (F2, 2), (F4, 1)]
# every admissible (q, window) with q^(2*window+2) <= 2^12, for the
# code-solved against the object-solved families
OBJECT_SIZES = [(q, w) for q in (2, 4, 8, 16, 32, 64) for w in range(4)
                if q ** (2 * w + 2) <= 1 << 12]


def mat(spec, text):
    rows = text.split(";")
    entries = []
    for row in rows:
        entries.extend(parse_laurent(spec, c.strip()) for c in row.split(","))
    return Mat2(spec, *entries)


def random_sl2(spec, rng, span=2):
    """A determinant-1 matrix built from elementary row operations."""
    m = mat2_identity(spec)
    for _ in range(rng.randrange(1, 5)):
        d = rng.randrange(-span, span + 1)
        u = LaurentPoly(spec, {d: rng.randrange(spec.q)})
        if rng.random() < 0.5:
            e = Mat2(spec, LaurentPoly.one(spec), u,
                     LaurentPoly.zero(spec), LaurentPoly.one(spec))
        else:
            e = Mat2(spec, LaurentPoly.one(spec), LaurentPoly.zero(spec),
                     u, LaurentPoly.one(spec))
        m = m.mul(e)
    return m


def test_matrix_inverse_and_det():
    rng = random.Random(7)
    one = LaurentPoly.one(F3)
    for _ in range(40):
        m = random_sl2(F3, rng)
        assert m.det() == one
        assert m.mul(m.inv()) == mat2_identity(F3)
        assert m.inv().mul(m) == mat2_identity(F3)
    singular = mat(F3, "1,1;1,1")
    with pytest.raises(NonInvertible):
        singular.inv()


def test_det_is_multiplicative():
    rng = random.Random(11)
    for _ in range(30):
        x = random_sl2(F2, rng).mul(Mat2.diag(
            F2, LaurentPoly.monomial(F2, -1), LaurentPoly.one(F2)))
        y = random_sl2(F2, rng)
        assert x.mul(y).det() == x.det() * y.det()


def test_membership_examples():
    assert membership(mat2_identity(F2), "P1")
    assert membership(mat2_identity(F2), "P2")
    assert membership(mat2_identity(F2), "B")
    # b entry of valuation -1 is allowed in P2 but not in P1 or B
    m = mat(F2, "1,t;0,1")
    assert membership(m, "P2")
    assert not membership(m, "P1")
    assert not membership(m, "B")
    # c of valuation 0 is allowed in P1 but not in P2 or B
    m = mat(F2, "1,0;1,1")
    assert membership(m, "P1")
    assert not membership(m, "P2")
    assert not membership(m, "B")
    assert membership(mat(F2, "1,t^-2;0,1"), ("U", 2))
    assert not membership(mat(F2, "1,t^-1;0,1"), ("U", 2))


def test_elementary_divisors():
    one = LaurentPoly.one(F2)
    t = LaurentPoly.monomial(F2, -1)
    assert elementary_divisor_valuations(mat2_identity(F2)) == (0, 0)
    assert elementary_divisor_valuations(Mat2.diag(F2, t, one)) == (-1, 0)
    with pytest.raises(ZeroDeterminant):
        elementary_divisor_valuations(mat(F2, "1,1;1,1"))


def test_base_vertices_are_adjacent():
    x1, x2 = vertex_x1(F2), vertex_x2(F2)
    assert vertex_distance(x1, x2) == 1
    assert vertex_distance(x1, x1) == 0
    assert x2 in neighbors(x1)
    assert x1 in neighbors(x2)


@pytest.mark.parametrize("spec", [F2, F3], ids=lambda s: "q=%d" % s.q)
def test_tree_is_regular(spec):
    for v in (vertex_x1(spec), vertex_x2(spec)):
        nb = neighbors(v)
        assert len(nb) == spec.q + 1
        for i, u in enumerate(nb):
            assert vertex_distance(u, v) == 1
            for w in nb[i + 1:]:
                assert u != w


def test_distance_metric_properties():
    rng = random.Random(3)
    x1 = vertex_x1(F2)
    pts = [x1, vertex_x2(F2)]
    for _ in range(8):
        pts.append(act(random_sl2(F2, rng), x1))
    for u in pts:
        for v in pts:
            d = vertex_distance(u, v)
            assert d == vertex_distance(v, u)
            assert (d == 0) == (u == v)
            for w in pts:
                assert d <= vertex_distance(u, w) + vertex_distance(w, v)


def test_action_is_isometric():
    rng = random.Random(5)
    x1, x2 = vertex_x1(F3), vertex_x2(F3)
    for _ in range(25):
        g = random_sl2(F3, rng)
        assert vertex_distance(act(g, x1), act(g, x2)) == 1
        v = act(random_sl2(F3, rng), x1)
        assert vertex_distance(act(g, x1), act(g, v)) == vertex_distance(x1, v)


def test_diag_t_swaps_base_vertices():
    delta = Mat2.diag(F2, LaurentPoly.monomial(F2, -1),
                      LaurentPoly.one(F2))
    assert act(delta, vertex_x1(F2)) == vertex_x2(F2)


def test_edges_are_unordered():
    x1, x2 = vertex_x1(F2), vertex_x2(F2)
    assert Edge(x1, x2) == Edge(x2, x1)
    assert base_edge(F2) == Edge(x2, x1)
    assert edge_distance(base_edge(F2), base_edge(F2)) == 0
    far = edge_act(Mat2.diag(F2, LaurentPoly.monomial(F2, -2),
                             LaurentPoly.one(F2)), base_edge(F2))
    assert edge_distance(base_edge(F2), far) == 2


def test_stabilizer_of_base_edge():
    """Constant SL2 matrices fix x1; those in B also fix x2."""
    rng = random.Random(9)
    x1, x2 = vertex_x1(F3), vertex_x2(F3)
    for a in range(3):
        for b in range(3):
            g = mat(F3, "%d,%d;0,%s" % (a or 1, b, "1" if a != 2 else "2"))
            if g.det() != LaurentPoly.one(F3):
                continue
            assert act(g, x1) == x1
            assert act(g, x2) == x2
    g = mat(F3, "1,0;1,1")  # constant but not upper triangular
    assert act(g, x1) == x1
    assert act(g, x2) != x2


def test_involution_families_are_involutions():
    for region in ("B", "P1-B", "P2-B"):
        fam = member_mat2s(F2, region, 2)
        assert fam
        for m in fam:
            assert m.mul(m) == mat2_identity(F2)
            assert m.det() == LaurentPoly.one(F2)
            if region == "B":
                assert membership(m, "B")
            elif region == "P1-B":
                assert membership(m, "P1") and not membership(m, "B")
            else:
                assert membership(m, "P2") and not membership(m, "B")


def test_involution_family_size_window1():
    """Hand count for q=2, window 1.

    Upper unipotents [[1,b],[0,1]]: b in {1, t^-1, 1+t^-1}, 3 of them.  Lower
    [[1,0],[c,1]] with v(c) >= 1 and c in the window: c = t^-1 only.
    Balanced [[a,b],[c,a]] with a^2+bc = 1: comparing pi-degrees forces
    a = 1+t^-1, b = t^-1, c = t^-1, a single matrix.  Total 5.
    """
    assert len(involution_families(F2, "B", 1)) == 5


def test_polys_take_pi_degrees_with_the_top_one_slowest():
    assert list(serretree._polys(F2, -1, 0)) == [
        {}, {-1: 1}, {0: 1}, {0: 1, -1: 1}]


def test_candidates_keep_one_plus_bc_in_the_window():
    """Every degree of 1 + bc over a region's _candidates lies in 0..2w, so
    involution_families tests only its parity: b reaches pi^-1 only in
    P2-B, where c starts at pi^1.  8,154 (b, c) pairs at q = 2, w <= 3 and
    q = 4, w <= 2."""
    pairs = 0
    for spec, windows in ((F2, range(4)), (F4, range(3))):
        one = LaurentPoly.one(spec)
        for w in windows:
            for region in ("B", "P1-B", "P2-B"):
                bs, cs = serretree._candidates(spec, region, w)
                for b in bs:
                    for c in cs:
                        r = one + (LaurentPoly(spec, b)
                                   * LaurentPoly(spec, c))
                        assert all(0 <= d <= 2 * w for d in r.coeffs)
                        pairs += 1
    assert pairs == 8154


def test_involution_families_limits():
    with pytest.raises(OddCharacteristic):
        involution_families(F3, "B", 1)
    with pytest.raises(WindowTooLarge):
        involution_families(F2, "B", 4)
    with pytest.raises(SpecMismatch):
        involution_families(F2, "P3-B", 1)


@pytest.mark.parametrize("q,window", [(8, 2), (512, 0), (4, 3), (16, 1),
                                      (2, 3), (256, 0)])
def test_dihedral_size_check_admits_up_to_the_cap(q, window):
    """(8, 2) and (512, 0) are exactly at the cap."""
    assert q ** (2 * window + 2) <= serretree.DIHEDRAL_CAP == 2 ** 18
    serretree.check_dihedral_size(q, window)


@pytest.mark.parametrize("q,window", [(513, 0), (32, 1), (8, 3), (16, 2),
                                      (5, 3)])
def test_dihedral_size_check_refuses_past_the_cap(q, window):
    """513^2 is the least q^(2*window+2) past 2^18."""
    with pytest.raises(SizeCapExceeded) as info:
        serretree.check_dihedral_size(q, window)
    assert "%d^%d" % (q, 2 * window + 2) in str(info.value)
    assert "cap 2^18 = 262144" in str(info.value)


def test_involution_families_check_the_size_after_p_and_window():
    """Past the cap, an odd q is still OddCharacteristic and a window over
    3 still WindowTooLarge; an admissible p and window past the cap is
    SizeCapExceeded."""
    with pytest.raises(OddCharacteristic):
        involution_families(make_field(3, 5), "B", 3)
    with pytest.raises(WindowTooLarge):
        involution_families(make_field(2, 8), "B", 4)
    with pytest.raises(SizeCapExceeded):
        involution_families(make_field(2, 5), "B", 1)


@pytest.mark.parametrize("spec,window", FAMILY_SIZES,
                         ids=lambda x: str(getattr(x, "q", x)))
@pytest.mark.parametrize("region", ["B", "P1-B", "P2-B"])
def test_solved_families_equal_enumerated(spec, window, region):
    """Solving a^2 = 1 + bc for a gives the members, in the order, that
    trying every (a, b, c) gives; criterion 7 samples them by index."""
    assert (member_mat2s(spec, region, window)
            == enumerated_involution_families(spec, region, window))


@pytest.mark.parametrize("q,window", OBJECT_SIZES)
@pytest.mark.parametrize("region", ["B", "P1-B", "P2-B"])
def test_code_families_equal_object_families(q, window, region):
    """Solving a^2 = 1 + bc on F_q codes gives the Mat2 list, member for
    member and in order, that solving it on LaurentPoly objects gives."""
    spec = make_field(2, q.bit_length() - 1)
    assert (member_mat2s(spec, region, window)
            == object_involution_families(spec, region, window))


@pytest.mark.parametrize("q,window", [(2, 3), (4, 1)])
def test_search_makes_no_laurent_products_or_sums(q, window, monkeypatch):
    """The families and the pair loop run on F_q codes: the search calls
    neither LaurentPoly.__mul__ nor LaurentPoly.__add__.  With the object
    solve in place of the families, the same counters see one product and
    one sum per (b, c) candidate pair, over 300 of each."""
    def object_triples(spec, region, window):
        return [mat2_member(m, window)
                for m in object_involution_families(spec, region, window)]

    calls = {"__mul__": 0, "__add__": 0}
    for name in calls:
        def counted(self, other, real=getattr(LaurentPoly, name), name=name):
            calls[name] += 1
            return real(self, other)
        monkeypatch.setattr(LaurentPoly, name, counted)
    spec = make_field(2, q.bit_length() - 1)
    out = dihedral_obstruction_search(spec, window)
    assert out["triples_checked"] > 0
    assert calls == {"__mul__": 0, "__add__": 0}
    monkeypatch.setattr(serretree, "involution_families", object_triples)
    assert dihedral_obstruction_search(spec, window) == out
    assert calls["__mul__"] > 300 and calls["__add__"] > 300


@pytest.mark.parametrize("q,window", [(2, 3), (4, 1)])
def test_search_builds_no_laurent_poly_or_mat2(q, window, monkeypatch):
    """The families are code triples and the pair loop reads their codes,
    so a search with no violation constructs no LaurentPoly and no Mat2.
    The object solve of the same three families, under the same counters,
    constructs one Mat2 per member (95 at q = 2, 159 at q = 4) and more
    LaurentPolys still."""
    calls = {LaurentPoly: 0, Mat2: 0}
    for cls in calls:
        def counted(self, *args, real=cls.__init__, cls=cls):
            calls[cls] += 1
            real(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    spec = make_field(2, q.bit_length() - 1)
    out = dihedral_obstruction_search(spec, window)
    assert out["triples_checked"] > 0 and out["violations"] == []
    assert calls == {LaurentPoly: 0, Mat2: 0}
    for region in ("B", "P1-B", "P2-B"):
        object_involution_families(spec, region, window)
    members = sum(out["family_sizes"].values())
    assert calls[Mat2] == members and calls[LaurentPoly] > members


@pytest.mark.parametrize("spec,window", FAMILY_SIZES,
                         ids=lambda x: str(getattr(x, "q", x)))
def test_b_family_has_b0_c1_zero(spec, window):
    """a^2 has even pi-degrees only, so the pi^1 coefficient of bc = 1 + a^2
    is b_0 c_1 = 0: the reason dihedral_obstruction_search finds nothing."""
    mul = spec._tables()[1]
    for m in member_mat2s(spec, "B", window):
        assert mul[m.b.coeffs.get(0, 0)][m.c.coeffs.get(1, 0)] == 0


def test_dihedral_obstruction_search_finds_nothing():
    out = dihedral_obstruction_search(F2, 1)
    assert out["violations"] == []
    assert out["triples_checked"] > 0
    assert out["q"] == 2


@pytest.mark.parametrize("spec,window", SEARCH_SIZES,
                         ids=lambda x: str(getattr(x, "q", x)))
def test_search_equals_full_product_oracle(spec, window):
    assert (dihedral_obstruction_search(spec, window)
            == full_product_obstruction_search(spec, window))


@pytest.mark.parametrize("spec,window", PAIR_SIZES,
                         ids=lambda x: str(getattr(x, "q", x)))
def test_scalar_tests_equal_full_products(spec, window, monkeypatch):
    """The search's two scalar tests agree with the valuations of g*s*g
    itself, for every gamma in P1-B or P2-B and every value of the terms
    of s that they read.  No B involution hits both, so each test is seen
    alone, against one gamma that passes the other, with s planted after
    the B family: s = [[1,b_0],[c_0 + pi,1]] for every (b_0, c_0) with
    the first P2-B member alone as gamma_2 (c_1 f_-1^2 = f_-1^2 != 0),
    then s = [[1,1],[c_1 pi,1]] for every c_1 with the first P1-B member
    alone as gamma_1 (b_0 g_0^2 + c_0 e_0^2 = g_0^2 != 0).  The product
    g*s*g has those entries for any s = [[a,b],[c,a]], involution or not."""
    real = serretree.involution_families
    one, codes = (0,) * window + (1,), range(spec.q)

    def nonzero(terms):
        return {d: x for d, x in terms.items() if x}

    runs = [("P2-B", [(one, nonzero({0: b0}), nonzero({0: c0, 1: 1}))
                      for b0 in codes for c0 in codes]),
            ("P1-B", [(one, {0: 1}, nonzero({1: c1})) for c1 in codes])]
    for witness, planted in runs:
        def families(spec, region, window):
            fam = real(spec, region, window)
            if region == "B":
                return fam + planted
            return fam[:1] if region == witness else fam

        monkeypatch.setattr(serretree, "involution_families", families)
        out = dihedral_obstruction_search(spec, window)
        assert out["violations"]
        assert out == full_product_obstruction_search(spec, window)


def test_violations_are_reported_in_oracle_order(monkeypatch, capsys):
    """No genuine B involution has b_0 c_1 != 0, so plant two matrices that
    do among the B family, as code triples: [[1,1],[t^-1,1]] hits every
    P1-B and P2-B member, and [[1,1],[1+t^-1,1]] also has c_0 != 0, so
    whether its lower-left entry b g^2 + c e^2 is a unit depends on the
    c e^2 term.  The search builds three Mat2 per reported triple and no
    other, and reports their "a,b;c,d" texts, which cli.dumps writes and
    the dihedral-search command prints as they are."""
    real = serretree.involution_families
    planted = [mat(F2, "1,1;t^-1,1"), mat(F2, "1,1;1+t^-1,1")]

    def families(spec, region, window):
        fam = real(spec, region, window)
        codes = [mat2_member(m, window) for m in planted]
        return fam[:2] + codes + fam[2:] if region == "B" else fam

    monkeypatch.setattr(serretree, "involution_families", families)
    built = []

    def counted(self, *args, real=Mat2.__init__):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(Mat2, "__init__", counted)
    out = dihedral_obstruction_search(F2, 1)
    assert len(built) == 3 * len(out["violations"])  # the report's Mat2 only
    assert out["violations"]
    assert out == full_product_obstruction_search(F2, 1)
    assert {s for s, _, _ in out["violations"]} == {str(m) for m in planted}
    report = json.loads(cli.dumps(out))  # a Mat2 would raise TypeError
    assert cli.main(["dihedral-search", "--q", "2", "--window", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == dict(
        report, command="dihedral-search", schema=cli.SCHEMA)
