"""The standard pairs, built on F_q code tuples, against the Mat2 builders
they replaced; and the classification table checked by building them."""

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from kmlat.errors import InvalidInput, KmlatError, MinUndefined
from kmlat.gf import code_mul, code_pow, is_prime, make_field
from kmlat.groups import (CODE_ONE, SUBGROUP_TARGETS, FiniteGroup,
                          dickson_table, find_subgroup_of_type, generate,
                          nonsplit_torus, order_available, order_of,
                          sl2_codes, sl2_elements, torus_normalizer)
from kmlat.laurent import LaurentPoly
from kmlat.lattice import (build_standard_lattice, classify, lubotzky_check,
                           min_covolume)
from kmlat.serretree import Mat2
from oracles import (Mat2Group, aligned_report, ext_primitive_element,
                     mat2_build_standard_lattice, mat2_eigen_aligned_lattice,
                     mat2_lubotzky_check, mat2_pair, mat2_sl2_elements,
                     mult_matrix, scan_find_subgroup_of_type, to_mat2,
                     trace_copies)
from reference import recognize

KINDS = ("cyclic_p2", "torus_normalizer", "SL2(3)", "SL2(5)", "2S4")
EXCEPTIONAL_KINDS = ("SL2(3)", "SL2(5)", "2S4")
GENERIC_KINDS = ("cyclic_p2", "torus_normalizer")


def _prime_power(q):
    """(p, a) with p^a = q, or None when q is not a prime power."""
    p = next(r for r in range(2, q + 1) if q % r == 0)
    a = 1
    while p ** a < q:
        a += 1
    return (p, a) if p ** a == q else None


FIELDS = {q: _prime_power(q) for q in range(2, 128) if _prime_power(q)}


def _psl_input(q):
    """classify's psl arguments with z = gcd(2, q-1)."""
    return FIELDS[q][0], q, "psl", gcd(2, q - 1)


def _exceptional_rows(q):
    """(q, kind, |A0|) of each exceptional classify row of _psl_input(q)."""
    return {(q, r["vertex_type"], r["a0_order"])
            for r in classify(*_psl_input(q)) if r["exceptional"]}


def _build(spec, kind, builder):
    try:
        return builder(spec, kind)
    except KmlatError as exc:
        return exc


@pytest.fixture(scope="module")
def builds():
    """(q, kind) -> build_standard_lattice's result, or what it raised."""
    return {(q, kind): _build(make_field(*pa), kind, build_standard_lattice)
            for q, pa in FIELDS.items() for kind in KINDS}


@pytest.fixture(scope="module")
def mat2_builds():
    """(q, kind) -> mat2_build_standard_lattice's (A1, A2), or what it
    raised."""
    return {(q, kind): _build(make_field(*pa), kind,
                              mat2_build_standard_lattice)
            for q, pa in FIELDS.items() for kind in KINDS}


@pytest.fixture(scope="module")
def reports(builds):
    """(q, kind) -> lubotzky_check report, for every pair that builds."""
    return {key: lubotzky_check(b) for key, b in builds.items()
            if not isinstance(b, Exception)}


def test_every_prime_power_below_128_is_covered(builds):
    assert len(FIELDS) == 43
    assert sum(not isinstance(b, Exception) for b in builds.values()) == 54


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_builds_match_the_mat2_oracle(builds, mat2_builds, q):
    """The same A1 elements and the same gens in order as alignment by
    Mat2 conjugation, and the same exception class and message where a
    build is refused.  The oracle's A2 is delta A1 delta^-1 by Mat2
    products, with delta = diag(t, 1)."""
    spec = make_field(*FIELDS[q])
    delta = Mat2.diag(spec, LaurentPoly.monomial(spec, -1),
                      LaurentPoly.one(spec))
    di = delta.inv()
    for kind in KINDS:
        got = builds[q, kind]
        want = mat2_builds[q, kind]
        if isinstance(want, Exception):
            assert type(got) is type(want), kind
            assert str(got) == str(want), kind
            continue
        assert not isinstance(got, Exception), (kind, got)
        a1, a2 = want
        assert set(to_mat2(spec, got.elements)) == a1.elements, kind
        assert to_mat2(spec, got.gens) == list(a1.gens), kind
        assert {delta.mul(x).mul(di) for x in a1.elements} == a2.elements
        assert [delta.mul(x).mul(di) for x in a1.gens] == list(a2.gens)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_check_matches_the_mat2_oracle(builds, mat2_builds, q):
    """lubotzky_check, reading the pair off A1's codes, gives the report
    that the valuation, intersection and Mat2-kernel check gives on the
    oracle's (A1, A2), with the gens and with the gens dropped (the
    kernel then conjugates by every element)."""
    spec = make_field(*FIELDS[q])
    for kind in KINDS:
        if isinstance(mat2_builds[q, kind], Exception):
            continue
        a1 = builds[q, kind]
        m1, m2 = mat2_builds[q, kind]
        assert lubotzky_check(a1) == mat2_lubotzky_check(m1, m2), kind
        bare = FiniteGroup(spec, a1.elements)
        assert (lubotzky_check(bare)
                == mat2_lubotzky_check(Mat2Group(spec, m1.elements),
                                       Mat2Group(spec, m2.elements))), kind


def test_unipotent_alignment_reports_as_the_eigenvector_alignment():
    """At every prime power q <= 511 and each exceptional kind, the A1 that
    build_standard_lattice aligns by the unipotent fixing infinity gets
    the lubotzky_check report that the Mat2 pair aligned by eigenvectors,
    as it was built before, gets from mat2_lubotzky_check; or both builds
    are refused with the same class and message.  The pairs that build
    are the 8 passing rows and the failing (7, SL2(3)), (23, SL2(3)) and
    (47, 2S4); (3, SL2(3)), (5, SL2(5)) and (9, SL2(5)) embed but have no
    split element of order d0."""
    built, unsplit = set(), set()
    for q in range(2, 512):
        if _prime_power(q) is None:
            continue
        spec = make_field(*_prime_power(q))
        for kind in EXCEPTIONAL_KINDS:
            got = _build(spec, kind, build_standard_lattice)
            want = _build(spec, kind, mat2_eigen_aligned_lattice)
            if isinstance(want, Exception):
                assert type(got) is type(want), (q, kind)
                assert str(got) == str(want), (q, kind)
                if str(want).startswith("no split element"):
                    unsplit.add((q, kind))
                continue
            assert lubotzky_check(got) == mat2_lubotzky_check(*want), (q, kind)
            built.add((q, kind))
    passing = set().union(*map(_exceptional_rows, (5, 7, 11, 19, 23, 29, 59)))
    assert built == {(q, kind) for q, kind, _ in passing} | {
        (7, "SL2(3)"), (23, "SL2(3)"), (47, "2S4")}
    assert len(passing) == 8
    assert unsplit == {(3, "SL2(3)"), (5, "SL2(5)"), (9, "SL2(5)")}


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_check_matches_the_mat2_oracle_off_the_standard_pairs(p, a):
    """On the standard pairs the b = 0 and c = 0 parts of A1 have the same
    size; on the upper and lower Borel subgroups, the upper unipotent
    group, the diagonal torus and all of SL2(F_q) they do not, and the
    code reading still gives the oracle's report on (A1, delta A1
    delta^-1)."""
    spec = make_field(p, a)
    shapes = (lambda g: True, lambda g: not g[2], lambda g: not g[1],
              lambda g: not g[2] and g[0] == g[3] == 1,
              lambda g: not g[1] and not g[2])
    for shape in shapes:
        a1 = FiniteGroup(spec, filter(shape, sl2_codes(spec)))
        m1, m2 = mat2_pair(a1)
        assert lubotzky_check(a1) == mat2_lubotzky_check(m1, m2)


@pytest.mark.parametrize("q,p,a", [(2, 2, 1), (3, 3, 1), (4, 2, 2),
                                   (5, 5, 1), (7, 7, 1), (9, 3, 2)])
def test_sl2_elements_keeps_its_order(q, p, a):
    spec = make_field(p, a)
    assert list(sl2_elements(spec)) == list(mat2_sl2_elements(spec))


@pytest.mark.parametrize("q,kind", [
    (3, "torus_normalizer"), (7, "torus_normalizer"), (7, "SL2(3)"),
    (7, "2S4"), (8, "cyclic_p2"), (9, "torus_normalizer"),
    (11, "torus_normalizer"), (11, "SL2(3)"), (11, "SL2(5)"),
    (59, "torus_normalizer"), (59, "SL2(5)")])
def test_builds_make_no_mat2_products(monkeypatch, q, kind):
    """The build and the check run on code tuples alone: with the Mat2 and
    LaurentPoly constructors patched to raise, both still run."""
    spec = make_field(*FIELDS[q])
    want = lubotzky_check(build_standard_lattice(spec, kind))

    def refuse(*args):
        raise AssertionError("a Laurent object was built")
    monkeypatch.setattr(Mat2, "__init__", refuse)
    monkeypatch.setattr(LaurentPoly, "__init__", refuse)
    assert lubotzky_check(build_standard_lattice(spec, kind)) == want


def test_exceptional_sweep_gives_the_table(builds, reports):
    """Build each exceptional kind at every odd prime power q < 128, run
    lubotzky_check, and keep the pairs that pass: their (q, kind, |A0|)
    are the exceptional rows classify derives from arithmetic, no more
    and no less.

    This is exhaustive.  A pair passes only if A1 acts transitively on the
    q+1 neighbors of x1, so q+1 divides |A1|, which is 24, 48 or 120.
    The odd prime powers with that property are 3, 5, 7, 9, 11, 19, 23,
    29, 47 and 59, all below 128, and above them classify has no
    exceptional row: none at any odd prime power 128 <= q < 10^4, and at
    q = 3^40 and 3^41 it returns the generic rows alone.  One copy of each
    type is built, the one find_subgroup_of_type builds from a trace
    triple; test_every_trace_copy_gives_the_scan_copys_report checks that
    other copies give the same reports.  The pgl rows have no builder, so
    only the psl rows are checked here.
    """
    odd = [q for q in FIELDS if q % 2]
    built = {(q, kind) for q in odd for kind in EXCEPTIONAL_KINDS
             if (q, kind) in reports}
    assert {q for q, _ in built} <= {3, 5, 7, 9, 11, 19, 23, 29, 47, 59}
    passing = {(q, kind, reports[q, kind]["intersection_order"])
               for q, kind in built if reports[q, kind]["passes"]}
    table = set().union(*map(_exceptional_rows, odd))
    assert passing == table
    for key in ((7, "SL2(3)"), (23, "SL2(3)"), (47, "2S4")):
        assert key in built and not reports[key]["passes"], key
    big = [(p, p ** a) for p in range(3, 10 ** 4, 2) if is_prime(p)
           for a in range(1, 9) if 128 <= p ** a < 10 ** 4]
    assert len(big) == 1230
    assert not any(r["exceptional"] for p, q in big
                   for r in classify(p, q, "psl", 2))
    for a, cases in ((40, []), (41, ["psl-q3mod4-normalizer"])):
        rows = classify(3, 3 ** a, "psl", 2)
        assert [r["case"] for r in rows] == cases


ALIGNED_CASES = [(q, kind) for q in sorted(FIELDS) if q % 2 and q <= 64
                 for kind in EXCEPTIONAL_KINDS
                 if SUBGROUP_TARGETS[kind][0] % (q + 1) == 0]


@pytest.mark.parametrize("q,kind", ALIGNED_CASES)
def test_every_trace_copy_gives_the_scan_copys_report(q, kind):
    """At every odd q <= 64 where q+1 divides the kind's order, so that
    build_standard_lattice gets to align a copy: each copy from the trace
    triples (every root tau, the first three a, both roots b) has the
    kind's order, and aligned as build_standard_lattice aligns, gives the
    lubotzky_check report (or the refusal) of the scan oracle's copy."""
    spec = make_field(*FIELDS[q])
    want = scan_find_subgroup_of_type(spec, kind)
    copies = trace_copies(spec, kind)
    assert (want is None) == (copies == [])
    report = aligned_report(spec, kind, want)
    for h in copies:
        assert h.order == SUBGROUP_TARGETS[kind][0], h.gens
        assert aligned_report(spec, kind, h) == report, h.gens


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_min_covolume_by_construction(reports, q):
    """min_covolume of the psl input with z = gcd(2, q-1) is the least
    covolume of the passing generic pairs (cyclic_p2, torus_normalizer),
    with delta0 1; failing those, the least of the passing exceptional
    pairs, with delta0 None; with no passing pair it is undefined.  The
    exceptional pairs do not count where a generic one passes: at q = 11
    the answer is 1/12, not SL2(5)'s 1/60."""
    rows = classify(*_psl_input(q))

    def least(kinds):
        covs = [reports[q, k]["covolume"] for k in kinds
                if (q, k) in reports and reports[q, k]["passes"]]
        return min(covs, key=Fraction) if covs else None
    generic, exceptional = least(GENERIC_KINDS), least(EXCEPTIONAL_KINDS)
    if generic is not None:
        assert min_covolume(rows) == (generic, 1)
    elif exceptional is not None:
        assert min_covolume(rows) == (exceptional, None)
    else:
        with pytest.raises(MinUndefined):
            min_covolume(rows)
    if q == 11:
        assert min_covolume(rows) == ("1/12", 1)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_min_covolume_is_the_least_row_by_fraction(q):
    """At every prime power q < 128, for every input classify accepts (both
    levis, z in 1..4, every admissible setting of the four center flags),
    min_covolume gives the covolume and delta0 of the first generic
    classify row whose covolume, read as a Fraction, is least; of the
    first least row of all when only exceptional rows exist; and raises
    MinUndefined when there is no row.  The text cannot be ordered as
    text: min("1/12", "1/60") is "1/12".  The formula min_covolume meets,
    2/((q+1)|Z| delta0), holds for each generic row, not just the least:
    a row is a lattice with vertex groups of order (q+1)|A0|, and delta0
    is |A0| / |Z|."""
    accepted = 0
    for levi, z, flags in itertools.product(
            ("psl", "pgl"), range(1, 5),
            itertools.product((None, True, False), repeat=4)):
        inp = (FIELDS[q][0], q, levi, z, *flags)
        try:
            rows = classify(*inp)
        except InvalidInput:
            continue
        accepted += 1
        for r in rows:
            if not r["exceptional"]:
                assert Fraction(r["covolume"]) == Fraction(
                    2, (q + 1) * z * r["delta0"]), r
        if not rows:
            with pytest.raises(MinUndefined):
                min_covolume(rows)
            continue
        best = min([r for r in rows if not r["exceptional"]] or rows,
                   key=lambda r: Fraction(r["covolume"]))
        assert min_covolume(rows) == (best["covolume"], best["delta0"]), inp
    assert accepted >= 8  # psl at each z, and pgl at each z


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_classify_rows_are_the_passing_pairs(reports, q):
    """The multiset of (a0_order, covolume) over the classify rows of the
    psl input equals the multiset of (|A1 cap A2|, covolume) over the
    standard pairs at q that pass lubotzky_check."""
    rows = Counter((r["a0_order"], r["covolume"])
                   for r in classify(*_psl_input(q)))
    pairs = Counter((rep["intersection_order"], rep["covolume"])
                    for (q2, _), rep in reports.items()
                    if q2 == q and rep["passes"])
    assert rows == pairs


def test_exceptional_rows_name_the_built_group(builds, reports):
    """For each exceptional pair that passes, recognize(A1) names the
    vertex_type of its classify row (the row calls the binary octahedral
    group 2S4).  One copy of each type is built, from a trace triple, and
    the pgl rows have no builder, so this checks the psl rows against that
    one copy."""
    names = {"2S4": "BinaryOctahedral"}
    checked = 0
    for (q, kind), rep in sorted(reports.items()):
        if kind not in EXCEPTIONAL_KINDS or not rep["passes"]:
            continue
        row, = [r for r in classify(*_psl_input(q))
                if r["case"] == "exceptional-%s" % kind]
        assert str(recognize(builds[q, kind])) == names.get(
            row["vertex_type"], row["vertex_type"]), (q, kind)
        checked += 1
    assert checked == sum(len(_exceptional_rows(q)) for q in FIELDS)


def test_char2_rows_name_the_built_torus(builds):
    """At every q = 2^a < 128 the char-2 classify row's vertex type names
    C_n times the center with n the order of the cyclic_p2 pair's A1, the
    nonsplit torus of order q + 1."""
    evens = [q for q in FIELDS if q % 2 == 0]
    for q in evens:
        row, = classify(2, q, "psl", 1)
        assert row["vertex_type"] == "cyclic C_%d times center" % (
            builds[q, "cyclic_p2"].order), q
    assert len(evens) == 6


@pytest.mark.parametrize("q", [q for q in sorted(FIELDS) if q % 2 and q <= 64])
def test_dickson_sl2_exceptional_rows_are_the_found_subgroups(q):
    """At every odd prime power q <= 64, dickson_table(spec, "sl2") lists
    SL2(3), SL2(5) and 2S4 exactly when find_subgroup_of_type finds a
    subgroup of that type.  For each type the table leaves out, some
    element order of the type's profile is missing from SL2(F_q)."""
    spec = make_field(*FIELDS[q])
    rows = {(r["type"], r["order"]) for r in dickson_table(spec, "sl2")}
    for kind in EXCEPTIONAL_KINDS:
        order, profile = SUBGROUP_TARGETS[kind][:2]
        found = find_subgroup_of_type(spec, kind)
        assert ((kind, order) in rows) == (found is not None), kind
        if found is None:
            assert not all(order_available(spec, d) for d in profile), kind
        else:
            assert found.order == order, kind


# the dickson_table types that name a sporadic group with no witness; every
# other row of the sl2 table has one in _dickson_witnesses
SPORADIC_TYPES = {"A4", "S4", "A5"}


def _dickson_witnesses(spec):
    """Row type -> generators, as code 4-tuples, of a subgroup of SL2(F_q)
    of that shape, for the rows of dickson_table(spec, "sl2") that are not
    sporadic.  At p = 2 the table gives the psl2 rows, so the dihedral and
    subfield rows carry PSL2/PGL2 names.  SL2(3), SL2(5) and 2S4 are the
    copies find_subgroup_of_type builds, where it builds one."""
    q, p, a = spec.q, spec.p, spec.a
    mul, neg, inv = spec._tables()[1:]
    fmul = lambda x, y: mul[x][y]
    g = next(x for x in range(1, q) if order_of(x, 1, fmul) == q - 1)
    split = (g, 0, 0, inv[g])  # diag(g, g^-1)
    t0 = nonsplit_torus(spec).gens[0]
    out = {"Cyclic(%d)" % (q - 1): [split],
           "Cyclic(%d)" % (q + 1): [t0],
           "ElementaryAbelian(%d)" % q: [(1, p ** i, 0, 1) for i in range(a)],
           "BorelFrobenius": [split, (1, 1, 0, 1)]}
    if p == 2:
        c1 = spec.ext_modulus()[1]
        out["Dihedral(%d)" % (2 * (q - 1))] = [split, (0, 1, 1, 0)]
        out["Dihedral(%d)" % (2 * (q + 1))] = [t0, (1, c1, 0, 1)]
    else:
        out["Dicyclic(%d)" % (2 * (q - 1))] = [split, (0, 1, neg[1], 0)]
        out["Dicyclic(%d)" % (2 * (q + 1))] = list(
            torus_normalizer(spec).gens)
    for kind in EXCEPTIONAL_KINDS:
        found = find_subgroup_of_type(spec, kind)
        if found is not None:
            out[kind] = list(found.gens)
    for b in range(1, a):
        if a % b == 0:
            unipotents = _subfield_unipotents(spec, b)
            for name in ("SL2", "PSL2", "PGL2"):
                out["%s(%d)" % (name, p ** b)] = unipotents
    return out


def _subfield_unipotents(spec, b):
    """u(x) and its transpose for x in F_{p^b}, which generate SL2(p^b)."""
    mul = spec._tables()[1]
    sub = [x for x in range(spec.q)
           if code_pow(lambda u, v: mul[u][v], x, spec.p ** b) == x]
    return [(1, x, 0, 1) for x in sub] + [(1, 0, x, 1) for x in sub]


def _borel_order(spec, t, prod):
    """|B| = |T| |U| for B = <t, u(1)> under prod, t = diag(t0, t3): T is
    the image of B on the diagonal, <t>, and U = B cap {u(x)} is the
    additive group spanned by the conjugates u(s^k) of u(1), s = t0/t3."""
    add, mul, _, inv = spec._tables()
    s = mul[t[0]][inv[t[3]]]
    powers = generate(1, [s], lambda x, y: mul[x][y], spec.q)
    span = generate(0, sorted(powers), lambda x, y: add[x][y], spec.q)
    return order_of(t, CODE_ONE, prod) * len(span)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_dickson_sl2_rows_have_witnesses_of_their_order(q):
    """At every prime power q < 128, each row of dickson_table(spec, "sl2")
    that is not sporadic is the order of a subgroup of SL2(F_q): the
    closure of its witness has exactly the row's order.  Above q = 64 the
    Borel's order is checked by the formula |T| |U| of _borel_order, not
    by a closure of q(q - 1) elements.  SL2(3), SL2(5) and 2S4 are listed
    exactly where find_subgroup_of_type builds them, and for each one it
    does not build, some element order of the type's profile is missing
    from SL2(F_q)."""
    spec = make_field(*FIELDS[q])
    witnesses = _dickson_witnesses(spec)
    rows = dickson_table(spec, "sl2")
    listed = {(row["type"], row["order"]) for row in rows}
    for kind in EXCEPTIONAL_KINDS:
        order, profile = SUBGROUP_TARGETS[kind][:2]
        assert ((kind, order) in listed) == (kind in witnesses), kind
        if kind not in witnesses:
            assert not all(order_available(spec, d) for d in profile), kind
    prod = code_mul(spec)
    checked = 0
    for row in rows:
        if row["type"] not in witnesses:
            assert row["type"] in SPORADIC_TYPES, row["type"]
            continue
        gens = witnesses[row["type"]]
        if row["type"] == "BorelFrobenius" and q > 64:
            assert _borel_order(spec, gens[0], prod) == row["order"]
        else:
            group = generate(CODE_ONE, gens, prod, q ** 3)
            assert len(group) == row["order"], row["type"]
        checked += 1
    assert checked >= 6


def _orbit_of_infinity(spec, gens):
    """The orbit of infinity on P^1(F_q) under the group gens generate, by
    breadth first images under gens: the point (x : 1) is the code x, and
    infinity, (1 : 0), is q."""
    q = spec.q
    add, mul, _, inv = spec._tables()

    def image(point, g):
        a, b, c, d = g
        x, y = (1, 0) if point == q else (point, 1)
        u, v = add[mul[a][x]][mul[b][y]], add[mul[c][x]][mul[d][y]]
        return q if v == 0 else mul[u][inv[v]]
    return generate(q, gens, image, q + 1)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_transitive_dickson_rows_are_the_psl_classification(q):
    """At every prime power q < 128, the rows of dickson_table(spec, "sl2")
    whose witness is transitive on P^1(F_q), the q + 1 neighbours of a
    vertex, with a point stabilizer of order prime to p, are classify's psl
    rows at z = gcd(2, q - 1): as multisets, (|H| / (q + 1), 2 / |H|) is
    (a0_order, covolume).  This is Lubotzky's condition on A1 (Lattices of
    minimal covolume in SL2, 1990), with A1 cap A2 the point stabilizer.
    A row whose order is not q + 1 times a number prime to p fails by
    arithmetic and needs no witness, as A4 and A5 at q = 4, 16 and 64.

    The listed rows are enough, since every subgroup of SL2(F_q) lies in
    one of them, or, at q = p^(2b), in the overgroup <SL2(p^b), diag(l,
    1/l)> the table leaves out, which keeps the subline P^1(F_{p^b}) as
    SL2(p^b) does.  A subgroup of a group that is not transitive is not
    transitive.  For odd q, q + 1 is even, so a transitive H has even
    order and contains -I, the one involution of SL2(F_q), which acts
    trivially: |H| >= 2(q + 1).  In Dicyclic(2(q + 1)) only the whole row
    is that large, and the other generic rows are smaller or fix a point
    or a subline.  The proper subgroups of SL2(3), 2S4 and SL2(5) of such
    an order are Dicyclic(2(q + 1)) (Q8 at q = 3, Dic12 at 5, Q16 at 7,
    Dic20 at 9) or SL2(3), both rows, and one GL2(F_q) class each.  For
    even q the stabilizer is odd, and the subgroups of order q + 1 times
    an odd number are the Cyclic(q + 1) row: C5 in A5 at q = 4 too."""
    spec = make_field(*FIELDS[q])
    p = FIELDS[q][0]
    witnesses = _dickson_witnesses(spec)
    found = Counter()
    for row in dickson_table(spec, "sl2"):
        stabilizer, rest = divmod(row["order"], q + 1)
        if rest or stabilizer % p == 0:
            continue
        if len(_orbit_of_infinity(spec, witnesses[row["type"]])) == q + 1:
            found[stabilizer, Fraction(2, row["order"])] += 1
    assert found == Counter((r["a0_order"], Fraction(r["covolume"]))
                            for r in classify(*_psl_input(q)))


@pytest.mark.parametrize("ambient", ["psl2", "sl2", "pgl2"])
@pytest.mark.parametrize("q", sorted(FIELDS))
def test_dickson_type_names_carry_their_order(q, ambient):
    """At every prime power q < 128, in each ambient, a row whose type
    names its order (Cyclic(n), Dihedral(n), Dicyclic(n),
    ElementaryAbelian(n)) has order n."""
    named = 0
    for row in dickson_table(make_field(*FIELDS[q]), ambient):
        family, _, rest = row["type"].partition("(")
        if family in ("Cyclic", "Dihedral", "Dicyclic", "ElementaryAbelian"):
            assert rest.endswith(")") and int(rest[:-1]) == row["order"], row
            named += 1
    assert named >= 5


@pytest.mark.parametrize("q", [q for q in sorted(FIELDS)
                               if FIELDS[q][1] > 1])
def test_dickson_psl2_subfield_rows_are_images_of_sl2_witnesses(q):
    """At every prime power q = p^a < 128 with a > 1, each PSL2(p^b) row of
    the psl2 and pgl2 tables has the order |H| / |H cap {I, -I}| of the
    image mod +-I of H = SL2(p^b), the closure of the unipotents over
    F_{p^b} inside SL2(F_q)."""
    spec = make_field(*FIELDS[q])
    p, a = FIELDS[q]
    prod = code_mul(spec)
    minus_one = spec._tables()[2][1]
    center = {CODE_ONE, (minus_one, 0, 0, minus_one)}
    checked = 0
    for b in range(1, a):
        if a % b:
            continue
        h = generate(CODE_ONE, _subfield_unipotents(spec, b), prod, q ** 3)
        for ambient in ("psl2", "pgl2"):
            rows = [r for r in dickson_table(spec, ambient)
                    if r["type"] == "PSL2(%d)" % p ** b]
            assert len(rows) == 1, (ambient, b)
            assert rows[0]["order"] == len(h) // len(h & center), (ambient, b)
            checked += 1
    assert checked >= 2


# the pgl2 row type that no kmlat builder makes: an S4 whose elements of
# order 4 lie outside PSL2(q) (q = 3, 5 mod 8), built here only by
# test_dickson_pgl2_s4_row_is_a_triangle_group; every other psl2 and pgl2
# row at odd q has a witness in _projective_witnesses
NO_BUILDER = {"S4-outside-psl"}


def _projective_product(spec):
    """The product of GL2(F_q) modulo scalars, on code 4-tuples: each
    product is scaled so that its first nonzero entry is 1."""
    _, mul, _, inv = spec._tables()
    prod = code_mul(spec)

    def pmul(x, y):
        z = prod(x, y)
        s = inv[next(e for e in z if e)]
        return tuple(mul[s][e] for e in z)
    return pmul


def _projective_witnesses(spec, ambient):
    """Row type -> generators in GL2(F_q), as code 4-tuples, for the rows
    of dickson_table(spec, ambient) at odd q that have a builder; their
    images modulo scalars have the row's shape.  psl2 takes the sl2
    witnesses, whose images mod {I, -I} halve every order of an even
    subgroup; PGL2(p^b) is <SL2(p^b), diag(l, 1/l)> with l^2 a generator
    of F_{p^b}*.  pgl2 takes diag(g, 1), g a generator of F_q*, for the
    split torus, the generator of F_{q^2}* for the nonsplit one, the
    antidiagonal or the Frobenius [[1, -c1], [0, -1]] of F_{q^2} for their
    normalizers, and diag(g_b, 1) with SL2(p^b) for PGL2(p^b)."""
    q, p, a = spec.q, spec.p, spec.a
    mul, neg, inv = spec._tables()[1:]
    fmul = lambda x, y: mul[x][y]
    sl2 = _dickson_witnesses(spec)
    g = sl2["Cyclic(%d)" % (q - 1)][0][0]
    if ambient == "psl2":
        out = {"Cyclic(%d)" % ((q - 1) // 2): sl2["Cyclic(%d)" % (q - 1)],
               "Cyclic(%d)" % ((q + 1) // 2): sl2["Cyclic(%d)" % (q + 1)],
               "BorelFrobenius": sl2["BorelFrobenius"],
               "Dihedral(%d)" % (q - 1): sl2["Dicyclic(%d)" % (2 * (q - 1))],
               "Dihedral(%d)" % (q + 1): sl2["Dicyclic(%d)" % (2 * (q + 1))]}
    else:
        split = (g, 0, 0, 1)
        z = mult_matrix(spec, ext_primitive_element(spec))
        frob = (1, neg[spec.ext_modulus()[1]], 0, neg[1])
        out = {"Cyclic(%d)" % (q - 1): [split], "Cyclic(%d)" % (q + 1): [z],
               "Frobenius": [split, (1, 1, 0, 1)],
               "Dihedral(%d)" % (2 * (q - 1)): [split, (0, 1, 1, 0)],
               "Dihedral(%d)" % (2 * (q + 1)): [z, frob]}
    out["ElementaryAbelian(%d)" % q] = sl2["ElementaryAbelian(%d)" % q]
    for kind, image in (("SL2(3)", "A4"), ("2S4", "S4"), ("SL2(5)", "A5")):
        if kind in sl2:
            out[image] = sl2[kind]
    for b in range(1, a):
        if a % b:
            continue
        qb = p ** b
        gb = code_pow(fmul, g, (q - 1) // (qb - 1))
        out["PSL2(%d)" % qb] = sl2["SL2(%d)" % qb]
        if ambient == "pgl2":
            out["PGL2(%d)" % qb] = sl2["SL2(%d)" % qb] + [(gb, 0, 0, 1)]
        elif a % (2 * b) == 0:
            lam = code_pow(fmul, g, (q - 1) // (2 * (qb - 1)))
            assert fmul(lam, lam) == gb
            out["PGL2(%d)" % qb] = sl2["SL2(%d)" % qb] + [
                (lam, 0, 0, inv[lam])]
    return out


@pytest.mark.parametrize("ambient", ["psl2", "pgl2"])
@pytest.mark.parametrize("q", [q for q in sorted(FIELDS) if q % 2])
def test_dickson_projective_rows_have_witnesses_of_their_order(q, ambient):
    """At every odd prime power q < 128, each row of dickson_table(spec,
    ambient), ambient psl2 or pgl2, that has a builder is the order of a
    subgroup of PGL2(F_q): the closure of its witness modulo scalars has
    exactly the row's order, and div_q_plus_1 says whether q + 1 divides
    it.  Above q = 64 the Borel's order is checked by the formula |T| |U|
    of _borel_order.  The witnesses name exactly the listed rows, so S4
    and A5 are listed exactly where find_subgroup_of_type builds 2S4 and
    SL2(5), and pgl2 lists an S4 outside PSL2(q) exactly where it builds
    no 2S4."""
    spec = make_field(*FIELDS[q])
    witnesses = _projective_witnesses(spec, ambient)
    rows = dickson_table(spec, ambient)
    listed = {row["type"] for row in rows}
    assert set(witnesses) == listed - NO_BUILDER
    assert ("S4-outside-psl" in listed) == (
        ambient == "pgl2" and "S4" not in witnesses)
    prod = _projective_product(spec)
    checked = 0
    for row in rows:
        if row["type"] in NO_BUILDER:
            continue
        gens = witnesses[row["type"]]
        if row["type"] in ("BorelFrobenius", "Frobenius") and q > 64:
            order = _borel_order(spec, gens[0], prod)
        else:
            order = len(generate(CODE_ONE, gens, prod, q ** 3))
        assert row["order"] == order, row["type"]
        assert row["div_q_plus_1"] == (order % (q + 1) == 0), row["type"]
        checked += 1
    assert checked == len(rows) - len(listed & NO_BUILDER) >= 7


@pytest.mark.parametrize("q", [q for q in sorted(FIELDS) if q % 2])
def test_dickson_pgl2_s4_row_is_a_triangle_group(q):
    """At every odd prime power q < 128, PGL2(F_q) has an S4, the (2, 3, 4)
    triangle group <x, y> with x = [[1, 1], [-1, 1]] of projective order
    4 (tr^2 / det = 2), y of order 3 (tr y = det y = 1) and xy of order 2
    (tr xy = 0), modulo scalars.  It lies in PSL2(F_q) exactly when
    det x = 2 is a square, and the pgl2 table names its S4 row so: "S4"
    inside PSL2(q) and "S4-outside-psl" outside."""
    spec = make_field(*FIELDS[q])
    add, mul, neg, _ = spec._tables()
    x = (1, 1, neg[1], 1)
    # y = [[a, b], [b - 1, 1 - a]]: tr xy = 0, and det y = 1 reads
    # a^2 - a + b^2 - b + 1 = 0
    a, b = next((a, b) for a in range(q) for b in range(q)
                if add[add[mul[a][a]][neg[a]]][add[add[mul[b][b]][neg[b]]]
                                                [1]] == 0)
    y = (a, b, add[b][neg[1]], add[1][neg[a]])
    prod = _projective_product(spec)
    assert len(generate(CODE_ONE, [x, y], prod, q ** 3)) == 24
    inside = add[1][1] in {mul[s][s] for s in range(1, q)}
    s4 = [(row["type"], row["order"]) for row in dickson_table(spec, "pgl2")
          if row["type"].startswith("S4")]
    assert s4 == [("S4" if inside else "S4-outside-psl", 24)]
