"""Finite field arithmetic: axioms, extension fields, and norm-one tori."""

import pytest
from hypothesis import given, settings, strategies as st

import reference
from kmlat import gf
from kmlat.errors import (DivisionByZero, DegreeTooLarge, InvalidInput,
                          NonPrime)
from kmlat.gf import (Q_CAP, ExtElement, FieldSpec, _is_irreducible,
                      code_mul, is_prime, make_field, norm1_subgroup,
                      norm_codes, parse_code)
from kmlat.groups import nonsplit_torus, torus_normalizer
from oracles import (as_ext, digit_neg, ext_norm1_subgroup, ext_normalizer_s,
                     ext_one, ext_order, ext_primitive_element, ext_torus_t0,
                     long_division_is_irreducible, mult_matrix,
                     polynomial_tables, trial_division_is_prime)
from reference import tables_by_powers


FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5),
          make_field(3, 2), make_field(2, 3), make_field(5, 2)]


@pytest.mark.parametrize("q", [11, None], ids=["code", "depth"])
def test_parse_code_reads_ascii_digits_only(q):
    """int() would read each of these as a number; a code or depth takes
    ASCII digits alone, up to int()'s limit on digits."""
    assert parse_code("10", q) == 10
    assert parse_code("0", q) == 0
    if q is not None:  # q itself is not a code
        with pytest.raises(InvalidInput, match="'11' is not an integer in"):
            parse_code("11", q)
    else:
        assert parse_code("11") == 11
    for text in ("1_0", "\u0660", "\u0661\u0660", " 1", "1 ", "1\n", "+1",
                 "\uff11", "9" * 5000, ""):
        with pytest.raises(InvalidInput) as info:
            parse_code(text, q)
        assert repr(text) in str(info.value)

# the 43 prime powers q = p^a < 128, as (p, a)
BELOW_128 = [(p, a) for p in range(2, 128) if is_prime(p)
             for a in range(1, 8) if p ** a < 128]
# the 116 prime powers q = p^a <= Q_CAP, as (p, a)
UP_TO_CAP = [(p, a) for p in range(2, Q_CAP + 1) if is_prime(p)
             for a in range(1, 10) if p ** a <= Q_CAP]


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: s.short_str())
def test_field_axioms_exhaustive(spec):
    assert make_field(spec.p, spec.a) is spec
    elems = list(spec.elements())
    assert len(elems) == spec.q
    zero, one = spec.zero, spec.one
    for x in elems:
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        if x != zero:
            assert x * x.inverse() == one
    small = elems[: min(len(elems), 5)]
    for x in small:
        for y in small:
            assert x + y == y + x
            assert x * y == y * x
            for z in small:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("p,a", BELOW_128 + [(2, 8)])
def test_tables_match_the_polynomial_oracle(p, a):
    """The add table from base-p digits and the mul, neg and inv tables
    from the exp/log tables of a generator equal, list for list, the
    tables formed by multiplying and reducing every pair of polynomials:
    every prime power below 128, and 256."""
    spec = make_field(p, a)
    assert spec._tables() == polynomial_tables(spec)


@pytest.mark.parametrize("p,a", UP_TO_CAP)
def test_tables_match_the_tables_built_by_powers(p, a):
    """The rotated add rows and the gathered mul, neg and inv rows equal,
    list for list, the tables built one entry and one generator power at
    a time (tests/reference.py): every prime power q <= Q_CAP."""
    assert len(UP_TO_CAP) == 116
    spec = make_field(p, a)
    assert spec._tables() == tables_by_powers(spec)


@pytest.mark.parametrize("p,a", [(59, 1), (41, 1), (2, 5), (3, 3), (5, 2)])
def test_generator_search_takes_a_products_per_candidate(p, a, monkeypatch):
    """The generator search tries the codes 1..g, g the least code of
    order q-1, and fixes x -> x*c for each candidate c by the images of
    the a basis codes p^i: at most a polynomial products per candidate.
    Building the tables one power at a time takes one product per power,
    57 at q = 59 and 93 at q = 41, and fails this bound at every q here."""
    calls, product = [], gf._poly_mul

    def counted(u, v, p):
        calls.append((u, v))
        return product(u, v, p)
    spec = make_field(p, a)
    monkeypatch.setattr(gf, "_poly_mul", counted)
    monkeypatch.setattr(reference, "_poly_mul", counted)
    add, mul, _, _ = FieldSpec(p, a, spec.modulus)._tables()
    products, calls[:] = len(calls), []

    def order(x):
        k, y = 1, x
        while y != 1:
            y, k = mul[y][x], k + 1
        return k
    g = next(x for x in range(1, spec.q) if order(x) == spec.q - 1)
    assert products <= a * g
    tables_by_powers(spec)
    assert len(calls) > a * g


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: s.short_str())
def test_neg_and_inv_tables(spec):
    """The neg table (the mul row of -1) and the inv table agree with
    digit-wise negation and with x^(q-2) by square and multiply."""
    _, _, neg, inv = spec._tables()
    for x in spec.elements():
        assert neg[x.code] == digit_neg(x).code
        if not x.is_zero():
            assert inv[x.code] == (x ** (spec.q - 2)).code


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: s.short_str())
def test_frobenius_is_additive(spec):
    p = spec.p
    for x in spec.elements():
        for y in spec.elements():
            assert (x + y) ** p == x ** p + y ** p


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: s.short_str())
def test_multiplicative_group_order(spec):
    one = spec.one
    for x in spec.elements():
        if x != spec.zero:
            assert x ** (spec.q - 1) == one


@given(a=st.integers(0, 8), b=st.integers(0, 8), c=st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_distributivity_f9(a, b, c):
    spec = make_field(3, 2)
    x, y, z = spec.element(a), spec.element(b), spec.element(c)
    assert x * (y + z) == x * y + x * z


def test_division_by_zero():
    spec = make_field(3)
    with pytest.raises(DivisionByZero):
        spec.zero.inverse()


def test_constructor_limits():
    with pytest.raises(NonPrime):
        make_field(4)
    with pytest.raises(NonPrime):
        make_field(1)
    with pytest.raises(DegreeTooLarge):
        make_field(2, 9)
    # the degree is bounded before p^a is formed
    with pytest.raises(DegreeTooLarge):
        make_field(2, 10 ** 12)
    # a degree below 1 is not a field at all, not one over the cap
    for a in (0, -1):
        with pytest.raises(InvalidInput):
            make_field(3, a)


def test_f4_modulus():
    spec = make_field(2, 2)
    assert spec.modulus == (1, 1, 1)


def test_modulus_is_irreducible():
    for spec in (make_field(2, 2), make_field(3, 2), make_field(2, 3)):
        coeffs = spec.modulus
        base = make_field(spec.p)
        for r in base.elements():
            acc = base.zero
            for k, c in enumerate(coeffs):
                acc = acc + base.element(c) * r ** k
            assert acc != base.zero


def test_is_irreducible_matches_the_long_division_oracle():
    """The verdict on every monic candidate of degree a >= 1 with
    p^a <= Q_CAP, 24,898 of them, is the long-division oracle's; so every
    make_field modulus is unchanged."""
    cands = [(p, [(code // p ** i) % p for i in range(a)] + [1])
             for p in range(2, Q_CAP + 1) if is_prime(p)
             for a in range(1, 10) if p ** a <= Q_CAP
             for code in range(p ** a)]
    assert len(cands) == 24898
    for p, cand in cands:
        assert _is_irreducible(cand, p) == long_division_is_irreducible(
            cand, p), (p, cand)


def test_ext_modulus_has_no_roots():
    for spec in FIELDS:
        c0, c1 = map(spec.element, spec.ext_modulus())
        for x in spec.elements():
            assert x * x + c1 * x + c0 != spec.zero


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: s.short_str())
def test_ext_field_axioms(spec):
    one = ext_one(spec)
    zero = ExtElement(spec, spec.zero, spec.zero)
    samples = [ExtElement(spec, spec.element(i % spec.q),
                          spec.element(j % spec.q))
               for i in range(3) for j in range(3)]
    for z in samples:
        assert z * one == z
        assert z + zero == z
        for w in samples:
            assert z * w == w * z
            assert (z * w).norm() == z.norm() * w.norm()


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: s.short_str())
def test_norm1_subgroup_is_cyclic_of_order_q_plus_1(spec):
    sub = [as_ext(spec, z) for z in norm1_subgroup(spec)]
    q = spec.q
    assert len(sub) == q + 1
    one = ext_one(spec)
    for z in sub:
        assert z.norm() == spec.one
        acc = one
        for _ in range(q + 1):
            acc = acc * z
        assert acc == one
    # cyclic: some element has full order q+1
    assert max(ext_order(z) for z in sub) == q + 1


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: s.short_str())
def test_norm1_subgroup_matches_brute_force(spec):
    brute = [ExtElement(spec, spec.element(x), spec.element(y))
             for y in range(spec.q) for x in range(spec.q)]
    brute = [z for z in brute if not z.is_zero() and z.norm() == spec.one]
    assert [as_ext(spec, z) for z in norm1_subgroup(spec)] == brute


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: s.short_str())
def test_primitive_element_is_first_generator(spec):
    """The oracle behind ext_norm1_subgroup, ext_primitive_element, is the
    first element of order q^2 - 1 in (y, x) code order."""
    n = spec.q * spec.q - 1
    g = ext_primitive_element(spec)
    assert ext_order(g) == n
    earlier = [ExtElement(spec, spec.element(x), spec.element(y))
               for y in range(spec.q) for x in range(spec.q)
               if (y, x) < (g.y.code, g.x.code) and (x, y) != (0, 0)]
    assert all(ext_order(z) < n for z in earlier)


@pytest.mark.parametrize("p,a", BELOW_128 + [(3, 5), (2, 8), (7, 3),
                                              (509, 1)])
def test_ext_codes_match_the_ext_element_oracle(p, a):
    """The torus with its t0, and the normalizer's s, built on code
    4-tuples of F_q[C], are the multiplication matrices of the ExtElement
    oracle's: on every prime power q < 128, and at q = 243, 256, 343 and
    509.  The oracle's torus is the q+1 powers of g^(q-1), g a generator
    of F_{q^2}*, and its t0 the first of them of order q+1."""
    spec = make_field(p, a)
    torus = [mult_matrix(spec, z) for z in ext_norm1_subgroup(spec)]
    assert norm1_subgroup(spec) == torus
    t = nonsplit_torus(spec)
    assert t.elements == set(torus)
    assert t.gens == (mult_matrix(spec, ext_torus_t0(spec)),)
    if p != 2:
        n = torus_normalizer(spec)
        assert n.gens == (t.gens[0], ext_normalizer_s(spec))


def _determinant_brute_force(spec, n):
    """Every x*I + y*C of determinant n, by a scan of F_q[C] in (y, x)
    code order, C = [[0, -c0], [1, -c1]] the companion matrix."""
    add, mul, neg, _ = spec._tables()
    c0, c1 = spec.ext_modulus()
    brute = [(x, neg[mul[y][c0]], y, add[x][neg[mul[y][c1]]])
             for y in range(spec.q) for x in range(spec.q)]
    return [(x, b, y, d) for x, b, y, d in brute
            if add[mul[x][d]][neg[mul[b][y]]] == n]


@pytest.mark.parametrize("p,a", BELOW_128)
def test_norm1_subgroup_is_the_determinant_one_brute_force(p, a):
    """norm1_subgroup is every x*I + y*C with determinant 1, and
    norm_codes at -1 every one with determinant -1: q+1 of each, in (y, x)
    code order."""
    spec = make_field(p, a)
    minus_one = spec._tables()[2][1]
    assert norm1_subgroup(spec) == _determinant_brute_force(spec, 1)
    coset = norm_codes(spec, minus_one)
    assert coset == _determinant_brute_force(spec, minus_one)
    assert len(coset) == spec.q + 1


@pytest.mark.parametrize("p,a,n", [(p, a, n) for p, a in BELOW_128
                                   if p ** a <= 16 for n in range(1, p ** a)])
def test_norm_codes_is_the_determinant_brute_force(p, a, n):
    """At q <= 16, norm_codes solves N = n for every nonzero code n: the
    q+1 matrices x*I + y*C of determinant n, in (y, x) code order."""
    spec = make_field(p, a)
    got = norm_codes(spec, n)
    assert got == _determinant_brute_force(spec, n)
    assert len(got) == spec.q + 1


@pytest.mark.parametrize("p,a", UP_TO_CAP)
def test_torus_gens_and_normalizer_coset_at_every_q(p, a):
    """At every prime power q <= 511: t0 has order exactly q+1 (by
    ExtElement products), s*t0*s^-1 = t0^-1, and the normalizer has
    2(q+1) elements, T and the q+1 matrices w*F with N(w) = -1, F the
    Frobenius [[1, -c1], [0, -1]] (F*F = I).  F_{q^2}* has exactly q+1
    elements of norm -1, so q+1 distinct ones are all of them."""
    spec = make_field(p, a)
    t = nonsplit_torus(spec)
    t0, = t.gens
    assert ext_order(as_ext(spec, t0)) == spec.q + 1
    if p == 2:
        return
    n = torus_normalizer(spec)
    _, s = n.gens
    mul = code_mul(spec)
    assert mul(mul(s, t0), n.inv(s)) == n.inv(t0)
    assert n.order == 2 * (spec.q + 1) and t.elements <= n.elements
    neg = spec._tables()[2]
    frob = (1, neg[spec.ext_modulus()[1]], 0, neg[1])
    ws = [as_ext(spec, mul(m, frob)) for m in n.elements - t.elements]
    assert len(set(ws)) == spec.q + 1
    assert all(w.norm() == -spec.one for w in ws)


def test_element_rejects_codes_outside_the_field():
    """A code outside 0..q-1 is an error naming it and q, never reduced."""
    spec = make_field(3)
    assert spec.element(2).code == 2
    for code in (3, 7, -1):
        with pytest.raises(InvalidInput) as info:
            spec.element(code)
        assert str(info.value) == ("field code %d is not in 0..2 (q = 3)"
                                   % code)


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division_is_prime(n)]


def test_is_prime_on_large_numbers():
    """Strong pseudoprimes to the first 5, 6, 7, 8 and 9 prime bases are
    composite; 2^61 - 1 and the largest prime below 2^64 are prime."""
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(2 ** 61 - 1)
    assert is_prime(2 ** 64 - 59)
    assert not is_prime((2 ** 31 - 1) * (2 ** 31 - 1))
