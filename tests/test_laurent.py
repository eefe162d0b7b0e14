"""Laurent polynomial ring over F_q."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kmlat.errors import DegreeWindowExceeded, InvalidInput, KmlatError
from kmlat.gf import make_field
from kmlat.laurent import LaurentPoly, parse_laurent
from oracles import fe_coeffs, fe_laurent_add, fe_laurent_mul, fe_laurent_neg
from reference import parse_laurent_re

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
# F9 and F25 are odd and not prime: there -x is not the code q - x
ORACLE_FIELDS = [F2, F3, F4, make_field(3, 2), make_field(5, 2)]


def test_parse_laurent_reads_ascii_digits_only():
    """Coefficients and exponents take ASCII digits; "t^\u0663" is not read
    as t^3, and an exponent past int()'s limit on digits is InvalidInput."""
    assert parse_laurent(F3, "2*t^3+1") == LaurentPoly(F3, {-3: 2, 0: 1})
    for text in ("t^\u0663", "\u0662", "\u0662*t", "t^1_0", "1_0", "t^-\u0661",
                 "t^" + "9" * 5000):
        with pytest.raises(InvalidInput, match="bad Laurent term"):
            parse_laurent(F3, text)


# the edges of the term grammar [c[*]][t[^e]]: empty terms, a lone "*",
# "t" or "^", signs, repeats, other characters and digits, the degree
# window, a code past q - 1, and digit counts at int()'s limit of 4,300
EDGE_LITERALS = (
    "", " ", "+", "++", "1+", "+1", "1++t", "t", "2", "2*", "2t", "2*t",
    "*", "*t", "**t", "2**t", "2*t*", "t*", "t^", "t^-", "t^--1", "t^+1",
    "t^-0", "t^007", "t^-007", "tt", "t2", "t^2t", "t^1^2", "^2", "2^2",
    "-1", "-t", "t+t", "2*t+t", " 2 * t ^ - 3 ", "1 + t", "0", "0*t^99",
    "t^64", "t^-64", "t^65", "t^-65", "1+t^65+x", "t^65+x", "x", "2*x",
    "3", "99", "12*t", "t\t", "t^1_0", "1_0", "t^\u0663", "\u0662*t",
    "t^" + "9" * 4300, "t^-" + "0" * 4299 + "1", "t^" + "9" * 4301,
    "9" * 4301, "9" * 4301 + "*t", "t^" + "9" * 4301 + "+x")


def _outcome(parse, spec, text):
    try:
        return parse(spec, text).coeffs
    except KmlatError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("spec", [F2, F3, F4, make_field(3, 2)],
                         ids=lambda s: s.short_str())
def test_parse_laurent_equals_the_regex_parser(spec):
    """parse_laurent reads each term with str.partition; on the grammar's
    edges and on seeded random strings over its alphabet it accepts the
    same literals, with the same values, as the regular expression it
    replaced, and raises the same error with the same text otherwise."""
    rng = random.Random(spec.q)
    texts = list(EDGE_LITERALS) + [
        "".join(rng.choice("0123456789*t^-+ ") for _ in range(rng.randint(
            0, 10))) for _ in range(3000)]
    accepted = 0
    for text in texts:
        got = _outcome(parse_laurent, spec, text)
        assert got == _outcome(parse_laurent_re, spec, text), text
        accepted += isinstance(got, dict)
    assert accepted > 50  # the sample is not all rejections


def poly_strategy(spec, max_terms=4, degree_span=6):
    pairs = st.tuples(st.integers(-degree_span, degree_span),
                      st.integers(0, spec.q - 1))
    return st.lists(pairs, max_size=max_terms).map(
        lambda ps: LaurentPoly(spec, dict(ps)))


@given(x=poly_strategy(F3), y=poly_strategy(F3), z=poly_strategy(F3))
@settings(max_examples=150, deadline=None)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == LaurentPoly.zero(F3)
    assert x * LaurentPoly.one(F3) == x


@given(x=poly_strategy(F4), y=poly_strategy(F4))
@settings(max_examples=150, deadline=None)
def test_valuation_is_additive(x, y):
    v = (x * y).valuation()
    if x.is_zero() or y.is_zero():
        assert v == math.inf
    else:
        assert v == x.valuation() + y.valuation()


@given(x=poly_strategy(F3), y=poly_strategy(F3))
@settings(max_examples=150, deadline=None)
def test_valuation_of_sum(x, y):
    assert (x + y).valuation() >= min(x.valuation(), y.valuation())


@pytest.mark.parametrize("spec", ORACLE_FIELDS, ids=lambda s: s.short_str())
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_code_arithmetic_equals_field_element_oracle(spec, data):
    x, y = data.draw(poly_strategy(spec)), data.draw(poly_strategy(spec))
    fx, fy = fe_coeffs(x), fe_coeffs(y)
    assert fe_coeffs(x + y) == fe_laurent_add(fx, fy)
    assert fe_coeffs(-x) == fe_laurent_neg(fx)
    assert fe_coeffs(x - y) == fe_laurent_add(fx, fe_laurent_neg(fy))
    assert fe_coeffs(x * y) == fe_laurent_mul(fx, fy)


def test_t_and_pi_conventions():
    t = LaurentPoly.monomial(F2, -1)
    pi = LaurentPoly.pi(F2)
    assert t.valuation() == -1
    assert pi.valuation() == 1
    assert t * pi == LaurentPoly.one(F2)


def test_degree_window():
    """The window is closed: pi-degrees -64 and 64 are inside it."""
    edge = LaurentPoly(F2, {-64: 1, 64: 1})
    assert edge.valuation() == -64 and len(edge.coeffs) == 2
    with pytest.raises(DegreeWindowExceeded):
        LaurentPoly.monomial(F2, 65)
    with pytest.raises(DegreeWindowExceeded):
        LaurentPoly.monomial(F2, -65)


def test_str_and_parse():
    x = LaurentPoly(F3, {-2: 2, 0: 1, 3: 1})
    assert str(x) == "2*t^2+1+t^-3"
    assert parse_laurent(F3, str(x)) == x
    assert parse_laurent(F3, "0") == LaurentPoly.zero(F3)
    assert parse_laurent(F3, "t") == LaurentPoly.monomial(F3, -1)
    assert parse_laurent(F3, "1+t^-1") == LaurentPoly(F3, {0: 1, 1: 1})


@given(x=poly_strategy(F3))
@settings(max_examples=100, deadline=None)
def test_parse_roundtrip(x):
    assert parse_laurent(F3, str(x)) == x
