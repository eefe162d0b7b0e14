"""Laurent polynomial ring over F_q."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from kmlat.errors import DegreeWindowExceeded
from kmlat.gf import make_field
from kmlat.laurent import LaurentPoly, parse_laurent

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def poly_strategy(spec, max_terms=4, degree_span=6):
    pairs = st.tuples(st.integers(-degree_span, degree_span),
                      st.integers(0, spec.q - 1))
    return st.lists(pairs, max_size=max_terms).map(
        lambda ps: LaurentPoly(spec, {d: spec.element(c) for d, c in ps}))


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


def test_t_and_pi_conventions():
    t = LaurentPoly.t(F2)
    pi = LaurentPoly.pi(F2)
    assert t.valuation() == -1
    assert pi.valuation() == 1
    assert t * pi == LaurentPoly.one(F2)


def test_degree_window():
    with pytest.raises(DegreeWindowExceeded):
        LaurentPoly.monomial(F2, 65)
    with pytest.raises(DegreeWindowExceeded):
        LaurentPoly.monomial(F2, -65)


def test_str_and_parse():
    x = LaurentPoly(F3, {-2: F3.element(2), 0: F3.one, 3: F3.one})
    assert str(x) == "2*t^2+1+t^-3"
    assert parse_laurent(F3, str(x)) == x
    assert parse_laurent(F3, "0") == LaurentPoly.zero(F3)
    assert parse_laurent(F3, "t") == LaurentPoly.t(F3)
    assert parse_laurent(F3, "1+t^-1") == LaurentPoly(
        F3, {0: F3.one, 1: F3.one})


@given(x=poly_strategy(F3))
@settings(max_examples=100, deadline=None)
def test_parse_roundtrip(x):
    assert parse_laurent(F3, str(x)) == x
