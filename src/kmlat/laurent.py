"""Exact Laurent polynomials in the uniformizer pi = t^(-1) over F_q.

A LaurentPoly stores {pi-degree: nonzero F_q code}, the integer codes of
gf.FieldSpec, and does its arithmetic through the field's code tables.
No command builds a FieldElement: only scale still takes one, and only
the tracer names it.  The variable t of the ambient field F_q((t^-1)) has
pi-degree -1, so v(t) = -1 and v(pi) = 1.  Degrees are capped at
+-DEGREE_WINDOW; leaving the window raises instead of silently
truncating.
"""

import math

from .errors import DegreeWindowExceeded, InvalidInput, SpecMismatch
from .gf import parse_code

DEGREE_WINDOW = 64


class LaurentPoly:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        """coeffs: dict {pi_degree: code in 0..q-1}; zeros are dropped."""
        self.spec = spec
        clean = {d: c for d, c in coeffs.items() if c}
        for d in clean:
            if abs(d) > DEGREE_WINDOW:
                raise DegreeWindowExceeded("pi-degree %d outside window" % d)
        self.coeffs = clean

    @classmethod
    def zero(cls, spec):
        return cls(spec, {})

    @classmethod
    def monomial(cls, spec, degree):
        return cls(spec, {degree: 1})

    @classmethod
    def one(cls, spec):
        return cls(spec, {0: 1})

    @classmethod
    def pi(cls, spec):
        return cls.monomial(spec, 1)

    def _check(self, other):
        if self.spec is not other.spec:
            raise SpecMismatch("Laurent polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        add = self.spec._tables()[0]
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = add[out.get(d, 0)][c]
        return LaurentPoly(self.spec, out)

    def __neg__(self):
        neg = self.spec._tables()[2]
        return LaurentPoly(self.spec,
                           {d: neg[c] for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        add, mul, _, _ = self.spec._tables()
        out = {}
        for d1, c1 in self.coeffs.items():
            row = mul[c1]
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                out[d] = add[out.get(d, 0)][row[c2]]
        return LaurentPoly(self.spec, out)

    # no command calls this; perfbench/tracer.py patches it by name
    def scale(self, fe):
        self._check(fe)
        row = self.spec._tables()[1][fe.code]
        return LaurentPoly(self.spec,
                           {d: row[c] for d, c in self.coeffs.items()})

    def valuation(self):
        if not self.coeffs:
            return math.inf
        return min(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def is_monomial(self):
        return len(self.coeffs) == 1

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.spec is other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        # render in descending t-degree, i.e. ascending pi-degree
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            tdeg = -d
            if tdeg == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else "%d*" % c
                exp = "t" if tdeg == 1 else "t^%d" % tdeg
                parts.append(head + exp)
        return "+".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % str(self)


def parse_laurent(spec, text):
    """Parse entries like "t", "1+t^-1", "2*t^2+1".  Coefficients are codes
    in 0..q-1; a malformed literal or another code is InvalidInput.

    A term is [c[*]][t[^e]], not empty, with c ASCII digits and e ASCII
    digits after an optional "-"; spaces are dropped first."""
    text = text.replace(" ", "")
    if not text:
        raise InvalidInput("empty Laurent literal")
    out = LaurentPoly.zero(spec)
    for term in text.split("+"):
        head, t, exp = term.partition("t")
        coeff, power = head.removesuffix("*"), exp[1:].removeprefix("-")
        if (not (head or t)
                or head and not (coeff.isascii() and coeff.isdigit())
                or exp and not (exp[0] == "^" and power.isascii()
                                and power.isdigit())):
            raise InvalidInput("bad Laurent term %r" % term)
        code = parse_code(coeff, spec.q) if coeff else 1
        try:
            tdeg = int(exp[1:]) if exp else 1 if t else 0
        except ValueError:  # past int()'s limit on digits
            raise InvalidInput("bad Laurent term %r" % term) from None
        out = out + LaurentPoly(spec, {-tdeg: code})
    return out
