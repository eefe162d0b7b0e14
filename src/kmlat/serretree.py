"""The (q+1)-regular Bruhat-Tits tree for SL2 over F_q((t^-1)).

Vertices are homothety classes of O-lattices, represented by 2x2 matrices
with monomial determinant whose columns span a representative lattice
(O = F_q[[t^-1]], uniformizer pi = t^-1).  Distances come from elementary
divisors; equality of vertices is distance zero, so Vertex and Edge are
unhashable by design and are compared pair by pair.  The module also holds
the characteristic-two involution families and the dihedral obstruction
search over them.  Membership in the parahorics P1, P2 and B, the base
vertices and edge, and edge distance are reference code for the tests, in
tests/reference.py.
"""

from __future__ import annotations

import itertools

from .errors import (NonInvertible, OddCharacteristic, SizeCapExceeded,
                     SpecMismatch, WindowTooLarge, ZeroDeterminant)
from .laurent import LaurentPoly


class Mat2:
    __slots__ = ("spec", "a", "b", "c", "d", "_hash")

    def __init__(self, spec, a, b, c, d):
        self.spec = spec
        self.a, self.b, self.c, self.d = a, b, c, d
        self._hash = None

    # only sl2_elements calls this; perfbench/tracer.py patches that by name
    @classmethod
    def from_codes(cls, spec, a, b, c, d):
        """Constant matrix from field element codes."""
        return cls(spec, *(LaurentPoly(spec, {0: x}) for x in (a, b, c, d)))

    @classmethod
    def diag(cls, spec, x, y):
        zero = LaurentPoly.zero(spec)
        return cls(spec, x, zero, zero, y)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def mul(self, other):
        if self.spec is not other.spec:
            raise SpecMismatch("matrices over different fields")
        return Mat2(self.spec,
                    self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __mul__(self, other):
        return self.mul(other)

    def det(self):
        return self.a * self.d - self.b * self.c

    def inv(self):
        """Exact inverse; requires the determinant to be a unit times pi^k."""
        dt = self.det()
        if not dt.is_monomial():
            raise NonInvertible("determinant %s is not monomial" % dt)
        (deg, coeff), = dt.coeffs.items()
        dinv = LaurentPoly(self.spec, {-deg: self.spec._tables()[3][coeff]})
        return Mat2(self.spec, self.d * dinv, (-self.b) * dinv,
                    (-self.c) * dinv, self.a * dinv)

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.spec is other.spec
                and self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((hash(self.a), hash(self.b),
                               hash(self.c), hash(self.d)))
        return self._hash

    def __str__(self):
        return "%s,%s;%s,%s" % (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return "Mat2(%s)" % str(self)


def elementary_divisor_valuations(m):
    """(r, s) with r <= s: pi-valuations of the elementary divisors."""
    dt = m.det()
    if dt.is_zero():
        raise ZeroDeterminant("matrix is singular")
    r = min(e.valuation() for e in m.entries())
    s = dt.valuation() - r
    return (r, s)


class Vertex:
    """A tree vertex: the homothety class of the column span of rep."""

    __slots__ = ("rep",)
    __hash__ = None  # equality is geometric; no canonical form, no hash

    def __init__(self, rep):
        dt = rep.det()
        if not dt.is_monomial():
            raise NonInvertible("vertex representative must have monomial det")
        self.rep = rep

    @property
    def spec(self):
        return self.rep.spec

    def __eq__(self, other):
        return isinstance(other, Vertex) and vertex_distance(self, other) == 0

    def __repr__(self):
        return "Vertex(%s)" % self.rep


def vertex_distance(u, v):
    """Tree distance: s - r for the elementary divisors of rep_u^-1 rep_v."""
    if u.spec is not v.spec:
        raise SpecMismatch("vertices over different fields")
    r, s = elementary_divisor_valuations(u.rep.inv().mul(v.rep))
    return s - r


def neighbors(v):
    """The q+1 adjacent vertices, in deterministic order."""
    spec = v.spec
    out = []
    pi = LaurentPoly.pi(spec)
    one = LaurentPoly.one(spec)
    zero = LaurentPoly.zero(spec)
    for code in range(spec.q):
        n = Mat2(spec, pi, LaurentPoly(spec, {0: code}), zero, one)
        out.append(Vertex(v.rep.mul(n)))
    out.append(Vertex(v.rep.mul(Mat2.diag(spec, one, pi))))
    return out


# no command calls act; perfbench/tracer.py patches it by name
def act(g, x):
    """Left action of g on a Vertex or an Edge."""
    if isinstance(x, Edge):
        return Edge(act(g, x.v0), act(g, x.v1))
    return Vertex(g.mul(x.rep))


# only act, and the tests, use Edge
class Edge:
    """An unordered edge of the tree (two vertices at distance 1)."""

    __slots__ = ("v0", "v1")
    __hash__ = None

    def __init__(self, v0, v1):
        if vertex_distance(v0, v1) != 1:
            raise SpecMismatch("endpoints are not adjacent")
        self.v0 = v0
        self.v1 = v1

    def __eq__(self, other):
        if not isinstance(other, Edge):
            return False
        return ((self.v0 == other.v0 and self.v1 == other.v1)
                or (self.v0 == other.v1 and self.v1 == other.v0))

    def __repr__(self):
        return "Edge(%r, %r)" % (self.v0, self.v1)


def _polys(spec, lo, hi):
    """All Laurent polys supported on pi-degrees [lo, hi] (t-degrees -hi..-lo).

    Degrees here are given in t-degree for readability of callers:
    lo..hi are t-degrees, so t-degree k maps to pi-degree -k.
    """
    degs = [-k for k in range(lo, hi + 1)]
    for codes in itertools.product(range(spec.q), repeat=len(degs)):
        yield LaurentPoly(spec, dict(zip(degs, codes)))


DIHEDRAL_CAP = 1 << 18  # candidate (b, c) pairs of a P1-B or P2-B family


def check_dihedral_size(q, window):
    """Raise SizeCapExceeded if q^(2*window+2) > DIHEDRAL_CAP."""
    exponent = 2 * window + 2
    if q ** exponent > DIHEDRAL_CAP:
        raise SizeCapExceeded("dihedral-search tries q^(2*window+2) (b, c) "
                              "pairs per family = %d^%d, over the cap 2^18 "
                              "= %d" % (q, exponent, DIHEDRAL_CAP))


def involution_families(spec, region, window):
    """Order-2 elements of B, P1-B or P2-B in characteristic two.

    The involutions are [[a,b],[c,a]] with a^2 + bc = 1; the region fixes
    the candidate b and c, and a lies on t-degrees -window..0:
      B:    b on t-degrees -w..0, c on -w..-1;
      P1-B: c on -w..0 with a nonzero t^0 coefficient (a unit of O);
      P2-B: b on -w..1 with a nonzero t^1 coefficient.
    In characteristic two a is solved for, not searched: squaring acts
    coefficient-wise, so a^2 = 1 + bc has a solution only when 1 + bc has
    even pi-degrees alone, and then a_i = sqrt(coefficient 2i), read off a
    table of square roots (x -> x^2 is a bijection of F_q).
    Returns a list of Mat2 with determinant one: the upper unipotents
    (c = 0), then the lower ones (b = 0), then the rest in (a, b, c) order.
    Past DIHEDRAL_CAP it raises SizeCapExceeded before building any.
    """
    if spec.p != 2:
        raise OddCharacteristic("involution families need p = 2")
    if window > 3:
        raise WindowTooLarge("window %d > 3" % window)
    check_dihedral_size(spec.q, window)
    w = window
    if region == "B":
        bs, cs = list(_polys(spec, -w, 0)), list(_polys(spec, -w, -1))
    elif region == "P1-B":
        bs = list(_polys(spec, -w, 0))
        cs = [c for c in _polys(spec, -w, 0) if 0 in c.coeffs]
    elif region == "P2-B":
        bs = [b for b in _polys(spec, -w, 1) if -1 in b.coeffs]
        cs = list(_polys(spec, -w, -1))
    else:
        raise SpecMismatch("unknown region %r" % region)
    one = LaurentPoly.one(spec)
    mul = spec._tables()[1]
    sqrt = [0] * spec.q
    for x in range(spec.q):
        sqrt[mul[x][x]] = x
    # (rank, a's codes from t^-w to t^0) -> members in (b, c) order; rank
    # puts c = 0 (upper unipotents, a = 1) before b = 0 (lower ones)
    buckets = {}
    for b in bs:
        for c in cs:
            if b.is_zero() and c.is_zero():
                continue
            r = one + b * c
            if any(d % 2 or not 0 <= d <= 2 * w for d in r.coeffs):
                continue
            a = LaurentPoly(spec, {d // 2: sqrt[x]
                                   for d, x in r.coeffs.items()})
            rank = 0 if c.is_zero() else 1 if b.is_zero() else 2
            key = (rank, tuple(a.coeffs.get(d, 0) for d in range(w, -1, -1)))
            buckets.setdefault(key, []).append(Mat2(spec, a, b, c, a))
    return [m for key in sorted(buckets) for m in buckets[key]]


def _squares(m):
    """e^2, f^2, g^2 for m = [[e,f],[g,e]], each as {pi-degree: code}.

    In characteristic two squaring acts coefficient by coefficient: the
    term x pi^d goes to (x*x) pi^2d.
    """
    mul = m.spec._tables()[1]
    return tuple({2 * d: mul[x][x] for d, x in p.coeffs.items()}
                 for p in (m.a, m.b, m.c))


def _coeff(tables, k, b, c, x, y):
    """Code of the pi^k coefficient of b*x + c*y.

    b, c: (pi-degree, code) pairs; x, y: {pi-degree: code}.
    """
    add, mul, _, _ = tables
    acc = 0
    for u, v in ((b, x), (c, y)):
        for d, code in u:
            w = v.get(k - d)
            if w:
                acc = add[acc][mul[code][w]]
    return acc


def _p1_hit(tables, b, c, squares):
    """gamma s gamma still outside B inside P1: its lower-left entry
    b g^2 + c e^2 is a unit.  b, c, e and g lie in O for the families
    searched, so that is its pi^0 coefficient being nonzero."""
    e2, _, g2 = squares
    return _coeff(tables, 0, b, c, g2, e2) != 0


def _p2_hit(tables, b, c, squares):
    """gamma s gamma still outside B inside P2: its upper-right entry
    b e^2 + c f^2 has a nonzero pi^-1 (t^1) coefficient."""
    e2, f2, _ = squares
    return _coeff(tables, -1, b, c, e2, f2) != 0


def dihedral_obstruction_search(spec, window):
    """Search for triples that would allow an infinite dihedral embedding.

    Looks for s in the B involutions and g1 in P1-B, g2 in P2-B involutions
    with g1*s*g1 again in P1-B and g2*s*g2 again in P2-B, both conditions
    simultaneously.  Expected to report no violations.

    Why none exist: write s = [[a,b],[c,a]] and gamma = [[e,f],[g,e]], so
    gamma s gamma = [[*, b e^2 + c f^2], [b g^2 + c e^2, *]].  For s in B,
    a^2 has only even pi-degrees, so the pi^1 coefficient of bc = 1 + a^2
    is 0, that is b_0 c_1 = 0 (subscripts are pi-degrees).  A P1 hit needs
    the pi^0 coefficient b_0 g_0^2 of the lower-left entry to be nonzero,
    and a P2 hit needs the pi^-1 coefficient c_1 f_-1^2 of the upper-right
    one; both at once need b_0 c_1 != 0.  The search stays as the
    computational check: it forms no product gamma s gamma, but computes
    those two coefficients for every pair by convolving b and c with the
    squares e^2, f^2, g^2, each computed once per gamma.
    """
    fam_b = involution_families(spec, "B", window)
    fam_1 = involution_families(spec, "P1-B", window)
    fam_2 = involution_families(spec, "P2-B", window)
    tables = spec._tables()
    squares_1 = [_squares(g1) for g1 in fam_1]
    squares_2 = [_squares(g2) for g2 in fam_2]
    violations = []
    for s in fam_b:
        b, c = s.b.coeffs.items(), s.c.coeffs.items()
        bad1 = [g1 for g1, sq in zip(fam_1, squares_1)
                if _p1_hit(tables, b, c, sq)]
        if not bad1:
            continue
        bad2 = [g2 for g2, sq in zip(fam_2, squares_2)
                if _p2_hit(tables, b, c, sq)]
        violations.extend((s, g1, g2) for g1 in bad1 for g2 in bad2)
    return {
        "q": spec.q,
        "window": window,
        "family_sizes": {"B": len(fam_b), "P1-B": len(fam_1),
                         "P2-B": len(fam_2)},
        "triples_checked": len(fam_b) * len(fam_1) * len(fam_2),
        "violations": violations,
    }
