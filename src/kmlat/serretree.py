"""The (q+1)-regular Bruhat-Tits tree for SL2 over F_q((t^-1)).

Vertices are homothety classes of O-lattices, represented by 2x2 matrices
with monomial determinant whose columns span a representative lattice
(O = F_q[[t^-1]], uniformizer pi = t^-1).  Distances come from elementary
divisors; equality of vertices is distance zero, so Vertex is unhashable by
design and all dedup is by linear scan.
"""

from __future__ import annotations

import itertools

from .errors import (NonInvertible, OddCharacteristic, SpecMismatch,
                     WindowTooLarge, ZeroDeterminant)
from .laurent import LaurentPoly


class Mat2:
    __slots__ = ("spec", "a", "b", "c", "d", "_hash")

    def __init__(self, spec, a, b, c, d):
        self.spec = spec
        self.a, self.b, self.c, self.d = a, b, c, d
        self._hash = None

    @classmethod
    def identity(cls, spec):
        one, zero = LaurentPoly.one(spec), LaurentPoly.zero(spec)
        return cls(spec, one, zero, zero, one)

    @classmethod
    def from_codes(cls, spec, a, b, c, d):
        """Constant matrix from field element codes."""
        return cls(spec, *(LaurentPoly.const(spec.element(x))
                           for x in (a, b, c, d)))

    @classmethod
    def diag(cls, spec, x, y):
        zero = LaurentPoly.zero(spec)
        return cls(spec, x, zero, zero, y)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def mul(self, other):
        if self.spec != other.spec:
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

    def trace(self):
        return self.a + self.d

    def inv(self):
        """Exact inverse; requires the determinant to be a unit times pi^k."""
        dt = self.det()
        if not dt.is_monomial():
            raise NonInvertible("determinant %s is not monomial" % dt)
        (deg, coeff), = dt.coeffs.items()
        dinv = LaurentPoly.monomial(self.spec, -deg, coeff.inverse())
        return Mat2(self.spec, self.d * dinv, (-self.b) * dinv,
                    (-self.c) * dinv, self.a * dinv)

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.spec == other.spec
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


def membership(m, kind):
    """Test membership in the standard subgroups of SL2(F_q((t^-1))).

    kind: "P1" (entries in O), "P2" (conjugate of P1 by diag(t,1)),
    "B" = P1 cap P2, or ("U", n) for the principal congruence ball group.
    Determinant is not checked here; callers work inside SL2.
    """
    va, vb = m.a.valuation(), m.b.valuation()
    vc, vd = m.c.valuation(), m.d.valuation()
    if kind == "P1":
        return va >= 0 and vb >= 0 and vc >= 0 and vd >= 0
    if kind == "P2":
        return va >= 0 and vd >= 0 and vb >= -1 and vc >= 1
    if kind == "B":
        return va >= 0 and vb >= 0 and vc >= 1 and vd >= 0
    if isinstance(kind, tuple) and kind[0] == "U":
        n = kind[1]
        one = LaurentPoly.one(m.spec)
        return ((m.a - one).valuation() >= n and m.b.valuation() >= n
                and m.c.valuation() >= n and (m.d - one).valuation() >= n)
    raise SpecMismatch("unknown membership kind %r" % (kind,))


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

    @classmethod
    def x1(cls, spec):
        return cls(Mat2.identity(spec))

    @classmethod
    def x2(cls, spec):
        one = LaurentPoly.one(spec)
        return cls(Mat2.diag(spec, one, LaurentPoly.pi(spec)))

    @property
    def spec(self):
        return self.rep.spec

    def __eq__(self, other):
        return isinstance(other, Vertex) and vertex_distance(self, other) == 0

    def __repr__(self):
        return "Vertex(%s)" % self.rep


def vertex_distance(u, v):
    """Tree distance: s - r for the elementary divisors of rep_u^-1 rep_v."""
    if u.spec != v.spec:
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
        n = Mat2(spec, pi, LaurentPoly.const(spec.element(code)), zero, one)
        out.append(Vertex(v.rep.mul(n)))
    out.append(Vertex(v.rep.mul(Mat2.diag(spec, one, pi))))
    return out


def act(g, x):
    """Left action of g on a Vertex or an Edge."""
    if isinstance(x, Edge):
        return Edge(act(g, x.v0), act(g, x.v1))
    return Vertex(g.mul(x.rep))


class Edge:
    """An unordered edge of the tree (two vertices at distance 1)."""

    __slots__ = ("v0", "v1")
    __hash__ = None

    def __init__(self, v0, v1):
        if vertex_distance(v0, v1) != 1:
            raise SpecMismatch("endpoints are not adjacent")
        self.v0 = v0
        self.v1 = v1

    @classmethod
    def base(cls, spec):
        return cls(Vertex.x1(spec), Vertex.x2(spec))

    def __eq__(self, other):
        if not isinstance(other, Edge):
            return False
        return ((self.v0 == other.v0 and self.v1 == other.v1)
                or (self.v0 == other.v1 and self.v1 == other.v0))

    def __repr__(self):
        return "Edge(%r, %r)" % (self.v0, self.v1)


def edge_distance(e1, e2):
    """0 for equal edges, else 1 + min distance between endpoints."""
    if e1 == e2:
        return 0
    return 1 + min(vertex_distance(u, v)
                   for u in (e1.v0, e1.v1) for v in (e2.v0, e2.v1))


def _polys(spec, lo, hi, force_nonzero_at=None):
    """All Laurent polys supported on pi-degrees [lo, hi] (t-degrees -hi..-lo).

    Degrees here are given in t-degree for readability of callers:
    lo..hi are t-degrees, so t-degree k maps to pi-degree -k.
    """
    degs = list(range(lo, hi + 1))
    for codes in itertools.product(range(spec.q), repeat=len(degs)):
        if force_nonzero_at is not None:
            idx = degs.index(force_nonzero_at)
            if codes[idx] == 0:
                continue
        yield LaurentPoly(spec, {-k: spec.element(c)
                                 for k, c in zip(degs, codes)})


def involution_families(spec, region, window):
    """Order-2 elements of B, P1-B or P2-B in characteristic two.

    Entries are supported on t-degrees -window..window as appropriate for
    the region.  Returns a list of Mat2 with determinant one.
    region: "B", "P1-B", or "P2-B".
    """
    if spec.p != 2:
        raise OddCharacteristic("involution families need p = 2")
    if window > 3:
        raise WindowTooLarge("window %d > 3" % window)
    w = window
    one = LaurentPoly.one(spec)
    zero = LaurentPoly.zero(spec)
    out = []

    def upper(b):
        return Mat2(spec, one, b, zero, one)

    def lower(c):
        return Mat2(spec, one, zero, c, one)

    def balanced(a, b, c):
        return Mat2(spec, a, b, c, a)

    if region == "B":
        for b in _polys(spec, -w, 0):
            if not b.is_zero():
                out.append(upper(b))
        for c in _polys(spec, -w, -1):
            if not c.is_zero():
                out.append(lower(c))
        for a in _polys(spec, -w, 0):
            for b in _polys(spec, -w, 0):
                if b.is_zero():
                    continue
                for c in _polys(spec, -w, -1):
                    if c.is_zero():
                        continue
                    if a * a + b * c == one:
                        out.append(balanced(a, b, c))
    elif region == "P1-B":
        # not in B means the lower-left entry is a unit in O
        for c in _polys(spec, -w, 0, force_nonzero_at=0):
            out.append(lower(c))
        for a in _polys(spec, -w, 0):
            for b in _polys(spec, -w, 0):
                if b.is_zero():
                    continue
                for c in _polys(spec, -w, 0, force_nonzero_at=0):
                    if a * a + b * c == one:
                        out.append(balanced(a, b, c))
    elif region == "P2-B":
        # not in B means the upper-right entry has a t-coefficient
        for b in _polys(spec, -w, 1, force_nonzero_at=1):
            out.append(upper(b))
        for a in _polys(spec, -w, 0):
            for b in _polys(spec, -w, 1, force_nonzero_at=1):
                for c in _polys(spec, -w, -1):
                    if c.is_zero():
                        continue
                    if a * a + b * c == one:
                        out.append(balanced(a, b, c))
    else:
        raise SpecMismatch("unknown region %r" % region)
    return out


def dihedral_obstruction_search(spec, window):
    """Search for triples that would allow an infinite dihedral embedding.

    Looks for s in the B involutions and g1 in P1-B, g2 in P2-B involutions
    with g1*s*g1 again in P1-B and g2*s*g2 again in P2-B, both conditions
    simultaneously.  Expected to report no violations.
    """
    fam_b = involution_families(spec, "B", window)
    fam_1 = involution_families(spec, "P1-B", window)
    fam_2 = involution_families(spec, "P2-B", window)
    violations = []
    checked = 0
    for s in fam_b:
        # precompute the two conjugate tests cheaply per pair, then combine
        bad1 = []
        for g1 in fam_1:
            h = g1.mul(s).mul(g1)
            if h.c.valuation() == 0:  # still outside B inside P1
                bad1.append(g1)
        if not bad1:
            checked += len(fam_1) * len(fam_2)
            continue
        bad2 = []
        for g2 in fam_2:
            h = g2.mul(s).mul(g2)
            if not h.b.coeff(-1).is_zero():  # still outside B inside P2
                bad2.append(g2)
        checked += len(fam_1) * len(fam_2)
        for g1 in bad1:
            for g2 in bad2:
                violations.append((s, g1, g2))
    return {
        "q": spec.q,
        "window": window,
        "family_sizes": {"B": len(fam_b), "P1-B": len(fam_1),
                         "P2-B": len(fam_2)},
        "triples_checked": checked,
        "violations": violations,
    }
