"""The (q+1)-regular Bruhat-Tits tree for SL2 over F_q((t^-1)).

Vertices are homothety classes of O-lattices, represented by 2x2 matrices
with monomial determinant whose columns span a representative lattice
(O = F_q[[t^-1]], uniformizer pi = t^-1).  Distances come from elementary
divisors; equality of vertices is distance zero, so Vertex is unhashable
by design and vertices are compared pair by pair.  The module also holds
the characteristic-two involution families and the dihedral obstruction
search over them, which tests for each pair the two scalars its proof
reduces gamma s gamma to.  Membership in the parahorics P1, P2 and B, the
base vertices, and edges (Edge, its action and its distance) are
reference code for the tests, in tests/reference.py.
"""

from __future__ import annotations

import itertools

from .errors import (NonInvertible, OddCharacteristic, SizeCapExceeded,
                     SpecMismatch, WindowTooLarge, ZeroDeterminant)
from .laurent import LaurentPoly


class Mat2:
    __slots__ = ("spec", "a", "b", "c", "d")

    def __init__(self, spec, a, b, c, d):
        self.spec = spec
        self.a, self.b, self.c, self.d = a, b, c, d

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
        return hash((self.a, self.b, self.c, self.d))

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
def act(g, v):
    """Left action of g on a Vertex."""
    return Vertex(g.mul(v.rep))


def _polys(spec, lo, hi):
    """All Laurent polys supported on pi-degrees lo..hi, in product order
    with the pi^hi coefficient varying slowest."""
    degs = range(hi, lo - 1, -1)
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


def _candidates(spec, region, w):
    """The candidate b and c of the involutions [[a,b],[c,a]] of a region,
    on pi-degrees up to w:
      B:    b on pi-degrees 0..w, c on 1..w;
      P1-B: b on 0..w, c on 0..w with a nonzero pi^0 coefficient (a unit);
      P2-B: b on -1..w with a nonzero pi^-1 coefficient, c on 1..w.
    b reaches pi^-1 only where c starts at pi^1, so 1 + bc lies on 0..2w."""
    if region == "B":
        return list(_polys(spec, 0, w)), list(_polys(spec, 1, w))
    if region == "P1-B":
        return (list(_polys(spec, 0, w)),
                [c for c in _polys(spec, 0, w) if 0 in c.coeffs])
    if region == "P2-B":
        return ([b for b in _polys(spec, -1, w) if -1 in b.coeffs],
                list(_polys(spec, 1, w)))
    raise SpecMismatch("unknown region %r" % region)


def involution_families(spec, region, window):
    """Order-2 elements of B, P1-B or P2-B in characteristic two.

    The involutions are [[a,b],[c,a]] with a^2 + bc = 1, b and c drawn from
    the region's _candidates, and a on pi-degrees 0..window.  In
    characteristic two a is solved for, not searched: squaring acts
    coefficient-wise, so a^2 = 1 + bc has a solution only when 1 + bc has
    even pi-degrees alone, and then a_i = sqrt(coefficient 2i), read off a
    table of square roots (x -> x^2 is a bijection of F_q).  This runs on
    F_q codes, with 1 + bc a {pi-degree: code} dict convolved through the
    add and mul tables; a and the Mat2 are built only for members kept.
    Returns a list of Mat2 with determinant one: the upper unipotents
    (c = 0), then the lower ones (b = 0), then the rest in (a, b, c) order.
    Past DIHEDRAL_CAP it raises SizeCapExceeded before building any.
    """
    if spec.p != 2:
        raise OddCharacteristic("involution families need p = 2")
    if window > 3:
        raise WindowTooLarge("window %d > 3" % window)
    check_dihedral_size(spec.q, window)
    bs, cs = _candidates(spec, region, window)
    add, mul = spec._tables()[:2]
    sqrt = sorted(range(spec.q), key=lambda x: mul[x][x])  # sqrt[x^2] = x
    top = range(window, -1, -1)  # a's pi-degrees, the highest first
    odd = range(1, 2 * window, 2)  # 1 + bc lies on pi-degrees 0..2w
    cs = [(c, tuple(c.coeffs.items())) for c in cs]
    # (rank, a's codes from pi^w to pi^0) -> members in (b, c) order; rank
    # puts c = 0 (upper unipotents, a = 1) before b = 0 (lower ones)
    buckets = {}
    for b in bs:
        rows = [(d, mul[x]) for d, x in b.coeffs.items()]
        for c, terms in cs:
            if not (rows or terms):
                continue
            r = {0: 1}
            for d1, row in rows:
                for d2, y in terms:
                    r[d1 + d2] = add[r.get(d1 + d2, 0)][row[y]]
            if any(map(r.get, odd)):
                continue
            rank = 0 if not terms else 1 if not rows else 2
            key = (rank, tuple(sqrt[r.get(2 * d, 0)] for d in top))
            a = LaurentPoly(spec, dict(zip(top, key[1])))
            buckets.setdefault(key, []).append(Mat2(spec, a, b, c, a))
    return [m for key in sorted(buckets) for m in buckets[key]]


def _low_squares(gamma):
    """e_0^2, f_-1^2 and g_0^2 of gamma = [[e,f],[g,e]] as codes
    (subscripts are pi-degrees): in characteristic two x pi^d squares to
    x^2 pi^2d, so these are the pi^0, pi^-2 and pi^0 terms of the squares."""
    mul = gamma.spec._tables()[1]
    e, f, g = (gamma.a.coeffs.get(0, 0), gamma.b.coeffs.get(-1, 0),
               gamma.c.coeffs.get(0, 0))
    return mul[e][e], mul[f][f], mul[g][g]


def _p1_hits(add, mul, s, keyed):
    """The gammas of keyed, pairs (gamma, its _low_squares), for which
    gamma s gamma lies in P1 - B: b_0 g_0^2 + c_0 e_0^2 != 0."""
    rb, rc = mul[s.b.coeffs.get(0, 0)], mul[s.c.coeffs.get(0, 0)]
    return [g for g, (e2, _, g2) in keyed if add[rb[g2]][rc[e2]]]


def _p2_hits(mul, s, keyed):
    """The same for P2 - B: c_1 f_-1^2 != 0."""
    row = mul[s.c.coeffs.get(1, 0)]
    return [g for g, (_, f2, _) in keyed if row[f2]]


def dihedral_obstruction_search(spec, window):
    """Search for triples that would allow an infinite dihedral embedding.

    Looks for s in the B involutions and g1 in P1-B, g2 in P2-B involutions
    with g1*s*g1 again in P1-B and g2*s*g2 again in P2-B, both conditions
    simultaneously.  Expected to report no violations.

    Why none exist: write s = [[a,b],[c,a]] and gamma = [[e,f],[g,e]], so
    gamma s gamma = [[*, b e^2 + c f^2], [b g^2 + c e^2, *]].  Every entry
    of s and gamma lies in O except f, which has pi-degree >= -1, and
    squaring in characteristic two doubles pi-degrees.  So a P1 hit, a
    unit lower-left entry, is b_0 g_0^2 + c_0 e_0^2 != 0 (subscripts are
    pi-degrees), and a P2 hit, an upper-right entry with a t^1 term, is
    c_1 f_-1^2 != 0.  For s in B, c_0 = 0 and a^2 has only even
    pi-degrees, so the pi^1 coefficient of bc = 1 + a^2 is b_0 c_1 = 0: a
    P1 hit needs b_0 != 0 and a P2 hit c_1 != 0, never both.  This proof
    is the computation: for every pair the search tests these two scalars
    (_p1_hits, _p2_hits), with e_0^2, f_-1^2 and g_0^2 read once per gamma
    and s's mul rows once per s, and forms no product gamma s gamma.
    """
    fam_b = involution_families(spec, "B", window)
    fam_1 = involution_families(spec, "P1-B", window)
    fam_2 = involution_families(spec, "P2-B", window)
    add, mul = spec._tables()[:2]
    squares_1 = [(g1, _low_squares(g1)) for g1 in fam_1]
    squares_2 = [(g2, _low_squares(g2)) for g2 in fam_2]
    violations = []
    for s in fam_b:
        bad1 = _p1_hits(add, mul, s, squares_1)
        if not bad1:
            continue
        bad2 = _p2_hits(mul, s, squares_2)
        violations.extend((s, g1, g2) for g1 in bad1 for g2 in bad2)
    return {
        "q": spec.q,
        "window": window,
        "family_sizes": {"B": len(fam_b), "P1-B": len(fam_1),
                         "P2-B": len(fam_2)},
        "triples_checked": len(fam_b) * len(fam_1) * len(fam_2),
        "violations": violations,
    }
