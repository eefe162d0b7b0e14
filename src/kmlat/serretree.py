"""The (q+1)-regular Bruhat-Tits tree for SL2 over F_q((t^-1)).

Vertices are homothety classes of O-lattices, represented by 2x2 matrices
with monomial determinant whose columns span a representative lattice
(O = F_q[[t^-1]], uniformizer pi = t^-1).  Distances come from elementary
divisors; equality of vertices is distance zero, so Vertex is unhashable
by design and vertices are compared pair by pair.  The module also holds
the characteristic-two involution families, as F_q code triples, and the
dihedral obstruction search over them, which tests for each pair the two
scalars its proof reduces gamma s gamma to and builds matrices only for
a violation, to report their text.  Membership in the parahorics P1, P2
and B, the base vertices, and edges (Edge, its action and its distance)
are reference code for the tests, in tests/reference.py.
"""

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
    """Every poly on pi-degrees lo..hi as a {pi-degree: code} dict of its
    nonzero terms, in product order with the pi^hi coefficient varying
    slowest."""
    degs = range(hi, lo - 1, -1)
    for codes in itertools.product(range(spec.q), repeat=len(degs)):
        yield {d: x for d, x in zip(degs, codes) if x}


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
    as _polys dicts on pi-degrees up to w:
      B:    b on pi-degrees 0..w, c on 1..w;
      P1-B: b on 0..w, c on 0..w with a nonzero pi^0 coefficient (a unit);
      P2-B: b on -1..w with a nonzero pi^-1 coefficient, c on 1..w.
    b reaches pi^-1 only where c starts at pi^1, so 1 + bc lies on 0..2w."""
    if region == "B":
        return list(_polys(spec, 0, w)), list(_polys(spec, 1, w))
    if region == "P1-B":
        return (list(_polys(spec, 0, w)),
                [c for c in _polys(spec, 0, w) if 0 in c])
    if region == "P2-B":
        return ([b for b in _polys(spec, -1, w) if -1 in b],
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
    F_q codes alone, with 1 + bc a {pi-degree: code} dict convolved through
    the add and mul tables, and builds no LaurentPoly or Mat2.
    Returns each member as a code triple (a, b, c): a is the tuple of a's
    codes from pi^window down to pi^0, and b and c are the _candidates
    dicts, shared between members.  The upper unipotents (c = 0) come
    first, then the lower ones (b = 0), then the rest in (a, b, c) order.
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
    cs = [(c, tuple(c.items())) for c in cs]
    # (c != 0, b != 0, a) -> members in (b, c) order: c = 0 (the upper
    # unipotents, a = 1) sorts first, then b = 0 (the lower ones)
    buckets = {}
    for b in bs:
        rows = [(d, mul[x]) for d, x in b.items()]
        for c, terms in cs:
            if not (rows or terms):
                continue
            r = {0: 1}
            for d1, row in rows:
                for d2, y in terms:
                    r[d1 + d2] = add[r.get(d1 + d2, 0)][row[y]]
            if any(map(r.get, odd)):
                continue
            a = tuple([sqrt[r.get(2 * d, 0)] for d in top])
            key = (bool(terms), bool(rows), a)
            buckets.setdefault(key, []).append((a, b, c))
    return [m for key in sorted(buckets) for m in buckets[key]]


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
    on the families' code triples, with e_0^2, g_0^2 and f_-1^2 read once
    per gamma and s's mul rows once per s, and forms no product gamma s
    gamma.  Only a violation, which no real family has, is built as three
    Mat2 [[a,b],[c,a]], and reported as their three "a,b;c,d" texts.
    """
    fam_b = involution_families(spec, "B", window)
    fam_1 = involution_families(spec, "P1-B", window)
    fam_2 = involution_families(spec, "P2-B", window)
    add, mul = spec._tables()[:2]
    sq = [row[x] for x, row in enumerate(mul)]  # x -> x^2
    # e_0^2 and g_0^2 of each P1-B gamma, f_-1^2 of each P2-B one; the
    # regions make g_0 and f_-1 nonzero terms of c and b
    low_1 = [(g, sq[g[0][-1]], sq[g[2][0]]) for g in fam_1]
    low_2 = [(g, sq[g[1][-1]]) for g in fam_2]
    violations = []
    for s in fam_b:
        _, b, c = s
        rb, rc = mul[b.get(0, 0)], mul[c.get(0, 0)]
        bad1 = [g for g, e2, g2 in low_1 if add[rb[g2]][rc[e2]]]
        if not bad1:
            continue
        rc1 = mul[c.get(1, 0)]
        bad2 = [g for g, f2 in low_2 if rc1[f2]]
        for pair in itertools.product(bad1, bad2):
            mats = []
            for a, b, c in (s,) + pair:
                a = LaurentPoly(spec, dict(enumerate(reversed(a))))
                mats.append(Mat2(spec, a, LaurentPoly(spec, b),
                                 LaurentPoly(spec, c), a))
            violations.append([str(m) for m in mats])
    return {
        "q": spec.q,
        "window": window,
        "family_sizes": {"B": len(fam_b), "P1-B": len(fam_1),
                         "P2-B": len(fam_2)},
        "triples_checked": len(fam_b) * len(fam_1) * len(fam_2),
        "violations": violations,
    }
