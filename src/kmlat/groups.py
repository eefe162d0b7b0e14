"""Finite subgroups of SL2(F_q): closures, tori and their normalizers,
exceptional subgroups built from trace triples, and the subgroup tables.

Everything is exact.  A finite group here is a set of constant matrices
held as F_q code 4-tuples (a, b, c, d) under one product, code_mul: the
constant groups (SL2(F_q), tori, normalizers, exceptional subgroups) are
built and returned that way, and closures are breadth first products.
Recognition by structural invariants is reference code for the tests, in
tests/reference.py.
"""

from .errors import (NotASubgroup, NotFound, OddCharacteristic,
                     SizeCapExceeded)
from .gf import (CODE_ONE, code_mul, code_pow, is_prime, norm1_subgroup,
                 norm_codes)
from .serretree import Mat2

SIZE_CAP = 10 ** 6


def generate(ident, gens, mul, cap):
    """Set of all products of gens, by breadth-first right multiplication.

    In a finite group this is the subgroup the gens generate.  Raises
    SizeCapExceeded once more than `cap` elements are found.
    """
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise SizeCapExceeded("closure exceeded %d" % cap)
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# only FiniteGroup.element_order and the tests call order_of
def order_of(x, ident, mul):
    """Multiplicative order of x: the least n >= 1 with x^n = ident."""
    n, y = 1, x
    while y != ident:
        y = mul(y, x)
        n += 1
    return n


# no command calls closure; perfbench/tracer.py patches it by name
def closure(spec, gens, cap=SIZE_CAP):
    """Subgroup generated by code-tuple gens, as a FiniteGroup (capped BFS)."""
    gens = tuple(gens)
    if not gens:
        raise NotASubgroup("no generators")
    return FiniteGroup(spec, generate(CODE_ONE, gens, code_mul(spec), cap),
                       gens)


class FiniteGroup:
    """An explicit finite subgroup of SL2(F_q) on F_q code 4-tuples
    (a, b, c, d), under the product code_mul(spec) with identity CODE_ONE.

    The inverse is the adjugate (d, -b, -c, a), exact at determinant 1.
    gens, when given, must generate `elements`: the faithfulness kernel
    conjugates by gens alone and would come out too large otherwise.
    """

    def __init__(self, spec, elements, gens=()):
        self.spec = spec
        self.elements = frozenset(elements)
        self.gens = tuple(gens)
        self.mul = code_mul(spec)

    @property
    def order(self):
        return len(self.elements)

    def inv(self, g):
        neg = self.spec._tables()[2]
        a, b, c, d = g
        return (d, neg[b], neg[c], a)

    # no command calls this; perfbench/tracer.py patches it by name
    def element_order(self, g):
        return order_of(g, CODE_ONE, self.mul)

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and self.elements == other.elements)

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


# only sl2_elements and the tests call sl2_codes
def sl2_codes(spec):
    """All of SL2(F_q) as code 4-tuples, in a fixed order: by a, then b,
    then c with d = (1 + bc)/a, or, when a = 0, d with c = -1/b."""
    q = spec.q
    add, mul, neg, inv = spec._tables()
    for a in range(q):
        for b in range(q):
            if a:
                for c in range(q):
                    yield (a, b, c, mul[add[1][mul[b][c]]][inv[a]])
            elif b:
                c = neg[inv[b]]
                for d in range(q):
                    yield (0, b, c, d)


# no command calls this; perfbench/tracer.py patches it by name
def sl2_elements(spec):
    """All of SL2(F_q) as constant matrices, in the order of sl2_codes."""
    return (Mat2.from_codes(spec, *g) for g in sl2_codes(spec))


def _torus_codes(spec):
    """The norm-one torus as codes, and its generators (t0,): t0 is its
    first element in (y, x) code order with t0^((q+1)/r) != I for every
    prime r dividing q+1, so of order q+1."""
    add, mul, neg, _ = spec._tables()
    elems = norm1_subgroup(spec)
    assert all(add[mul[a][d]][neg[mul[b][c]]] == 1 for a, b, c, d in elems)
    n, prod = spec.q + 1, code_mul(spec)
    primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
    t0 = next(t for t in elems if all(
        code_pow(prod, t, n // r, CODE_ONE) != CODE_ONE for r in primes))
    return frozenset(elems), (t0,)


def nonsplit_torus(spec):
    """The norm-one torus T: the matrices x*I + y*C of F_q[C] (see gf) of
    norm x^2 - c1*x*y + c0*y^2 = 1, which land in SL2(F_q).  Cyclic of
    order q+1, generated by its first element of that order."""
    return FiniteGroup(spec, *_torus_codes(spec))


def torus_normalizer(spec):
    """Normalizer of the norm-one torus T in SL2(F_q), for odd p.

    Built directly as T u sT, order 2(q+1), with F = [[1, -c1], [0, -1]]
    the Frobenius x + y*w -> conj(x + y*w).  det F = -1 and F t = t^q F,
    so sT = {w*F : N(w) = -1}, the solutions of the norm equation at -1
    (gf.norm_codes) times F, all of determinant 1; s is the first of them,
    and s conjugates each t in T to t^q = t^-1.
    """
    if spec.p == 2:
        raise OddCharacteristic("normalizer construction needs odd p")
    neg = spec._tables()[2]
    mul = code_mul(spec)
    torus, (t0,) = _torus_codes(spec)
    frob = (1, neg[spec.ext_modulus()[1]], 0, neg[1])
    coset = [mul(w, frob) for w in norm_codes(spec, neg[1])]
    s = coset[0]
    n = FiniteGroup(spec, torus.union(coset), (t0, s))
    si = n.inv(s)  # the adjugate: s * si = det(s) I
    assert mul(s, si) == CODE_ONE and s not in torus
    assert mul(mul(s, t0), si) in torus
    return n


# element-order profiles of the binary polyhedral groups (order -> count)
PROFILE_SL2_3 = {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
PROFILE_SL2_5 = {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}
PROFILE_2S4 = {1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12}


def order_available(spec, d):
    """Whether SL2(F_q) contains an element of order d."""
    q, p = spec.q, spec.p
    if (q - 1) % d == 0 or (q + 1) % d == 0:
        return True
    if d == p:
        return True
    if p != 2 and d == 2 * p:
        return True
    return False


# kind -> (order, element-order profile, (c1, c0)): tr xy is a root of
# tau^2 + c1*tau + c0, and an integer n mod p is the code of n*1
SUBGROUP_TARGETS = {
    "SL2(3)": (24, PROFILE_SL2_3, (-2, 1)),
    "2S4": (48, PROFILE_2S4, (0, -2)),
    "SL2(5)": (120, PROFILE_SL2_5, (-1, -1)),
}


def find_subgroup_of_type(spec, kind):
    """A subgroup of SL2(F_q) of the named type, built from a trace triple.

    kind: "SL2(3)", "SL2(5)" or "2S4".  Returns a FiniteGroup with gens
    (x, y), or None when the type does not embed (some element order of
    its profile is missing from SL2(F_q), always so at p = 2).

    By Macbeath (Generators of the linear fractional groups, 1969) a pair
    generating an irreducible subgroup of SL2(F_q) is fixed up to
    conjugacy by (tr x, tr y, tr xy), and (0, 1, tau) gives <2,3,3>,
    <2,3,4> or <2,3,5> as tau = 1, tau^2 = 2 or tau^2 = tau + 1.  Here
    x = [[0, 1], [-1, 0]] and y = [[a, b], [tau + b, 1 - a]], whose
    det y = 1 reads b^2 + tau*b + a^2 - a + 1 = 0.  tau is the least root
    code, a the least code whose discriminant tau^2 - 4(a^2 - a + 1) has a
    square root, and b = (s - tau)/2 with s the least such root.  Such an
    a exists: the discriminant is tau^2 - 3 - (2a - 1)^2, and every
    element of F_q, q odd, is a sum of two squares."""
    if kind not in SUBGROUP_TARGETS:
        raise NotFound("unknown subgroup kind %r" % kind)
    order, profile, (c1, c0) = SUBGROUP_TARGETS[kind]
    if not all(order_available(spec, d) for d in profile):
        return None
    q, p = spec.q, spec.p
    add, mul, neg, inv = spec._tables()
    tau = next(t for t in range(q)
               if add[add[mul[t][t]][mul[c1 % p][t]]][c0 % p] == 0)
    root = {}
    for s in range(q):
        root.setdefault(mul[s][s], s)
    four = add[add[1][1]][add[1][1]]
    for a in range(q):
        e = add[mul[a][a]][add[1][neg[a]]]  # a^2 - a + 1
        disc = add[mul[tau][tau]][neg[mul[four][e]]]
        if disc in root:
            break
    b = mul[add[root[disc]][neg[tau]]][inv[add[1][1]]]
    x, y = (0, 1, neg[1], 0), (a, b, add[tau][b], add[1][neg[a]])
    h = generate(CODE_ONE, (x, y), code_mul(spec), order + 1)
    assert len(h) == order, (kind, q)
    return FiniteGroup(spec, h, (x, y))


def dickson_table(spec, ambient):
    """Subgroup-type table for PSL2/SL2/PGL2 over F_q (Dickson, Linear
    Groups, 1901; Huppert, Endliche Gruppen I, II.8.27), as a list of
    row dicts with keys type, order, div_q_plus_1 and source.

    Rows list the maximal members of each family: cyclic and dihedral rows
    are stated at their largest order.  The list is not closed under
    subgroups in sl2 when q = p^(2b): there the index-2 overgroup
    <SL2(p^b), diag(l, 1/l)> of SL2(p^b), l^2 in F_{p^b} and l not, whose
    image is the psl2 row PGL2(p^b), has no row.  ambient: "psl2", "sl2"
    or "pgl2"; at p = 2 the three groups coincide and all give the psl2
    rows.  The sl2 sporadic rows are the kinds of SUBGROUP_TARGETS whose
    element orders all occur in SL2(F_q), as find_subgroup_of_type decides.
    """
    if ambient not in ("psl2", "sl2", "pgl2"):
        raise NotFound("unknown ambient %r" % ambient)
    q, p, a = spec.q, spec.p, spec.a
    if p == 2:
        ambient = "psl2"
    src = "%s-subgroup-classification" % ambient
    rows = {}  # (type, order) -> row; small q collapses some families

    def add(t, order):
        rows.setdefault((t, order), {"type": t, "order": order,
                                     "div_q_plus_1": order % (q + 1) == 0,
                                     "source": src})

    d = 1 + q % 2 if ambient == "psl2" else 1  # gcd(2, q - 1)
    for n in ((q - 1) // d, (q + 1) // d):
        add("Cyclic(%d)" % n, n)
    add("ElementaryAbelian(%d)" % q, q)
    add("Frobenius" if ambient == "pgl2" else "BorelFrobenius",
        q * (q - 1) // d)
    for n in (2 * (q - 1) // d, 2 * (q + 1) // d):
        add("%s(%d)" % ("Dicyclic" if ambient == "sl2" else "Dihedral", n), n)
    # (p^b, |SL2(p^b)|) for the proper subfields F_{p^b}, b | a
    subfields = [(p ** b, p ** b * (p ** (2 * b) - 1))
                 for b in range(1, a) if a % b == 0]
    if ambient == "sl2":
        for kind, (order, profile, _) in SUBGROUP_TARGETS.items():
            if all(order_available(spec, e) for e in profile):
                add(kind, order)
        for qb, n in subfields:
            add("SL2(%d)" % qb, n)
        return list(rows.values())
    # at p = 2: A4 needs F_4 inside F_q, and there is no element of order 4
    if p != 2 or a % 2 == 0:
        add("A4", 12)
    if order_available(spec, 8):
        add("S4", 24)
    elif ambient == "pgl2":
        add("S4-outside-psl", 24)
    if order_available(spec, 5):
        add("A5", 60)
    for qb, n in subfields:
        add("PSL2(%d)" % qb, n // (1 + qb % 2))
        if ambient == "pgl2":
            add("PGL2(%d)" % qb, n)
    if ambient == "psl2":  # PGL2(p^b) lies in PSL2(p^2b)
        fields = {qb for qb, _ in subfields} | {q}
        for qb, n in subfields:
            if qb * qb in fields:
                add("PGL2(%d)" % qb, n)
    return list(rows.values())
