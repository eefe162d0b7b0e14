"""Reference code that no kmlat command reaches, kept for the tests.

Structural recognition of finite groups, the general edge of groups with
its structure-map checks, its faithfulness kernel and its covering-theory
check, the exact affine (m = 2) cross-check of the root-group action, the
closed-form z^p criterion over F_{p^a} (zp_criterion), and the tree
geometry only those need: membership in the standard subgroups, the base
vertices, and edges (Edge, its action and its distance).  Each was a part
of src/kmlat that only tests called; the tests check the program against
it.
The z^p walk as it ran depth-first over every word (dfs_zp_walk) is kept
as the oracle of kmaction.zp_walk, which walks distinct prefix states.
The Dickson table as it was written, one branch per ambient, is kept as
the oracle of the one-skeleton groups.dickson_table, the F_q tables as
they were built one entry and one power at a time as the oracle of the
rotated and gathered FieldSpec._build_tables, and the characteristic-2
involution families as they were solved on LaurentPoly objects, with
their LaurentPoly candidates (object_polys, object_candidates), as the
oracle of serretree.involution_families, which solves them on F_q codes
and returns code triples (oracles.member_mat2 makes each a Mat2).  The
Laurent literal parser as it was written with one regular expression per
term (parse_laurent_re) is kept as the oracle of laurent.parse_laurent,
which reads a term with str.partition.
"""

import itertools
import re
from collections import Counter, namedtuple
from math import gcd
from operator import itemgetter

from kmlat import kmaction
from kmlat.errors import (InvalidInput, KmlatError, NotASubgroup,
                          NotFound, OddCharacteristic, SizeCapExceeded,
                          SpecMismatch, UnsupportedActionDomain,
                          WindowTooLarge)
from kmlat.gf import _poly_mod, _poly_mul, parse_code
from kmlat.groups import (CODE_ONE, PROFILE_2S4, PROFILE_SL2_3,
                          PROFILE_SL2_5, FiniteGroup, closure, sl2_codes)
from kmlat.kmaction import (_check_alternating, _power_is_identity,
                            apply_word, check_zp_size, letter_table)
from kmlat.laurent import LaurentPoly
from kmlat.serretree import (Mat2, Vertex, act, check_dihedral_size,
                             vertex_distance)


# --- the tree: identity, base vertices and edge, membership, distance -----

def mat2_identity(spec):
    one, zero = LaurentPoly.one(spec), LaurentPoly.zero(spec)
    return Mat2(spec, one, zero, zero, one)


def vertex_x1(spec):
    """The base vertex x1, the class of the standard lattice O^2."""
    return Vertex(mat2_identity(spec))


def vertex_x2(spec):
    """The base vertex x2, the class of diag(1, pi) O^2."""
    one = LaurentPoly.one(spec)
    return Vertex(Mat2.diag(spec, one, LaurentPoly.pi(spec)))


class Edge:
    """An unordered edge of the tree (two vertices at distance 1); like a
    Vertex it is unhashable and compared pair by pair."""

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


def edge_act(g, e):
    """Left action of g on an Edge, endpoint by endpoint."""
    return Edge(act(g, e.v0), act(g, e.v1))


def base_edge(spec):
    return Edge(vertex_x1(spec), vertex_x2(spec))


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


def edge_distance(e1, e2):
    """0 for equal edges, else 1 + min distance between endpoints."""
    if e1 == e2:
        return 0
    return 1 + min(vertex_distance(u, v)
                   for u in (e1.v0, e1.v1) for v in (e2.v0, e2.v1))


# --- Laurent literals, one regular expression per term ---------------------

_TERM = r"(?:([0-9]+)\*?)?(?:t(?:\^(-?[0-9]+))?)?"


def parse_laurent_re(spec, text):
    """laurent.parse_laurent as it was written with re: the same literals,
    values and InvalidInput texts."""
    text = text.replace(" ", "")
    if not text:
        raise InvalidInput("empty Laurent literal")
    out = LaurentPoly.zero(spec)
    for term in text.split("+"):
        m = re.fullmatch(_TERM, term)
        if not m or term == "":
            raise InvalidInput("bad Laurent term %r" % term)
        coeff_s, exp_s = m.groups()
        if coeff_s is None and "t" not in term:
            raise InvalidInput("bad Laurent term %r" % term)
        code = parse_code(coeff_s, spec.q) if coeff_s is not None else 1
        tdeg = 0
        if "t" in term:
            try:
                tdeg = int(exp_s) if exp_s is not None else 1
            except ValueError:  # past int()'s limit on digits
                raise InvalidInput("bad Laurent term %r" % term) from None
        out = out + LaurentPoly(spec, {-tdeg: code})
    return out


# --- finite groups: structure and recognition -----------------------------

def order_profile(group):
    return Counter(group.element_order(g) for g in group.elements)


def is_abelian(group):
    mul = group.mul
    elems = list(group.elements)
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if mul(x, y) != mul(y, x):
                return False
    return True


def is_cyclic(group):
    return any(group.element_order(g) == group.order for g in group.elements)


def center(group):
    mul = group.mul
    elems = list(group.elements)
    z = [x for x in elems if all(mul(x, y) == mul(y, x) for y in elems)]
    return FiniteGroup(group.spec, frozenset(z))


def is_subgroup(group, sub):
    return sub.elements <= group.elements


def is_normal(group, sub):
    if not is_subgroup(group, sub):
        raise NotASubgroup("not a subgroup")
    mul = group.mul
    for g in group.elements:
        gi = group.inv(g)
        for h in sub.elements:
            if mul(mul(g, h), gi) not in sub.elements:
                return False
    return True


def derived_subgroup(group):
    mul = group.mul
    elems = list(group.elements)
    comms = set()
    for x in elems:
        xi = group.inv(x)
        for y in elems:
            comms.add(mul(mul(mul(x, y), xi), group.inv(y)))
    return closure(group.spec, comms, cap=group.order + 1)


def is_perfect(group):
    return derived_subgroup(group).order == group.order


def cosets(group, sub):
    """Left coset representatives of sub in group, in str(Mat2) order."""
    if not is_subgroup(group, sub):
        raise NotASubgroup("not a subgroup")
    reps, covered = [], set()
    for g in sorted(group.elements, key=lambda g: "%d,%d;%d,%d" % g):
        if g in covered:
            continue
        reps.append(g)
        covered.update(group.mul(g, h) for h in sub.elements)
    return reps


_SL2_CACHE = {}


def sl2_group(spec):
    if spec not in _SL2_CACHE:
        _SL2_CACHE[spec] = FiniteGroup(spec, sl2_codes(spec))
    return _SL2_CACHE[spec]


class GroupType(namedtuple("GroupType", "kind param", defaults=(0,))):
    __slots__ = ()

    def __str__(self):
        return "%s(%d)" % (self.kind, self.param) if self.param else self.kind


# frozen order profiles of the named groups (order -> multiplicity); the
# three of SL2(3), SL2(5) and 2S4 live in kmlat.groups, which searches for
# those types
PROFILE_S4 = Counter({1: 1, 2: 9, 3: 8, 4: 6})
PROFILE_A4 = Counter({1: 1, 2: 3, 3: 8})
PROFILE_A5 = Counter({1: 1, 2: 15, 3: 20, 5: 24})


def recognize(group):
    """Identify a finite group by structural invariants.

    Returns a GroupType: Cyclic(n), Dihedral(n), Dicyclic(n) (binary
    dihedral; Dicyclic(8) is the quaternion group), BorelFrobenius(n),
    SL2(3), SL2(5), BinaryOctahedral, S4, A4, A5, PSL2(q'), or Unknown.
    """
    n = group.order
    if is_cyclic(group):
        return GroupType("Cyclic", n)
    if n == 4:
        return GroupType("Dihedral", 4)  # Klein four group
    if is_abelian(group):
        return GroupType("Unknown")
    half = [g for g in group.elements if group.element_order(g) == n // 2]
    if n % 2 == 0 and half:
        x = half[0]
        mul, inv = group.mul, group.inv
        cyc = closure(group.spec, [x], cap=n)
        xi = inv(x)
        for y in group.elements:
            if y in cyc.elements:
                continue
            if mul(mul(y, x), inv(y)) != xi:
                continue
            if group.element_order(y) == 2:
                return GroupType("Dihedral", n)
            if (n % 4 == 0 and group.element_order(y) == 4
                    and mul(y, y) in cyc.elements):
                return GroupType("Dicyclic", n)
    profile = order_profile(group)
    if n == 24 and profile == PROFILE_SL2_3:
        return GroupType("SL2(3)")
    if n == 120 and profile == PROFILE_SL2_5:
        return GroupType("SL2(5)")
    if n == 48 and profile == PROFILE_2S4:
        return GroupType("BinaryOctahedral")
    if n == 24 and profile == PROFILE_S4:
        return GroupType("S4")
    if n == 12 and profile == PROFILE_A4:
        return GroupType("A4")
    if n == 60 and profile == PROFILE_A5:
        return GroupType("A5")
    # Borel-type: normal Sylow-p with cyclic quotient acting freely
    p = group.spec.p
    if n % p == 0:
        ppart = [g for g in group.elements
                 if g != CODE_ONE
                 and _is_p_power(group.element_order(g), p)]
        try:
            sylow = closure(group.spec, ppart, cap=n) if ppart else None
        except SizeCapExceeded:
            sylow = None
        if (sylow is not None and 1 < sylow.order < n
                and n % sylow.order == 0 and is_normal(group, sylow)):
            m = n // sylow.order
            if any(group.element_order(g) == m for g in group.elements):
                return GroupType("BorelFrobenius", n)
    if is_perfect(group):
        for qprime in range(4, 512):
            if qprime * (qprime * qprime - 1) == n * gcd(2, qprime - 1):
                return GroupType("PSL2", qprime)
    return GroupType("Unknown")


def _is_p_power(m, p):
    while m % p == 0:
        m //= p
    return m == 1


# --- edges of groups: structure maps, kernel, covering theory -------------

class NotAHomomorphism(KmlatError):
    pass


class EdgeOfGroups(namedtuple("EdgeOfGroups", "a0 a1 a2 alpha1 alpha2")):
    """An edge of groups A1 <- A0 -> A2 with injective structure maps.

    alpha1, alpha2: dicts mapping each element of a0 into a1 resp. a2.
    """
    __slots__ = ()

    def __new__(cls, a0, a1, a2, alpha1, alpha2):
        self = super().__new__(cls, a0, a1, a2, alpha1, alpha2)
        mul = a0.mul
        for tgt, alpha in self.sides():
            if set(alpha) != set(a0.elements):
                raise NotAHomomorphism("map not defined on all of A0")
            if len(set(alpha.values())) != a0.order:
                raise NotAHomomorphism("structure map is not injective")
            for x in a0.elements:
                if alpha[x] not in tgt.elements:
                    raise NotAHomomorphism("image escapes the target group")
                for y in a0.elements:
                    xy = mul(x, y)
                    if xy not in alpha:
                        raise NotAHomomorphism(
                            "A0 is not closed under products")
                    if alpha[xy] != mul(alpha[x], alpha[y]):
                        raise NotAHomomorphism("map is not a homomorphism")
        return self

    def sides(self):
        """(A1, alpha1) and (A2, alpha2); only the first when the two are
        equal, as in by_inclusion(a0, a1, a1), so that nothing is checked
        or stepped through twice."""
        one, two = (self.a1, self.alpha1), (self.a2, self.alpha2)
        return (one,) if one == two else (one, two)

    @classmethod
    def by_inclusion(cls, a0, a1, a2):
        ident = {x: x for x in a0.elements}
        return cls(a0, a1, a2, dict(ident), dict(ident))


def eog_faithfulness_kernel(eog):
    """Largest subgroup of A0 whose images are normal in A1 and A2.

    This is the kernel of the action of the amalgam on its tree.  It is
    the fixed point of N <- {n in N : s alpha_i(n) s^-1 in alpha_i(N)},
    with s over the gens of each A_i (all elements when none are given),
    started at N = A0; equal sides are stepped through once.  For finite
    sets s X s^-1 within X means equal, so the fixed point is the largest
    subset whose images are normalized by A1 and A2; that subset is
    closed under products, hence a subgroup.
    """
    steps = []
    for grp, alpha in eog.sides():
        back = {y: x for x, y in alpha.items()}
        mul = grp.mul
        for s in grp.gens or grp.elements:
            si = grp.inv(s)
            steps.append({x: back.get(mul(mul(s, y), si))
                          for x, y in alpha.items()})
    n = set(eog.a0.elements)
    while True:
        keep = {x for x in n if all(step[x] in n for step in steps)}
        if keep == n:
            return FiniteGroup(eog.a0.spec, frozenset(n))
        n = keep



def covering_check(eog, rho0, rho1, rho2, delta1, delta2):
    """Test that (rho, delta) realizes the edge of groups on the tree.

    The A_i are finite groups under their own product; rho_i: dicts
    A_i -> Mat2 landing in the stabilizer of x_i (rho0 in the edge
    stabilizer); delta_i: Mat2.  Conditions: rho_i(alpha_i(x)) equals
    delta_i rho0(x) delta_i^-1 on A0, and g -> rho_i(g) delta_i induces a
    bijection from A_i / alpha_i(A0) onto the q+1 edges at x_i.
    """
    spec = eog.a0.spec
    for rho, grp, region in ((rho0, eog.a0, "B"), (rho1, eog.a1, "P1"),
                             (rho2, eog.a2, "P2")):
        if set(rho) != set(grp.elements):
            raise NotAHomomorphism("rho not defined on the whole group")
        for x in grp.elements:
            if not membership(rho[x], region):
                raise NotAHomomorphism("rho image escapes %s" % region)
            for y in grp.elements:
                if not rho[grp.mul(x, y)] == rho[x].mul(rho[y]):
                    raise NotAHomomorphism("rho is not a homomorphism")
    for alpha, rho, delta in ((eog.alpha1, rho1, delta1),
                              (eog.alpha2, rho2, delta2)):
        di = delta.inv()
        for x in eog.a0.elements:
            if not rho[alpha[x]] == delta.mul(rho0[x]).mul(di):
                return False
    base = base_edge(spec)
    for a_i, alpha, rho, delta, vertex in (
            (eog.a1, eog.alpha1, rho1, delta1, vertex_x1(spec)),
            (eog.a2, eog.alpha2, rho2, delta2, vertex_x2(spec))):
        img = FiniteGroup(spec, frozenset(alpha[x] for x in eog.a0.elements))
        edges = []
        for g in cosets(a_i, img):
            e = edge_act(rho[g].mul(delta), base)
            if not (e.v0 == vertex or e.v1 == vertex):
                return False
            if any(e == f for f in edges):
                return False
            edges.append(e)
        if len(edges) != spec.q + 1:
            return False
    return True


# --- the root-group action: whole ball, and the exact affine model --------

def alternating_word(params, pairs):
    """Build z = x1(t_{1,1}) x2(t_{2,1}) ... from coefficient pairs.

    pairs: sequence of (t1, t2) F_q codes; letters all have depth 0.
    """
    word = []
    for t1, t2 in pairs:
        word.append((1, 0, t1))
        word.append((2, 0, t2))
    return tuple(word)


def ball2_edges(spec):
    """The 1 + 2q + 2q^2 edges at distance <= 2 from the base edge, in
    table index order: base, L and R of length 1, L and R of length 2,
    each side in coordinate-code order."""
    codes = range(spec.q)
    edges = [("base", ())]
    for region in ("L", "R"):
        edges += [(region, (c,)) for c in codes]
    for region in ("L", "R"):
        edges += [(region, (c1, c2)) for c1 in codes for c2 in codes]
    return edges


def ball2_word_table(params, word, mode):
    """The word's action on ball2_edges as a list of indices, built from
    kmaction.apply_letter (looked up at call time, so that a patch of it
    shows) one letter at a time, rightmost letter first as in apply_word.
    Returns (image, t1, t2): image[i] is the index of the word's image of
    edge i, and t1, t2 are the codes of the coefficient sums of the two
    sides."""
    add = params.spec._tables()[0]
    sums = {1: 0, 2: 0}
    edges = ball2_edges(params.spec)
    index = {e: i for i, e in enumerate(edges)}
    image = range(len(edges))
    for letter in reversed(word):
        side, _, coeff = letter
        sums[side] = add[sums[side]][coeff]
        table = [index[kmaction.apply_letter(params, letter, e, mode)]
                 for e in edges]
        image = [table[j] for j in image]
    return image, sums[1], sums[2]


def _power_fixes_all(image, p):
    """Whether p steps of image return every index to itself, walked p
    steps from every index: the p-step reference for the cycle test."""
    for i, j in enumerate(image):
        for _ in range(p - 1):
            j = image[j]
        if j != i:
            return False
    return True


def zp_fixes_ball2(params, word, mode="identity_phi"):
    """Whether z^p fixes every edge at combinatorial distance <= 2."""
    _check_alternating(word)
    image, _, _ = ball2_word_table(params, word, mode)
    return _power_fixes_all(image, params.spec.p)


def zp_criterion(spec, pairs):
    """Whether z^p fixes every left length-2 edge (identity_phi), read off
    the code pairs (a_k, u_k) of z = x1(a_1) x2(u_1) ... x1(a_n) x2(u_n).

    With s_k = a_{k+1} + ... + a_n and t1 = a_1 + ... + a_n: iff t1 = 0,
    or for every coset C of F_p*t1 the u_k with s_k in C sum to 0.  When
    x2(u_k) acts on L:c1,c2 the first coordinate is c1 + s_k, and u_k is
    added to c2 unless that is 0; over p rounds c1 runs through
    c1 + F_p*t1, so c2 moves by minus the sum of the u_k with s_k in
    -c1 + F_p*t1.  For prime q there is one coset: t1 = 0 or t2 = 0.
    """
    add = spec._tables()[0]
    s = [0]  # s_n, s_{n-1}, ..., s_0 = t1
    for a, _ in reversed(pairs):
        s.append(add[s[-1]][a])
    line = [0]  # F_p*t1
    for _ in range(spec.p - 1):
        line.append(add[line[-1]][s[-1]])
    sums = Counter()  # least code of the coset of s_k -> sum of its u_k
    for s_k, (_, u) in zip(s, reversed(pairs)):
        coset = min(add[s_k][x] for x in line)
        sums[coset] = add[sums[coset]][u]
    return not s[-1] or not any(sums.values())


def dfs_zp_walk(params, pairs):
    """kmaction.zp_walk as it was before it walked distinct prefix states:
    every word walked depth-first, in itertools.product order of its
    codes, and tested at its leaf.  The oracle of zp_walk."""
    spec = params.spec
    check_zp_size(spec.q, pairs)
    add = spec._tables()[0]
    x1s, x2s = ([itemgetter(*letter_table(params, (side, 0, c),
                                          "identity_phi"))
                 for c in range(spec.q)] for side in (1, 2))
    tally = Counter()  # (t1 != 0, agrees) -> words

    def walk(image, left, t1, t2):
        for a, x1 in enumerate(x1s):
            after_x1, s1 = x1(image), add[t1][a]
            for u, x2 in enumerate(x2s):
                word, s2 = x2(after_x1), add[t2][u]
                if left > 1:
                    walk(word, left - 1, s1, s2)
                else:
                    tally[s1 != 0, _power_is_identity(word, spec.p)
                          == (s2 == 0)] += 1

    walk(range(spec.q ** 2), pairs, 0, 0)
    return {"checked": sum(tally.values()),
            "agreements": tally[False, True] + tally[True, True],
            "checked_t1_nonzero": tally[True, False] + tally[True, True],
            "agreements_t1_nonzero": tally[True, True]}


def _x1(spec, u):
    one, zero = LaurentPoly.one(spec), LaurentPoly.zero(spec)
    return Mat2(spec, one, LaurentPoly(spec, {0: u}), zero, one)


def _x2(spec, u):
    one, zero = LaurentPoly.one(spec), LaurentPoly.zero(spec)
    return Mat2(spec, one, zero, LaurentPoly(spec, {1: u}), one)


def _xm1(spec, u):
    one, zero = LaurentPoly.one(spec), LaurentPoly.zero(spec)
    return Mat2(spec, one, zero, LaurentPoly(spec, {0: u}), one)


def _xm2(spec, u):
    one, zero = LaurentPoly.one(spec), LaurentPoly.zero(spec)
    return Mat2(spec, one, LaurentPoly(spec, {-1: u}), zero, one)


def _w1(spec):
    minus_one = spec._tables()[2][1]
    return _x1(spec, 1).mul(_xm1(spec, minus_one)).mul(_x1(spec, 1))


def _w2(spec):
    minus_one = spec._tables()[2][1]
    return _x2(spec, 1).mul(_xm2(spec, minus_one)).mul(_x2(spec, 1))


def letter_matrix(spec, letter):
    """Exact matrix of a depth-0 letter in the affine model."""
    side, depth, coeff = letter
    if depth != 0:
        raise UnsupportedActionDomain("matrix model covers depth 0 only")
    if side == 1:
        return _x1(spec, coeff)
    return _x2(spec, coeff)


class RadiusExceeded(KmlatError):
    """An edge label longer than realize_edge's radius."""


def realize_edge(params, e, radius=6):
    """The exact tree edge corresponding to a labeled edge (m = 2 only)."""
    if params.m != 2:
        raise UnsupportedActionDomain("exact realization needs m = 2")
    spec = params.spec
    region, coords = e
    if region != "base" and len(coords) > radius:
        raise RadiusExceeded("edge length %d beyond radius %d"
                             % (len(coords), radius))
    g = mat2_identity(spec)
    if region != "base":
        first = 1 if region == "L" else 2
        for i, c in enumerate(coords):
            side = first if i % 2 == 0 else (3 - first)
            if side == 1:
                g = g.mul(_x1(spec, c)).mul(_w1(spec))
            else:
                g = g.mul(_x2(spec, c)).mul(_w2(spec))
    return edge_act(g, base_edge(spec))


def crosscheck_affine(params, word, e, mode="twisted_phi", radius=6):
    """Compare the symbolic action with the exact affine one (m = 2).

    Returns True when the matrix image of the realized edge equals the
    realization of the symbolic image.  Symbolic failures propagate as
    UnsupportedActionDomain.
    """
    if params.m != 2:
        raise UnsupportedActionDomain("cross-check needs m = 2")
    spec = params.spec
    symbolic = apply_word(params, word, e, mode)
    g = mat2_identity(spec)
    for letter in word:
        g = g.mul(letter_matrix(spec, letter))
    exact = edge_act(g, realize_edge(params, e, radius))
    return exact == realize_edge(params, symbolic, radius)


# --- the Dickson table as it was written, one branch per ambient ----------

def _entry(q, t, order, source):
    return {"type": t, "order": order, "div_q_plus_1": order % (q + 1) == 0,
            "source": source}


def dickson_table_branches(spec, ambient):
    """Subgroup-type table for PSL2/SL2/PGL2 over F_q.

    Rows list the maximal members of each family (cyclic and dihedral rows
    are stated at their largest order; every subgroup of a listed row is
    again of listed shape).  ambient: "psl2", "sl2" or "pgl2"; at p = 2 the
    three groups coincide and all give the psl2 rows.
    """
    if ambient not in ("psl2", "sl2", "pgl2"):
        raise NotFound("unknown ambient %r" % ambient)
    q, p, a = spec.q, spec.p, spec.a
    d = gcd(2, q - 1)
    k_order = q * (q * q - 1) // d
    rows = []
    if ambient == "psl2" or p == 2:
        src = "psl2-subgroup-classification"
        rows.append(_entry(q, "Cyclic(%d)" % ((q - 1) // d), (q - 1) // d, src))
        rows.append(_entry(q, "Cyclic(%d)" % ((q + 1) // d), (q + 1) // d, src))
        rows.append(_entry(q, "ElementaryAbelian(%d)" % q, q, src))
        rows.append(_entry(q, "BorelFrobenius", q * (q - 1) // d, src))
        rows.append(_entry(q, "Dihedral(%d)" % (2 * (q - 1) // d),
                           2 * (q - 1) // d, src))
        rows.append(_entry(q, "Dihedral(%d)" % (2 * (q + 1) // d),
                           2 * (q + 1) // d, src))
        # at p = 2: A4 needs F_4 inside F_q, and there is no element of order 4
        if p != 2 or a % 2 == 0:
            rows.append(_entry(q, "A4", 12, src))
        if p != 2 and q % 8 in (1, 7):
            rows.append(_entry(q, "S4", 24, src))
        if k_order % 5 == 0:
            rows.append(_entry(q, "A5", 60, src))
        for b in range(1, a):
            if a % b == 0:
                qb = p ** b
                rows.append(_entry(q, "PSL2(%d)" % qb,
                                   qb * (qb * qb - 1) // gcd(2, qb - 1), src))
        for b in range(1, a):
            if a % (2 * b) == 0:
                qb = p ** b
                rows.append(_entry(q, "PGL2(%d)" % qb, qb * (qb * qb - 1), src))
    elif ambient == "sl2":
        src = "sl2-subgroup-classification"
        rows.append(_entry(q, "Cyclic(%d)" % (q - 1), q - 1, src))
        rows.append(_entry(q, "Cyclic(%d)" % (q + 1), q + 1, src))
        rows.append(_entry(q, "ElementaryAbelian(%d)" % q, q, src))
        rows.append(_entry(q, "BorelFrobenius", q * (q - 1), src))
        rows.append(_entry(q, "Dicyclic(%d)" % (2 * (q - 1)), 2 * (q - 1), src))
        rows.append(_entry(q, "Dicyclic(%d)" % (2 * (q + 1)), 2 * (q + 1), src))
        rows.append(_entry(q, "SL2(3)", 24, src))
        if (q - 1) % 8 == 0 or (q + 1) % 8 == 0:
            rows.append(_entry(q, "2S4", 48, src))
        if (q * (q * q - 1)) % 5 == 0:
            rows.append(_entry(q, "SL2(5)", 120, src))
        for b in range(1, a):
            if a % b == 0:
                qb = p ** b
                rows.append(_entry(q, "SL2(%d)" % qb, qb * (qb * qb - 1), src))
    else:
        src = "pgl2-subgroup-classification"
        rows.append(_entry(q, "Cyclic(%d)" % (q - 1), q - 1, src))
        rows.append(_entry(q, "Cyclic(%d)" % (q + 1), q + 1, src))
        rows.append(_entry(q, "ElementaryAbelian(%d)" % q, q, src))
        rows.append(_entry(q, "Frobenius", q * (q - 1), src))
        rows.append(_entry(q, "Dihedral(%d)" % (2 * (q - 1)), 2 * (q - 1), src))
        rows.append(_entry(q, "Dihedral(%d)" % (2 * (q + 1)), 2 * (q + 1), src))
        rows.append(_entry(q, "A4", 12, src))
        in_psl = (q % 8 in (1, 7))
        rows.append(_entry(q, "S4%s" % ("" if in_psl else "-outside-psl"),
                           24, src))
        if (q * (q * q - 1)) % 5 == 0:
            rows.append(_entry(q, "A5", 60, src))
        for b in range(1, a):
            if a % b == 0:
                qb = p ** b
                rows.append(_entry(q, "PSL2(%d)" % qb,
                                   qb * (qb * qb - 1) // gcd(2, qb - 1), src))
                rows.append(_entry(q, "PGL2(%d)" % qb, qb * (qb * qb - 1), src))
    # dedupe identical rows (small q can collapse several families)
    seen, out = set(), []
    for r in rows:
        key = (r["type"], r["order"])
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out



# --- the F_q tables as built one entry and one power at a time ------------

def tables_by_powers(spec):
    """(add, mul, neg, inv) as FieldSpec._build_tables built them before
    the rows were rotated and gathered: add digit by digit in Python, and
    each power of the generator one polynomial product and reduction."""
    q, p = spec.q, spec.p
    # each pass adds a top digit: with x = X + n*d and y = Y + n*e,
    # add[x][y] = add[X][Y] + n*((d + e) % p)
    add, n = [[0]], 1
    for _ in range(spec.a):
        shifts = [[n * ((d + e) % p) for e in range(p)] for d in range(p)]
        add = [[s + t for t in shifts[d] for s in row]
               for d in range(p) for row in add]
        n *= p
    # the first code whose powers return to 1 only after q-1 products
    for g in range(1, q):
        gc = list(spec._coeffs_of(g))
        exp, x = [1], gc
        while spec._code_of(x) != 1:
            exp.append(spec._code_of(x))
            x = _poly_mod(_poly_mul(x, gc, p), spec.modulus, p)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for k, x in enumerate(exp):
        log[x] = k
    exp2, logs = exp + exp, log[1:]  # exp2[i + j] = g^(i+j) for i, j < q-1
    mul = [[0] * q] + [[0] + [exp2[log[x] + k] for k in logs]
                       for x in range(1, q)]
    neg = [row.index(0) for row in add]
    inv = [0] + [exp[-log[x]] for x in range(1, q)]
    return add, mul, neg, inv


# --- the involution families as solved on LaurentPoly objects -------------

def object_polys(spec, lo, hi):
    """All Laurent polys supported on pi-degrees lo..hi, in product order
    with the pi^hi coefficient varying slowest."""
    degs = range(hi, lo - 1, -1)
    for codes in itertools.product(range(spec.q), repeat=len(degs)):
        yield LaurentPoly(spec, dict(zip(degs, codes)))


def object_candidates(spec, region, w):
    """The candidate b and c of the involutions [[a,b],[c,a]] of a region,
    on pi-degrees up to w:
      B:    b on pi-degrees 0..w, c on 1..w;
      P1-B: b on 0..w, c on 0..w with a nonzero pi^0 coefficient (a unit);
      P2-B: b on -1..w with a nonzero pi^-1 coefficient, c on 1..w.
    b reaches pi^-1 only where c starts at pi^1, so 1 + bc lies on 0..2w."""
    if region == "B":
        return list(object_polys(spec, 0, w)), list(object_polys(spec, 1, w))
    if region == "P1-B":
        return (list(object_polys(spec, 0, w)),
                [c for c in object_polys(spec, 0, w) if 0 in c.coeffs])
    if region == "P2-B":
        return ([b for b in object_polys(spec, -1, w) if -1 in b.coeffs],
                list(object_polys(spec, 1, w)))
    raise SpecMismatch("unknown region %r" % region)


def object_involution_families(spec, region, window):
    """serretree.involution_families as it was before it solved on F_q
    codes: 1 + bc and a formed as LaurentPoly objects for every (b, c)
    candidate of the region, and each member a Mat2.  Same members (as
    oracles.member_mat2 makes them of the code triples), order and
    errors."""
    if spec.p != 2:
        raise OddCharacteristic("involution families need p = 2")
    if window > 3:
        raise WindowTooLarge("window %d > 3" % window)
    check_dihedral_size(spec.q, window)
    w = window
    bs, cs = object_candidates(spec, region, w)
    one = LaurentPoly.one(spec)
    mul = spec._tables()[1]
    sqrt = [0] * spec.q
    for x in range(spec.q):
        sqrt[mul[x][x]] = x
    # (rank, a's codes from pi^w to pi^0) -> members in (b, c) order; rank
    # puts c = 0 (upper unipotents, a = 1) before b = 0 (lower ones)
    buckets = {}
    for b in bs:
        for c in cs:
            if b.is_zero() and c.is_zero():
                continue
            r = one + b * c
            if any(d % 2 for d in r.coeffs):
                continue
            a = LaurentPoly(spec, {d // 2: sqrt[x]
                                   for d, x in r.coeffs.items()})
            rank = 0 if c.is_zero() else 1 if b.is_zero() else 2
            key = (rank, tuple(a.coeffs.get(d, 0) for d in range(w, -1, -1)))
            buckets.setdefault(key, []).append(Mat2(spec, a, b, c, a))
    return [m for key in sorted(buckets) for m in buckets[key]]
