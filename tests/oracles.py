"""Slow reference implementations that the fast code is tested against.

Each function here is a direct search that a construction in src/kmlat
replaced; differential tests assert that both give the same results.
"""

from functools import lru_cache
from math import gcd
from unittest.mock import patch

from collections import Counter

from kmlat import lattice, serretree
from kmlat.errors import (KindInadmissible, NotFound, OddCharacteristic,
                          KmlatError, SizeCapExceeded, SpecMismatch,
                          UnsupportedActionDomain)
from kmlat.gf import ExtElement, _poly_mod, _poly_mul, is_prime
from kmlat.groups import (CODE_ONE, SUBGROUP_TARGETS, FiniteGroup, code_mul,
                          find_subgroup_of_type, generate, order_available,
                          order_of, sl2_codes)
from kmlat.kmaction import apply_word
from kmlat.lattice import covolume
from kmlat.laurent import LaurentPoly
from kmlat.serretree import Mat2, act
from reference import (mat2_identity, membership, object_polys, vertex_x1,
                       vertex_x2)


def trial_division_is_prime(n):
    """gf.is_prime by trial division, as it was before Miller-Rabin."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def digit_neg(fe):
    """-fe by negating the base-p digits of its code, one digit at a time.
    gf.FieldSpec reads its negation table off the add table instead."""
    spec = fe.spec
    return spec.element(spec._code_of(
        tuple((-c) % spec.p for c in spec._coeffs_of(fe.code))))


def polynomial_tables(spec):
    """(add, mul, neg, inv) of gf.FieldSpec by adding the base-p digits and
    multiplying and reducing the coefficient polynomials of every pair of
    codes, as FieldSpec did before it multiplied through a discrete log."""
    q, p = spec.q, spec.p
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    coeffs = [spec._coeffs_of(i) for i in range(q)]
    for i in range(q):
        for j in range(i, q):
            s = tuple((x + y) % p for x, y in zip(coeffs[i], coeffs[j]))
            add[i][j] = add[j][i] = spec._code_of(s)
            prod = _poly_mul(list(coeffs[i]), list(coeffs[j]), p)
            prod = _poly_mod(prod, spec.modulus, p)
            mul[i][j] = mul[j][i] = spec._code_of(prod)
    neg = [row.index(0) for row in add]
    inv = [0] + [row.index(1) for row in mul[1:]]
    return add, mul, neg, inv


def long_division_is_irreducible(modulus, p):
    """gf._is_irreducible with its own long division, as it was before it
    took the remainder from gf._poly_mod."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            div = [(code // p ** i) % p for i in range(d)] + [1]
            rem = list(modulus)
            for i in range(len(rem) - 1, d - 1, -1):
                top = rem[i]
                if top:
                    for j in range(d + 1):
                        rem[i - d + j] = (rem[i - d + j] - top * div[j]) % p
            if not any(rem[:d]):
                return False
    return True


# --- F_{q^2} on ExtElement, before it moved to code tuples of F_q[C] -------

def ext_one(spec):
    return ExtElement(spec, spec.one, spec.zero)


@lru_cache(maxsize=None)
def ext_primitive_element(spec):
    """gf.primitive_element as an ExtElement x + y*w: the first generator
    of F_{q^2}* in (y, x) code order, by ExtElement powers."""
    n = spec.q * spec.q - 1
    primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
    one = ext_one(spec)
    for ycode in range(1, spec.q):
        for xcode in range(spec.q):
            z = ExtElement(spec, spec.element(xcode), spec.element(ycode))
            if not z.is_zero() and all(not z ** (n // r) == one
                                       for r in primes):
                return z


def ext_norm1_subgroup(spec):
    """gf.norm1_subgroup as ExtElements: the q+1 powers of h = g^(q-1),
    in ascending (y, x) code order."""
    h = ext_primitive_element(spec) ** (spec.q - 1)
    out, z = [], ext_one(spec)
    for _ in range(spec.q + 1):
        out.append(z)
        z = z * h
    return sorted(out, key=lambda z: (z.y.code, z.x.code))


def as_ext(spec, z):
    """The code 4-tuple z = x*I + y*C of F_q[C] as the ExtElement x + y*w;
    raises AssertionError when z is not of that form."""
    ext = ExtElement(spec, spec.element(z[0]), spec.element(z[2]))
    assert mult_matrix(spec, ext) == z, z
    return ext


def mult_matrix(spec, z):
    """Codes of multiplication by the ExtElement z = x + y*w on F_{q^2},
    basis {1, w}: [[x, -y*c0], [y, x - y*c1]], as groups._mult_matrix
    built the torus before F_{q^2} was held as these matrices."""
    c0, c1 = map(spec.element, spec.ext_modulus())
    return (z.x.code, (-(z.y * c0)).code, z.y.code, (z.x - z.y * c1).code)


def ext_order(z):
    """The multiplicative order of a nonzero ExtElement, by products."""
    one, acc, n = ext_one(z.spec), z, 1
    while acc != one:
        acc, n = acc * z, n + 1
    return n


def ext_torus_t0(spec):
    """The t0 of groups.nonsplit_torus as an ExtElement: the first element
    of ext_norm1_subgroup, in (y, x) code order, of order q+1."""
    return next(z for z in ext_norm1_subgroup(spec)
                if ext_order(z) == spec.q + 1)


def ext_first_of_norm(spec, n):
    """The first ExtElement x + y*w, in (y, x) code order, of norm n."""
    return next(z for z in (ExtElement(spec, spec.element(x),
                                       spec.element(y))
                            for y in range(spec.q) for x in range(spec.q))
                if z.norm() == n)


def ext_normalizer_s(spec):
    """The s of groups.torus_normalizer: v -> z*conj(v) for the first z of
    norm -1, as codes on the basis {1, w}; its columns are z*conj(1) = z
    and z*conj(w) = z*(-c1 - w), with conj the Frobenius."""
    z = ext_first_of_norm(spec, -spec.one)
    c1 = spec.element(spec.ext_modulus()[1])
    v = z * ExtElement(spec, -c1, -spec.one)
    return (z.x.code, v.x.code, z.y.code, v.y.code)


def fe_coeffs(x):
    """A LaurentPoly's coefficients as {pi-degree: FieldElement}."""
    return {d: x.spec.element(c) for d, c in x.coeffs.items()}


def fe_laurent_add(x, y):
    """Sum of two {pi-degree: FieldElement} dicts with FieldElement
    arithmetic, as LaurentPoly.__add__ did before it held codes."""
    out = dict(x)
    for d, c in y.items():
        if d in out:
            s = out[d] + c
            if s.is_zero():
                del out[d]
            else:
                out[d] = s
        else:
            out[d] = c
    return out


def fe_laurent_neg(x):
    return {d: digit_neg(c) for d, c in x.items()}


def fe_laurent_mul(x, y):
    """Product of two {pi-degree: FieldElement} dicts with FieldElement
    arithmetic, as LaurentPoly.__mul__ did before it held codes."""
    out = {}
    for d1, c1 in x.items():
        for d2, c2 in y.items():
            d = d1 + d2
            prod = c1 * c2
            if d in out:
                s = out[d] + prod
                if s.is_zero():
                    del out[d]
                else:
                    out[d] = s
            elif not prod.is_zero():
                out[d] = prod
    return out


def member_mat2(spec, member):
    """The Mat2 [[a,b],[c,a]] of a code triple (a, b, c) of
    serretree.involution_families: a's codes run from pi^w down to pi^0,
    b and c are {pi-degree: code} dicts."""
    a, b, c = member
    a = LaurentPoly(spec, dict(enumerate(reversed(a))))
    return Mat2(spec, a, LaurentPoly(spec, b), LaurentPoly(spec, c), a)


def mat2_member(m, window):
    """The code triple of a Mat2 m = [[a,b],[c,a]] at window: member_mat2
    undone."""
    return (tuple(m.a.coeffs.get(d, 0) for d in range(window, -1, -1)),
            m.b.coeffs, m.c.coeffs)


def member_mat2s(spec, region, window):
    """serretree.involution_families(spec, region, window) as Mat2, in
    order; read through the module, so a test can replace the families."""
    return [member_mat2(spec, m)
            for m in serretree.involution_families(spec, region, window)]


def enumerated_involution_families(spec, region, window):
    """involution_families by trying every (a, b, c) with a^2 + bc = 1.

    Same regions and order: upper unipotents, lower unipotents, then the
    balanced [[a,b],[c,a]] in (a, b, c) object_polys order, as Mat2.
    """
    w = window
    one = LaurentPoly.one(spec)
    zero = LaurentPoly.zero(spec)
    out = []

    def nonzero_at(lo, hi, degree):
        return [x for x in object_polys(spec, lo, hi)
                if x.coeffs.get(degree, 0) != 0]

    def upper(b):
        return Mat2(spec, one, b, zero, one)

    def lower(c):
        return Mat2(spec, one, zero, c, one)

    if region == "B":
        for b in object_polys(spec, 0, w):
            if not b.is_zero():
                out.append(upper(b))
        for c in object_polys(spec, 1, w):
            if not c.is_zero():
                out.append(lower(c))
        for a in object_polys(spec, 0, w):
            for b in object_polys(spec, 0, w):
                if b.is_zero():
                    continue
                for c in object_polys(spec, 1, w):
                    if c.is_zero():
                        continue
                    if a * a + b * c == one:
                        out.append(Mat2(spec, a, b, c, a))
    elif region == "P1-B":
        for c in nonzero_at(0, w, 0):
            out.append(lower(c))
        for a in object_polys(spec, 0, w):
            for b in object_polys(spec, 0, w):
                if b.is_zero():
                    continue
                for c in nonzero_at(0, w, 0):
                    if a * a + b * c == one:
                        out.append(Mat2(spec, a, b, c, a))
    elif region == "P2-B":
        for b in nonzero_at(-1, w, -1):
            out.append(upper(b))
        for a in object_polys(spec, 0, w):
            for b in nonzero_at(-1, w, -1):
                for c in object_polys(spec, 1, w):
                    if c.is_zero():
                        continue
                    if a * a + b * c == one:
                        out.append(Mat2(spec, a, b, c, a))
    return out


def full_product_obstruction_search(spec, window):
    """serretree.dihedral_obstruction_search by forming g*s*g for every
    pair and testing its valuations: the lower-left entry is a unit (P1),
    the upper-right one has a t^1 term (P2).  Reads the families through
    serretree.involution_families, so a test can replace them there, and
    makes each member a Mat2 with member_mat2.  A violation is reported as
    the texts of its three Mat2, as the search reports it."""
    fam_b = member_mat2s(spec, "B", window)
    fam_1 = member_mat2s(spec, "P1-B", window)
    fam_2 = member_mat2s(spec, "P2-B", window)
    violations = []
    for s in fam_b:
        bad1 = [g1 for g1 in fam_1 if g1.mul(s).mul(g1).c.valuation() == 0]
        if not bad1:
            continue
        bad2 = [g2 for g2 in fam_2
                if g2.mul(s).mul(g2).b.coeffs.get(-1, 0) != 0]
        violations.extend([str(s), str(g1), str(g2)]
                          for g1 in bad1 for g2 in bad2)
    return {
        "q": spec.q,
        "window": window,
        "family_sizes": {"B": len(fam_b), "P1-B": len(fam_1),
                         "P2-B": len(fam_2)},
        "triples_checked": len(fam_b) * len(fam_1) * len(fam_2),
        "violations": violations,
    }


def full_walk_trace_order_map(spec):
    """walked_trace_order_map by walking every power of a generator of
    F_{q^2}* and keeping those whose trace lam + lam^-1 lies in F_q."""
    n = spec.q ** 2 - 1
    gen = ext_primitive_element(spec)
    gen_inv = gen ** (n - 1)
    out = {}
    lam, lam_inv = gen, gen_inv
    for k in range(1, n):
        tau = lam + lam_inv
        if tau.y.is_zero():
            out.setdefault(tau.x.code, n // gcd(n, k))
        lam = lam * gen
        lam_inv = lam_inv * gen_inv
    two = spec.one + spec.one
    out[two.code] = spec.p
    out[(-two).code] = 2 * spec.p
    return out


def walked_trace_order_map(spec):
    """Map trace code -> element order for the non-central elements of
    SL2(F_q); traces 2 and -2 map to p and 2p (the unipotent classes).

    Walks F_{q^2}* = <gen>: an element of SL2 with eigenvalue pair
    (lam, lam^-1), lam != +-1, has the order of lam, and its trace
    lam + lam^-1 lies in F_q exactly when lam = gen^k with k a multiple of
    q+1 or of q-1, so only those 2q powers are walked.
    """
    n = spec.q ** 2 - 1
    gen = ext_primitive_element(spec)
    out = {}
    for step in (spec.q - 1, spec.q + 1):
        mu = gen ** step
        mu_inv = gen ** (n - step)
        lam, lam_inv = mu, mu_inv
        for k in range(step, n, step):
            out.setdefault((lam + lam_inv).x.code, n // gcd(n, k))
            lam = lam * mu
            lam_inv = lam_inv * mu_inv
    two = (spec.one + spec.one).code
    mtwo = (-(spec.one + spec.one)).code
    out[two] = spec.p
    out[mtwo] = 2 * spec.p
    return out


class SearchBudgetExceeded(KmlatError):
    """scan_find_subgroup_of_type ran past its q cap or attempt budget."""


# kind -> (the order of the first generator, the orders allowed for the
# second) of the pairs scan_find_subgroup_of_type closes
SCAN_GENERATOR_ORDERS = {"SL2(3)": (6, (4,)), "SL2(5)": (10, (4,)),
                         "2S4": (8, (6, 3))}
SCAN_BUDGET = 500_000


def scan_find_subgroup_of_type(spec, kind):
    """A subgroup of SL2(F_q) of the named type, found by search where
    groups.find_subgroup_of_type builds one from a trace triple.

    Scans all of SL2(F_q), q odd and at most 64, keeps the elements whose
    trace has one of the two wanted orders, takes each one's order by
    repeated products, and closes pairs (x, y) of those orders until one
    has the type's order and profile.  None when some element order of
    the profile is missing from SL2(F_q)."""
    if kind not in SUBGROUP_TARGETS:
        raise NotFound("unknown subgroup kind %r" % kind)
    if spec.p == 2 or spec.q > 64:
        raise SearchBudgetExceeded("search supports odd q <= 64")
    target_order, profile = SUBGROUP_TARGETS[kind][:2]
    o1, o2s = SCAN_GENERATOR_ORDERS[kind]
    if not all(order_available(spec, d) for d in profile):
        return None
    add = spec._tables()[0]
    mul = code_mul(spec)
    want = {t for t, o in walked_trace_order_map(spec).items()
            if o == o1 or o in o2s}
    xs, pool2 = [], []
    for g in sl2_codes(spec):
        if add[g[0]][g[3]] in want:
            o = order_of(g, CODE_ONE, mul)
            if o == o1 and len(xs) < 8:
                xs.append(g)
            if o in o2s:
                pool2.append(g)

    attempts = 0
    for x in xs:
        for y in pool2:
            attempts += 1
            if attempts > SCAN_BUDGET:
                raise SearchBudgetExceeded("%d attempts" % attempts)
            try:
                h = generate(CODE_ONE, (x, y), mul, target_order + 1)
            except SizeCapExceeded:
                continue
            if len(h) != target_order:
                continue
            if Counter(order_of(g, CODE_ONE, mul) for g in h) == profile:
                return FiniteGroup(spec, h, (x, y))
    return None


def trace_copies(spec, kind, first_a=3):
    """Copies <x, y> of the kind, as FiniteGroups with gens (x, y), from the
    trace triples (0, 1, tau) of groups.find_subgroup_of_type, with b found
    by trying every code.

    x = [[0, 1], [-1, 0]] and y = [[a, b], [tau + b, 1 - a]] for every
    root tau of tau^2 + c1*tau + c0 or of tau^2 - c1*tau + c0 (the triple
    (0, 1, -tau) is that of (-x, y), and <-x, y> = <x, y>), the first
    `first_a` codes a for which b^2 + tau*b + a^2 - a + 1 = 0 has a root b,
    and each such b.  Each closure is capped at the kind's order plus one,
    so a pair that generates more raises SizeCapExceeded."""
    q, p = spec.q, spec.p
    add, mul, neg, _ = spec._tables()
    order, _, (c1, c0) = SUBGROUP_TARGETS[kind]
    prod = code_mul(spec)
    x = (0, 1, neg[1], 0)
    roots = {t for t in range(q) for sign in (1, -1)
             if not add[add[mul[t][t]][mul[sign * c1 % p][t]]][c0 % p]}
    out = []
    for tau in sorted(roots):
        tried = 0
        for a in range(q):
            e = add[mul[a][a]][add[1][neg[a]]]  # a^2 - a + 1
            bs = [b for b in range(q)
                  if not add[add[mul[b][b]][mul[tau][b]]][e]]
            for b in bs:
                y = (a, b, add[tau][b], add[1][neg[a]])
                out.append(FiniteGroup(
                    spec, generate(CODE_ONE, (x, y), prod, order + 1), (x, y)))
            tried += bool(bs)
            if tried == first_a:
                break
    return out


def aligned_report(spec, kind, copy):
    """lubotzky_check's report on the A1 that
    lattice.build_standard_lattice aligns from the exceptional copy `copy`
    in place of the one groups.find_subgroup_of_type builds; or the class
    name and message of the KmlatError the build or the check raised."""
    with patch.object(lattice, "find_subgroup_of_type", lambda s, k: copy):
        try:
            return lattice.lubotzky_check(
                lattice.build_standard_lattice(spec, kind))
        except KmlatError as exc:
            return type(exc).__name__, str(exc)


def _replay_fixes(params, word, mode, e):
    img = e
    for _ in range(params.spec.p):
        img = apply_word(params, word, img, mode)
    return img == e


def replayed_zp_fix_test(params, word, mode="identity_phi"):
    """kmaction.zp_fix_test by replaying apply_word p times on every left
    length-2 edge, and summing each side's coefficients in a second pass."""
    spec = params.spec
    add = spec._tables()[0]
    fixes = True
    for c1 in range(spec.q):
        for c2 in range(spec.q):
            if not _replay_fixes(params, word, mode, ("L", (c1, c2))):
                fixes = False
    t1 = t2 = 0
    for side, _, coeff in word:
        if side == 1:
            t1 = add[t1][coeff]
        else:
            t2 = add[t2][coeff]
    return fixes, t1, t2


def replayed_zp_fixes_ball2(params, word, mode="identity_phi"):
    """kmaction.zp_fixes_ball2 by replaying apply_word p times on every
    edge at distance <= 2 from the base edge."""
    spec = params.spec
    edges = [("base", ())]
    for c in range(spec.q):
        edges.append(("L", (c,)))
        edges.append(("R", (c,)))
    for c1 in range(spec.q):
        for c2 in range(spec.q):
            edges.append(("L", (c1, c2)))
            edges.append(("R", (c1, c2)))
    return all(_replay_fixes(params, word, mode, e) for e in edges)


def fe_apply_letter(params, letter, e, mode="identity_phi"):
    """kmaction.apply_letter with FieldElement arithmetic, as it was before
    labels and letters held F_q codes.  Takes and returns code labels
    (region, coords) and letters (side, depth, coeff), and raises the same
    errors with the same messages, the edge written out here rather than
    by kmaction.edge_text."""
    if mode not in ("identity_phi", "twisted_phi"):
        raise SpecMismatch("unknown mode %r" % mode)
    region, codes = e
    if region == "base":
        return e
    spec = params.spec
    side, k, code = letter
    coeff = spec.element(code)
    coords = [spec.element(c) for c in codes]
    length = len(coords)
    same_side = (side == 1) == (region == "L")
    if same_side:
        if k <= length - 1:
            coords[k] = coords[k] + coeff
            return region, tuple(c.code for c in coords)
        return e
    if length <= k + 1:
        return e
    n2 = length - 2 - k
    if n2 >= 0 and n2 % 2 == 0:
        n = n2 // 2
        if all(c.is_zero() for c in coords[:n]):
            pivot = coords[n]
            if pivot.is_zero():
                return e
            if mode == "identity_phi":
                delta = coeff
            else:
                delta = ((-pivot) ** params.m) * coeff
            coords[length - 1] = coords[length - 1] + delta
            return region, tuple(c.code for c in coords)
    raise UnsupportedActionDomain(
        "no rule for root (%d,%d) on edge %s:%s"
        % (side, k, region, ",".join(str(c) for c in codes)))


def _core(ambient, sub_elements):
    """Largest normal subgroup of ambient inside the given element set."""
    mul = ambient.mul
    core = set(sub_elements)
    for g in ambient.elements:
        gi = ambient.inv(g)
        core &= {mul(mul(g, h), gi) for h in sub_elements}
        if len(core) == 1:
            break
    x = next(iter(core))  # any element times its inverse: the identity
    return generate(mul(x, ambient.inv(x)), core, mul, ambient.order + 1)


def cored_faithfulness_kernel(eog):
    """reference.eog_faithfulness_kernel by alternating normal cores:
    conjugate the images of N by every element of A1, then of A2, until
    N is stable.  The groups may be FiniteGroups or Mat2Groups; the
    kernel comes back as a group of A0's class."""
    n = set(eog.a0.elements)
    while True:
        img1 = {eog.alpha1[x] for x in n}
        k1 = _core(eog.a1, img1)
        n1 = {x for x in n if eog.alpha1[x] in k1}
        img2 = {eog.alpha2[x] for x in n1}
        k2 = _core(eog.a2, img2)
        n2 = {x for x in n1 if eog.alpha2[x] in k2}
        if n2 == n:
            return type(eog.a0)(eog.a0.spec, frozenset(n))
        n = n2


def scanned_base_stabilizer(group, i):
    """The elements of a Mat2Group that fix the base vertex x_i, found by
    moving x_i with each element and testing vertex equality on the tree
    (elementary divisors of rep^-1 g rep)."""
    spec = group.spec
    x = vertex_x1(spec) if i == 1 else vertex_x2(spec)
    return frozenset(g for g in group.elements if act(g, x) == x)


# --- standard pairs on Mat2, before they moved to F_q code tuples ---------

class Mat2Group:
    """A finite group of Mat2 values under Mat2.mul and Mat2.inv: the shape
    FiniteGroup had before it held code tuples.  It has FiniteGroup's
    interface as far as EdgeOfGroups and the oracles here read it."""

    def __init__(self, spec, elements, gens=()):
        self.spec = spec
        self.elements = frozenset(elements)
        self.gens = tuple(gens)

    @property
    def order(self):
        return len(self.elements)

    def identity(self):
        return mat2_identity(self.spec)

    @staticmethod
    def mul(x, y):
        return x.mul(y)

    @staticmethod
    def inv(x):
        return x.inv()

    def element_order(self, g):
        return order_of(g, self.identity(), Mat2.mul)


def to_mat2(spec, codes):
    """Mat2 values of code 4-tuples, in order."""
    return [Mat2.from_codes(spec, *g) for g in codes]


def mat2_pair(a1):
    """The standard pair of a code-tuple A1 on Mat2: (A1, delta A1 delta^-1)
    with delta = diag(t, 1), conjugated by Mat2 products."""
    spec = a1.spec
    m1 = Mat2Group(spec, to_mat2(spec, a1.elements), to_mat2(spec, a1.gens))
    delta = Mat2.diag(spec, LaurentPoly.monomial(spec, -1),
                      LaurentPoly.one(spec))
    di = delta.inv()
    m2 = Mat2Group(spec, (delta.mul(x).mul(di) for x in m1.elements),
                   (delta.mul(x).mul(di) for x in m1.gens))
    return m1, m2


def mat2_sl2_elements(spec):
    """groups.sl2_elements with FieldElement arithmetic, by a, then b, then
    c with d solved (or d with c solved when a = 0)."""
    q = spec.q
    one = spec.one
    for a in range(q):
        for b in range(q):
            if a == 0:
                if b == 0:
                    continue
                cfe = -(spec.element(b).inverse())
                for d in range(q):
                    yield Mat2.from_codes(spec, 0, b, cfe.code, d)
            else:
                afe = spec.element(a)
                bfe = spec.element(b)
                for c in range(q):
                    dfe = (one + bfe * spec.element(c)) / afe
                    yield Mat2.from_codes(spec, a, b, c, dfe.code)


def mat2_mult_matrix(spec, z):
    """Multiplication by z = x + y*w on F_{q^2} as a Mat2 of constants."""
    c0, c1 = map(spec.element, spec.ext_modulus())
    entries = (z.x, -(z.y * c0), z.y, z.x - z.y * c1)
    return Mat2(spec, *(LaurentPoly(spec, {0: e.code}) for e in entries))


def mat2_nonsplit_torus(spec):
    one = LaurentPoly.one(spec)
    elems = [mat2_mult_matrix(spec, z) for z in ext_norm1_subgroup(spec)]
    assert all(m.det() == one for m in elems)
    t0 = mat2_mult_matrix(spec, ext_torus_t0(spec))
    return Mat2Group(spec, elems, (t0,))


def mat2_torus_normalizer(spec):
    if spec.p == 2:
        raise OddCharacteristic("normalizer construction needs odd p")
    torus = mat2_nonsplit_torus(spec)
    t0, = torus.gens
    c1 = spec.element(spec.ext_modulus()[1])
    frob = Mat2(spec, LaurentPoly.one(spec),
                LaurentPoly(spec, {0: (-c1).code}), LaurentPoly.zero(spec),
                LaurentPoly(spec, {0: (-spec.one).code}))
    s = mat2_mult_matrix(spec, ext_first_of_norm(spec, -spec.one)).mul(frob)
    assert s.det() == LaurentPoly.one(spec) and s not in torus.elements
    assert s.mul(t0).mul(s.inv()) in torus.elements
    elems = set(torus.elements)
    elems.update(s.mul(h) for h in torus.elements)
    return Mat2Group(spec, elems, (t0, s))


def _mat2_constants(spec, m):
    """The entries of a Mat2 of constants as FieldElements."""
    return [spec.element(e.coeffs.get(0, 0)) for e in m.entries()]


def mat2_diagonalizing_conjugator(spec, u):
    """g in SL2(F_q) with g^-1 u g diagonal, with FieldElement arithmetic
    on a Mat2 of constants."""
    a, b, c, d = _mat2_constants(spec, u)
    if b.is_zero() and c.is_zero():
        return mat2_identity(spec)
    tr = a + d
    lams = [spec.element(i) for i in range(spec.q)
            if (spec.element(i) * spec.element(i) - tr * spec.element(i)
                + spec.one).is_zero()]
    if len(lams) < 2:
        raise KindInadmissible("element is not split over F_q")
    cols = []
    for lam in lams[:2]:
        if not b.is_zero():
            cols.append((b, lam - a))
        elif not c.is_zero():
            cols.append((lam - d, c))
        else:
            cols.append((spec.one, spec.zero) if (a - lam).is_zero()
                        else (spec.zero, spec.one))
    det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    if det.is_zero():
        raise KindInadmissible("eigenvectors are dependent")
    s = det.inverse()
    entries = (cols[0][0], cols[1][0] * s, cols[0][1], cols[1][1] * s)
    return Mat2(spec, *(LaurentPoly(spec, {0: e.code}) for e in entries))


def _unipotent_aligned(spec, h, d0):
    """u^-1 H u with u = [[1, beta], [0, 1]] and beta = b/(d - a) from
    every g = [[a, b], [0, d]] in H with a != d (beta = 0 with none), in
    FieldElement arithmetic; every such g must give the same beta."""
    if (spec.q - 1) % d0:
        raise KindInadmissible("no split element of order %d" % d0)
    betas = set()
    for g in h.elements:
        a, b, c, d = _mat2_constants(spec, g)
        if c.is_zero() and a != d:
            betas.add(b / (d - a))
    assert len(betas) <= 1, betas
    beta = betas.pop() if betas else spec.zero
    u = Mat2.from_codes(spec, 1, beta.code, 0, 1)
    ui = u.inv()
    return Mat2Group(spec, (ui.mul(x).mul(u) for x in h.elements),
                     (ui.mul(x).mul(u) for x in h.gens))


def _eigen_aligned(spec, h, d0):
    """pick^-1 H pick, with pick the mat2_diagonalizing_conjugator of the
    first element of order d0, in str(Mat2) order, whose eigenvalues lie
    in F_q: how build_standard_lattice aligned H before it used the
    unipotent of the Levi decomposition."""
    pick = None
    for g in sorted(h.elements, key=lambda m: str(m)):
        if h.element_order(g) == d0:
            try:
                pick = mat2_diagonalizing_conjugator(spec, g)
            except KindInadmissible:
                continue
            break
    if pick is None:
        raise KindInadmissible("no split element of order %d" % d0)
    gi = pick.inv()
    return Mat2Group(spec, (gi.mul(x).mul(pick) for x in h.elements),
                     (gi.mul(x).mul(pick) for x in h.gens))


def _mat2_standard_pair(spec, kind, align):
    q = spec.q
    if kind == "cyclic_p2":
        if spec.p != 2:
            raise KindInadmissible("cyclic_p2 needs p = 2")
        a1 = mat2_nonsplit_torus(spec)
    elif kind == "torus_normalizer":
        if spec.p == 2:
            raise KindInadmissible("torus_normalizer needs odd p")
        a1 = mat2_torus_normalizer(spec)
    elif kind in ("SL2(3)", "SL2(5)", "2S4"):
        if spec.p == 2:
            raise KindInadmissible("exceptional kinds need odd p")
        order = SUBGROUP_TARGETS[kind][0]
        if order % (q + 1) != 0:
            raise KindInadmissible("order %d not divisible by q+1" % order)
        h = find_subgroup_of_type(spec, kind)
        if h is None:
            raise KindInadmissible("%s does not embed at q = %d" % (kind, q))
        h = Mat2Group(spec, to_mat2(spec, h.elements), to_mat2(spec, h.gens))
        a1 = align(spec, h, order // (q + 1))
    else:
        raise KindInadmissible("unknown kind %r" % kind)
    delta = Mat2.diag(spec, LaurentPoly.monomial(spec, -1),
                      LaurentPoly.one(spec))
    di = delta.inv()
    a2 = Mat2Group(spec, (delta.mul(x).mul(di) for x in a1.elements),
                   (delta.mul(x).mul(di) for x in a1.gens))
    return a1, a2


def mat2_build_standard_lattice(spec, kind):
    """lattice.build_standard_lattice with Mat2 products throughout: the
    exceptional copy that groups.find_subgroup_of_type builds is aligned by
    Mat2 conjugation with the unipotent that fixes infinity, and A2 is
    formed as delta A1 delta^-1.  Returns the Mat2Groups (A1, A2)."""
    return _mat2_standard_pair(spec, kind, _unipotent_aligned)


def mat2_eigen_aligned_lattice(spec, kind):
    """mat2_build_standard_lattice with the exceptional copy aligned by the
    eigenvectors of an element of order d0, as build_standard_lattice did
    before: a second A1, conjugate to the first, for the same report."""
    return _mat2_standard_pair(spec, kind, _eigen_aligned)


def mat2_base_stabilizer(group, i):
    """The elements of a finite group that fix the base vertex x_i.

    An element g of finite order has a root of unity, a unit, as its
    determinant, so its elementary divisors are (r, -r) with r its least
    entry valuation: g fixes x1 iff r = 0, that is iff g is in P1.  With
    D = diag(1, pi), x2 = D.x1 and D^-1 g D = [[a, pi b], [c/pi, d]], so g
    fixes x2 iff g is in P2.
    """
    region = "P1" if i == 1 else "P2"
    return frozenset(g for g in group.elements if membership(g, region))


def mat2_faithfulness_kernel(a0, a1, a2):
    """The faithfulness kernel of Mat2Groups A1 <- A0 -> A2 with the
    inclusion maps, with Mat2 products: the fixed point of
    N <- {n in N : s n s^-1 in N}, s over the gens of each A_i (all
    elements when none are given), started at N = A0."""
    steps = []
    for grp in (a1, a2):
        alpha = {x: x for x in a0.elements}
        back = {y: x for x, y in alpha.items()}
        for s in grp.gens or grp.elements:
            si = s.inv()
            steps.append({x: back.get(s.mul(y).mul(si))
                          for x, y in alpha.items()})
    n = set(a0.elements)
    while True:
        keep = {x for x in n if all(step[x] in n for step in steps)}
        if keep == n:
            return Mat2Group(a0.spec, n)
        n = keep


class WrongFixedVertex(KmlatError):
    """A1 or A2 does not fix its base vertex."""


def mat2_lubotzky_check(a1, a2):
    """lattice.lubotzky_check on a pair of Mat2Groups, as it was before it
    read the pair off A1's codes: stabilizers from entry valuations,
    A1 cap A2 as a set intersection, and the kernel by Mat2 products.

    A1 must fix x1 and A2 must fix x2 (else WrongFixedVertex).
    """
    spec = a1.spec
    q = spec.q
    if mat2_base_stabilizer(a1, 1) != a1.elements:
        raise WrongFixedVertex("A1 does not fix x1")
    if mat2_base_stabilizer(a2, 2) != a2.elements:
        raise WrongFixedVertex("A2 does not fix x2")
    stab1 = mat2_base_stabilizer(a1, 2)
    stab2 = mat2_base_stabilizer(a2, 1)
    o1 = a1.order // len(stab1)
    o2 = a2.order // len(stab2)
    inter = a1.elements & a2.elements
    cond_transitive = (o1 == q + 1 and o2 == q + 1)
    cond_stab = (stab1 == inter and stab2 == inter)
    passes = cond_transitive and cond_stab
    a0 = Mat2Group(spec, inter)
    kernel = mat2_faithfulness_kernel(a0, a1, a2)
    notes = []
    if not cond_transitive:
        notes.append("neighbor action not transitive")
    if not cond_stab:
        notes.append("opposite-vertex stabilizer differs from A1 cap A2")
    return {"q": q, "passes": passes, "orbit_sizes": (o1, o2),
            "stab_orders": (len(stab1), len(stab2)),
            "intersection_order": len(inter), "kernel_order": kernel.order,
            "covolume": covolume([a1.order, a2.order]),
            "a1_order": a1.order, "a2_order": a2.order,
            "notes": tuple(notes)}
