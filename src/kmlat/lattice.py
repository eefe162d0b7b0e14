"""Standard pairs, lattice verification and the classification table.

The verification side is exact: given a finite group A1 of constant
matrices, lubotzky_check tests the standard pair (A1, delta A1 delta^-1)
for neighbor-transitivity and the stabilizer condition, and computes the
faithfulness kernel and the covolume.  It reads the base-vertex
stabilizers and A1 cap A2 off A1's F_q codes and closes the kernel under
conjugation by A1's generators, so it needs no Laurent arithmetic.  The
classification side transcribes the case analysis for cocompact
edge-transitive lattices at a given q and center order.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import InvalidInput, KindInadmissible, MinUndefined
from .gf import is_prime
from .groups import (CODE_ONE, SUBGROUP_TARGETS, FiniteGroup,
                     find_subgroup_of_type, nonsplit_torus, order_of,
                     torus_normalizer)


def faithfulness_kernel(a0, a1):
    """Kernel of the standard pair's action on its tree, as a frozenset.

    a0 is the frozenset of A1's diagonal codes, A1 cap A2.  The kernel is
    the fixed point of N <- {n in N : s n s^-1 in N}, with s over A1's
    gens (all of A1's elements when it has none), started at N = A0; A2's
    steps repeat A1's (see lubotzky_check).  For finite sets s N s^-1
    within N means equal, so the fixed point is the largest subset of A0
    that A1 normalizes; that subset is closed under products, hence a
    subgroup.
    """
    mul = a1.mul
    steps = [(s, a1.inv(s)) for s in a1.gens or a1.elements]
    images = {x: [mul(mul(s, x), si) for s, si in steps] for x in a0}
    n = a0
    while True:
        keep = frozenset(x for x in n if all(y in n for y in images[x]))
        if keep == n:
            return n
        n = keep


def frac_str(f):
    """A Fraction as "n/d", also when d = 1."""
    return "%d/%d" % (f.numerator, f.denominator)


def covolume(orders):
    """Exact covolume sum(1/|G_s|) of a finite graph of finite groups."""
    total = Fraction(0)
    for o in orders:
        total += Fraction(1, int(o))
    return total


class VerificationReport(namedtuple(
        "VerificationReport", "q passes orbit_sizes stab_orders "
        "intersection_order kernel_order covolume a1_order a2_order notes",
        defaults=((),))):
    __slots__ = ()

    def to_json_dict(self):
        return dict(self._asdict(), covolume=frac_str(self.covolume))


def lubotzky_check(a1):
    """Edge-transitivity test for the standard pair (A1, A2), with
    A2 = delta A1 delta^-1 and delta = diag(t, 1), read off A1's codes.

    The pair generates an edge-transitive lattice iff each A_i is
    transitive on the q+1 neighbors of x_i and the stabilizer of the
    opposite base vertex in each A_i is exactly A1 cap A2.  A1 is a group
    of constant matrices, so it lies in P1 and fixes x1, and A2 lies in
    delta P1 delta^-1 = P2 and fixes x2.  Conjugation by delta sends
    g = [[a, b], [c, d]] to [[a, t b], [c/t, d]], so:
    - a constant g fixes x2, that is lies in P2, iff c = 0;
    - delta g delta^-1 fixes x1, that is lies in P1, iff b = 0;
    - A1 cap A2 is the diagonal of A1, which delta fixes pointwise.
    Orbit sizes come from orbit-stabilizer: |A_i . x_j| = |A_i| / |stab_i|.
    For the kernel, A2's generator delta s delta^-1 moves a diagonal x to
    delta (s x s^-1) delta^-1, which is diagonal exactly when s x s^-1 is,
    and then equals it.  So A2's kernel steps repeat A1's, and the kernel
    of the pair is the largest subset of the diagonal that A1's gens (all
    its elements when none are given) conjugate into itself.
    """
    q = a1.spec.q
    # stab2, A2's stabilizer of x1, is taken back to A1 through delta
    stab1 = frozenset(g for g in a1.elements if not g[2])
    stab2 = frozenset(g for g in a1.elements if not g[1])
    inter = stab1 & stab2
    o1, o2 = a1.order // len(stab1), a1.order // len(stab2)
    cond_transitive = (o1 == q + 1 and o2 == q + 1)
    cond_stab = (stab1 == inter and stab2 == inter)
    passes = cond_transitive and cond_stab
    kernel = faithfulness_kernel(inter, a1)
    notes = []
    if not cond_transitive:
        notes.append("neighbor action not transitive")
    if not cond_stab:
        notes.append("opposite-vertex stabilizer differs from A1 cap A2")
    return VerificationReport(
        q=q, passes=passes, orbit_sizes=(o1, o2),
        stab_orders=(len(stab1), len(stab2)),
        intersection_order=len(inter), kernel_order=len(kernel),
        covolume=covolume([a1.order, a1.order]),
        a1_order=a1.order, a2_order=a1.order, notes=tuple(notes))


# --- classification -------------------------------------------------------

# q -> the kinds H of the sporadic rows; at center order 2, |A0| is
# |H| / (q + 1)
EXCEPTIONAL_TABLE = {5: ("SL2(3)",), 7: ("2S4",), 11: ("SL2(3)", "SL2(5)"),
                     19: ("SL2(5)",), 23: ("2S4",), 29: ("SL2(5)",),
                     59: ("SL2(5)",)}


class ClassificationInput(namedtuple(
        "ClassificationInput", "p q levi z_order qi_in_zg qi0_in_zg "
        "qi0_nontrivial zmi_in_zg", defaults=(None,) * 4)):
    """levi: "psl" or "pgl"; the four center flags: True, False or None."""
    __slots__ = ()

    def validate(self):
        q, p = self.q, self.p
        if p < 2 or q < 2 or self.z_order < 1:
            raise InvalidInput("bad numeric parameters")
        # the bound under which gf.is_prime is exact
        if p >= 2 ** 64:
            raise InvalidInput("p = %d is not below the bound 2^64" % p)
        if not is_prime(p):
            raise InvalidInput("p = %d is not prime" % p)
        qq = q
        while qq % p == 0:
            qq //= p
        if qq != 1:
            raise InvalidInput("q = %d is not a power of p = %d" % (q, p))
        if self.levi not in ("psl", "pgl"):
            raise InvalidInput("levi must be 'psl' or 'pgl'")
        flags = (self.qi_in_zg, self.qi0_in_zg, self.qi0_nontrivial,
                 self.zmi_in_zg)
        if p == 2 or self.levi == "psl":
            if any(f is not None for f in flags):
                raise InvalidInput("center flags only apply to pgl levi, p odd")
            return
        if q % 4 == 1:
            if self.qi_in_zg is None or self.qi0_in_zg is None:
                raise InvalidInput("q = 1 mod 4 needs qi_in_zg and qi0_in_zg")
            if self.zmi_in_zg is not None:
                raise InvalidInput("zmi_in_zg does not apply when q = 1 mod 4")
            if self.qi_in_zg and not self.qi0_in_zg:
                raise InvalidInput("qi_in_zg forces qi0_in_zg")
            if self.qi0_nontrivial is False and self.qi0_in_zg is False:
                raise InvalidInput("trivial Q0 is central")
        else:
            if self.zmi_in_zg is None:
                raise InvalidInput("q = 3 mod 4 needs zmi_in_zg")
            if self.qi_in_zg is not None or self.qi0_in_zg is not None \
                    or self.qi0_nontrivial is not None:
                raise InvalidInput("Q flags do not apply when q = 3 mod 4")


class LatticeDescriptor(namedtuple(
        "LatticeDescriptor", "q case a0_order vertex_type covolume delta0 "
        "exceptional", defaults=(False,))):
    """covolume: a Fraction; delta0: an int, or None on exceptional rows."""
    __slots__ = ()

    def to_json_dict(self):
        return dict(self._asdict(), covolume=frac_str(self.covolume))


def _row(q, case, a0, vertex, delta0, exceptional=False):
    return LatticeDescriptor(
        q=q, case=case, a0_order=a0, vertex_type=vertex,
        covolume=Fraction(2, (q + 1) * a0), delta0=delta0,
        exceptional=exceptional)


def classify(inp):
    """All cocompact edge-transitive lattice shapes for the given data.

    Returns a list of LatticeDescriptor rows; empty means no such lattice.
    """
    inp.validate()
    q, z = inp.q, inp.z_order
    rows = []
    if inp.p == 2:
        rows.append(_row(q, "char2-cyclic", z,
                         "cyclic C_%d times center" % (q + 1), 1))
        return rows
    if inp.levi == "psl":
        if q % 4 == 3:
            rows.append(_row(q, "psl-q3mod4-normalizer", z,
                             "nonsplit torus normalizer, order %d"
                             % (2 * (q + 1) * z), 1))
        for name in EXCEPTIONAL_TABLE.get(q, ()):
            k = SUBGROUP_TARGETS[name][0] // (q + 1)
            rows.append(_row(q, "exceptional-%s" % name, z * k // 2,
                             name, None, exceptional=True))
        return rows
    # pgl levi, p odd
    if q % 4 == 1:
        if not inp.qi0_in_zg:
            return rows
        delta_a = 2 if inp.qi_in_zg else 4
        rows.append(_row(q, "pgl-q1mod4-sylow", delta_a * z,
                         "Sylow-2 extension of the torus", delta_a))
        if inp.qi_in_zg:
            rows.append(_row(q, "pgl-q1mod4-central-sylow", z,
                             "central Sylow-2 with torus", 1))
        return rows
    delta_a = 2 if inp.zmi_in_zg else 4
    rows.append(_row(q, "pgl-q3mod4-torus-sylow", delta_a * z,
                     "torus with Sylow-2 extension", delta_a))
    if inp.zmi_in_zg:
        rows.append(_row(q, "pgl-q3mod4-central", z,
                         "torus with central 2-part", 1))
        rows.append(_row(q, "pgl-q3mod4-normalizer", z,
                         "nonsplit torus normalizer, order %d"
                         % (2 * (q + 1) * z), 1))
    return rows


def min_covolume(inp):
    """Smallest covolume over the generic classification rows.

    Returns (covolume, delta0).  Exceptional sporadic rows are excluded;
    when only those exist the minimum over them is returned with delta0
    None.  Raises MinUndefined when classify is empty.
    """
    rows = classify(inp)
    if not rows:
        raise MinUndefined("no edge-transitive lattice for this input")
    generic = [r for r in rows if not r.exceptional]
    if not generic:
        best = min(rows, key=lambda r: r.covolume)
        return best.covolume, None
    best = min(generic, key=lambda r: r.covolume)
    return best.covolume, best.delta0


# --- standard pairs -------------------------------------------------------

def _diagonalizing_conjugator(spec, u):
    """g in SL2(F_q) with g^-1 u g diagonal, as codes; u must be a constant
    matrix of codes with distinct eigenvalues in F_q (or already diagonal,
    giving the identity)."""
    add, mul, neg, inv = spec._tables()
    a, b, c, d = u
    if b == 0 and c == 0:
        return CODE_ONE
    tr = add[a][d]
    # eigenvalues: roots of x^2 - tr x + 1
    lams = [x for x in range(spec.q)
            if add[add[mul[x][x]][neg[mul[tr][x]]]][1] == 0]
    if len(lams) < 2:
        raise KindInadmissible("element is not split over F_q")
    # b and c are not both zero, so each eigenvector comes from a nonzero
    # off-diagonal entry, and the det below is b or c times the difference
    # of the two distinct eigenvalues: never zero
    if b:
        cols = [(b, add[lam][neg[a]]) for lam in lams]
    else:
        cols = [(add[lam][neg[d]], c) for lam in lams]
    (x0, y0), (x1, y1) = cols
    s = inv[add[mul[x0][y1]][neg[mul[y0][x1]]]]
    return (x0, mul[x1][s], y0, mul[y1][s])


def build_standard_lattice(spec, kind):
    """Construct the A1 of the standard (A1, A2) pair of a given kind.

    kind: "cyclic_p2", "torus_normalizer", "SL2(3)", "SL2(5)" or "2S4".
    Returns A1, a finite group of constant matrices; its partner is
    A2 = delta A1 delta^-1 with delta = diag(t, 1), which lubotzky_check
    reads off A1.  No success assertion is made here; run lubotzky_check
    on the result.
    """
    q = spec.q
    if kind == "cyclic_p2":
        if spec.p != 2:
            raise KindInadmissible("cyclic_p2 needs p = 2")
        a1 = nonsplit_torus(spec)
    elif kind == "torus_normalizer":
        if spec.p == 2:
            raise KindInadmissible("torus_normalizer needs odd p")
        a1 = torus_normalizer(spec)
    elif kind in ("SL2(3)", "SL2(5)", "2S4"):
        if spec.p == 2:
            raise KindInadmissible("exceptional kinds need odd p")
        order = SUBGROUP_TARGETS[kind][0]
        if order % (q + 1) != 0:  # cheap, so before the construction
            raise KindInadmissible("order %d not divisible by q+1" % order)
        h = find_subgroup_of_type(spec, kind)
        if h is None:
            raise KindInadmissible("%s does not embed at q = %d" % (kind, q))
        d0 = order // (q + 1)
        # align the copy: make some order-d0 element with F_q eigenvalues
        # diagonal, so the base-vertex stabilizers become diagonal.  The
        # candidates go in str(Mat2) order, which fixes the pick and so the
        # A1 that verify reports on
        mul = h.mul
        pick = None
        for g in sorted(h.elements, key=lambda g: "%d,%d;%d,%d" % g):
            if order_of(g, CODE_ONE, mul) == d0:
                try:
                    pick = _diagonalizing_conjugator(spec, g)
                except KindInadmissible:
                    continue
                break
        if pick is None:
            raise KindInadmissible("no split element of order %d" % d0)
        gi = h.inv(pick)
        a1 = FiniteGroup(spec, (mul(mul(gi, x), pick) for x in h.elements),
                         (mul(mul(gi, x), pick) for x in h.gens))
    else:
        raise KindInadmissible("unknown kind %r" % kind)
    return a1
