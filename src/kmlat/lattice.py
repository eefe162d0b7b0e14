"""Standard pairs, lattice verification and the classification table.

The verification side is exact: given a finite group A1 of constant
matrices, lubotzky_check tests the standard pair (A1, delta A1 delta^-1)
for neighbor-transitivity and the stabilizer condition, and computes the
faithfulness kernel and the covolume.  It reads the base-vertex
stabilizers and A1 cap A2 off A1's F_q codes and closes the kernel under
conjugation by A1's generators, so it needs no Laurent arithmetic.  The
classification side lists the edge-transitive lattice shapes at a given
q and center order, its exceptional psl rows by Lubotzky's condition.
classify takes its input as plain arguments and checks each center flag
in the one case that reads it; min_covolume reads classify's rows.
An exceptional A1 is aligned by the unipotent that fixes infinity.  A
report, lubotzky_check's or a classify row, is the plain dict the CLI
prints.
"""

from math import gcd, prod

from .errors import InvalidInput, KindInadmissible, MinUndefined
from .gf import is_prime
from .groups import (SUBGROUP_TARGETS, FiniteGroup, find_subgroup_of_type,
                     nonsplit_torus, torus_normalizer)


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


def covolume(orders):
    """Exact covolume sum(1/|G_s|) of a finite graph of finite groups, from
    the list of its orders |G_s|, as reduced "n/d" text, also when d = 1."""
    d = prod(orders)
    n = sum(d // o for o in orders)
    g = gcd(n, d)
    return "%d/%d" % (n // g, d // g)


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
    return {"q": q, "passes": passes, "orbit_sizes": (o1, o2),
            "stab_orders": (len(stab1), len(stab2)),
            "intersection_order": len(inter), "kernel_order": len(kernel),
            "covolume": covolume([a1.order, a1.order]),
            "a1_order": a1.order, "a2_order": a1.order,
            "notes": tuple(notes)}


# --- classification -------------------------------------------------------

# covolume: reduced "n/d" text; delta0: an int, or None on exceptional rows
def _row(q, case, a0, vertex, delta0, exceptional=False):
    return {"q": q, "case": case, "a0_order": a0, "vertex_type": vertex,
            "covolume": covolume([(q + 1) * a0] * 2), "delta0": delta0,
            "exceptional": exceptional}


def classify(p, q, levi, z_order, qi_in_zg=None, qi0_in_zg=None,
             qi0_nontrivial=None, zmi_in_zg=None):
    """All cocompact edge-transitive lattice shapes for the given data.

    levi is "psl" or "pgl", each center flag True, False or None (unset).
    Bad numbers raise InvalidInput, and then flags the case refuses:
    - p = 2 or psl levi: no flag may be set;
    - pgl, q = 1 mod 4: qi_in_zg and qi0_in_zg must be set, zmi_in_zg
      unset; qi_in_zg forces qi0_in_zg, and a trivial Q0 is central;
    - pgl, q = 3 mod 4: zmi_in_zg must be set, the three Q flags unset.

    Returns a list of row dicts; empty means no such lattice.
    A psl row is a standard pair that passes lubotzky_check.  A1 = H of
    SUBGROUP_TARGETS passes only if (q+1) | |H|, as A1 is transitive on
    P^1(F_q); d0 = |H|/(q+1) is even, as -I, H's one involution, is
    diagonal and so in A0 = A1 cap A2; and d0 | q-1, as A0 is diagonal,
    so cyclic.  Building every such pair shows these suffice.  The
    normalizer row needs q = 3 mod 4: sT's elements have order 4 and
    eigenvalues +-i, in F_q iff q = 1 mod 4; each then fixes two points
    of P^1, and the point stabilizer has order 4, not 2.
    """
    if p < 2 or q < 2 or z_order < 1:
        raise InvalidInput("bad numeric parameters")
    if (q * z_order).bit_length() > 13000:  # 4,300 digits is 2^14284
        raise InvalidInput("q * z is over 2^13000, too large to print")
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
    if levi not in ("psl", "pgl"):
        raise InvalidInput("levi must be 'psl' or 'pgl'")
    z = z_order
    if p == 2 or levi == "psl":
        if (qi_in_zg, qi0_in_zg, qi0_nontrivial, zmi_in_zg) != (None,) * 4:
            raise InvalidInput("center flags only apply to pgl levi, p odd")
        if p == 2:
            return [_row(q, "char2-cyclic", z,
                         "cyclic C_%d times center" % (q + 1), 1)]
        rows = []
        if q % 4 == 3:
            rows.append(_row(q, "psl-q3mod4-normalizer", z,
                             "nonsplit torus normalizer, order %d"
                             % ((q + 1) * z), 1))
        for name, (order, *_) in SUBGROUP_TARGETS.items():
            d0, rest = divmod(order, q + 1)
            if not rest and d0 % 2 == 0 and (q - 1) % d0 == 0:
                rows.append(_row(q, "exceptional-%s" % name, z * d0 // 2,
                                 name, None, exceptional=True))
        return rows
    if q % 4 == 1:
        if qi_in_zg is None or qi0_in_zg is None:
            raise InvalidInput("q = 1 mod 4 needs qi_in_zg and qi0_in_zg")
        if zmi_in_zg is not None:
            raise InvalidInput("zmi_in_zg does not apply when q = 1 mod 4")
        if qi_in_zg and not qi0_in_zg:
            raise InvalidInput("qi_in_zg forces qi0_in_zg")
        if qi0_nontrivial is False and qi0_in_zg is False:
            raise InvalidInput("trivial Q0 is central")
        if not qi0_in_zg:
            return []
        delta_a = 2 if qi_in_zg else 4
        rows = [_row(q, "pgl-q1mod4-sylow", delta_a * z,
                     "Sylow-2 extension of the torus", delta_a)]
        if qi_in_zg:
            rows.append(_row(q, "pgl-q1mod4-central-sylow", z,
                             "central Sylow-2 with torus", 1))
        return rows
    if zmi_in_zg is None:
        raise InvalidInput("q = 3 mod 4 needs zmi_in_zg")
    if (qi_in_zg, qi0_in_zg, qi0_nontrivial) != (None,) * 3:
        raise InvalidInput("Q flags do not apply when q = 3 mod 4")
    delta_a = 2 if zmi_in_zg else 4
    rows = [_row(q, "pgl-q3mod4-torus-sylow", delta_a * z,
                 "torus with Sylow-2 extension", delta_a)]
    if zmi_in_zg:
        rows.append(_row(q, "pgl-q3mod4-central", z,
                         "torus with central 2-part", 1))
        rows.append(_row(q, "pgl-q3mod4-normalizer", z,
                         "nonsplit torus normalizer, order %d"
                         % ((q + 1) * z), 1))
    return rows


def min_covolume(rows):
    """Smallest covolume over classify's generic rows.

    Returns (covolume, delta0).  Exceptional sporadic rows are excluded;
    when only those exist the minimum over them is returned with delta0
    None.  Raises MinUndefined when rows is empty.  Each row's covolume
    is 2/((q+1)|A0|) at one q: least covolume = greatest |A0|.
    """
    if not rows:
        raise MinUndefined("no edge-transitive lattice for this input")
    # an exceptional row's delta0 is None
    best = max([r for r in rows if not r["exceptional"]] or rows,
               key=lambda r: r["a0_order"])
    return best["covolume"], best["delta0"]


# --- standard pairs -------------------------------------------------------

def build_standard_lattice(spec, kind):
    """Construct the A1 of the standard (A1, A2) pair of a given kind.

    kind: "cyclic_p2", "torus_normalizer", "SL2(3)", "SL2(5)" or "2S4".
    Returns A1, a finite group of constant matrices; its partner is
    A2 = delta A1 delta^-1 with delta = diag(t, 1), which lubotzky_check
    reads off A1.  No success assertion is made here; run lubotzky_check
    on the result.

    An exceptional A1 is the copy H of find_subgroup_of_type with H cap B
    moved into the Levi factor T of B = U T, the stabilizer of infinity.
    That needs d0 = |H|/(q+1) to divide q-1 (else KindInadmissible).
    Then p does not divide |H| = d0(q+1), so H cap B meets U trivially
    and is cyclic.  Each g = [[a, b], [0, d]] in it other than +-I has a != d
    and fixes infinity and (beta : 1), beta = b/(d-a), the same for all
    g as H cap B is cyclic.  u = [[1, beta], [0, 1]] fixes infinity and
    sends 0 to (beta : 1), so A1 = u^-1 H u has H cap B diagonal.
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
        if (q - 1) % d0:
            raise KindInadmissible("no split element of order %d" % d0)
        add, mul, neg, inv = spec._tables()
        # beta from any g = [[a, b], [0, d]] in H with a != d; with none,
        # H cap B is in {I, -I}, already diagonal, and beta is 0
        beta = next((mul[b][inv[add[d][neg[a]]]]
                     for a, b, c, d in h.elements if not c and a != d), 0)
        if beta:
            m, u, ui = h.mul, (1, beta, 0, 1), (1, neg[beta], 0, 1)
            h = FiniteGroup(spec, (m(m(ui, x), u) for x in h.elements),
                            (m(m(ui, x), u) for x in h.gens))
        a1 = h
    else:
        raise KindInadmissible("unknown kind %r" % kind)
    return a1
