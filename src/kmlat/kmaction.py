"""Symbolic action of real root letters on labeled edges near the base.

The rank-2 group with Cartan entries -m acts on a (q+1,q+1)-biregular
wall tree.  An edge label is ("base", ()) for the standard base edge, or
(region, coords), region "L" or "R" (left or right side) and coords F_q
codes, for the edge at distance len(coords) from it on that side.  A
root letter is (side, depth, coeff): the real root of side 1 or 2 and
depth k >= 0 (depth 0 on side i is the simple root alpha_i; depth walks
the root string away from the base edge), with coeff an F_q code.  Root
letters act on edge labels by explicit rules; where a rule is not
available the action raises UnsupportedActionDomain rather than guessing.

For m = 2 the group is affine SL2, and the tests cross-check the rules
against exact matrices on the Bruhat-Tits tree (crosscheck_affine in
tests/reference.py).
"""

from _operator import itemgetter  # operator.py only re-exports it

from .errors import (InvalidInput, MalformedWord, SizeCapExceeded,
                     SpecMismatch, UnsupportedActionDomain)
from .gf import code_pow


class KMParams(tuple):
    """Cartan parameter m >= 2 and the ground field, the tuple (m, spec)."""
    __slots__ = ()
    m, spec = property(itemgetter(0)), property(itemgetter(1))

    def __new__(cls, m, spec):
        if m < 2:
            raise InvalidInput("m = %d must be >= 2" % m)
        return tuple.__new__(cls, (m, spec))


def edge_text(e):
    """An edge label as km-act prints it: "base" or "L:1,0"."""
    region, coords = e
    if region == "base":
        return "base"
    return "%s:%s" % (region, ",".join(map(str, coords)))


def _replace(coords, i, value):
    out = list(coords)
    out[i] = value
    return tuple(out)


def apply_letter(params, letter, e, mode="identity_phi"):
    """Act by one root letter (side, depth, coeff) on an edge label.

    Supported cases: the base edge is fixed by every letter; a same-side
    letter of depth k adds its coefficient to coordinate k+1 (edges shorter
    than k+1 are fixed); a cross-side letter fixes edges of length at most
    depth+1, and on an edge whose first n coordinates vanish with
    length = 2n + 2 + depth it perturbs the last coordinate by phi of the
    coefficient.  mode "identity_phi" takes phi = id; "twisted_phi" takes
    phi(u) = (-l_{n+1})^m * u, exact in the affine case.  Coefficients and
    coordinates are F_q codes, added and multiplied through the field's
    tables.
    """
    if mode not in ("identity_phi", "twisted_phi"):
        raise SpecMismatch("unknown mode %r" % mode)
    region, coords = e
    if region == "base":
        return e
    add, mul, neg, _ = params.spec._tables()
    side, k, coeff = letter
    length = len(coords)
    if (side == 1) == (region == "L"):  # same side
        if k <= length - 1:
            return region, _replace(coords, k, add[coords[k]][coeff])
        return e
    # cross-side: short edges sit inside the ball the root group fixes
    if length <= k + 1:
        return e
    n2 = length - 2 - k
    if n2 >= 0 and n2 % 2 == 0:
        n = n2 // 2
        if not any(coords[:n]):
            pivot = coords[n]
            if not pivot:
                return e
            if mode == "identity_phi":
                delta = coeff
            else:
                power = code_pow(lambda u, v: mul[u][v], neg[pivot], params.m)
                delta = mul[power][coeff]
            return region, _replace(coords, length - 1,
                                    add[coords[length - 1]][delta])
    raise UnsupportedActionDomain("no rule for root (%d,%d) on edge %s"
                                  % (side, k, edge_text(e)))


def apply_word(params, word, e, mode="identity_phi"):
    """Apply a word of letters, rightmost letter first."""
    for letter in reversed(list(word)):
        e = apply_letter(params, letter, e, mode)
    return e


# only zp_fix_test calls this; perfbench/tracer.py patches that by name
def _check_alternating(word):
    if not word:
        raise MalformedWord("empty word")
    for i, (side, depth, _) in enumerate(word):
        if depth != 0:
            raise MalformedWord("letters must have depth 0")
        want = 1 if i % 2 == 0 else 2
        if side != want:
            raise MalformedWord("word must alternate x1, x2, x1, ...")
    if len(word) % 2 != 0:
        raise MalformedWord("word must consist of full x1 x2 pairs")


_LETTER_TABLES = {}  # (params, letter, mode) -> letter_table's value


def letter_table(params, letter, mode):
    """The action of letter (side, depth, coeff) on the q^2 left length-2
    edges as a permutation of range(q^2): entry c1*q + c2 is the index of
    the image of ("L", (c1, c2)).

    Built once per (params, letter, mode), kept in _LETTER_TABLES.  At
    coefficient 0 it is the identity, x(0) = 1; at a power p^i of p it is
    read off apply_letter, which stays the only place the rules live;
    letters keep an edge's region and length, so each index is read off
    the image's two coordinates.  At any other code c it follows from the
    group law x(c) = x(c - d) x(d) of the root group, d = p^i for the
    lowest nonzero base-p digit i of c: c - d and d add without carry, and
    phi is linear in the coefficient in both modes.  A failure propagates
    and leaves nothing cached.
    """
    key = params, letter, mode
    if key in _LETTER_TABLES:
        return _LETTER_TABLES[key]
    side, depth, c = letter
    d, p, q = 1, params.spec.p, params.spec.q
    while c and c // d % p == 0:
        d *= p
    if not c:  # x(0) is the identity
        table = tuple(range(q * q))
    elif c != d:  # x(c) = x(c - d) x(d)
        first = letter_table(params, (side, depth, d), mode)
        table = itemgetter(*first)(
            letter_table(params, (side, depth, c - d), mode))
    else:
        images = (apply_letter(params, letter, ("L", (c1, c2)), mode)[1]
                  for c1 in range(q) for c2 in range(q))
        table = tuple(c1 * q + c2 for c1, c2 in images)
    _LETTER_TABLES[key] = table
    return table


def _power_is_identity(image, p):
    """Whether p steps of image send every index to itself, p prime: every
    cycle has length 1 or p.  Each cycle is walked once.  A walk that has
    not come back after p steps means p steps move its start, so the
    answer is exact for any map, not only for a permutation."""
    done = [False] * len(image)
    for i, j in enumerate(image):
        if done[i] or j == i:
            continue
        n = 1
        while j != i:
            if n == p:
                return False
            done[j] = True
            j = image[j]
            n += 1
        if n != p:
            return False
    return True


# no command calls this; perfbench/tracer.py patches it by name
def zp_fix_test(params, word, mode="identity_phi"):
    """Exhaustive test of whether z^p fixes every length-2 left edge.

    word: alternating x1/x2 letters of depth 0.  Returns (fixes_all, t1,
    t2) where t1, t2 are the codes of the coefficient sums of the two
    sides.  Over a prime field z^p fixes all left length-2 edges iff
    t1 = 0 or t2 = 0; over F_{p^a} the exact statement, in identity_phi
    mode, is zp_criterion in tests/reference.py.
    """
    _check_alternating(word)
    add = params.spec._tables()[0]
    sums = {1: 0, 2: 0}
    image = range(params.spec.q ** 2)
    for letter in word:  # the prefix's image, then the next letter's
        side, _, coeff = letter
        sums[side] = add[sums[side]][coeff]
        image = [image[j] for j in letter_table(params, letter, mode)]
    return _power_is_identity(image, params.spec.p), sums[1], sums[2]


ZP_CAP = 1 << 24  # words times left length-2 edges one zp_walk visits


def check_zp_size(q, pairs):
    """Raise SizeCapExceeded if q^(2*pairs) words times q^2 > ZP_CAP."""
    exponent = 2 * pairs + 2  # q >= 2, so an exponent over 24 is too big
    if exponent > 24 or q ** exponent > ZP_CAP:
        raise SizeCapExceeded("zp-test visits q^(2*pairs) words times q^2 "
                              "edges = %d^%d, over the cap 2^24 = %d"
                              % (q, exponent, ZP_CAP))


def zp_walk(params, pairs):
    """zp_fix_test (identity_phi) on every alternating word of `pairs`
    pairs, counted as zp-test reports it: the words, those where z^p fixes
    every left length-2 edge iff t2 = 0, and both again over t1 != 0.

    A word's outcome depends on its prefix only through the prefix's
    state, its image and its sums (t1, t2), so the walk advances the
    distinct states of each prefix length, each with its number of words,
    by every (x1, x2) pair, and tests the last pair's at once, unstored.
    Each image is composed with a letter's table by an itemgetter, so the
    gather runs in C.  Tables are built in code order, so each one the
    group law composes is cached already.  Past ZP_CAP it raises
    SizeCapExceeded before building any table.
    """
    spec = params.spec
    check_zp_size(spec.q, pairs)
    add = spec._tables()[0]
    x1s, x2s = ([itemgetter(*letter_table(params, (side, 0, c),
                                          "identity_phi"))
                 for c in range(spec.q)] for side in (1, 2))
    tally = dict.fromkeys([(False, False), (False, True), (True, False),
                           (True, True)], 0)  # (t1 != 0, agrees) -> words
    states = {(tuple(range(spec.q ** 2)), 0, 0): 1}
    for left in range(pairs, 0, -1):
        frontier, states = states, {}
        for (image, t1, t2), count in frontier.items():
            for a, x1 in enumerate(x1s):
                after_x1, s1 = x1(image), add[t1][a]
                for u, x2 in enumerate(x2s):
                    word, s2 = x2(after_x1), add[t2][u]
                    if left > 1:
                        key = word, s1, s2
                        states[key] = states.get(key, 0) + count
                    else:
                        tally[s1 != 0, _power_is_identity(word, spec.p)
                              == (s2 == 0)] += count
    return {"checked": sum(tally.values()),
            "agreements": tally[False, True] + tally[True, True],
            "checked_t1_nonzero": tally[True, False] + tally[True, True],
            "agreements_t1_nonzero": tally[True, True]}
