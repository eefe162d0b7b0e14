"""Symbolic action of real root letters on labeled edges near the base.

The rank-2 group with Cartan entries -m acts on a (q+1,q+1)-biregular
wall tree; edges near the standard base edge are labeled by coordinate
tuples on the left-hand or right-hand side.  Root letters act on those
labels by explicit rules; where a rule is not available the action raises
UnsupportedActionDomain rather than guessing.

For m = 2 the group is affine SL2, and the tests cross-check the rules
against exact matrices on the Bruhat-Tits tree (crosscheck_affine in
tests/reference.py).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import (InvalidInput, MalformedWord, SpecMismatch,
                     UnsupportedActionDomain)
from .gf import code_pow


class KMParams(namedtuple("KMParams", "m spec")):
    """Cartan parameter m >= 2 and the ground field."""
    __slots__ = ()

    def __new__(cls, m, spec):
        if m < 2:
            raise InvalidInput("m = %d must be >= 2" % m)
        return super().__new__(cls, m, spec)


class RootIndex(namedtuple("RootIndex", "side depth")):
    """A real root of the standard apartment: side 1 or 2, depth k >= 0.

    Depth 0 on side i is the simple root alpha_i; increasing depth walks
    the root string away from the base edge on that side.
    """
    __slots__ = ()

    def __new__(cls, side, depth):
        if side not in (1, 2) or depth < 0:
            raise SpecMismatch("bad root index")
        return super().__new__(cls, side, depth)


RootLetter = namedtuple("RootLetter", "root coeff")  # coeff: an F_q code


class EdgeLabel:
    """region "base", "L" (left side) or "R" (right side); coords, F_q
    codes, label the edge at combinatorial distance len(coords) from the
    base edge.  A plain class rather than a namedtuple, so that a label is
    never taken for a tuple."""
    __slots__ = ("region", "coords")

    def __init__(self, region, coords):
        self.region = region
        self.coords = coords

    def __eq__(self, other):
        return (isinstance(other, EdgeLabel) and self.region == other.region
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.region, self.coords))

    def __repr__(self):
        return "EdgeLabel(region=%r, coords=%r)" % (self.region, self.coords)

    @classmethod
    def base(cls):
        return cls("base", ())

    @classmethod
    def left(cls, coords):
        return cls("L", tuple(coords))

    @classmethod
    def right(cls, coords):
        return cls("R", tuple(coords))

    def __str__(self):
        if self.region == "base":
            return "base"
        return "%s:%s" % (self.region,
                          ",".join(map(str, self.coords)))


def _replace(coords, i, value):
    out = list(coords)
    out[i] = value
    return tuple(out)


def apply_letter(params, letter, e, mode="identity_phi"):
    """Act by one root letter on a labeled edge.

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
    if e.region == "base":
        return e
    add, mul, neg, _ = params.spec._tables()
    k = letter.root.depth
    length = len(e.coords)
    same_side = (letter.root.side == 1) == (e.region == "L")
    if same_side:
        if k <= length - 1:
            return EdgeLabel(e.region,
                             _replace(e.coords, k,
                                      add[e.coords[k]][letter.coeff]))
        return e
    # cross-side: short edges sit inside the ball the root group fixes
    if length <= k + 1:
        return e
    n2 = length - 2 - k
    if n2 >= 0 and n2 % 2 == 0:
        n = n2 // 2
        if not any(e.coords[:n]):
            pivot = e.coords[n]
            if not pivot:
                return e
            if mode == "identity_phi":
                delta = letter.coeff
            else:
                power = code_pow(lambda u, v: mul[u][v], neg[pivot], params.m)
                delta = mul[power][letter.coeff]
            return EdgeLabel(e.region,
                             _replace(e.coords, length - 1,
                                      add[e.coords[length - 1]][delta]))
    raise UnsupportedActionDomain(
        "no rule for root (%d,%d) on edge %s" % (letter.root.side, k, e))


def apply_word(params, word, e, mode="identity_phi"):
    """Apply a word of letters, rightmost letter first."""
    for letter in reversed(list(word)):
        e = apply_letter(params, letter, e, mode)
    return e


def alternating_word(params, pairs):
    """Build z = x1(t_{1,1}) x2(t_{2,1}) ... from coefficient pairs.

    pairs: sequence of (t1, t2) F_q codes; letters all have depth 0.
    """
    word = []
    for t1, t2 in pairs:
        word.append(RootLetter(RootIndex(1, 0), t1))
        word.append(RootLetter(RootIndex(2, 0), t2))
    return tuple(word)


def _check_alternating(word):
    if not word:
        raise MalformedWord("empty word")
    for i, letter in enumerate(word):
        if letter.root.depth != 0:
            raise MalformedWord("letters must have depth 0")
        want = 1 if i % 2 == 0 else 2
        if letter.root.side != want:
            raise MalformedWord("word must alternate x1, x2, x1, ...")
    if len(word) % 2 != 0:
        raise MalformedWord("word must consist of full x1 x2 pairs")


def ball2_edges(spec):
    """The 1 + 2q + 2q^2 edges at distance <= 2 from the base edge, in
    table index order: base, L and R of length 1, L and R of length 2,
    each side in coordinate-code order.  Left length-2 edge (c1, c2) has
    index 1 + 2q + c1*q + c2."""
    codes = range(spec.q)
    edges = [EdgeLabel.base()]
    for region in ("L", "R"):
        edges += [EdgeLabel(region, (c,)) for c in codes]
    for region in ("L", "R"):
        edges += [EdgeLabel(region, (c1, c2))
                  for c1 in codes for c2 in codes]
    return edges


@lru_cache(maxsize=None)
def letter_table(params, letter, mode):
    """One letter's action on the ball of radius 2 as a permutation of
    ball2_edges indices: entry i is the index of the image of edge i.

    Built once per (params, letter, mode) from apply_letter, which stays
    the only place the rules live; a failure there propagates and leaves
    nothing cached.  Letters keep an edge's region and length, so the
    index range of each region and length maps to itself.
    """
    edges = ball2_edges(params.spec)
    index = {e: i for i, e in enumerate(edges)}
    return tuple(index[apply_letter(params, letter, e, mode)]
                 for e in edges)


def _word_table(params, word, mode, lo, hi):
    """Compose the letters' tables on the indices lo..hi-1, rightmost
    letter first as in apply_word.  Returns (image, t1, t2): image[i]
    is the index of the word's image of edge lo + i, and t1, t2 are the
    codes of the coefficient sums of the two sides."""
    add = params.spec._tables()[0]
    sums = {1: 0, 2: 0}
    image = range(lo, hi)
    for letter in reversed(word):
        sums[letter.root.side] = add[sums[letter.root.side]][letter.coeff]
        table = letter_table(params, letter, mode)
        image = [table[j] for j in image]
    return image, sums[1], sums[2]


def _power_fixes_all(image, lo, p):
    """Whether p steps of image (offset lo) return every index to itself."""
    for i, j in enumerate(image, lo):
        for _ in range(p - 1):
            j = image[j - lo]
        if j != i:
            return False
    return True


def zp_fix_test(params, word, mode="identity_phi"):
    """Exhaustive test of whether z^p fixes every length-2 left edge.

    word: alternating x1/x2 letters of depth 0.  Returns (fixes_all, t1,
    t2) where t1, t2 are the codes of the coefficient sums of the two
    sides.  For prime q, z^p fixes all left length-2 edges iff t2 = 0
    (and all right ones iff t1 = 0).  Over F_{p^a}, a > 1, that fails for
    some words of two or more pairs: at q = 4 with two pairs, 174 of the
    192 words with t1 != 0 agree.
    """
    _check_alternating(word)
    q = params.spec.q
    lo = 1 + 2 * q
    image, t1, t2 = _word_table(params, word, mode, lo, lo + q * q)
    return _power_fixes_all(image, lo, params.spec.p), t1, t2

