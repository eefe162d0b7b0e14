"""Exact arithmetic in small finite fields F_q and their quadratic extensions.

Elements are indexed by integer codes 0..q-1: the code's base-p digits,
least significant first, are the coefficients of the element in the power
basis of the chosen modulus.  Arithmetic is O(1) lookups in tables built on
first use, row by row from list slices and gathers: adding p^i adds 1 to
digit i, so each add row is another rotated; mul and inv are gathered from
the exp/log tables of the first generator g of F_q*, whose powers walk one
table of x -> x*g, fixed on the basis codes p^i by a polynomial product
each; neg is the mul row of -1.

F_{q^2} is the ring F_q[C] inside M2(F_q), C = [[0, -c0], [1, -c1]] the
companion matrix of the least irreducible quadratic w^2 + c1*w + c0: the
element x + y*w is x*I + y*C, held as the code 4-tuple (a, b, c, d) of a
2x2 matrix.  Its product is code_mul and its norm the determinant,
N(x + y*w) = x^2 - c1*x*y + c0*y^2: norm_codes solves N = n directly,
and the norm-one torus is its solutions at n = 1.
"""

from _operator import itemgetter  # operator.py only re-exports it

from .errors import (DegreeTooLarge, DivisionByZero, InvalidInput, NonPrime,
                     SpecMismatch)

Q_CAP = 511


def is_prime(n):
    """Deterministic Miller-Rabin with the prime bases 2..37.

    Exact for every n < 3.18e23, so for every n < 2^64; callers with
    larger n must bound it first.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 41:  # the bases are the primes below 41
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1:
            continue
        # n passes for b when one of b^d, b^2d, ..., b^(2^(s-1) d) is -1
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def code_pow(mul, x, e, one=1):
    """x^e for e >= 0 by square-and-multiply, with mul(u, v) the product
    and `one` its identity: a field code under a mul table row lookup, or
    a code 4-tuple under code_mul."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, x)
        x = mul(x, x)
        e >>= 1
    return acc


def code_mul(spec):
    """The product of constant 2x2 matrices held as F_q code 4-tuples
    (a, b, c, d), through the field's code tables."""
    add, mul, _, _ = spec._tables()

    def mmul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (add[mul[a1][a2]][mul[b1][c2]],
                add[mul[a1][b2]][mul[b1][d2]],
                add[mul[c1][a2]][mul[d1][c2]],
                add[mul[c1][b2]][mul[d1][d2]])
    return mmul


CODE_ONE = (1, 0, 0, 1)


def parse_code(text, q=None):
    """The integer a field code (q given) or a depth (q None) is written as.

    Accepts 0..q-1, or any n >= 0 when q is None, in ASCII digits alone.
    Anything else raises InvalidInput naming the text and q; a code is
    never reduced mod q.
    """
    try:  # int() alone would also read " 7", "1_0" and other scripts' digits
        n = int(text) if text.isascii() and text.isdigit() else -1
    except ValueError:  # past int()'s limit on digits
        n = -1
    if q is None:
        if n < 0:
            raise InvalidInput("%r is not a non-negative integer" % text)
    elif not 0 <= n < q:
        raise InvalidInput("field code %r is not an integer in 0..%d (q = %d)"
                           % (text, q - 1, q))
    return n


def _poly_mod(coeffs, modulus, p):
    """Reduce a coefficient list modulo the monic polynomial `modulus`."""
    coeffs = list(coeffs)
    a = len(modulus) - 1
    for i in range(len(coeffs) - 1, a - 1, -1):
        top = coeffs[i] % p
        if top:
            for j in range(a + 1):
                coeffs[i - a + j] = (coeffs[i - a + j] - top * modulus[j]) % p
        coeffs[i] = 0
    return [c % p for c in coeffs[:a]] + [0] * max(0, a - len(coeffs))


def _poly_mul(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _is_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            div = [(code // p ** i) % p for i in range(d)] + [1]
            if not any(_poly_mod(modulus, div, p)):
                return False
    return True


class FieldSpec:
    """Description of F_{p^a} together with its arithmetic tables."""

    __slots__ = ("p", "a", "modulus", "_tabs", "_elems", "_ext_modulus")

    def __init__(self, p, a, modulus):
        self.p = p
        self.a = a
        self.modulus = tuple(modulus)
        self._tabs = None
        self._elems = None
        self._ext_modulus = None

    @property
    def q(self):
        return self.p ** self.a

    def __repr__(self):
        return "FieldSpec(%s)" % self.short_str()

    def short_str(self):
        return "%d^%d/%s" % (self.p, self.a,
                             ",".join(str(c) for c in self.modulus))

    def _coeffs_of(self, code):
        p = self.p
        return tuple((code // p ** i) % p for i in range(self.a))

    def _code_of(self, coeffs):
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def _build_tables(self):
        """add by rotating rows; mul and inv gathered from the powers of a
        generator g, walked by one table of x -> x*g; neg, mul's -1 row."""
        q, p = self.q, self.p
        # adding n = p^i to y adds 1 to y's digit i, so row x of add is
        # row x - n with each run of p*n codes rotated left by n
        add, n = [list(range(q))], 1
        for _ in range(self.a):
            m = n * p
            cuts = [c for k in range(0, q, m)
                    for c in (slice(k + n, k + m), slice(k, k + n))]
            for x in range(n, m):
                row, new = add[x - n], []
                for c in cuts:
                    new += row[c]
                add.append(new)
            n = m
        # the first code whose powers return to 1 only after q-1 steps; x*g
        # is F_p-linear in x, so it is fixed by the images g*t^i of p^i
        for g in range(1, q):
            gc, times = self._coeffs_of(g), [0]
            for i in range(self.a):  # times[x + d*p^i] = times[x] + d*g*t^i
                row = add[self._code_of(_poly_mod(
                    _poly_mul(gc, [0] * i + [1], p), self.modulus, p))]
                steps = [0]
                for _ in range(1, p):
                    steps.append(row[steps[-1]])
                times = [add[s][t] for s in steps for t in times]
            exp, x = [1], g
            while x != 1:
                exp.append(x)
                x = times[x]
            if len(exp) == q - 1:
                break
        log = [-1] * q  # 0 has no log: -1 gathers the 0 ending each list
        for k, x in enumerate(exp):
            log[x] = k
        get = itemgetter(*log)
        exp2 = exp + exp + [0]  # exp2[i + j] = g^(i+j) for i, j < q-1
        mul = [[0] * q] + [list(get(exp2[log[x]:])) for x in range(1, q)]
        inv = list(get(exp[:1] + exp[:0:-1] + [0]))  # inv[g^k] = g^-k
        self._tabs = (add, mul, mul[p - 1][:], inv)  # -x = (p-1)*x

    def _tables(self):
        """(add, mul, neg, inv): code tables, add[x][y] the code of x + y.

        inv[0] is 0; callers that divide check for zero first.
        """
        if self._tabs is None:
            self._build_tables()
        return self._tabs

    def element(self, code):
        """The FieldElement with this code; a code outside 0..q-1 raises
        InvalidInput and is never reduced mod q."""
        if not 0 <= code < self.q:
            raise InvalidInput("field code %r is not in 0..%d (q = %d)"
                               % (code, self.q - 1, self.q))
        if self._elems is None:
            self._elems = [FieldElement(self, i) for i in range(self.q)]
        return self._elems[code]

    def elements(self):
        return [self.element(i) for i in range(self.q)]

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    def ext_modulus(self):
        """x^2 + c1*x + c0, the least irreducible quadratic over this field.

        Returns the codes (c0, c1), least by (c1, c0).  A quadratic over
        F_q is irreducible iff it has no root in F_q.
        """
        if self._ext_modulus is None:
            add, mul, _, _ = self._tables()
            codes = range(self.q)
            self._ext_modulus = next(
                (c0, c1) for c1 in codes for c0 in codes
                if all(add[add[mul[x][x]][mul[c1][x]]][c0] for x in codes))
        return self._ext_modulus


_FIELD_CACHE = {}


def make_field(p, a=1):
    """Build F_{p^a} with the least monic irreducible modulus."""
    p, a = int(p), int(a)
    if a < 1:
        raise InvalidInput("extension degree %d is not positive" % a)
    # 2^a > Q_CAP bounds a before p^a is formed, and q is capped before
    # the primality test, so that neither p^a nor is_prime(p) runs long
    if a > Q_CAP.bit_length() or p ** a > Q_CAP:
        raise DegreeTooLarge("q = %d^%d exceeds cap %d" % (p, a, Q_CAP))
    if not is_prime(p):
        raise NonPrime("p = %d is not prime" % p)
    key = (p, a)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    # at a = 1 the first candidate, x (code 0), is irreducible
    for code in range(p ** a):
        modulus = [(code // p ** i) % p for i in range(a)] + [1]
        if _is_irreducible(modulus, p):
            break
    spec = FieldSpec(p, a, modulus)
    _FIELD_CACHE[key] = spec
    return spec


# no command builds a FieldElement; perfbench/tracer.py patches its members
class FieldElement:
    """An element of F_q, identified by its integer code."""

    __slots__ = ("spec", "code")

    def __init__(self, spec, code):
        self.spec = spec
        self.code = code

    def _check(self, other):
        if self.spec is not other.spec:
            raise SpecMismatch("elements of different fields")

    def __add__(self, other):
        self._check(other)
        add, _, _, _ = self.spec._tables()
        return self.spec.element(add[self.code][other.code])

    def __neg__(self):
        _, _, neg, _ = self.spec._tables()
        return self.spec.element(neg[self.code])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        _, mul, _, _ = self.spec._tables()
        return self.spec.element(mul[self.code][other.code])

    def inverse(self):
        if self.code == 0:
            raise DivisionByZero("inverse of zero")
        _, _, _, inv = self.spec._tables()
        return self.spec.element(inv[self.code])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        _, mul, _, _ = self.spec._tables()
        return self.spec.element(
            code_pow(lambda u, v: mul[u][v], self.code, e))

    def is_zero(self):
        return self.code == 0

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.spec is other.spec and self.code == other.code)

    def __hash__(self):
        return hash((self.code, self.spec.p, self.spec.a))

    def __repr__(self):
        return "fe(%d)" % self.code


# no command builds an ExtElement; perfbench/tracer.py patches its members
class ExtElement:
    """Element x + y*w of F_{q^2}, with w a root of the chosen quadratic."""

    __slots__ = ("spec", "x", "y")

    def __init__(self, spec, x, y):
        self.spec = spec
        self.x = x
        self.y = y

    def __add__(self, other):
        return ExtElement(self.spec, self.x + other.x, self.y + other.y)

    def __neg__(self):
        return ExtElement(self.spec, -self.x, -self.y)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # (x1 + y1 w)(x2 + y2 w) with w^2 = -c1 w - c0
        c0, c1 = map(self.spec.element, self.spec.ext_modulus())
        yy = self.y * other.y
        x = self.x * other.x - yy * c0
        y = self.x * other.y + self.y * other.x - yy * c1
        return ExtElement(self.spec, x, y)

    def __pow__(self, e):
        spec = self.spec
        return code_pow(lambda u, v: u * v, self, int(e),
                        ExtElement(spec, spec.one, spec.zero))

    def is_zero(self):
        return self.x.is_zero() and self.y.is_zero()

    def norm(self):
        """z * z^q, an element of the base field."""
        c0, c1 = map(self.spec.element, self.spec.ext_modulus())
        # conj(x + yw) = x + y*(-c1 - w) = (x - y c1) - y w
        return (self.x - self.y * c1) * self.x + self.y * self.y * c0

    def __eq__(self, other):
        return (isinstance(other, ExtElement) and self.spec is other.spec
                and self.x == other.x and self.y == other.y)

    def __hash__(self):
        return hash(("ext", self.x.code, self.y.code))

    def __repr__(self):
        return "ext(%d,%d)" % (self.x.code, self.y.code)


def norm_codes(spec, n):
    """Every x*I + y*C of F_q[C] whose norm, its determinant, is the
    nonzero code n: q+1 code 4-tuples in ascending (y, x) code order.

    N(x + y*w) = x^2 - c1*x*y + c0*y^2.  At y = 0 this is x^2 = n.  At
    y != 0 put x = u*y: then y^2 = n / f(u) with f(u) = u^2 - c1*u + c0,
    which has no root because the modulus is irreducible.  So each u gives
    the square roots y of n / f(u), read from one dict, and x = u*y.
    """
    add, mul, neg, inv = spec._tables()
    c0, c1 = spec.ext_modulus()
    roots = {}  # square -> its square roots
    for v in range(spec.q):
        roots.setdefault(mul[v][v], []).append(v)
    yx = [(0, x) for x in roots.get(n, ())]
    for u in range(spec.q):
        f = add[mul[u][add[u][neg[c1]]]][c0]  # u*(u - c1) + c0
        yx += [(y, mul[u][y]) for y in roots.get(mul[n][inv[f]], ())]
    return [(x, neg[mul[y][c0]], y, add[x][neg[mul[y][c1]]])
            for y, x in sorted(yx)]


def norm1_subgroup(spec):
    """The norm-one torus: every z in F_q[C] of determinant 1, the kernel
    of the norm map of F_{q^2}*, cyclic of order q+1.  norm_codes(spec, 1)."""
    return norm_codes(spec, 1)
