"""Property suites: congruence filtration, torsion orders, centralizers."""

import math
import random

from kmlat.gf import make_field
from kmlat.laurent import LaurentPoly
from kmlat.lattice import build_standard_lattice, lubotzky_check
from kmlat.serretree import Mat2
from oracles import mat2_pair
from reference import mat2_identity, membership

F2 = make_field(2)
F3 = make_field(3)

SAMPLES = 60


def elem_upper(spec, u):
    return Mat2(spec, LaurentPoly.one(spec), u,
                LaurentPoly.zero(spec), LaurentPoly.one(spec))


def elem_lower(spec, u):
    return Mat2(spec, LaurentPoly.one(spec), LaurentPoly.zero(spec),
                u, LaurentPoly.one(spec))


def random_poly(spec, rng, lo, hi):
    return LaurentPoly(spec, {d: rng.randrange(spec.q)
                              for d in range(lo, hi + 1)})


def random_congruence_element(spec, rng, n):
    """Product of elementary matrices with entries of valuation >= n."""
    m = mat2_identity(spec)
    for _ in range(rng.randrange(1, 4)):
        u = random_poly(spec, rng, n, n + 2)
        m = m.mul(elem_upper(spec, u) if rng.random() < 0.5
                  else elem_lower(spec, u))
    return m


def random_integral_sl2(spec, rng):
    """Product of elementary matrices with integral (valuation >= 0) entries."""
    m = mat2_identity(spec)
    for _ in range(rng.randrange(1, 5)):
        u = random_poly(spec, rng, 0, 2)
        m = m.mul(elem_upper(spec, u) if rng.random() < 0.5
                  else elem_lower(spec, u))
    return m


def test_congruence_subgroups_are_closed():
    rng = random.Random(1)
    for spec in (F2, F3):
        for n in (1, 2, 3):
            for _ in range(SAMPLES):
                u = random_congruence_element(spec, rng, n)
                v = random_congruence_element(spec, rng, n)
                assert membership(u, ("U", n))
                assert membership(u.inv(), ("U", n))
                assert membership(u.mul(v), ("U", n))


def test_congruence_subgroups_are_normal_in_integral_sl2():
    rng = random.Random(2)
    for spec in (F2, F3):
        for n in (1, 2):
            for _ in range(SAMPLES):
                u = random_congruence_element(spec, rng, n)
                g = random_integral_sl2(spec, rng)
                assert membership(g.mul(u).mul(g.inv()), ("U", n))


def test_congruence_quotients_are_elementary_abelian():
    """Commutators and p-th powers drop one level down the filtration."""
    rng = random.Random(3)
    for spec in (F2, F3):
        p = spec.p
        for n in (1, 2):
            for _ in range(SAMPLES):
                u = random_congruence_element(spec, rng, n)
                v = random_congruence_element(spec, rng, n)
                comm = u.mul(v).mul(u.inv()).mul(v.inv())
                assert membership(comm, ("U", n + 1))
                up = mat2_identity(spec)
                for _ in range(p):
                    up = up.mul(u)
                assert membership(up, ("U", n + 1))


def test_passing_lattices_have_no_p_torsion():
    """Element orders in verified edge-transitive pairs are coprime to p."""
    cases = [(make_field(2), "cyclic_p2"), (make_field(2, 2), "cyclic_p2"),
             (make_field(3), "torus_normalizer"),
             (make_field(7), "torus_normalizer"),
             (make_field(5), "SL2(3)")]
    for spec, kind in cases:
        a1 = build_standard_lattice(spec, kind)
        assert lubotzky_check(a1)["passes"]
        for grp in (a1, mat2_pair(a1)[1]):
            for g in grp.elements:
                assert math.gcd(grp.element_order(g), spec.p) == 1


def test_unipotent_centralizer_is_unipotent():
    """In characteristic 2, everything in a small SL2 window commuting with
    a nontrivial constant unipotent is itself upper unipotent."""
    spec = F2
    u = elem_upper(spec, LaurentPoly.one(spec))
    polys = [LaurentPoly(spec, dict(zip((-1, 0, 1), bits)))
             for bits in [(i, j, k) for i in range(2) for j in range(2)
                          for k in range(2)]]
    one = LaurentPoly.one(spec)
    for a in polys:
        for b in polys:
            for c in polys:
                for d in polys:
                    g = Mat2(spec, a, b, c, d)
                    if g.det() != one:
                        continue
                    if g.mul(u) == u.mul(g):
                        assert c.is_zero()
                        assert a == one and d == one
