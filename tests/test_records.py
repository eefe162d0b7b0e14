"""The record types: construction, defaults, equality and hashing, the
checks made on construction, and the order of their fields."""

import pytest

from kmlat import cli
from kmlat.gf import make_field
from kmlat.groups import CODE_ONE, DicksonEntry, nonsplit_torus
from kmlat.kmaction import (EdgeLabel, KMParams, RootIndex, RootLetter,
                            letter_table)
from kmlat.lattice import (ClassificationInput, LatticeDescriptor,
                           VerificationReport, build_standard_lattice,
                           classify, lubotzky_check)
from reference import EdgeOfGroups, GroupType, NotAHomomorphism, sl2_group

F3 = make_field(3)


def _equal_and_hashed_alike(x, y):
    return x == y and not x != y and hash(x) == hash(y) and len({x, y}) == 1


def test_keyword_and_positional_construction_agree():
    assert GroupType(kind="Cyclic", param=4) == GroupType("Cyclic", 4)
    assert KMParams(m=3, spec=F3) == KMParams(3, F3)
    assert RootIndex(side=2, depth=1) == RootIndex(2, 1)
    letter = RootLetter(root=RootIndex(1, 0), coeff=2)
    assert letter == RootLetter(RootIndex(1, 0), 2)
    assert EdgeLabel(region="L", coords=(1,)) == EdgeLabel("L", (1,))
    assert (DicksonEntry(type="A4", order=12, div_q_plus_1=True, source="s")
            == DicksonEntry("A4", 12, True, "s"))
    assert (ClassificationInput(p=5, q=5, levi="psl", z_order=1)
            == ClassificationInput(5, 5, "psl", 1))
    t, g = nonsplit_torus(F3), sl2_group(F3)
    ident = {x: x for x in t.elements}
    eog = EdgeOfGroups(a0=t, a1=g, a2=g, alpha1=ident, alpha2=dict(ident))
    assert eog == EdgeOfGroups.by_inclusion(t, g, g)
    with pytest.raises(NotAHomomorphism):
        EdgeOfGroups(a0=t, a1=g, a2=g, alpha1=ident,
                     alpha2={x: CODE_ONE for x in t.elements})


def test_defaults():
    assert GroupType("A4").param == 0 and str(GroupType("A4")) == "A4"
    assert str(GroupType("Cyclic", 3)) == "Cyclic(3)"
    inp = ClassificationInput(p=7, q=7, levi="psl", z_order=1)
    assert (inp.qi_in_zg, inp.qi0_in_zg, inp.qi0_nontrivial,
            inp.zmi_in_zg) == (None, None, None, None)
    row = LatticeDescriptor(q=3, case="c", a0_order=1, vertex_type="v",
                            covolume="1/2", delta0=1)
    assert row.exceptional is False
    rep = VerificationReport(q=3, passes=True, orbit_sizes=(4, 4),
                             stab_orders=(2, 2), intersection_order=2,
                             kernel_order=2, covolume="1/4",
                             a1_order=8, a2_order=8)
    assert rep.notes == ()


def test_equality_and_hashing():
    assert _equal_and_hashed_alike(GroupType("Cyclic", 2),
                                   GroupType("Cyclic", 2))
    assert GroupType("Cyclic", 2) != GroupType("Cyclic", 3)
    assert GroupType("A4") != GroupType("S4")
    assert _equal_and_hashed_alike(KMParams(2, F3), KMParams(2, F3))
    assert KMParams(2, F3) != KMParams(3, F3)
    assert _equal_and_hashed_alike(RootLetter(RootIndex(1, 0), 2),
                                   RootLetter(RootIndex(1, 0), 2))
    assert RootLetter(RootIndex(1, 0), 2) != RootLetter(RootIndex(2, 0), 2)
    assert _equal_and_hashed_alike(EdgeLabel("R", (0, 1)),
                                   EdgeLabel("R", (0, 1)))
    assert EdgeLabel("L", (0, 1)) != EdgeLabel("R", (0, 1))
    assert EdgeLabel.base() != ("base", ())
    assert _equal_and_hashed_alike(
        ClassificationInput(5, 5, "pgl", 2, True, True),
        ClassificationInput(5, 5, "pgl", 2, True, True))
    inp = ClassificationInput(p=7, q=7, levi="psl", z_order=1)
    assert _equal_and_hashed_alike(classify(inp)[0], classify(inp)[0])


def test_letter_table_cache_keys_on_equal_records():
    """Equal but distinct params and letters hit letter_table's cache."""
    def call():
        return letter_table(KMParams(2, F3), RootLetter(RootIndex(2, 0), 1),
                            "identity_phi")
    first = call()
    hits = letter_table.cache_info().hits
    assert call() is first
    assert letter_table.cache_info().hits == hits + 1


def test_json_dict_key_order(capsys):
    """The reports are plain namedtuples, and their covolume is already
    the "n/d" text the CLI writes."""
    rep = lubotzky_check(build_standard_lattice(F3, "torus_normalizer"))
    assert rep._fields == (
        "q", "passes", "orbit_sizes", "stab_orders", "intersection_order",
        "kernel_order", "covolume", "a1_order", "a2_order", "notes")
    assert rep.covolume == "1/4"
    assert cli.main(["verify", "--q", "3", "--kind", "torus_normalizer"]) == 0
    assert '"covolume": "1/4"' in capsys.readouterr().out
    row = classify(ClassificationInput(p=7, q=7, levi="psl", z_order=1))[0]
    assert row._fields == (
        "q", "case", "a0_order", "vertex_type", "covolume", "delta0",
        "exceptional")


def test_reprs():
    assert repr(GroupType("Cyclic", 2)) == "GroupType(kind='Cyclic', param=2)"
    assert (repr(EdgeLabel("L", (1, 0)))
            == "EdgeLabel(region='L', coords=(1, 0))")
    assert (repr(RootLetter(RootIndex(1, 0), 2))
            == "RootLetter(root=RootIndex(side=1, depth=0), coeff=2)")
