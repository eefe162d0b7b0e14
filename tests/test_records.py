"""The record types: construction, defaults, equality and hashing, and
the checks made on construction.  The package keeps one, KMParams, which
holds input from outside the program and checks m >= 2 when it is built;
the others here (GroupType, EdgeOfGroups) are the tests' own.  classify
takes its input as plain arguments, edge labels and root letters are
plain tuples, and the reports plain dicts."""

import json

import pytest

from kmlat import cli, kmaction
from kmlat.gf import make_field
from kmlat.groups import CODE_ONE, dickson_table, nonsplit_torus
from kmlat.kmaction import KMParams, letter_table
from kmlat.lattice import (build_standard_lattice, classify, lubotzky_check,
                           min_covolume)
from kmlat.serretree import dihedral_obstruction_search
from reference import EdgeOfGroups, GroupType, NotAHomomorphism, sl2_group

F3 = make_field(3)


def _equal_and_hashed_alike(x, y):
    return x == y and not x != y and hash(x) == hash(y) and len({x, y}) == 1


def test_keyword_and_positional_construction_agree():
    assert GroupType(kind="Cyclic", param=4) == GroupType("Cyclic", 4)
    assert KMParams(m=3, spec=F3) == KMParams(3, F3)
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


def test_equality_and_hashing():
    assert _equal_and_hashed_alike(GroupType("Cyclic", 2),
                                   GroupType("Cyclic", 2))
    assert GroupType("Cyclic", 2) != GroupType("Cyclic", 3)
    assert GroupType("A4") != GroupType("S4")
    assert _equal_and_hashed_alike(KMParams(2, F3), KMParams(2, F3))
    assert KMParams(2, F3) != KMParams(3, F3)


def test_fields_read_back_by_name_and_are_read_only():
    """Each field reads back the value given for it, and none can be set:
    a record is the tuple of its fields."""
    params = KMParams(spec=F3, m=4)
    assert (params.m, params.spec) == tuple(params) == (4, F3)
    with pytest.raises(AttributeError):
        params.m = 2


def test_letter_table_cache_keys_on_equal_records():
    """Equal but distinct params and letters hit letter_table's cache:
    the same table comes back, and the cache does not grow."""
    def call():
        return letter_table(KMParams(2, F3), tuple([2, 0, 1]),
                            "identity_phi")
    first = call()
    size = len(kmaction._LETTER_TABLES)
    assert call() is first
    assert len(kmaction._LETTER_TABLES) == size
    assert kmaction._LETTER_TABLES[KMParams(2, F3), (2, 0, 1),
                                   "identity_phi"] is first


def test_covolume_is_fraction_text(capsys):
    """A report is the plain dict the CLI writes, and its covolume is
    already the "n/d" text."""
    rep = lubotzky_check(build_standard_lattice(F3, "torus_normalizer"))
    assert rep["covolume"] == "1/4"
    assert cli.main(["verify", "--q", "3", "--kind", "torus_normalizer"]) == 0
    assert '"covolume": "1/4"' in capsys.readouterr().out


def test_reprs():
    assert repr(GroupType("Cyclic", 2)) == "GroupType(kind='Cyclic', param=2)"


# command -> (argv, the library call whose value the command reports, and
# where the report holds that value)
_PSL7 = (7, 7, "psl", 1)
_PGL5 = (5, 5, "pgl", 1, True, True)
_PLAIN = {
    "verify": (("--q", "7", "--kind", "2S4"),
               lambda: lubotzky_check(build_standard_lattice(
                   make_field(7), "2S4")),
               lambda rep: {k: v for k, v in rep.items() if k != "kind"}),
    "classify": (("--p", "7", "--q", "7", "--levi", "psl"),
                 lambda: classify(*_PSL7), lambda rep: rep["rows"]),
    "min-covolume": (("--p", "5", "--q", "5", "--levi", "pgl",
                      "--qi-central", "yes", "--qi0-central", "yes"),
                     lambda: min_covolume(classify(*_PGL5)),
                     lambda rep: [rep["min_covolume"], rep["delta0"]]),
    "dickson": (("--q", "9", "--ambient", "sl2"),
                lambda: dickson_table(make_field(3, 2), "sl2"),
                lambda rep: rep["rows"]),
    "dihedral-search": (("--q", "4", "--window", "1"),
                        lambda: dihedral_obstruction_search(
                            make_field(2, 2), 1),
                        lambda rep: rep),
}


@pytest.mark.parametrize("command", _PLAIN)
def test_a_library_report_is_the_plain_data_the_command_prints(
        command, capsys):
    """Each command's library function returns dicts, lists, tuples, str,
    int, bool and None, which cli.dumps writes as they are, and the
    command prints that value unconverted."""
    argv, call, part = _PLAIN[command]
    raw = call()
    text = cli.dumps(raw)  # a record or a Mat2 would raise TypeError
    assert cli.main([command, *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["command"], report["schema"]
    assert part(report) == json.loads(text)
