"""tests/mutants.py names top-level functions and methods alike, and each
mutant it makes changes one site inside the named function.  No pytest
run and no copy of the repository: the helpers are called directly."""

import ast

import pytest

from mutants import ROOT, find_function, mutate, sites

SOURCE = (ROOT / "src" / "kmlat" / "serretree.py").read_text()


@pytest.mark.parametrize("name,owner,count", [
    ("check_dihedral_size", None, 3),  # 2 * window + 2, and one >
    ("Mat2.inv", "Mat2", 1),           # the inverse table, _tables()[3]
])
def test_find_function_and_sites(name, owner, count):
    tree = ast.parse(SOURCE)
    node = find_function(tree, name)
    assert node.name == name.split(".")[-1]
    parent = tree if owner is None else next(
        n for n in tree.body
        if isinstance(n, ast.ClassDef) and n.name == owner)
    assert node in parent.body
    assert len(sites(node)) == count
    for k in range(count):
        mutated, what = mutate(SOURCE, name, k)
        line = int(what.split(":")[0].split()[1])
        assert node.lineno <= line <= node.end_lineno
        assert mutated != ast.unparse(tree) + "\n"


@pytest.mark.parametrize("name", ["inv", "Mat2.nope", "Nope.inv",
                                  "Mat2.inv.x"])
def test_find_function_refuses_other_names(name):
    """A method is found only under its class, and only one level deep."""
    with pytest.raises(SystemExit, match="no function"):
        find_function(ast.parse(SOURCE), name)
