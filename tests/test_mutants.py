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


def test_min_covolume_has_its_max_call_as_a_site():
    """lattice.min_covolume compares nothing and holds no int constant,
    so its sites are the max over the rows, which the mutant makes a min
    and changes nothing else, and the `or` that falls back to every row,
    which the mutant makes an `and`."""
    source = (ROOT / "src" / "kmlat" / "lattice.py").read_text()
    node = find_function(ast.parse(source), "min_covolume")
    assert len(sites(node)) == 2
    mutated, what = mutate(source, "min_covolume", 0)
    call = sites(node)[0][0]
    assert what == "line %d: max -> min" % call.lineno
    assert ast.unparse(find_function(ast.parse(mutated), "min_covolume")) \
        == ast.unparse(node).replace("best = max(", "best = min(")
    mutated, what = mutate(source, "min_covolume", 1)
    assert what == "line %d: or -> and" % call.lineno
    assert ast.unparse(find_function(ast.parse(mutated), "min_covolume")) \
        == ast.unparse(node).replace("] or rows", "] and rows")


@pytest.mark.parametrize("call,partner", [
    ("max", "min"), ("min", "max"), ("any", "all"), ("all", "any")])
def test_call_swaps_unparse_to_the_partner(call, partner):
    source = "def f(xs):\n    return [%s(xs), g(xs), xs.%s()]\n" % (
        call, call)
    assert len(sites(find_function(ast.parse(source), "f"))) == 1
    assert mutate(source, "f", 0) == (
        "def f(xs):\n    return [%s(xs), g(xs), xs.%s()]\n" % (
            partner, call), "line 2: %s -> %s" % (call, partner))


@pytest.mark.parametrize("op,partner", [("and", "or"), ("or", "and")])
def test_boolean_chains_swap_to_the_partner(op, partner):
    """Each and/or chain is one site, swapped whole, and `not` is no
    site."""
    source = ("def f(a, b, c):\n    return (a %s b %s c, not (a %s b))\n"
              % (op, op, op))
    assert len(sites(find_function(ast.parse(source), "f"))) == 2
    assert mutate(source, "f", 0) == (
        "def f(a, b, c):\n    return (a %s b %s c, not (a %s b))\n"
        % (partner, partner, op), "line 2: %s -> %s" % (op, partner))
    assert mutate(source, "f", 1)[0] == (
        "def f(a, b, c):\n    return (a %s b %s c, not (a %s b))\n"
        % (op, op, partner))
