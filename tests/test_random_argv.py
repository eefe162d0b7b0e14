"""Random argvs drawn from each flag's value domain, run in-process through
cli.main.  Each run ends in exit 0 or 1 with one JSON document on stdout
(exit 1's holds exactly error, detail and schema), or in argparse's exit 2
with nothing on stdout, and never in a traceback.

The generator is seeded.  It draws a command of cli.COMMANDS, then each of
its flags or not, in a random order, with a value from that flag's domain:
Laurent matrices for tree, words and edges for km-act, field sizes as
"q" or "p^a", integers small, negative, huge (up to int()'s 4,300 digits)
or malformed, and each choice flag's choices.  Now and then it repeats a
flag, drops a value, adds an unknown flag or a --json-indent.  It never
draws -h or --help, which print usage with exit 0.  Sizes that would run
for more than a few milliseconds (dihedral-search windows 2 and 3, zp-test
pairs 2 to 11, fields of 8 elements or more) are not drawn: the golden
and benchmark jobs run those.

draw rarely gives a km-act argv that reaches the action's rules (its
letter names, coefficients and edge coordinates are mostly drawn outside
the field's domain), so km_act draws km-act argvs that are valid for
their field: letters x1 or x2 of depth 0 to 2 with a coefficient in
0..q-1, and the base edge or an edge of coordinates in 0..q-1.

Nor does draw often give a tree argv that reaches the tree (its Laurent
literals are mostly malformed or hold codes outside the field, and it
often draws both or neither of --distance and --neighbors), so tree
draws tree argvs that are valid for their field: a --distance pair or a
--neighbors matrix, each with monomial diagonal entries and one
off-diagonal entry of 1 to 3 terms with codes in 0..q-1.  To run more
argvs than Tier-1 does, with another seed:

    PYTHONPATH=src python tests/test_random_argv.py RUNS SEED
"""

import contextlib
import functools
import io
import json
import random
import sys
from collections import Counter

from kmlat import cli

SEED = 20261020
RUNS = 600
BAD = 0.02  # the chance of each malformed value and each argv-shape fault

JUNK = ("", "x", "1.5", " 3", "3 ", "1_0", "٣", "0x10", "--7", "+",
        "-", "3^", "^2", "1e3", "２", "2\n")


def huge(rng):
    """A decimal integer of 20 to 4,400 digits, sometimes signed; past
    4,300 digits int() refuses it."""
    block = str(rng.randrange(10 ** 19, 10 ** 20))
    return rng.choice(("", "", "-", "+")) + block * rng.choice((1, 20, 215,
                                                                220))


def integer(rng, small):
    """An integer flag's value: one of small, huge, or now and then
    negative or malformed."""
    roll = rng.random()
    if roll < BAD:
        return rng.choice((str(rng.randrange(-5, 0)), rng.choice(JUNK)))
    return huge(rng) if roll < 0.2 else str(rng.choice(small))


def field(rng):
    """--q of the commands that build F_q: "q" or "p^a", valid or not."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice((huge(rng), "2^" + huge(rng).lstrip("+-"),
                           huge(rng).lstrip("+-") + "^2", rng.choice(JUNK)))
    if roll < 0.3:
        return rng.choice(("0", "1", "6", "12", "-3", "511", "512", "2^9",
                           "3^-1", "3^0", "7^7", "1^5", "4^2"))
    return rng.choice(("2", "3", "4", "5", "7", "9", "2^2", "3^2", "+3",
                       "5^1"))


def code(rng):
    """A field code or depth: mostly small, now and then huge or junk."""
    roll = rng.random()
    if roll < BAD:
        return rng.choice(JUNK)
    return huge(rng).lstrip("+-") if roll < 0.1 else str(rng.randrange(10))


def laurent(rng):
    """A Laurent literal: terms c, t, c*t, t^k, c*t^k joined by '+'."""
    if rng.random() < 0.1:
        return rng.choice(JUNK + ("t^", "*t", "2*", "t^t", "++", "tt"))
    terms = []
    for _ in range(rng.randrange(1, 4)):
        c = rng.choice(("", "", "1", "2", "0", "7", "12"))
        k = rng.choice(("", "^1", "^-1", "^2", "^-2", "^%d" % rng.randrange(
            -70, 71), "^" + huge(rng)))
        shape = rng.randrange(4)
        terms.append((c or "1") if shape == 0 else
                     "t" + k if shape == 1 else
                     (c or "1") + "*t" + k if shape == 2 else c + "t" + k)
    return "+".join(terms)


def matrix(rng):
    if rng.random() < 0.1:
        return rng.choice(("1,0", "1;0", "1,0;0", "1,0,0;0,1", ";", ","))
    return "%s,%s;%s,%s" % tuple(laurent(rng) for _ in range(4))


def word(rng):
    letters = []
    for _ in range(rng.randrange(1, 5)):
        name = rng.choice(("x1", "x2", "x1", "x2", "x3", "y1", ""))
        if rng.random() < 0.3:
            name += "@" + rng.choice(("0", "1", "2", "5", huge(rng)
                                      .lstrip("+-"), "-1", "x"))
        letters.append(name + rng.choice((":" + code(rng), ":" + code(rng),
                                          ":", "")))
    return ",".join(letters)


def edge(rng):
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(("base", "Base", "L:", "R", "Q:1", "L:1,,2", ""))
    return rng.choice("LR") + ":" + ",".join(
        code(rng) if rng.random() < 0.2 else str(rng.randrange(3))
        for _ in range(rng.randrange(1, 7)))


def km_act(rng):
    """A km-act argv whose word and edge are in its field's domain."""
    q_text = rng.choice(("2", "3", "4", "5", "7", "8", "9", "2^2", "3^2"))
    p, _, a = q_text.partition("^")
    q = int(p) ** int(a or 1)
    word = ",".join(
        "x%d%s:%d" % (rng.choice((1, 2)), rng.choice(("", "@0", "@1", "@2")),
                      rng.randrange(q))
        for _ in range(rng.randrange(1, 5)))
    length = rng.randrange(7)
    edge = "%s:%s" % (rng.choice("LR"), ",".join(
        str(rng.randrange(q)) for _ in range(length))) if length else "base"
    return ["km-act", "--q", q_text, "--m", str(rng.randrange(2, 6)),
            "--word", word, "--edge", edge,
            "--mode", rng.choice(("identity_phi", "twisted_phi"))]


def tree(rng):
    """A tree argv whose matrices are in its field's domain: monomial
    diagonal entries and one off-diagonal entry of 1 to 3 terms, each with
    a code in 0..q-1, so that every determinant is a monomial."""
    q_text = rng.choice(("2", "3", "4", "5", "7", "8", "9", "2^2", "2^3",
                         "3^2"))
    p, _, a = q_text.partition("^")
    q = int(p) ** int(a or 1)

    def term(c):
        return rng.choice(("%d*t^%d", "%dt^%d")) % (c, rng.randrange(-3, 4))

    def matrix():
        entries = [term(rng.randrange(1, q)), "0", "0",
                   term(rng.randrange(1, q))]
        entries[rng.choice((1, 2))] = "+".join(
            term(rng.randrange(q)) for _ in range(rng.randrange(1, 4)))
        return "%s,%s;%s,%s" % tuple(entries)
    if rng.random() < 0.5:
        return ["tree", "--q", q_text, "--neighbors", matrix()]
    return ["tree", "--q", q_text, "--distance", matrix(), matrix()]


def value(rng, command, flag, keywords):
    """One value from the domain of a flag of a command."""
    if "choices" in keywords:
        if rng.random() < BAD:
            return rng.choice(JUNK)
        return rng.choice(keywords["choices"])
    if flag == "--q":
        if command in ("classify", "min-covolume"):
            return integer(rng, (2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 81, 121, 0,
                                 1, 6, 3 ** 8999, 2 ** 14000))
        return field(rng)
    if flag == "--p":
        return integer(rng, (2, 3, 5, 7, 11, 0, 1, 4, 9, 2 ** 64 + 13))
    if flag == "--z":
        return integer(rng, (1, 2, 3, 4, 0, 10 ** 4000 - 1))
    if flag == "--m":
        return integer(rng, (2, 3, 4, 5, 1, 0))
    if flag == "--pairs":
        return integer(rng, (1, 1, 12, 0))
    if flag == "--window":
        return integer(rng, (0, 1, 4, 0, 1))
    if flag == "--word":
        return word(rng)
    if flag == "--edge":
        return edge(rng)
    return matrix(rng)  # --distance and --neighbors


def draw(rng):
    command = rng.choice(sorted(cli.COMMANDS))
    flags = cli.COMMANDS[command][2]
    groups = []
    for flag, keywords in flags.items():
        if rng.random() < (1 - BAD if keywords.get("required") else 0.5):
            groups.append([flag] + [value(rng, command, flag, keywords)
                                    for _ in range(keywords.get("nargs", 1))])
    if rng.random() < BAD and groups:
        groups.append(list(rng.choice(groups)))
    if rng.random() < BAD and groups:
        groups[rng.randrange(len(groups))].pop()
    if rng.random() < BAD:
        groups.append(["--bogus", "1"])
    rng.shuffle(groups)
    argv = [command] + [token for group in groups for token in group]
    if rng.random() < 0.1:
        argv = ["--json-indent", integer(rng, (0, 2, 64, 65))] + argv
    return argv


@functools.lru_cache(maxsize=1)
def argvs(seed, runs):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(runs)]


def run(argv):
    """(exit code, stdout) of cli.main(argv), with argparse's SystemExit
    read as its code; any other exception propagates."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check(argv):
    """The exit code, after asserting what each exit prints."""
    code, text = run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert text == "", argv
    else:
        doc = json.loads(text)  # one document: json.loads refuses a second
        assert isinstance(doc, dict) and doc["schema"] == cli.SCHEMA, argv
        if code == 1:
            assert set(doc) == {"error", "detail", "schema"}, argv
    return code


def test_random_argvs_exit_0_1_or_2_with_their_output():
    codes = Counter(check(argv) for argv in argvs(SEED, RUNS))
    assert set(codes) == {0, 1, 2}  # every outcome is drawn
    assert codes[0] > RUNS // 20 and codes[1] > RUNS // 10


def test_valid_km_act_argvs_reach_the_rules():
    """Of RUNS seeded km_act argvs, the fast parse reads every one, at
    least a third exit 0, and every other ends in UnsupportedActionDomain,
    a letter with no rule on its edge: none is a usage error, an input
    error or a traceback."""
    rng = random.Random(SEED)
    argvs = [km_act(rng) for _ in range(RUNS)]
    assert all(cli.fast_parse(argv) is not None for argv in argvs)
    codes = Counter(check(argv) for argv in argvs)
    assert set(codes) <= {0, 1} and codes[0] >= RUNS // 3
    assert {json.loads(run(argv)[1]).get("error") for argv in argvs} \
        == {None, "UnsupportedActionDomain"}


def test_valid_tree_argvs_reach_the_tree():
    """Of RUNS seeded tree argvs, the fast parse reads every one, at least
    a third exit 0, and none is a usage error or a traceback."""
    rng = random.Random(SEED)
    argvs = [tree(rng) for _ in range(RUNS)]
    assert all(cli.fast_parse(argv) is not None for argv in argvs)
    codes = Counter(check(argv) for argv in argvs)
    assert 2 not in codes and codes[0] >= RUNS // 3


def test_the_generator_draws_every_flag_and_no_help():
    """Every flag of every command is drawn, at least once in an argv the
    fast parse reads whole, so with a value its own parse accepts."""
    drawn, parsed = set(), set()
    for argv in argvs(SEED, RUNS):
        assert not {"-h", "--help"} & set(argv)
        command = argv[2] if argv[0] == "--json-indent" else argv[0]
        flags = {(command, t) for t in argv if t in cli.COMMANDS[command][2]}
        drawn |= flags
        if cli.fast_parse(argv) is not None:
            parsed |= flags
    every = {(name, flag) for name, (_, _, flags, _) in cli.COMMANDS.items()
             for flag in flags}
    assert drawn == every
    assert parsed == every


def test_huge_products_of_inputs_are_a_domain_error():
    """q * z past what a report can print is InvalidInput, not a
    ValueError from int-to-text; pairs past 2^64 is a usage error."""
    argv = ["classify", "--p", "2", "--q", str(2 ** 14000), "--levi", "psl",
            "--z", str(10 ** 4000)]
    assert check(argv) == 1
    assert json.loads(run(argv)[1])["error"] == "InvalidInput"
    assert check(["classify", "--p", "3", "--q", str(3 ** 8999), "--levi",
                  "psl", "--z", "9" * 4000]) == 1
    assert check(["zp-test", "--q", "2", "--pairs", "9" * 4300]) == 2


if __name__ == "__main__":
    runs, seed = int(sys.argv[1]), int(sys.argv[2])
    rng = random.Random(seed)
    print(dict(Counter(check(draw(rng)) for _ in range(runs))))
    print("km-act:", dict(Counter(check(km_act(rng)) for _ in range(runs))))
    print("tree:", dict(Counter(check(tree(rng)) for _ in range(runs))))
