"""CLI: JSON output shape, determinism, and exit codes."""

import argparse
import gc
import itertools
import json
import operator
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kmlat import cli, gf, kmaction, serretree
from kmlat.errors import InvalidInput
from test_random_argv import word
from test_verify_golden import benchmark_workloads

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest depends on tomli on Python 3.10
    import tomli as tomllib

CMD = [sys.executable, "-m", "kmlat.cli"]
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, expect=0):
    out = subprocess.run(CMD + list(argv), capture_output=True, text=True)
    assert out.returncode == expect, out.stderr or out.stdout
    return out.stdout


def run_json(*argv, expect=0):
    payload = json.loads(run_cli(*argv, expect=expect))
    assert payload["schema"] == "kmlat-report-v1"
    return payload


def test_classify_json():
    out = run_json("classify", "--p", "7", "--q", "7", "--levi", "psl",
                   "--z", "2")
    assert out["command"] == "classify"
    cases = [r["case"] for r in out["rows"]]
    assert "psl-q3mod4-normalizer" in cases
    gen = [r for r in out["rows"] if not r["exceptional"]]
    assert gen[0]["covolume"] == "1/8"


def test_min_covolume_json_and_error():
    out = run_json("min-covolume", "--p", "2", "--q", "4", "--levi", "psl")
    assert out["min_covolume"] == "2/5" and out["delta0"] == 1
    err = json.loads(run_cli("min-covolume", "--p", "13", "--q", "13",
                             "--levi", "psl", expect=1))
    assert "error" in err and "detail" in err


def test_tristate_flags():
    out = run_json("classify", "--p", "5", "--q", "5", "--levi", "pgl",
                   "--qi-central", "yes", "--qi0-central", "yes")
    assert len(out["rows"]) == 2
    # missing required flags for this levi is a domain error
    run_cli("classify", "--p", "5", "--q", "5", "--levi", "pgl", expect=1)


def test_dickson_json():
    out = run_json("dickson", "--q", "2^3", "--ambient", "sl2")
    div = {r["type"] for r in out["rows"] if r["div_q_plus_1"]}
    assert div == {"Cyclic(9)", "Dihedral(18)"}


def test_verify_json():
    out = run_json("verify", "--q", "3", "--kind", "torus_normalizer")
    assert out["passes"] is True
    assert out["covolume"] == "1/4"
    assert out["orbit_sizes"] == [4, 4]


def test_km_act_json():
    out = run_json("km-act", "--q", "3", "--word", "x1:1,x2:1",
                   "--edge", "L:1,0")
    assert out["image"] == "L:2,1"
    out = run_json("km-act", "--q", "3", "--word", "x2:1", "--edge", "base")
    assert out["image"] == "base"


def test_zp_test_json():
    out = run_json("zp-test", "--q", "3", "--pairs", "2")
    assert out["checked"] == 81
    assert out["agreements_t1_nonzero"] == out["checked_t1_nonzero"]
    assert out["agreements"] < out["checked"]  # the t1 = 0 caveat shows up


def test_zp_test_criterion_needs_prime_q():
    """Over F_4 the t2 = 0 criterion misses some two-pair words."""
    out = run_json("zp-test", "--q", "4", "--pairs", "2")
    assert (out["checked"], out["agreements"], out["checked_t1_nonzero"],
            out["agreements_t1_nonzero"]) == (256, 190, 192, 174)


@pytest.mark.parametrize("q,pairs", [(509, 1), (2, 12)])
def test_zp_test_refuses_work_past_the_cap(q, pairs, capsys):
    """zp-test --q 509 --pairs 1 would build 2q tables and test 509^4
    edge entries: it ends in a domain error that names the cap and the
    size, before any letter table is built."""
    kmaction._LETTER_TABLES.clear()
    assert cli.main(["zp-test", "--q", str(q), "--pairs", str(pairs)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "SizeCapExceeded"
    assert "%d^%d" % (q, 2 * pairs + 2) in out["detail"]
    assert "cap 2^24" in out["detail"]
    assert kmaction._LETTER_TABLES == {}


@pytest.mark.parametrize("q,window", [(32, 1), (8, 3), (256, 3)])
def test_dihedral_search_refuses_work_past_the_cap(q, window, capsys,
                                                   monkeypatch):
    """dihedral-search --q 32 --window 1 ran for minutes: it ends in a
    domain error that names the cap and the size, before any involution
    family is built."""
    built = []
    monkeypatch.setattr(serretree, "_polys",
                        lambda *args: built.append(args) or ())
    argv = ["dihedral-search", "--q", str(q), "--window", str(window)]
    assert cli.main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "SizeCapExceeded"
    assert "%d^%d" % (q, 2 * window + 2) in out["detail"]
    assert "cap 2^18" in out["detail"]
    assert built == []


def test_dihedral_search_json():
    out = run_json("dihedral-search", "--q", "2", "--window", "1")
    assert out["violations"] == []
    assert out["triples_checked"] > 0


def test_tree_json():
    out = run_json("tree", "--q", "2", "--distance", "1,0;0,1", "t,0;0,1")
    assert out["distance"] == 1
    out = run_json("tree", "--q", "2", "--neighbors", "1,0;0,1")
    assert len(out["neighbors"]) == 3


def test_tree_takes_distance_or_neighbors_not_both():
    """Given both, tree used to print the distance and drop --neighbors."""
    out = subprocess.run(CMD + ["tree", "--q", "3", "--distance", "1,0;0,1",
                                "1,0;0,1", "--neighbors", "1,0;0,1"],
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.endswith("kmlat tree: error: argument --neighbors: "
                               "not allowed with argument --distance\n")


def test_usage_errors_exit_2():
    run_cli("no-such-command", expect=2)
    run_cli("classify", "--p", "7", expect=2)


def test_negative_window_is_a_usage_error():
    run_cli("dihedral-search", "--q", "2", "--window", "-1", expect=2)


def test_negative_pairs_is_a_usage_error():
    run_cli("zp-test", "--q", "3", "--pairs", "-1", expect=2)


def test_zero_pairs_is_a_usage_error():
    run_cli("zp-test", "--q", "3", "--pairs", "0", expect=2)


@pytest.mark.parametrize("m", ["1", "2", "7"])
def test_zp_test_m_is_a_usage_error(m):
    """zp-test runs identity phi, which never reads m, and the
    classification reads no m either: --m is km-act's alone."""
    assert run_cli("zp-test", "--q", "3", "--m", m, "--pairs", "1",
                   expect=2) == ""
    for command in ("classify", "min-covolume"):
        assert run_cli(command, "--p", "7", "--q", "7", "--levi", "psl",
                       "--m", m, expect=2) == ""


@pytest.mark.parametrize("argv", [
    ("km-act", "--q", "3", "--m", "1", "--word", "x1:1", "--edge", "base"),
], ids=["km-act"])
def test_m_below_2_is_invalid_input(argv):
    err = run_json(*argv, expect=1)
    assert err["error"] == "InvalidInput"
    assert "m = 1" in err["detail"]


def test_verify_names_the_divisibility_reason():
    err = run_json("verify", "--q", "13", "--kind", "SL2(5)", expect=1)
    assert err["error"] == "KindInadmissible"
    assert err["detail"] == "order 120 not divisible by q+1"


def test_non_integer_q_is_a_json_error():
    err = run_json("verify", "--q", "x", "--kind", "SL2(5)", expect=1)
    assert err["error"] == "InvalidInput"


def test_classify_rejects_composite_p():
    err = run_json("classify", "--p", "4", "--q", "16", "--levi", "psl",
                   expect=1)
    assert err["detail"] == "p = 4 is not prime"


@pytest.mark.parametrize("command", ["classify", "min-covolume"])
def test_classify_names_the_bound_on_p(command):
    p = str(2 ** 64 + 13)
    err = run_json(command, "--p", p, "--q", p, "--levi", "psl", expect=1)
    assert err["error"] == "InvalidInput"
    assert err["detail"] == "p = %s is not below the bound 2^64" % p


def test_classify_a_large_prime_p():
    """p = 2^61 - 1 would need about 1.5e9 trial divisions."""
    p = str(2 ** 61 - 1)
    start = time.monotonic()
    out = run_json("classify", "--p", p, "--q", p, "--levi", "psl",
                   "--z", "2")
    assert time.monotonic() - start < 1
    assert [r["case"] for r in out["rows"]] == ["psl-q3mod4-normalizer"]


def test_dickson_names_q_that_is_not_a_prime_power():
    err = run_json("dickson", "--q", "6", "--ambient", "sl2", expect=1)
    assert err["detail"] == "q = 6 is not a prime power"


@pytest.mark.parametrize("argv,named", [
    (("km-act", "--q", "3", "--word", "x1:a", "--edge", "base"), "'a'"),
    (("km-act", "--q", "3", "--word", "x1:1", "--edge", "L:9,x"), "'9'"),
    (("km-act", "--q", "3", "--word", "x1@z:1", "--edge", "base"), "'z'"),
    (("km-act", "--q", "3", "--word", "x1:7", "--edge", "L:1,0"), "'7'"),
    (("km-act", "--q", "3", "--word", "x1:-1", "--edge", "L:1,0"), "'-1'"),
    (("km-act", "--q", "3", "--word", "x1:1", "--edge", "L:5"), "'5'"),
    (("tree", "--q", "3", "--neighbors", "7,0;0,1"), "'7'"),
], ids=["word-coeff-a", "edge-9-x", "word-depth-z", "word-coeff-7",
        "word-coeff-minus-1", "edge-5", "tree-entry-7"])
def test_bad_field_code_is_a_json_error(argv, named):
    err = run_json(*argv, expect=1)
    assert err["error"] == "InvalidInput"
    assert named in err["detail"]
    if named != "'z'":  # a depth has no field
        assert "q = 3" in err["detail"]


@pytest.mark.parametrize("argv,detail", [
    (("dickson", "--q", "1", "--ambient", "sl2"),
     "q = 1 is not a prime power"),
    (("tree", "--q", "2", "--neighbors", "1,0"),
     "matrix needs two ';'-separated rows"),
    (("tree", "--q", "2", "--neighbors", "1;0,1"),
     "matrix rows need two ','-separated entries"),
    (("km-act", "--q", "3", "--word", "x1:1", "--edge", "X:1"),
     "edge must be 'base', 'L:c1,c2,...' or 'R:...'"),
    (("km-act", "--q", "3", "--word", "x1:1,", "--edge", "base"),
     "letter '' needs a ':coefficient'"),
    (("km-act", "--q", "3", "--word", "x3:1", "--edge", "base"),
     "letter must start with x1 or x2"),
    (("km-act", "--q", "3", "--word", "x0:1", "--edge", "base"),
     "letter must start with x1 or x2"),
    (("km-act", "--q", "3", "--word", "x1@-1:1", "--edge", "base"),
     "'-1' is not a non-negative integer"),
    (("km-act", "--q", "3", "--word", "x1@:1", "--edge", "base"),
     "'' is not a non-negative integer"),
    (("km-act", "--q", "3", "--word", "x1@1.5:1", "--edge", "base"),
     "'1.5' is not a non-negative integer"),
    (("tree", "--q", "2"), "tree needs --distance or --neighbors"),
    (("tree", "--q", "2", "--neighbors", ""),
     "matrix needs two ';'-separated rows"),
    (("tree", "--q", "2", "--distance", "1,0;0,1", ""),
     "matrix needs two ';'-separated rows"),
    (("tree", "--q", "3", "--neighbors", "1,0;0,1+"), "bad Laurent term ''"),
    (("verify", "--q", "2^0", "--kind", "SL2(5)"),
     "extension degree 0 is not positive"),
    (("dickson", "--q", "3^-1", "--ambient", "sl2"),
     "extension degree -1 is not positive"),
    # int() reads each of these as a number; the parsers take ASCII digits
    (("km-act", "--q", "11", "--word", "x1:1_0", "--edge", "base"),
     "field code '1_0' is not an integer in 0..10 (q = 11)"),
    (("km-act", "--q", "3", "--word", "x1@\u0660:1", "--edge", "base"),
     "'\u0660' is not a non-negative integer"),
    (("tree", "--q", "3", "--neighbors", "t^\u0663,0;0,1"),
     "bad Laurent term 't^\u0663'"),
    (("verify", "--q", " 7", "--kind", "SL2(3)"),
     "q = ' 7' is not an integer or p^a"),
    (("verify", "--q", "\u0667", "--kind", "SL2(3)"),
     "q = '\u0667' is not an integer or p^a"),
    (("verify", "--q", "3^ 2", "--kind", "SL2(3)"),
     "q = '3^ 2' is not an integer or p^a"),
    (("dickson", "--q", "1_1", "--ambient", "sl2"),
     "q = '1_1' is not an integer or p^a"),
    # "$" also matches before a final newline, and strip() drops one
    (("tree", "--q", "3", "--distance", "1,0;0,1\n", "t\n,0;0,1"),
     "bad Laurent term '1\\n'"),
], ids=["field-not-prime-power", "matrix-rows", "matrix-entries", "edge",
        "word-coeff-missing", "word-letter", "word-side-0",
        "word-depth-negative", "word-depth-empty", "word-depth-fraction",
        "tree-no-flag",
        "tree-empty-neighbors", "tree-empty-distance", "laurent-term",
        "degree-zero", "degree-negative", "code-underscore",
        "depth-arabic-indic", "exponent-arabic-indic", "q-space",
        "q-arabic-indic", "q-exponent-space", "q-underscore",
        "laurent-newline"])
def test_malformed_input_is_invalid_input(argv, detail):
    err = run_json(*argv, expect=1)
    assert err["error"] == "InvalidInput"
    assert err["detail"] == detail


def test_every_word_the_parser_accepts_is_letters_in_their_domain():
    """cli._parse_word is where a word enters the program, and kmaction
    checks no letter.  Over five fields, each one-letter word of a grid of
    names, depths and coefficients, and each of 3,000 seeded words from
    test_random_argv.word, is either one letter (side, depth, coeff) per
    token, with side 1 or 2, depth >= 0 and coeff a code of F_q, or ends
    in InvalidInput."""
    rng = random.Random(38)
    fields = [gf.make_field(p, a)
              for p, a in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))]
    grid = ["".join(parts) for parts in itertools.product(
        ("x1", "x2", "x0", "x3", "x", "y1", "X1", "x1x2"),
        ("", "@", "@0", "@2", "@-1", "@1.5", "@\u0663", "@" + "9" * 30),
        (":0", ":2", ":4", ":8", ":9", ":", "", ":-1", ":x", ":+1"))]
    words = [(spec, text) for spec in fields for text in grid]
    words += [(rng.choice(fields), word(rng)) for _ in range(3000)]
    accepted = 0
    for spec, text in words:
        try:
            letters = cli._parse_word(spec, text)
        except InvalidInput:
            continue
        accepted += 1
        assert len(letters) == text.count(",") + 1, text
        for side, depth, coeff in letters:
            assert side in (1, 2) and depth >= 0 and 0 <= coeff < spec.q
            assert type(side) is type(depth) is type(coeff) is int
    assert accepted > 100


# int() reads each value as a number; every integer flag reads ASCII digits
@pytest.mark.parametrize("argv,flag,kind,value", [
    (("classify", "--p", "1_3", "--q", " 13", "--levi", "psl", "--z", "2"),
     "--p", "int", "1_3"),
    (("classify", "--p", "13", "--q", " 13", "--levi", "psl"),
     "--q", "int", " 13"),
    (("min-covolume", "--p", "3", "--q", "\u0669", "--levi", "psl"),
     "--q", "int", "\u0669"),
    (("classify", "--p", "7", "--q", "7", "--levi", "psl", "--z", "\uff12"),
     "--z", "int", "\uff12"),
    (("km-act", "--q", "5", "--m", "\u0663", "--word", "x1:1", "--edge",
      "L:1,2"), "--m", "int", "\u0663"),
    (("zp-test", "--q", "3", "--pairs", "2\n"),
     "--pairs", "positive_int", "2\n"),
    (("dihedral-search", "--q", "2", "--window", "0_1"),
     "--window", "non_negative_int", "0_1"),
    (("--json-indent", "\u0662", "dickson", "--q", "3", "--ambient", "sl2"),
     "--json-indent", "non_negative_int", "\u0662"),
], ids=["classify-p", "classify-q", "min-covolume-q", "z", "m", "pairs",
        "window", "json-indent"])
def test_integer_flags_read_ascii_digits_only(capsys, argv, flag, kind,
                                              value):
    """The fast parse declines the argv, and argparse ends it with exit 2
    and names the flag and the value, with nothing on stdout."""
    assert cli.fast_parse(list(argv)) is None
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: argument %s: invalid %s value: %r\n"
                        % (flag, kind, value))


def test_fast_parse_declines_a_dash_in_either_value_of_distance():
    """A value that starts with '-' is argparse's to read, in either place
    of the two that tree --distance takes."""
    for values in (("1,0;0,1", "-1,0;0,1"), ("-1,0;0,1", "1,0;0,1")):
        assert cli.fast_parse(["tree", "--q", "3", "--distance",
                               *values]) is None


def test_every_integer_flag_reads_through_one_reader():
    types = [keywords["type"] for _, _, flags, _ in cli.COMMANDS.values()
             for keywords in flags.values() if "type" in keywords]
    assert len(types) == 9  # --p, --q, --z twice; --m, --pairs, --window
    code = cli._int_type("int").__code__  # one closure, which calls _int
    assert code.co_names == ("_int",)
    for read in types + [cli.indent_int]:  # and --json-indent
        assert read.__code__ is code
    assert cli.any_int("+7") == 7 and cli.non_negative_int("0") == 0
    with pytest.raises(argparse.ArgumentTypeError, match="0 is not positive"):
        cli.positive_int("0")


def test_q_keeps_its_sign_and_reads_ascii_digits_only():
    """A sign is still read (so "3^-1" names the degree), and nothing that
    is not an ASCII digit is."""
    assert cli._field_for("3^2").q == 9
    assert cli._field_for("+7").q == 7
    with pytest.raises(InvalidInput, match="degree -1 is not positive"):
        cli._field_for("3^-1")
    # 511 = 7 * 73 is at the cap, not past it
    with pytest.raises(InvalidInput, match="q = 511 is not a prime power"):
        cli._field_for("511")
    for text in (" 7", "7 ", "7\n", "\u0667", "3^\u0662", "1_1", "3^ 2",
                 "3 ^2", "9" * 5000, "", "^2", "3^"):
        with pytest.raises(InvalidInput, match="is not an integer or p"):
            cli._field_for(text)


# the last one is capped before a trial-division primality test of p
@pytest.mark.parametrize("q", ["512", "2^9", "100000000000000000039^1"])
def test_q_above_the_cap_names_it(q):
    err = run_json("dickson", "--q", q, "--ambient", "sl2", expect=1)
    assert err["error"] == "DegreeTooLarge"
    assert "cap 511" in err["detail"]


def test_verify_radius_is_gone():
    run_cli("verify", "--q", "3", "--kind", "torus_normalizer",
            "--radius", "1", expect=2)
    out = run_json("verify", "--q", "3", "--kind", "torus_normalizer")
    assert "radius" not in out


def test_negative_json_indent_is_a_usage_error():
    assert run_cli("--json-indent", "-3", "classify", "--p", "3", "--q", "3",
                   "--levi", "psl", expect=2) == ""
    zero = run_cli("--json-indent", "0", "classify", "--p", "3", "--q", "3",
                   "--levi", "psl")
    assert zero.startswith("{\n")


def test_json_indent_is_at_most_64(capsys):
    """json.dumps builds each level's indent as a string of spaces, so an
    indent past 64 is a usage error, refused before any report is built."""
    argv = ["classify", "--p", "3", "--q", "3", "--levi", "psl", "--z", "2"]
    with pytest.raises(SystemExit) as info:
        cli.main(["--json-indent", "1000000000000"] + argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(
        "error: argument --json-indent: 1000000000000 is more than 64\n")
    assert cli.main(["--json-indent", "64"] + argv) == 0
    assert capsys.readouterr().out.startswith("{\n" + " " * 64 + '"')


def test_removed_global_flags_are_usage_errors():
    run_cli("--seed", "1", "dickson", "--q", "3", "--ambient", "sl2",
            expect=2)
    run_cli("--max-elements", "5", "dickson", "--q", "3", "--ambient", "sl2",
            expect=2)


def test_python_dash_m_kmlat():
    out = subprocess.run([sys.executable, "-m", "kmlat", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "classify" in out.stdout


def test_a_run_never_probes_the_terminal():
    """With its help width fixed, building the parser does not make
    argparse import shutil (and with it bz2 and lzma) to measure the
    terminal.  Run as the benchmark runs a job: -E -S, src on sys.path.
    --json-indent before the command makes the fast parse decline, so
    argparse builds all nine parsers."""
    code = ("import sys; sys.path.insert(0, %r); import kmlat.cli; "
            "rc = kmlat.cli.main(['--json-indent', '0', 'verify', '--q', "
            "'5', '--kind', 'torus_normalizer']); "
            "sys.stderr.write(repr((rc, sorted("
            "{'shutil', 'bz2', 'lzma'} & set(sys.modules)))))" % str(SRC))
    out = subprocess.run([sys.executable, "-E", "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["command"] == "verify"
    assert out.stderr == "(0, [])"


def test_a_run_never_imports_typing():
    """No kmlat module imports typing: src has no annotations that would
    need it.  Run as the benchmark runs a job: -E -S, src on sys.path."""
    code = ("import sys; sys.path.insert(0, %r); import kmlat.cli; "
            "rc = [kmlat.cli.main(argv) for argv in (['verify', '--q', '5', "
            "'--kind', 'torus_normalizer'], ['classify', '--p', '7', '--q', "
            "'7', '--levi', 'psl'])]; "
            "sys.stderr.write(repr((rc, 'typing' in sys.modules)))"
            % str(SRC))
    out = subprocess.run([sys.executable, "-E", "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == "([0, 0], False)"


def test_a_run_never_imports_dataclasses_or_inspect():
    """The records are tuple subclasses and plain classes, so no run loads
    dataclasses, nor inspect with its ast, dis and tokenize.  Run as the
    benchmark runs a job: -E -S, src on sys.path."""
    argvs = (["verify", "--q", "5", "--kind", "torus_normalizer"],
             ["classify", "--p", "7", "--q", "7", "--levi", "psl"],
             ["zp-test", "--q", "3"], ["dihedral-search", "--q", "2"],
             ["dickson", "--q", "4", "--ambient", "psl2"])
    code = ("import sys; sys.path.insert(0, %r); import kmlat.cli; "
            "rc = [kmlat.cli.main(argv) for argv in %r]; "
            "sys.stderr.write(repr((rc, sorted({'dataclasses', 'inspect'} "
            "& set(sys.modules)))))" % (str(SRC), argvs))
    out = subprocess.run([sys.executable, "-E", "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == "([0, 0, 0, 0, 0], [])"


SUBCOMMANDS = ("classify", "min-covolume", "dickson", "verify", "km-act",
               "zp-test", "dihedral-search", "tree")


@pytest.mark.parametrize("argv", [("--help",), ("classify", "--help")]
                         + [(c, "--help") for c in SUBCOMMANDS[1:]])
def test_help_wraps_at_78_columns_whatever_the_terminal(argv):
    """Help is laid out for argparse's fallback 80-column terminal, so
    COLUMNS does not change it, and no line runs past column 78.  The
    top-level help names the subcommands COMMAND and lists each one."""
    env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
    plain = subprocess.run(CMD + list(argv), env=env, capture_output=True,
                           text=True)
    narrow = subprocess.run(CMD + list(argv), env=dict(env, COLUMNS="40"),
                            capture_output=True, text=True)
    assert plain.returncode == narrow.returncode == 0
    assert narrow.stdout == plain.stdout
    for line in plain.stdout.splitlines():
        assert len(line) <= 78, line
    if argv == ("--help",):
        listed = [line.split()[0] for line in plain.stdout.splitlines()
                  if line.startswith("    ")]
        assert listed == list(SUBCOMMANDS)


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv,flag", [
    (("dihedral-search", "--q", "2"), "--window"),
    (("zp-test", "--q", "3"), "--pairs")], ids=["window", "pairs"])
def test_window_and_pairs_default_to_1(capsys, argv, flag):
    """As the README says: omitting the flag prints what passing 1 prints,
    byte for byte, and passing 2 prints something else."""
    omitted = _in_process(capsys, argv)
    assert omitted[0] == 0
    assert omitted == _in_process(capsys, argv + (flag, "1"))
    assert omitted != _in_process(capsys, argv + (flag, "2"))


VALID_RUNS = {
    "classify": ("--p", "7", "--q", "7", "--levi", "psl", "--z", "2"),
    "min-covolume": ("--p", "2", "--q", "4", "--levi", "psl"),
    "dickson": ("--q", "2^3", "--ambient", "sl2"),
    "verify": ("--q", "5", "--kind", "torus_normalizer"),
    "km-act": ("--q", "3", "--word", "x1:1,x2:1", "--edge", "L:1,0"),
    "zp-test": ("--q", "3", "--pairs", "1"),
    "dihedral-search": ("--q", "2", "--window", "1"),
    "tree": ("--q", "2", "--neighbors", "1,0;0,1"),
}
NAMED_RUNS = ([(c,) + VALID_RUNS[c] for c in SUBCOMMANDS]
              + [(c, "-h") for c in SUBCOMMANDS]
              + [(c,) + VALID_RUNS[c][2:] for c in SUBCOMMANDS]
              + [(c,) + VALID_RUNS[c] + ("extra",) for c in SUBCOMMANDS]
              + [(c,) + VALID_RUNS[c] + ("--json-indent", "2")
                 for c in SUBCOMMANDS]
              + [("verify", "--q", "5", "--kind", "SL2(7)"),
                 ("classify", "--p", "7", "--q", "7", "--levi", "gl")])


def test_a_run_never_imports_fractions_decimal_or_numbers():
    """A covolume is "n/d" text computed on integers, so no run of
    any subcommand loads fractions, nor the decimal and numbers it pulls
    in.  Run as the benchmark runs a job: -E -S, src on sys.path."""
    argvs = [[c, *VALID_RUNS[c]] for c in SUBCOMMANDS]
    code = ("import sys; sys.path.insert(0, %r); import kmlat.cli; "
            "rc = [kmlat.cli.main(argv) for argv in %r]; "
            "sys.stderr.write(repr((rc, sorted({'fractions', 'decimal', "
            "'numbers'} & set(sys.modules)))))" % (str(SRC), argvs))
    out = subprocess.run([sys.executable, "-E", "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == "(%r, [])" % ([0] * len(SUBCOMMANDS))


# modules no run loads, and why: typing (src has no annotations and no
# `from __future__ import annotations`), dataclasses and inspect
# (KMParams is a tuple subclass, the reports plain dicts), fractions,
# decimal and numbers (a covolume is "n/d" text computed on integers),
# json, re and enum (cli.dumps writes the report without json, whose
# decoder imports re, and parse_laurent reads a term without re),
# functools (the caches are module dicts, _int_type makes a
# closure, and only build_parser imports it, after argparse has),
# collections with keyword, reprlib and _collections_abc (zp_walk counts
# in plain dicts, and KMParams is a tuple subclass, not a namedtuple),
# types (fast_parse's namespace is cli.Args), operator
# (itemgetter comes from _operator, which operator.py re-exports), math
# (covolume multiplies and runs Euclid on ints, dickson_table's
# gcd(2, q - 1) is 1 + q % 2, and valuation's infinity is float("inf"))
# and itertools (_polys extends its list one pi-degree at a time, the
# table build adds slices of rows, and the dihedral search nests loops)
UNLOADED = ("typing", "dataclasses", "inspect", "fractions", "decimal",
            "numbers", "json", "re", "enum", "functools", "collections",
            "types", "operator", "keyword", "reprlib", "_collections_abc",
            "math", "itertools")
# the stdlib modules a run loads past the interpreter's start-up
LOADED = ("_operator", "gc")


def test_a_run_loads_none_of_the_unloaded_modules():
    """One fresh interpreter, run as the benchmark runs a job (-E -S, src
    on sys.path), runs every VALID_RUNS argv and the first job of each
    benchmark workload.  Each exits 0, and none loads a module of
    UNLOADED: tree reads its Laurent literals without re."""
    argvs = [[c, *VALID_RUNS[c]] for c in SUBCOMMANDS]
    argvs += [list(jobs[0]) for jobs in benchmark_workloads().values()]
    code = ("import sys; sys.path.insert(0, %r); import kmlat.cli\n"
            "for argv in %r:\n"
            "    rc = kmlat.cli.main(argv)\n"
            "    print(rc, sorted(set(%r) & set(sys.modules)), "
            "file=sys.stderr)\n" % (str(SRC), argvs, UNLOADED))
    out = subprocess.run([sys.executable, "-E", "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines() == ["0 []"] * len(argvs)


def test_a_run_loads_no_stdlib_module_but_the_loaded_ones():
    """Past what `python3 -E -S` has loaded at start-up, a fresh
    interpreter that runs every VALID_RUNS argv and the first job of each
    benchmark workload loads kmlat's modules and LOADED's, and no other."""
    argvs = [[c, *VALID_RUNS[c]] for c in SUBCOMMANDS]
    argvs += [list(jobs[0]) for jobs in benchmark_workloads().values()]
    code = ("import sys; start = set(sys.modules)\n"
            "sys.path.insert(0, %r); import kmlat.cli\n"
            "rc = [kmlat.cli.main(argv) for argv in %r]\n"
            "sys.stderr.write(repr((rc, sorted(m for m in set(sys.modules) "
            "- start if m.partition('.')[0] != 'kmlat'))))"
            % (str(SRC), argvs))
    out = subprocess.run([sys.executable, "-E", "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == repr(([0] * len(argvs), sorted(LOADED)))


def test_itemgetter_is_operators():
    """gf and kmaction take itemgetter from _operator, the very function
    operator.py re-exports."""
    assert gf.itemgetter is kmaction.itemgetter
    assert gf.itemgetter is operator.itemgetter


@pytest.mark.parametrize("before", ["enabled", "disabled", "frozen"])
@pytest.mark.parametrize("argv,code", [
    (("verify",) + VALID_RUNS["verify"], 0),
    (("verify", "--q", "6", "--kind", "torus_normalizer"), 1),
    (("verify", "--q", "5"), 2), (("--help",), 0)],
    ids=["report", "error", "usage", "help"])
def test_main_leaves_the_gc_as_it_found_it(capsys, argv, code, before):
    """Whether main returns a report or an error, or argparse exits for a
    usage error or help, the GC is on or off as before, and exactly what
    was frozen before is frozen after: a caller's frozen objects too."""
    enabled = gc.isenabled()
    if before == "disabled":
        gc.disable()
    elif before == "frozen":
        gc.freeze()
    try:
        state = gc.isenabled(), gc.get_freeze_count()
        assert _in_process(capsys, argv)[0] == code
        assert (gc.isenabled(), gc.get_freeze_count()) == state
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def test_a_run_collects_none_of_the_objects_the_import_made():
    """After the import, gc.get_count() is about (530, 11, 0), and this
    run makes enough objects to pass generation 0's threshold of 700 from
    there: without the freeze in main, a collection starts inside it.  The
    freeze takes the import's objects out and starts the count again, so
    none does.  Run as the benchmark runs a job: -E -S, src on sys.path."""
    code = ("import gc, sys; sys.path.insert(0, %r); import kmlat.cli\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' "
            "and starts.append(info['generation']))\n"
            "rc = kmlat.cli.main(['verify', '--q', '29', '--kind', "
            "'SL2(5)'])\n"
            "print(rc, starts, file=sys.stderr)\n" % str(SRC))
    out = subprocess.run([sys.executable, "-E", "-S", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["passes"] is True
    assert out.stderr == "0 []\n"


@pytest.mark.parametrize("argv", NAMED_RUNS, ids=" ".join)
def test_named_subcommand_parser_matches_the_full_parser(monkeypatch,
                                                         capsys, argv):
    """An argv that starts with a subcommand name gives the same exit code,
    stdout and stderr when the fast parse declines it and argparse parses
    it: valid runs, help, a missing required flag, a bad choice, a
    trailing argument, and --json-indent after the command."""
    normal = _in_process(capsys, argv)
    monkeypatch.setattr(cli, "fast_parse", lambda argv: None)
    assert _in_process(capsys, argv) == normal


@pytest.mark.parametrize("argv", [("--help",), ("-h", "verify"), ("",),
                                  ("bogus",), ("verif",), ()],
                         ids=["help", "h-verify", "empty", "bogus",
                              "prefix", "none"])
def test_argv_without_a_leading_name_gets_every_subcommand(capsys, argv):
    """Help, no argv, and an unknown or abbreviated name use the parser
    with all eight subcommands: help lists them in order, and the error
    for a bad name offers each one."""
    code, out, err = _in_process(capsys, argv)
    if argv and argv[0] in ("--help", "-h"):
        assert (code, err) == (0, "")
        assert out == cli.build_parser().format_help()
        return
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage == "usage: kmlat [-h] [--json-indent JSON_INDENT] COMMAND ..."
    if argv:
        listed = error.partition("choose from ")[2]
        assert [c.strip("'") for c in listed.rstrip(")").split(", ")] == list(
            SUBCOMMANDS)
    else:
        assert error.endswith("required: COMMAND")


def test_json_indent_before_the_command_gets_every_subcommand(capsys):
    argv = ("--json-indent", "2", "verify") + VALID_RUNS["verify"]
    code, out, err = _in_process(capsys, argv)
    assert (code, err) == (0, "")
    plain = json.loads(_in_process(capsys, ("verify",)
                                   + VALID_RUNS["verify"])[1])
    assert out == json.dumps(plain, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv,built", [
    (("verify", "--q", "5", "--kind", "torus_normalizer"), 0),
    (("tree", "--q", "2", "--neighbors", "1,0;0,1"), 0),
    (("--help",), 9),
    (("--json-indent", "2", "verify", "--q", "5", "--kind",
      "torus_normalizer"), 9),
], ids=["verify", "tree", "help", "json-indent-first"])
def test_a_run_builds_only_the_parsers_it_needs(monkeypatch, capsys, argv,
                                                built):
    """A run that the fast parse takes builds no parser; anything else
    builds all nine parsers, once per process: the same run again, with
    its output unchanged, builds none."""
    inits = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        inits.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli, "_PARSER", [])
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    first = _in_process(capsys, argv)
    assert first[0] == 0
    assert len(inits) == built, inits
    assert _in_process(capsys, argv) == first
    assert len(inits) == built, inits


def test_output_is_deterministic():
    argvs = [
        ("classify", "--p", "7", "--q", "7", "--levi", "psl"),
        ("dickson", "--q", "11", "--ambient", "sl2"),
        ("verify", "--q", "2", "--kind", "cyclic_p2"),
        ("zp-test", "--q", "2", "--pairs", "2"),
    ]
    for argv in argvs:
        assert run_cli(*argv) == run_cli(*argv)


def test_entry_point_installed():
    # Run the wrapper an installer writes for the `kmlat` console script
    # declared in this checkout's pyproject.toml, rather than whatever
    # `kmlat` happens to be on PATH.
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["kmlat"]
    module, func = target.split(":")
    wrapper = ("import sys; from %s import %s; sys.argv[0] = 'kmlat'; "
               "sys.exit(%s())" % (module, func, func))
    out = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "classify" in out.stdout
