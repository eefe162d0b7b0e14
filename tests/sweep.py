"""Byte-identity sweep: every argv of a fixed domain per command, run
in-process through kmlat.cli.main, summed up as one digest per command.
Stdlib only; pytest does not collect this file (its name does not start
with test_).

    python tests/sweep.py [--against DIR]

The domains:
- verify: every prime power q <= 511 with each of the 5 kinds;
- dickson: every prime power q <= 511 with each of the 3 ambients;
- classify and min-covolume: every prime power q = p^a < 10^4, both
  levis and z = 1..4, no center flags (10,240 argvs each); then every
  prime power q < 64, both levis and z = 1..2, with each of the 81
  settings of the four center flags (each unset, yes or no; 8,424 argvs
  each);
- dihedral-search: q = 2, 4, ..., 256 with window 0..4;
- zp-test: every prime power q <= 511 with each pairs the work cap
  admits, and the first pairs past it;
- km-act: every km-act argv of tests/golden/tree_jobs.json; one letter
  x1 or x2 of each depth 0..2 and code on each edge within distance 3 of
  the base, over F_2, F_3 and F_4, in identity_phi and in twisted_phi
  with m = 3; and the first KM_ACT_DRAWS km-act argvs that
  test_random_argv.draw gives with seed KM_ACT_SEED;
- tree: every tree argv of tests/golden/tree_jobs.json, the first
  TREE_DRAWS tree argvs that test_random_argv.draw gives with seed
  TREE_SEED, and the first VALID_TREE_DRAWS argvs that
  test_random_argv.tree gives with seed VALID_TREE_SEED (draw's rarely
  reach the tree; these are valid for their field and exit 0).

For each command it prints the argv count, the histogram of exit codes and
one sha256 over the JSON lines [argv, stdout, stderr, exit code], in
domain order.  --against DIR runs the same domains on DIR/src, another
checkout, in a subprocess, prints both digests and the first argvs whose
line differs, and exits 1 if any command differs.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
KINDS = ("cyclic_p2", "torus_normalizer", "SL2(3)", "SL2(5)", "2S4")
AMBIENTS = ("sl2", "psl2", "pgl2")
SHOWN = 10  # differing argvs printed per command
KM_ACT_SEED, KM_ACT_DRAWS = 38, 1000
TREE_SEED, TREE_DRAWS = 39, 2000
VALID_TREE_SEED, VALID_TREE_DRAWS = 43, 2000
CENTER_FLAGS = ("--qi-central", "--qi0-central", "--qi0-nontrivial",
                "--zmi-central")


def prime_powers(limit):
    """(q, p) for every prime power q = p^a <= limit, by q."""
    out = []
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            q = p
            while q <= limit:
                out.append((q, p))
                q *= p
    return sorted(out)


def _classify_domain(command):
    def argv(q, p, levi, z, flags=()):
        return [command, "--p", str(p), "--q", str(q), "--levi", levi,
                "--z", str(z), *itertools.chain(*flags)]
    return [argv(q, p, levi, z) for q, p in prime_powers(10 ** 4 - 1)
            for levi in ("psl", "pgl") for z in range(1, 5)] + [
        argv(q, p, levi, z, [(flag, value) for flag, value
                             in zip(CENTER_FLAGS, values) if value])
        for q, p in prime_powers(63) for levi in ("psl", "pgl")
        for z in (1, 2)
        for values in itertools.product((None, "yes", "no"), repeat=4)]


def _zp_test_domain():
    from kmlat.kmaction import ZP_CAP
    out = []
    for q, _ in prime_powers(511):
        pairs = 1
        while q ** (2 * pairs + 2) <= ZP_CAP:
            out.append(["zp-test", "--q", str(q), "--pairs", str(pairs)])
            pairs += 1
        out.append(["zp-test", "--q", str(q), "--pairs", str(pairs)])
    return out


def _golden(command):
    golden = json.loads((TESTS / "golden" / "tree_jobs.json").read_text())
    return [g["argv"] for g in golden if g["argv"][0] == command]


def _drawn(command, seed, n):
    """The first n argvs of command that test_random_argv.draw gives."""
    from test_random_argv import draw  # which imports kmlat.cli
    rng, out = random.Random(seed), []
    while len(out) < n:
        argv = draw(rng)
        if argv[2 if argv[0] == "--json-indent" else 0] == command:
            out.append(argv)
    return out


def _valid_tree(seed, n):
    """The first n argvs that test_random_argv.tree gives."""
    from test_random_argv import tree
    rng = random.Random(seed)
    return [tree(rng) for _ in range(n)]


def _km_act_domain():
    out = _golden("km-act")
    for q in (2, 3, 4):
        edges = ["base"] + [
            "%s:%s" % (region, ",".join(map(str, coords)))
            for region in "LR" for n in (1, 2, 3)
            for coords in itertools.product(range(q), repeat=n)]
        for mode, side, depth, c, edge in itertools.product(
                ("identity_phi", "twisted_phi"), (1, 2), range(3), range(q),
                edges):
            out.append(["km-act", "--q", str(q), "--m", "3", "--word",
                        "x%d@%d:%d" % (side, depth, c) if depth
                        else "x%d:%d" % (side, c), "--edge", edge,
                        "--mode", mode])
    return out + _drawn("km-act", KM_ACT_SEED, KM_ACT_DRAWS)


DOMAINS = {
    "verify": lambda: [["verify", "--q", str(q), "--kind", kind]
                       for q, _ in prime_powers(511) for kind in KINDS],
    "dickson": lambda: [["dickson", "--q", str(q), "--ambient", ambient]
                        for q, _ in prime_powers(511) for ambient in AMBIENTS],
    "classify": lambda: _classify_domain("classify"),
    "min-covolume": lambda: _classify_domain("min-covolume"),
    "dihedral-search": lambda: [
        ["dihedral-search", "--q", str(2 ** a), "--window", str(w)]
        for a in range(1, 9) for w in range(5)],
    "zp-test": _zp_test_domain,
    "km-act": _km_act_domain,
    "tree": lambda: (_golden("tree") + _drawn("tree", TREE_SEED, TREE_DRAWS)
                     + _valid_tree(VALID_TREE_SEED, VALID_TREE_DRAWS)),
}


def lines(command):
    """The JSON line [argv, stdout, stderr, exit code] of each argv of the
    command's domain, run through cli.main in this process."""
    from kmlat import cli
    for argv in DOMAINS[command]():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors and help
                code = exc.code
        yield json.dumps([argv, out.getvalue(), err.getvalue(), code])


def summary(rows):
    """(argv count, {exit code: argvs}, sha256 of the lines)."""
    digest, codes = hashlib.sha256(), {}
    for line in rows:
        digest.update(line.encode() + b"\n")
        code = json.loads(line)[3]
        codes[code] = codes.get(code, 0) + 1
    return len(rows), dict(sorted(codes.items())), digest.hexdigest()


def other_lines(directory):
    """{command: lines} of the same domains on directory/src."""
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", "--src",
         str(Path(directory, "src"))],
        capture_output=True, text=True, check=True)
    out = {command: [] for command in DOMAINS}
    for record in proc.stdout.splitlines():
        command, line = json.loads(record)
        out[command].append(line)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="DIR",
                        help="another checkout to compare with")
    parser.add_argument("--src", default=str(SRC), help=argparse.SUPPRESS)
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    if args.emit:  # the subprocess side of --against
        for command in DOMAINS:
            for line in lines(command):
                print(json.dumps([command, line]))
        return 0
    theirs = other_lines(args.against) if args.against else None
    differ = False
    for command in DOMAINS:
        ours = list(lines(command))
        count, codes, digest = summary(ours)
        print("%s: %d argvs, exit codes %s, sha256 %s"
              % (command, count, codes, digest))
        if theirs is None:
            continue
        other = theirs[command]
        other_digest = summary(other)[2]
        if other_digest == digest:
            print("  %s: identical" % args.against)
            continue
        differ = True
        print("  %s: sha256 %s, %d argvs"
              % (args.against, other_digest, len(other)))
        moved = [json.loads(a)[0] for a, b in zip(ours, other) if a != b]
        for argv in moved[:SHOWN]:
            print("  differs: %s" % " ".join(argv))
        if len(ours) != len(other):
            print("  differs: %d argvs against %d" % (len(ours), len(other)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
