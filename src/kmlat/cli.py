"""Command line interface.  All reports are deterministic JSON on stdout.

Exit codes: 0 on success, 1 on a domain error (JSON {"error", "detail"}),
2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import gf, groups, kmaction, lattice, serretree
from .errors import DegreeTooLarge, InvalidInput, KmlatError
from .laurent import parse_laurent

SCHEMA = "kmlat-report-v1"


def _field_for(q_text):
    """Accept "q" as a plain prime power or "p^a"."""
    try:
        if "^" in q_text:
            p_s, _, a_s = q_text.partition("^")
            return gf.make_field(int(p_s), int(a_s))
        q = int(q_text)
    except ValueError:
        raise InvalidInput("q = %r is not an integer or p^a" % q_text) from None
    if q > gf.Q_CAP:
        raise DegreeTooLarge("q = %d exceeds cap %d" % (q, gf.Q_CAP))
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    a = 1
    while p and p ** a < q:
        a += 1
    if p is None or p ** a != q:
        raise InvalidInput("q = %d is not a prime power" % q)
    return gf.make_field(p, a)


def _parse_matrix(spec, text):
    rows = text.split(";")
    if len(rows) != 2:
        raise InvalidInput("matrix needs two ';'-separated rows")
    entries = []
    for row in rows:
        cols = row.split(",")
        if len(cols) != 2:
            raise InvalidInput("matrix rows need two ','-separated entries")
        entries.extend(parse_laurent(spec, c.strip()) for c in cols)
    return serretree.Mat2(spec, *entries)


def _parse_edge(spec, text):
    if text == "base":
        return kmaction.EdgeLabel.base()
    head, _, tail = text.partition(":")
    if head not in ("L", "R") or not tail:
        raise InvalidInput("edge must be 'base', 'L:c1,c2,...' or 'R:...'")
    coords = tuple(gf.parse_code(c, spec.q) for c in tail.split(","))
    return kmaction.EdgeLabel(head, coords)


def _parse_word(spec, text):
    """Words like "x1:3,x2:1" or with depth "x1@2:3"."""
    letters = []
    for tok in text.split(","):
        head, _, coeff = tok.partition(":")
        if not coeff:
            raise InvalidInput("letter %r needs a ':coefficient'" % tok)
        name, _, depth = head.partition("@")
        if name not in ("x1", "x2"):
            raise InvalidInput("letter must start with x1 or x2")
        side = int(name[1])
        k = gf.parse_code(depth) if depth else 0
        letters.append(kmaction.RootLetter(kmaction.RootIndex(side, k),
                                           gf.parse_code(coeff, spec.q)))
    return tuple(letters)


def _emit(args, payload):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    print(json.dumps(payload, indent=args.json_indent, sort_keys=True))


def _tristate(v):
    return None if v is None else (v == "yes")


def _classification_input(args):
    return lattice.ClassificationInput(
        p=args.p, q=args.q, levi=args.levi, z_order=args.z,
        qi_in_zg=_tristate(args.qi_central),
        qi0_in_zg=_tristate(args.qi0_central),
        qi0_nontrivial=_tristate(args.qi0_nontrivial),
        zmi_in_zg=_tristate(args.zmi_central))


def cmd_classify(args):
    rows = lattice.classify(_classification_input(args))
    _emit(args, {"command": "classify", "q": args.q,
                 "rows": [r.to_json_dict() for r in rows]})


def cmd_min_covolume(args):
    cov, delta0 = lattice.min_covolume(_classification_input(args))
    _emit(args, {"command": "min-covolume", "q": args.q,
                 "min_covolume": lattice.frac_str(cov), "delta0": delta0})


def cmd_dickson(args):
    spec = _field_for(args.q)
    rows = groups.dickson_table(spec, args.ambient)
    _emit(args, {"command": "dickson", "q": spec.q, "ambient": args.ambient,
                 "rows": [{"type": r.type, "order": r.order,
                           "div_q_plus_1": r.div_q_plus_1,
                           "source": r.source} for r in rows]})


def cmd_verify(args):
    spec = _field_for(args.q)
    report = lattice.lubotzky_check(
        lattice.build_standard_lattice(spec, args.kind))
    payload = report.to_json_dict()
    payload.update({"command": "verify", "kind": args.kind})
    _emit(args, payload)


def cmd_km_act(args):
    spec = _field_for(args.q)
    params = kmaction.KMParams(args.m, spec)
    word = _parse_word(spec, args.word)
    e = _parse_edge(spec, args.edge)
    img = kmaction.apply_word(params, word, e, mode=args.mode)
    _emit(args, {"command": "km-act", "q": spec.q, "m": args.m,
                 "word": args.word, "edge": str(e), "image": str(img),
                 "mode": args.mode})


def cmd_zp_test(args):
    spec = _field_for(args.q)
    params = kmaction.KMParams(2, spec)  # identity phi never reads m
    checked = 0
    agreements = 0
    checked_t1_nonzero = 0
    agreements_t1_nonzero = 0
    for codes in itertools.product(range(spec.q), repeat=2 * args.pairs):
        word = kmaction.alternating_word(params,
                                         zip(codes[::2], codes[1::2]))
        fixes, t1, t2 = kmaction.zp_fix_test(params, word)
        checked += 1
        agree = fixes == (t2 == 0)
        agreements += agree
        if t1:
            checked_t1_nonzero += 1
            agreements_t1_nonzero += agree
    _emit(args, {"command": "zp-test", "q": spec.q, "pairs": args.pairs,
                 "checked": checked, "agreements": agreements,
                 "checked_t1_nonzero": checked_t1_nonzero,
                 "agreements_t1_nonzero": agreements_t1_nonzero})


def cmd_dihedral_search(args):
    spec = _field_for(args.q)
    report = serretree.dihedral_obstruction_search(spec, args.window)
    _emit(args, {"command": "dihedral-search", "q": spec.q,
                 "window": report["window"],
                 "family_sizes": report["family_sizes"],
                 "triples_checked": report["triples_checked"],
                 "violations": [[str(m) for m in triple]
                                for triple in report["violations"]]})


def cmd_tree(args):
    spec = _field_for(args.q)
    if args.distance:
        m1 = _parse_matrix(spec, args.distance[0])
        m2 = _parse_matrix(spec, args.distance[1])
        d = serretree.vertex_distance(serretree.Vertex(m1),
                                      serretree.Vertex(m2))
        _emit(args, {"command": "tree", "q": spec.q, "distance": d})
    elif args.neighbors:
        v = serretree.Vertex(_parse_matrix(spec, args.neighbors))
        ns = serretree.neighbors(v)
        _emit(args, {"command": "tree", "q": spec.q,
                     "neighbors": [str(n.rep) for n in ns]})
    else:
        raise InvalidInput("tree needs --distance or --neighbors")


def non_negative_int(text):
    """argparse type: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("%d is negative" % n)
    return n


def positive_int(text):
    """argparse type: a positive integer."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("%d is not positive" % n)
    return n


def build_parser():
    # argparse's layout for its fallback 80-column terminal; with the width
    # fixed, it never imports shutil to probe the terminal
    fmt = functools.partial(argparse.HelpFormatter, width=80 - 2)
    parser = argparse.ArgumentParser(
        prog="kmlat", formatter_class=fmt,
        description="edge-transitive lattices on (q+1)-regular trees")
    parser.add_argument("--json-indent", type=non_negative_int, default=None)
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND",
        parser_class=functools.partial(argparse.ArgumentParser,
                                       formatter_class=fmt))

    def add_classify_flags(p):
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--levi", choices=("psl", "pgl"), required=True)
        p.add_argument("--z", type=int, default=1)
        for flag in ("qi-central", "qi0-central", "qi0-nontrivial",
                     "zmi-central"):
            p.add_argument("--%s" % flag, choices=("yes", "no"), default=None)

    pc = sub.add_parser("classify", help="list lattice shapes for (p,q,...)")
    add_classify_flags(pc)
    pc.set_defaults(func=cmd_classify)

    pm = sub.add_parser("min-covolume", help="least covolume for (p,q,...)")
    add_classify_flags(pm)
    pm.set_defaults(func=cmd_min_covolume)

    pd = sub.add_parser("dickson", help="subgroup types of SL2/PSL2/PGL2(q)")
    pd.add_argument("--q", required=True)
    pd.add_argument("--ambient", choices=("sl2", "psl2", "pgl2"),
                    required=True)
    pd.set_defaults(func=cmd_dickson)

    pv = sub.add_parser("verify", help="build and check a standard pair")
    pv.add_argument("--q", required=True)
    pv.add_argument("--kind", required=True,
                    choices=("cyclic_p2", "torus_normalizer", "SL2(3)",
                             "SL2(5)", "2S4"))
    pv.set_defaults(func=cmd_verify)

    pk = sub.add_parser("km-act", help="apply a root-group word to an edge")
    pk.add_argument("--q", required=True)
    pk.add_argument("--m", type=int, default=2)
    pk.add_argument("--word", required=True)
    pk.add_argument("--edge", required=True)
    pk.add_argument("--mode", choices=("identity_phi", "twisted_phi"),
                    default="identity_phi")
    pk.set_defaults(func=cmd_km_act)

    pz = sub.add_parser("zp-test", help="test z^p on alternating words")
    pz.add_argument("--q", required=True)
    pz.add_argument("--pairs", type=positive_int, default=1)
    pz.set_defaults(func=cmd_zp_test)

    ph = sub.add_parser("dihedral-search", help="char-2 dihedral search")
    ph.add_argument("--q", required=True)
    ph.add_argument("--window", type=non_negative_int, default=1)
    ph.set_defaults(func=cmd_dihedral_search)

    pt = sub.add_parser("tree", help="tree distance or neighbors")
    pt.add_argument("--q", required=True)
    pt.add_argument("--distance", nargs=2, metavar=("M1", "M2"))
    pt.add_argument("--neighbors", metavar="M")
    pt.set_defaults(func=cmd_tree)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except KmlatError as exc:
        print(json.dumps({"schema": SCHEMA,
                          "error": type(exc).__name__,
                          "detail": str(exc)}, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
