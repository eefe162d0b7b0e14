"""Command line interface.  All reports are deterministic JSON on stdout.

Exit codes: 0 on success, 1 on a domain error (JSON {"error", "detail"}),
2 on usage errors (argparse).
"""

import gc
import sys

from . import gf, groups, kmaction, lattice, serretree
from .errors import DegreeTooLarge, InvalidInput, KmlatError
from .laurent import parse_laurent

SCHEMA = "kmlat-report-v1"


def _int(text, least=None, most=None):
    """ASCII digits with an optional sign, in [least, most] where given:
    int() alone also reads " 7", "1_1" and other scripts' digits."""
    if not (text.isascii() and text.lstrip("+-").isdigit()):
        raise ValueError(text)
    n = int(text)  # which rejects "--7", and more than 4300 digits
    if least is not None and n < least:
        problem = "negative" if least == 0 else "not positive"
    elif most is not None and n > most:
        problem = "more than %d" % most
    else:
        return n
    import argparse
    raise argparse.ArgumentTypeError("%d is %s" % (n, problem))


def _int_type(name, least=None, most=None):  # argparse names it __name__
    def read(text):
        return _int(text, least, most)
    read.__name__ = name
    return read


any_int = _int_type("int")
non_negative_int = _int_type("non_negative_int", 0)
positive_int = _int_type("positive_int", 1, 1 << 64)  # zp-test prints 2n+2
indent_int = _int_type("non_negative_int", 0, 64)  # dumps makes N spaces


def _field_for(q_text):
    """Accept "q" as a plain prime power or "p^a"."""
    try:
        if "^" in q_text:
            p_s, _, a_s = q_text.partition("^")
            return gf.make_field(_int(p_s), _int(a_s))
        q = _int(q_text)
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
        entries.extend(parse_laurent(spec, c) for c in cols)
    return serretree.Mat2(spec, *entries)


def _parse_edge(spec, text):
    if text == "base":
        return "base", ()
    head, _, tail = text.partition(":")
    if head not in ("L", "R") or not tail:
        raise InvalidInput("edge must be 'base', 'L:c1,c2,...' or 'R:...'")
    return head, tuple(gf.parse_code(c, spec.q) for c in tail.split(","))


def _parse_word(spec, text):
    """Words like "x1:3,x2:1" or with depth "x1@2:3", as letters (side,
    depth, coeff): side 1 or 2, depth >= 0 and coeff an F_q code."""
    letters = []
    for tok in text.split(","):
        head, _, coeff = tok.partition(":")
        if not coeff:
            raise InvalidInput("letter %r needs a ':coefficient'" % tok)
        name, at, depth = head.partition("@")
        if name not in ("x1", "x2"):
            raise InvalidInput("letter must start with x1 or x2")
        letters.append((int(name[1]), gf.parse_code(depth) if at else 0,
                        gf.parse_code(coeff, spec.q)))
    return tuple(letters)


def _classify(args):
    tri = {"yes": True, "no": False}.get  # an unset flag stays None
    return lattice.classify(args.p, args.q, args.levi, args.z,
                            tri(args.qi_central), tri(args.qi0_central),
                            tri(args.qi0_nontrivial), tri(args.zmi_central))


# each cmd_* returns its report; main adds "command" and "schema"
def cmd_classify(args):
    return {"q": args.q, "rows": _classify(args)}


def cmd_min_covolume(args):
    cov, delta0 = lattice.min_covolume(_classify(args))
    return {"q": args.q, "min_covolume": cov, "delta0": delta0}


def cmd_dickson(args):
    spec = _field_for(args.q)
    return {"q": spec.q, "ambient": args.ambient,
            "rows": groups.dickson_table(spec, args.ambient)}


def cmd_verify(args):
    a1 = lattice.build_standard_lattice(_field_for(args.q), args.kind)
    return dict(lattice.lubotzky_check(a1), kind=args.kind)


def cmd_km_act(args):
    spec = _field_for(args.q)
    params = kmaction.KMParams(args.m, spec)
    word = _parse_word(spec, args.word)
    e = _parse_edge(spec, args.edge)
    img = kmaction.apply_word(params, word, e, mode=args.mode)
    return {"q": spec.q, "m": args.m, "word": args.word,
            "edge": kmaction.edge_text(e),
            "image": kmaction.edge_text(img), "mode": args.mode}


def cmd_zp_test(args):
    spec = _field_for(args.q)
    params = kmaction.KMParams(2, spec)  # identity phi never reads m
    return {"q": spec.q, "pairs": args.pairs,
            **kmaction.zp_walk(params, args.pairs)}


def cmd_dihedral_search(args):
    spec = _field_for(args.q)
    return serretree.dihedral_obstruction_search(spec, args.window)


def cmd_tree(args):
    spec = _field_for(args.q)
    if args.distance is not None:
        m1, m2 = [_parse_matrix(spec, m) for m in args.distance]
        d = serretree.vertex_distance(serretree.Vertex(m1),
                                      serretree.Vertex(m2))
        return {"q": spec.q, "distance": d}
    elif args.neighbors is not None:
        v = serretree.Vertex(_parse_matrix(spec, args.neighbors))
        ns = serretree.neighbors(v)
        return {"q": spec.q, "neighbors": [str(n.rep) for n in ns]}
    else:
        raise InvalidInput("tree needs --distance or --neighbors")


_Q = {"--q": {"required": True}}
_TRISTATE = {"choices": ("yes", "no")}
_CLASSIFY_FLAGS = {
    "--p": {"type": any_int, "required": True},
    "--q": {"type": any_int, "required": True},
    "--levi": {"choices": ("psl", "pgl"), "required": True},
    "--z": {"type": any_int, "default": 1},
    "--qi-central": _TRISTATE, "--qi0-central": _TRISTATE,
    "--qi0-nontrivial": _TRISTATE, "--zmi-central": _TRISTATE,
}

# name -> (help, handler, flags, flags that exclude each other), in the
# order --help lists them; each flag maps to its add_argument keywords
COMMANDS = {
    "classify": ("list lattice shapes for (p,q,...)", cmd_classify,
                 _CLASSIFY_FLAGS, ()),
    "min-covolume": ("least covolume for (p,q,...)", cmd_min_covolume,
                     _CLASSIFY_FLAGS, ()),
    "dickson": ("subgroup types of SL2/PSL2/PGL2(q)", cmd_dickson,
                {**_Q, "--ambient": {"choices": ("sl2", "psl2", "pgl2"),
                                     "required": True}}, ()),
    "verify": ("build and check a standard pair", cmd_verify,
               {**_Q, "--kind": {"required": True, "choices": (
                   "cyclic_p2", "torus_normalizer", "SL2(3)", "SL2(5)",
                   "2S4")}}, ()),
    "km-act": ("apply a root-group word to an edge", cmd_km_act,
               {**_Q, "--m": {"type": any_int, "default": 2},
                "--word": {"required": True}, "--edge": {"required": True},
                "--mode": {"choices": ("identity_phi", "twisted_phi"),
                           "default": "identity_phi"}}, ()),
    "zp-test": ("test z^p on alternating words", cmd_zp_test,
                {**_Q, "--pairs": {"type": positive_int, "default": 1}}, ()),
    "dihedral-search": ("char-2 dihedral search", cmd_dihedral_search,
                        {**_Q, "--window": {"type": non_negative_int,
                                            "default": 1}}, ()),
    "tree": ("tree distance or neighbors", cmd_tree,
             {**_Q, "--distance": {"nargs": 2, "metavar": ("M1", "M2")},
              "--neighbors": {"metavar": "M"}}, ("--distance", "--neighbors")),
}


class Args:
    """fast_parse's namespace: vars() of it is argparse's namespace's."""

    def __init__(self, **values):
        self.__dict__.update(values)


def fast_parse(argv):
    """The namespace argparse gives an argv of the shape
    `<command> (--flag value)*` that it accepts, as an Args read off
    COMMANDS; None for every other argv, which build_parser then parses.
    A flag may appear once, and no value may start with '-'."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, _, flags, one_of = COMMANDS[argv[0]]
    given = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        keywords = flags.get(flag)
        if keywords is None or flag in given:
            return None
        n = keywords.get("nargs", 1)
        values = argv[i + 1:i + 1 + n]
        if len(values) < n or any(v.startswith("-") for v in values):
            return None
        try:
            values = [keywords.get("type", str)(v) for v in values]
        except Exception:  # argparse makes the same call and reports it
            return None
        choices = keywords.get("choices")
        if choices and any(v not in choices for v in values):
            return None
        given[flag] = values if "nargs" in keywords else values[0]
        i += 1 + n
    if len(given.keys() & set(one_of)) > 1 or any(
            k.get("required") and f not in given for f, k in flags.items()):
        return None
    return Args(json_indent=None, command=argv[0], **{
        f[2:].replace("-", "_"): given.get(f, k.get("default"))
        for f, k in flags.items()})


_PARSER = []  # build_parser's one parser, once built


def build_parser():
    """The parser with every subcommand, built once, for the argvs
    fast_parse declines: help, usage errors and shapes it does not read."""
    if _PARSER:
        return _PARSER[0]
    import argparse
    import functools  # which argparse has loaded
    # argparse's layout for its fallback 80-column terminal; with the width
    # fixed, it never imports shutil to probe the terminal
    fmt = functools.partial(argparse.HelpFormatter, width=80 - 2)
    parser = argparse.ArgumentParser(
        prog="kmlat", formatter_class=fmt,
        description="edge-transitive lattices on (q+1)-regular trees")
    parser.add_argument("--json-indent", type=indent_int, default=None)
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND",
        parser_class=functools.partial(argparse.ArgumentParser,
                                       formatter_class=fmt))
    for name, (help_text, _, flags, one_of) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group() if one_of else p
        for flag, keywords in flags.items():
            (group if flag in one_of else p).add_argument(flag, **keywords)
    _PARSER.append(parser)
    return parser


_ESCAPED = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
            "\r": "\\r", "\t": "\\t"}


def _plain(text):
    """Whether json.dumps writes text unescaped: " " to "~" but " and \\."""
    return (text.isascii() and text.isprintable() and '"' not in text
            and "\\" not in text)


def _quote(text):
    """text as a JSON string, escaped as json.dumps's ensure_ascii does:
    _ESCAPED's seven by their short escapes, every other character outside
    " " to "~" as \\uXXXX, and one above U+FFFF as a surrogate pair."""
    if _plain(text):
        return f'"{text}"'
    out = []
    for c in text:
        n = ord(c)
        if n > 0xffff:
            n -= 0x10000
            c = "\\u%04x\\u%04x" % (0xd800 | n >> 10, 0xdc00 | n & 0x3ff)
        elif c in _ESCAPED:
            c = _ESCAPED[c]
        elif not " " <= c <= "~":
            c = "\\u%04x" % n
        out.append(c)
    return '"' + "".join(out) + '"'


def dumps(value, indent=None, _newline="\n"):
    """json.dumps(value, indent=indent, sort_keys=True), without json (its
    decoder imports re and enum), for the types a report holds: dict with
    str keys, list, tuple, str, int, bool and None; any other type, a
    subclass too, raises TypeError.  _newline is the line break and indent
    of value's own level.  The writer runs once per process, so its first
    call is what a run pays: types are told apart by class, the ints and
    strs of a container are written in its loop, and a dict's keys are
    checked for escapes all at once."""
    cls = value.__class__
    if cls is dict or cls is list or cls is tuple:
        ends = "{}" if cls is dict else "[]"
        if not value:
            return ends
        inner = _newline if indent is None else _newline + " " * indent
        items = []
        if cls is dict:
            keys = sorted(value)
            plain = _plain("".join(keys))  # TypeError for a key not a str
            for key in keys:
                v = value[key]
                c = v.__class__
                key = f'"{key}"' if plain else _quote(key)
                items.append(f"{key}: {v!r}" if c is int
                             else f"{key}: {_quote(v)}" if c is str
                             else f"{key}: {dumps(v, indent, inner)}")
        else:
            for v in value:
                items.append(repr(v) if v.__class__ is int
                             else dumps(v, indent, inner))
        if indent is None:
            return ends[0] + ", ".join(items) + ends[1]
        return ends[0] + inner + ("," + inner).join(items) + _newline + ends[1]
    if cls is str:
        return _quote(value)
    if cls is int:
        return repr(value)
    if value is None:
        return "null"
    if cls is bool:
        return "true" if value else "false"
    raise TypeError("%s is not a report type" % cls.__name__)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # The import leaves gc.get_count() at about (530, 11, 0), so the run's
    # first collection would be a generation-1 pass over the objects the
    # import made, at a point that moves with the size of the import.
    # Frozen, they are in no collection, and the count starts again from 0.
    # What a caller froze stays frozen: then nothing is frozen or unfrozen.
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        args = fast_parse(argv) or build_parser().parse_args(argv)
        code, indent = 0, args.json_indent
        try:
            report = dict(COMMANDS[args.command][1](args),
                          command=args.command)
        except KmlatError as exc:  # an error report is never indented
            code, indent = 1, None
            report = {"error": type(exc).__name__, "detail": str(exc)}
        report["schema"] = SCHEMA
        print(dumps(report, indent))
        return code
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
