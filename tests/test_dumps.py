"""cli.dumps against json.dumps(..., sort_keys=True), the writer it
replaced: every golden report at every indent the CLI accepts, and seeded
random values with the characters and ints that escaping and int() treat
apart."""

import json
import random
from pathlib import Path

import pytest

from kmlat.cli import dumps

GOLDEN = Path(__file__).resolve().parent / "golden"
INDENTS = [None, *range(65)]  # --json-indent takes 0 to 64

# each class of character the escaping treats apart: ", \, the control
# characters with and without a short escape, the ends of " " to "~", DEL,
# non-ASCII in and past the BMP, a lone surrogate, U+FFFF and U+10000
CHARS = ('"\\/ ~azAZ09' + "".join(map(chr, range(32)))
         + "\x7f\x80\xe9\u0100\u2603\ud800\udfff\uffff\U00010000"
         "\U0001f600\U0010ffff")


def golden_reports():
    """The distinct reports the golden files hold, decoded (help text is
    not a report)."""
    texts = {job["stdout"] for path in sorted(GOLDEN.glob("*_jobs.json"))
             for job in json.loads(path.read_text())
             if job["stdout"].startswith("{")}
    return [json.loads(text) for text in sorted(texts)]


def test_every_golden_report_at_every_indent():
    reports = golden_reports()
    assert len(reports) > 100
    for report in reports:
        for indent in INDENTS:
            assert dumps(report, indent) == json.dumps(
                report, indent=indent, sort_keys=True)


def random_text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_int(rng):
    """Small, negative, bool-sized and near int()'s limit of 4,300
    digits, on both sides of it."""
    digits = rng.choice((1, 3, 4299, 4300, 4301))
    sign = rng.choice((1, -1))
    return sign * rng.randrange(10 ** (digits - 1), 10 ** digits)


def random_value(rng, depth):
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return random_int(rng) if rng.random() < 0.2 else rng.randrange(-3, 3)
    if kind == 2:
        return rng.choice((True, False, 1, 0))
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(((), [], {}))
    items = [random_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {random_text(rng): v for v in items}


def written(write, value, indent):
    """write's text, or the class of what it raised: past 4,300 digits
    both writers raise int()'s ValueError."""
    try:
        return write(value, indent)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(40))
def test_random_values(seed):
    rng = random.Random(seed)
    for _ in range(25):
        value = random_value(rng, 3)
        indent = rng.choice(INDENTS)
        assert written(dumps, value, indent) == written(
            lambda v, i: json.dumps(v, indent=i, sort_keys=True), value,
            indent)


def test_true_and_one_stay_apart():
    value = {"a": [True, 1, False, 0, (True, 1)], "b": True, "c": 1}
    assert dumps(value) == json.dumps(value, sort_keys=True)
    assert dumps(value) == ('{"a": [true, 1, false, 0, [true, 1]], '
                            '"b": true, "c": 1}')


@pytest.mark.parametrize("value", [
    1.5, float("nan"), object(), {1, 2}, b"x", {1: "int key"},
    [{"k": 2.0}], ("x", object()), {"k": [None, 1j]}],
    ids=["float", "nan", "object", "set", "bytes", "int-key",
         "nested-float", "tuple-object", "nested-complex"])
def test_other_types_raise_type_error(value):
    for indent in (None, 2):
        with pytest.raises(TypeError):
            dumps(value, indent)
