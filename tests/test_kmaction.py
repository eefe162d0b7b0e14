"""Symbolic root-group action on labeled edges, with affine cross-checks."""

import itertools
import random
import time

import pytest

from kmlat import cli, gf, kmaction
from kmlat.errors import (InvalidInput, KmlatError, MalformedWord,
                          SizeCapExceeded, SpecMismatch,
                          UnsupportedActionDomain)
from kmlat.gf import is_prime, make_field
from kmlat.kmaction import (ZP_CAP, KMParams, apply_letter, apply_word,
                            check_zp_size, letter_table, zp_fix_test,
                            zp_walk, _power_is_identity)

from oracles import (fe_apply_letter, replayed_zp_fix_test,
                     replayed_zp_fixes_ball2)
from reference import (RadiusExceeded, _power_fixes_all, _w1, _w2, _x1, _x2,
                       alternating_word, ball2_edges, ball2_word_table,
                       base_edge, crosscheck_affine, dfs_zp_walk, edge_act,
                       edge_distance, membership, realize_edge, zp_criterion,
                       zp_fixes_ball2)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F11 = make_field(11)
F16 = make_field(2, 4)
F25 = make_field(5, 2)
F27 = make_field(3, 3)
MODES = ("identity_phi", "twisted_phi")


def all_left_edges2(spec):
    return [("L", (c1, c2))
            for c1 in range(spec.q) for c2 in range(spec.q)]


def all_words(spec, npairs):
    for codes in itertools.product(range(spec.q), repeat=2 * npairs):
        pairs = list(zip(codes[::2], codes[1::2]))
        yield pairs, alternating_word(KMParams(2, spec), pairs)


def code_sum(spec, codes):
    """The code of the field sum of the given codes."""
    add = spec._tables()[0]
    t = 0
    for c in codes:
        t = add[t][c]
    return t


def test_params_validation():
    with pytest.raises(InvalidInput):
        KMParams(1, F2)
    with pytest.raises(InvalidInput):
        KMParams(m=1, spec=F2)


def test_base_edge_is_fixed():
    params = KMParams(2, F3)
    e = ("base", ())
    for side in (1, 2):
        for depth in (0, 1, 3):
            letter = (side, depth, 1)
            assert apply_letter(params, letter, e) == e


def test_same_side_letter_translates_coordinate():
    params = KMParams(2, F3)
    e = ("L", (1, 2))
    l0 = (1, 0, 1)
    assert apply_letter(params, l0, e) == ("L", (2, 2))
    l1 = (1, 1, 1)
    assert apply_letter(params, l1, e) == ("L", (1, 0))
    # a depth beyond the edge length fixes it
    l5 = (1, 5, 1)
    assert apply_letter(params, l5, e) == e
    # mirror image on the right side
    r = ("R", (1, 2))
    m0 = (2, 0, 1)
    assert apply_letter(params, m0, r) == ("R", (2, 2))


def test_cross_side_letter_cases():
    params = KMParams(2, F3)
    x2 = (2, 0, 1)
    # short edge: fixed
    assert apply_letter(params, x2, ("L", (1,))) == ("L", (1,))
    # length 2, nonzero pivot: last coordinate moves
    e = ("L", (1, 0))
    assert apply_letter(params, x2, e) == ("L", (1, 1))
    # zero pivot: fixed
    z = ("L", (0, 1))
    assert apply_letter(params, x2, z) == z
    # odd overshoot is outside the supported domain
    long = ("L", (1, 1, 1))
    with pytest.raises(UnsupportedActionDomain):
        apply_letter(params, x2, long)


def test_twisted_phi_m2_small_fields():
    """For m = 2 and q in {2, 3} every nonzero pivot squares to 1, so the
    twisted action coincides with the untwisted one."""
    for spec in (F2, F3):
        params = KMParams(2, spec)
        for pairs, word in all_words(spec, 1):
            for e in all_left_edges2(spec):
                assert (apply_word(params, word, e, "identity_phi")
                        == apply_word(params, word, e, "twisted_phi"))


def test_word_inverse_roundtrip():
    params = KMParams(2, F3)
    pairs = [(1, 2), (2, 1)]
    word = alternating_word(params, pairs)
    neg = F3._tables()[2]
    inverse = tuple((side, depth, neg[c])
                    for side, depth, c in reversed(word))
    for e in all_left_edges2(F3):
        img = apply_word(params, word, e)
        assert apply_word(params, inverse, img) == e


def test_malformed_words():
    params = KMParams(2, F2)
    with pytest.raises(MalformedWord):
        zp_fix_test(params, ())
    bad_order = ((2, 0, 1), (1, 0, 1))
    with pytest.raises(MalformedWord):
        zp_fix_test(params, bad_order)
    odd = ((1, 0, 1),)
    with pytest.raises(MalformedWord):
        zp_fix_test(params, odd)
    deep = ((1, 1, 1), (2, 0, 1))
    with pytest.raises(MalformedWord):
        zp_fix_test(params, deep)


def zp_oracle(spec, pairs, l1, l2):
    """Closed-form image of a left length-2 edge under z^p, for prime q.

    Iterating z over r = 0..p-1 starts the first coordinate at l1 + r*t1.
    Each x2(t_{2,j}) contributes t_{2,j} exactly when the running first
    coordinate l1 + r*t1 + S_j is nonzero, S_j the later x1 sum.  For
    t1 != 0 each j sees exactly one r with a zero pivot, so the total
    second-coordinate shift is (p-1) * t2 = -t2; for t1 = 0 the shift per
    round is constant and p copies of it vanish in characteristic p.
    """
    assert spec.a == 1
    t1 = sum(a for a, _ in pairs) % spec.p
    t2 = sum(b for _, b in pairs) % spec.p
    if t1 == 0:
        return l1, l2
    return l1, (l2 - t2) % spec.p


@pytest.mark.parametrize("spec", [F2, F3], ids=lambda s: "q=%d" % s.q)
def test_zp_image_matches_closed_form(spec):
    """Two code paths: the edge-iterating engine vs the L-recursion sum."""
    params = KMParams(2, spec)
    p = spec.p
    for npairs in (1, 2):
        for pairs, word in all_words(spec, npairs):
            for e in all_left_edges2(spec):
                img = e
                for _ in range(p):
                    img = apply_word(params, word, img)
                want = zp_oracle(spec, pairs, *e[1])
                assert img == ("L", want), (pairs, e)


@pytest.mark.parametrize("spec", [F2, F3], ids=lambda s: "q=%d" % s.q)
def test_zp_fix_test_reports_sums(spec):
    params = KMParams(2, spec)
    for pairs, word in all_words(spec, 2):
        fixes, t1, t2 = zp_fix_test(params, word)
        assert t1 == code_sum(spec, (a for a, _ in pairs))
        assert t2 == code_sum(spec, (b for _, b in pairs))
        if t1 == 0:
            assert fixes
        else:
            assert fixes == (t2 == 0)


def test_zp_fixes_ball2_characterization():
    """Ball(base, 2) is fixed by z^p exactly when either coefficient sum
    vanishes: the side whose sum is zero sees the same displacement in each
    of the p rounds, and p copies cancel in characteristic p."""
    params = KMParams(2, F3)
    for pairs, word in all_words(F3, 2):
        t1 = code_sum(F3, (a for a, _ in pairs))
        t2 = code_sum(F3, (b for _, b in pairs))
        assert zp_fixes_ball2(params, word) == (t1 == 0 or t2 == 0)


@pytest.mark.parametrize("spec", [F2, F3, F4, F5], ids=lambda s: "q=%d" % s.q)
def test_word_tables_match_apply_word(spec):
    """Differential: the composed letter tables send every edge of the
    radius-2 ball where apply_word sends it, for every alternating word
    with at most two pairs, in both modes (and m = 3 for one pair)."""
    edges = ball2_edges(spec)
    assert len(edges) == 1 + 2 * spec.q + 2 * spec.q ** 2
    assert len(set(edges)) == len(edges)
    for npairs, ms in ((1, (2, 3)), (2, (2,))):
        for pairs, word in all_words(spec, npairs):
            for params in (KMParams(m, spec) for m in ms):
                for mode in MODES:
                    image, _, _ = ball2_word_table(params, word, mode)
                    assert [edges[j] for j in image] == [
                        apply_word(params, word, e, mode) for e in edges]


@pytest.mark.parametrize("spec,npairs", [(F2, 2), (F3, 2), (F4, 1), (F5, 1)],
                         ids=["q=2", "q=3", "q=4", "q=5"])
def test_zp_tests_match_replay(spec, npairs):
    """The table-based zp tests equal the p-fold apply_word replay, for
    every alternating word with at most npairs pairs."""
    params = KMParams(2, spec)
    for n in range(1, npairs + 1):
        for _, word in all_words(spec, n):
            for mode in MODES:
                assert (zp_fix_test(params, word, mode)
                        == replayed_zp_fix_test(params, word, mode))
                assert (zp_fixes_ball2(params, word, mode)
                        == replayed_zp_fixes_ball2(params, word, mode))


WALKED = [(F2, 1), (F2, 2), (F2, 3), (F2, 4), (F3, 1), (F3, 2), (F3, 3),
          (F4, 1), (F4, 2), (F5, 1), (F5, 2), (F7, 1), (F8, 1), (F9, 1),
          (F11, 1)]


def _counts(results):
    """zp-test's four counts from per-word (fixes, t1, t2) results."""
    counts = dict.fromkeys(("checked", "agreements", "checked_t1_nonzero",
                            "agreements_t1_nonzero"), 0)
    for fixes, t1, t2 in results:
        agree = fixes == (t2 == 0)
        counts["checked"] += 1
        counts["agreements"] += agree
        counts["checked_t1_nonzero"] += t1 != 0
        counts["agreements_t1_nonzero"] += t1 != 0 and agree
    return counts


def _ids(cases):
    return ["q=%d,pairs=%d" % (spec.q, n) for spec, n in cases]


@pytest.mark.parametrize("spec,npairs", WALKED, ids=_ids(WALKED))
def test_zp_walk_counts_match_per_word_tests(spec, npairs):
    """Differential: the walk's four counts are the sums of the per-word
    zp_fix_test results, and of the p-fold apply_word replay, over every
    alternating word with npairs pairs."""
    params = KMParams(2, spec)
    words = [word for _, word in all_words(spec, npairs)]
    got = zp_walk(params, npairs)
    assert got["checked"] == spec.q ** (2 * npairs)
    assert got == _counts(zp_fix_test(params, word) for word in words)
    assert got == _counts(replayed_zp_fix_test(params, word)
                          for word in words)


@pytest.mark.parametrize("spec", [F2, F3, F4, F5, F7, F8, F9, F11, F16,
                                  F25, F27], ids=lambda s: "q=%d" % s.q)
def test_letter_tables_are_permutations(spec):
    """Every letter's table, for both sides, depths 0..2 (depth 0 alone
    past q = 9), every coefficient, both modes and m in {2, 3}, is a
    permutation of range(q*q) and sends c1*q + c2 to the index of
    apply_letter's image of L:c1,c2.  Most tables are composed by the
    root-group law, in chains of up to 9 compositions (at q = 11)."""
    depths = 3 if spec.q <= 9 else 1
    q = spec.q
    edges = [("L", (c1, c2)) for c1 in range(q) for c2 in range(q)]
    kmaction._LETTER_TABLES.clear()  # every composition below is made anew
    for params in (KMParams(2, spec), KMParams(3, spec)):
        for mode in MODES:
            for side, depth, c in itertools.product((1, 2), range(depths),
                                                    range(q)):
                letter = (side, depth, c)
                table = letter_table(params, letter, mode)
                assert sorted(table) == list(range(q * q))
                assert [edges[j] for j in table] == [
                    apply_letter(params, letter, e, mode) for e in edges]


# the six zp-test inputs of perfbench's root-action workload, as (p, a, pairs)
ROOT_ACTION = [(2, 1, 4), (3, 1, 3), (5, 1, 2), (7, 1, 1), (11, 1, 1),
               (2, 2, 2)]


def test_zp_walk_reads_the_rules_at_powers_of_p(monkeypatch):
    """From a cold cache, zp_walk calls apply_letter on the q^2 left
    length-2 edges for the letters x1 and x2 of depth 0 and each
    coefficient 1, p, ..., p^(a-1) alone, 2a*q^2 calls, 480 over the six
    root-action inputs; x(0) is the identity, and every other table comes
    from the group law x(c) = x(c - d) x(d)."""
    calls = []
    rules = kmaction.apply_letter

    def counted(params, letter, e, mode):
        calls.append(letter)
        return rules(params, letter, e, mode)

    monkeypatch.setattr(kmaction, "apply_letter", counted)
    total = 0
    for p, a, npairs in ROOT_ACTION:
        spec = make_field(p, a)
        kmaction._LETTER_TABLES.clear()
        calls.clear()
        zp_walk(KMParams(2, spec), npairs)
        assert len(calls) == 2 * a * spec.q ** 2, (spec.q, npairs)
        assert set(calls) == {(side, 0, p ** i) for side in (1, 2)
                              for i in range(a)}
        total += len(calls)
    assert total == 480


def _admissible(bound):
    """Every (p, a, pairs) with q = p^a and q^(2*pairs + 2) <= bound, for
    bounds up to ZP_CAP: there q <= 64 and pairs <= 11."""
    return [(p, a, n) for p in range(2, 65) if is_prime(p)
            for a in range(1, 7) for n in range(1, 12)
            if (p ** a) ** (2 * n + 2) <= bound]


SMALL_WALKS = _admissible(2 ** 14)


@pytest.mark.parametrize("p,a,npairs", SMALL_WALKS,
                         ids=["q=%d,pairs=%d" % (p ** a, n)
                              for p, a, n in SMALL_WALKS])
def test_zp_walk_matches_depth_first_walk(p, a, npairs):
    """Differential: the walk over distinct prefix states gives the
    depth-first walk's counts over every word, at every admissible
    (q, pairs) with q^(2*pairs + 2) <= 2^14."""
    params = KMParams(2, make_field(p, a))
    assert zp_walk(params, npairs) == dfs_zp_walk(params, npairs)


def test_small_walks_are_every_admissible_input_to_2_to_the_14():
    assert sorted((p ** a, n) for p, a, n in SMALL_WALKS) == [
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2),
        (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (7, 1), (8, 1), (9, 1),
        (11, 1)]


@pytest.mark.parametrize("spec,npairs,want", [(F2, 4, 32), (F3, 3, 405)],
                         ids=["q=2,pairs=4", "q=3,pairs=3"])
def test_zp_walk_tests_each_last_prefix_state_once(monkeypatch, spec, npairs,
                                                   want):
    """zp_walk runs the cycle test once per distinct state of the words'
    prefixes of pairs - 1 pairs and last (x1, x2) pair: 8 states times
    q^2 = 4 at (2, 4), 45 times 9 at (3, 3), not once per word (256 and
    729)."""
    calls = []
    cycle_test = kmaction._power_is_identity

    def counted(image, p):
        calls.append(image)
        return cycle_test(image, p)

    monkeypatch.setattr(kmaction, "_power_is_identity", counted)
    zp_walk(KMParams(2, spec), npairs)
    assert len(calls) == want


@pytest.mark.parametrize("spec,npairs,want", [
    (F2, 11, (4194304, 3145728, 2097152, 2097152)),
    (F3, 6, (531441, 413343, 354294, 354294))], ids=["q=2,pairs=11",
                                                      "q=3,pairs=6"])
def test_zp_walk_on_large_inputs_is_fast(spec, npairs, want):
    """Regression guard: at (2, 11) and (3, 6) the walk takes well under a
    second from a cold table cache, where the depth-first walk over every
    word took 5.7 s and 0.86 s end to end on a 2-vCPU VM (Python 3.11),
    and it gives the counts that walk printed."""
    kmaction._LETTER_TABLES.clear()
    start = time.monotonic()
    got = zp_walk(KMParams(2, spec), npairs)
    assert time.monotonic() - start < 0.5
    assert got == dict(zip(("checked", "agreements", "checked_t1_nonzero",
                            "agreements_t1_nonzero"), want))


COMPOSED = [(F2, 3), (F3, 2), (F4, 2), (F5, 1), (F7, 1), (F8, 1), (F9, 1)]


@pytest.mark.parametrize("spec,npairs", COMPOSED, ids=_ids(COMPOSED))
def test_cycle_test_matches_p_step_walk_on_word_tables(spec, npairs):
    """On every composed word table, with at most npairs pairs and in both
    modes, the cycle-length test equals the p-step walk of every index."""
    params = KMParams(2, spec)
    seen = set()
    for n in range(1, npairs + 1):
        for _, word in all_words(spec, n):
            for mode in MODES:
                image = range(spec.q ** 2)
                for letter in word:
                    image = [image[j]
                             for j in letter_table(params, letter, mode)]
                got = _power_is_identity(image, spec.p)
                assert got == _power_fixes_all(image, spec.p)
                seen.add(got)
    assert seen == {True, False}


def test_cycle_test_matches_p_step_walk_on_any_map():
    """On random maps, permutations with cycles of lengths 1, p and others,
    and those permutations with one entry redirected (no longer
    permutations, so no power of them is the identity), the cycle test
    equals the p-step walk."""
    rng = random.Random(23)
    outcomes = []
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7))
        lengths = [rng.choice((1, p, p, 2, 3, p * p, 4))
                   for _ in range(rng.randrange(1, 8))]
        order = list(range(sum(lengths)))
        rng.shuffle(order)
        perm = [0] * len(order)
        start = 0
        for n in lengths:
            cycle = order[start:start + n]
            for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                perm[i] = j
            start += n
        broken = list(perm)
        broken[rng.randrange(len(broken))] = rng.randrange(len(broken))
        noise = [rng.randrange(len(perm)) for _ in perm]
        for image in (perm, broken, noise):
            want = _power_fixes_all(image, p)
            assert _power_is_identity(image, p) == want, (image, p)
            outcomes.append(want)
        assert _power_fixes_all(perm, p) == all(n in (1, p) for n in lengths)
    assert True in outcomes and False in outcomes


CRITERION = [(F4, 2), (F9, 2), (F8, 2), (F4, 3), (F5, 2), (F3, 3)]


def test_zp_criterion_matches_zp_fix_test():
    """The closed-form z^p criterion on codes (reference.zp_criterion,
    which no command calls) gives zp_fix_test's answer on every
    alternating word at each (q, pairs) of CRITERION, the non-prime
    fields with two and three pairs included."""
    checked = 0
    for spec, npairs in CRITERION:
        params = KMParams(2, spec)
        for pairs, word in all_words(spec, npairs):
            assert zp_criterion(spec, pairs) == zp_fix_test(params, word)[0], (
                spec.q, pairs)
            checked += 1
    assert checked == 16363


@pytest.mark.parametrize("q,npairs", [(2, 11), (16, 2), (64, 1), (61, 1),
                                      (4, 5), (2, 1)])
def test_zp_size_check_admits_up_to_the_cap(q, npairs):
    assert q ** (2 * npairs + 2) <= ZP_CAP == 2 ** 24
    check_zp_size(q, npairs)


@pytest.mark.parametrize("q,npairs", [(2, 12), (509, 1), (17, 2), (67, 1),
                                      (3, 7), (4, 6), (2, 10 ** 12)])
def test_zp_size_check_refuses_past_the_cap(q, npairs):
    with pytest.raises(SizeCapExceeded) as info:
        check_zp_size(q, npairs)
    assert "%d^%d" % (q, 2 * npairs + 2) in str(info.value)
    assert "cap 2^24 = 16777216" in str(info.value)


def _outcome(fn, *args):
    """("image", the label fn returns) or ("error", its class, message)."""
    try:
        return "image", fn(*args)
    except KmlatError as exc:
        return "error", type(exc), str(exc)


@pytest.mark.parametrize("spec,longest", [(F2, 3), (F3, 3), (F4, 3), (F5, 3),
                                          (F9, 2)],
                         ids=["q=2", "q=3", "q=4", "q=5", "q=9"])
def test_apply_letter_matches_field_element_oracle(spec, longest):
    """Differential: apply_letter on codes gives the image, or the error
    class and message, of the FieldElement reference, for every letter of
    side 1 or 2, depth 0..2 and every coefficient, on every edge up to the
    given length, in both modes, for m in {2, 3, 5}."""
    edges = [("base", ())] + [
        (region, coords) for n in range(1, longest + 1)
        for region in ("L", "R")
        for coords in itertools.product(range(spec.q), repeat=n)]
    letters = list(itertools.product((1, 2), range(3), range(spec.q)))
    errors = 0
    for params in (KMParams(m, spec) for m in (2, 3, 5)):
        for mode in MODES:
            for letter in letters:
                for e in edges:
                    got = _outcome(apply_letter, params, letter, e, mode)
                    assert got == _outcome(fe_apply_letter, params, letter,
                                           e, mode), (params.m, mode,
                                                      letter, e)
                    errors += got[0] == "error"
    # only edges of length 3 reach the UnsupportedActionDomain branch
    assert (errors > 0) == (longest == 3)


def test_cli_action_paths_build_no_field_elements(monkeypatch, capsys):
    """zp-test and km-act in both modes compute on F_q codes alone: with
    FieldSpec.element patched to raise, they print what they print
    unpatched, and the twisted phi power takes O(log m) products."""
    argvs = [
        ["zp-test", "--q", "4", "--pairs", "2"],
        ["km-act", "--q", "9", "--word", "x1:5,x2:7,x1@1:3", "--edge",
         "L:4,2"],
        ["km-act", "--q", "9", "--word", "x2:8,x1:2", "--edge", "R:6,1",
         "--mode", "twisted_phi"],
        ["km-act", "--q", "5", "--m", "1000000001", "--mode", "twisted_phi",
         "--word", "x2:2", "--edge", "L:3,1"],
    ]
    want = []
    for argv in argvs:
        assert cli.main(argv) == 0
        want.append(capsys.readouterr().out)
    assert '"image": "L:3,0"' in want[-1]

    def no_elements(spec, code):
        raise AssertionError("FieldElement built for code %r" % code)

    monkeypatch.setattr(gf.FieldSpec, "element", no_elements)
    kmaction._LETTER_TABLES.clear()
    for argv, out in zip(argvs, want):
        start = time.monotonic()
        assert cli.main(argv) == 0
        assert time.monotonic() - start < 1
        assert capsys.readouterr().out == out


def test_table_build_failure_propagates_and_is_not_cached(monkeypatch):
    params = KMParams(2, F3)
    word = alternating_word(params, [(1, 1)])

    def no_rule(*args):
        raise UnsupportedActionDomain("no rule")

    kmaction._LETTER_TABLES.clear()
    monkeypatch.setattr(kmaction, "apply_letter", no_rule)
    with pytest.raises(UnsupportedActionDomain):
        zp_fix_test(params, word)
    with pytest.raises(UnsupportedActionDomain):
        zp_fixes_ball2(params, word)
    assert kmaction._LETTER_TABLES == {}
    monkeypatch.undo()
    assert zp_fix_test(params, word) == replayed_zp_fix_test(params, word)
    assert zp_fixes_ball2(params, word) == replayed_zp_fixes_ball2(params,
                                                                   word)


def test_unknown_mode_is_a_spec_mismatch():
    params = KMParams(2, F3)
    word = alternating_word(params, [(1, 1)])
    with pytest.raises(SpecMismatch):
        zp_fix_test(params, word, "no_such_mode")
    with pytest.raises(SpecMismatch):
        zp_fixes_ball2(params, word, "no_such_mode")


def test_affine_generators_live_where_expected():
    for u in (1,):
        assert membership(_x1(F2, u), "B")
        assert membership(_x2(F2, u), "B")
    w1, w2 = _w1(F2), _w2(F2)
    assert membership(w1, "P1") and not membership(w1, "B")
    assert membership(w2, "P2") and not membership(w2, "B")


def test_realize_edge_geometry():
    params = KMParams(2, F2)
    base = realize_edge(params, ("base", ()))
    assert base == base_edge(F2)
    seen = [base]
    labels = [("base", ())]
    for c in range(2):
        labels.append(("L", (c,)))
        labels.append(("R", (c,)))
        for c2 in range(2):
            labels.append(("L", (c, c2)))
            labels.append(("R", (c, c2)))
    realized = [realize_edge(params, lab) for lab in labels]
    for i, e in enumerate(realized):
        d = len(labels[i][1])  # the base edge's coords are ()
        assert edge_distance(base_edge(F2), e) == d
        for j in range(i):
            assert e != realized[j]
    # a left length-1 edge is x1(c) w1 applied to the base edge
    got = realize_edge(params, ("L", (1,)))
    assert got == edge_act(_x1(F2, 1).mul(_w1(F2)), base_edge(F2))


def test_realize_edge_limits():
    params = KMParams(3, F2)
    with pytest.raises(UnsupportedActionDomain):
        realize_edge(params, ("base", ()))
    params = KMParams(2, F2)
    deep = ("L", (1,) * 7)
    with pytest.raises(RadiusExceeded):
        realize_edge(params, deep)


def test_crosscheck_affine_smoke():
    params = KMParams(2, F2)
    word = alternating_word(params, [(1, 1)])
    for e in all_left_edges2(F2):
        assert crosscheck_affine(params, word, e)
