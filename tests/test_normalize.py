import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalog import catalog, random_term, random_terms, raw_terms
from endscope.germs import _canon_pass, canon
from endscope.normalize import _absorb_pass, _pass, fixpoint, normalize, normalize_structural
from endscope.oracle import equiv_invariants
from endscope.parser import parse_term
from endscope.terms import ValidationError, Mix, Pt, Color, pretty


def n(src: str) -> str:
    return pretty(normalize(parse_term(src)))


def test_countable_planar_collapse():
    assert n("pt") == "ord(1)"
    assert n("sum(pt,pt)") == "ord(2)"
    assert n("mix(pt;planar)") == "ord(w)"
    assert n("mix(ord(w);planar)") == "ord(w^(2))"
    assert n("sum(ord(w),pt)") == "ord(w)"
    assert n("ord(w+1)") == "ord(w)"


def test_sum_flattening():
    assert n("sum(sum(pt,pt),pt)") == "ord(3)"
    t = parse_term("sum(sum(cantor(),cantor^g()),pt^g)")
    flat = normalize_structural(t)
    assert all(not p.__class__.__name__ == "Sum" for p in flat.parts)


def test_cantor_dissolves_same_color_cantor():
    assert n("cantor(cantor())") == "cantor()"
    assert n("cantor^g(cantor^g(pt))") == "cantor^g(ord(1))"
    # a differently colored Cantor component stays
    assert n("cantor^g(cantor())") == "cantor^g(cantor())"


def test_component_dedup():
    assert n("cantor(pt,pt)") == n("cantor(pt)")
    assert n("mix(pt^g,pt^g;g)") == n("mix(pt^g;g)")


def test_sibling_absorption():
    # a dense isolated point next to dense ord(w) copies adds nothing
    assert n("cantor(pt,ord(w))") == "cantor(ord(w))"
    # but nothing absorbs an isolated point when no sibling realizes one
    assert n("mix(pt,cantor();planar)") != n("mix(cantor();planar)")


def test_normalize_is_idempotent_on_catalog():
    for t in catalog():
        once = normalize(t)
        assert normalize(once) == once


def test_normalize_validates_input():
    bad = Mix((Pt(Color.GENUS),), Color.PLANAR)
    with pytest.raises(ValidationError):
        normalize(bad)


def test_normalize_preserves_truncation_invariants_on_catalog():
    for t in catalog():
        assert equiv_invariants(t, normalize(t), 4) == "same", pretty(t)


def test_normalize_preserves_truncation_invariants_randomly():
    rng = random.Random(20260823)
    for _ in range(120):
        t = random_term(rng)
        res = equiv_invariants(t, normalize(t), 4)
        assert res == "same", (pretty(t), res)


def test_structural_normalization_is_stable_under_full_normalize():
    rng = random.Random(7)
    for _ in range(60):
        t = random_term(rng)
        full = normalize(t)
        assert normalize_structural(full) == full


@settings(max_examples=200)
@given(st.one_of(raw_terms, random_terms))
def test_one_structural_pass_is_a_fixed_point(t):
    # so normalize_structural needs no second pass to confirm its result
    once = _pass(t)
    assert _pass(once) == once, pretty(t)


# seeded random terms at the generator's default size 5 and at size 7
_terms = st.tuples(st.integers(0, 2**32), st.sampled_from([5, 7])).map(
    lambda p: random_term(random.Random(p[0]), p[1])
)


# one of the few random terms whose normal form takes two rounds: R4 makes
# two mix components equal, and only the next round's R2 merges them
_TWO_ROUNDS = ("cantor^g(pt,sum(pt,mix(pt,sum(ord(w^(2)*2),ord(w^(w)*3),mix(pt^g,"
               "sum(ord(w^(w*2)*3),pt^g,pt);g)),sum(mix(mix(pt,pt;planar),sum(pt,"
               "ord(w^(w*2)*3),pt^g);g),pt);g)))")


@settings(max_examples=200)
@given(_terms)
@example(parse_term(_TWO_ROUNDS))
def test_canon_and_normalize_are_idempotent(t):
    c = canon(t)
    # a whole round of canon's passes leaves its result unchanged
    for p in (normalize_structural, _canon_pass, _absorb_pass):
        assert p(c) == c, pretty(t)
    assert canon.__wrapped__(c) == c  # recompute rather than read the memo
    once = normalize(t)
    assert normalize(once) == once, pretty(t)


def test_fixpoint_runs_whole_rounds_in_order():
    calls = []

    def halve(x):
        calls.append(("halve", x))
        return x // 2

    def floor_at_one(x):
        calls.append(("floor", x))
        return max(x, 1)

    assert fixpoint(8, (halve, floor_at_one)) == 1
    # the last round changes 1 to 0 and back: only the whole round is compared
    assert [c[0] for c in calls] == ["halve", "floor"] * 4
