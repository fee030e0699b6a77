import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from endscope.swindle import (
    EMPTY,
    BadSplit,
    BadSupport,
    NotAlternating,
    alternating_check,
    anderson,
    commutator_from_alternating,
    em_check,
    em_layout,
    reduce_word,
    slot_word,
    sw_mul,
    word_inv,
    word_mul,
)


def _reduce_oracle(letters):
    # independent stack-based free reduction
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _random_word(rng, letters=4, length=8):
    return [rng.choice([k for k in range(-letters, letters + 1) if k]) for _ in range(length)]


def test_reduce_word_matches_independent_oracle():
    rng = random.Random(5)
    for _ in range(300):
        w = _random_word(rng)
        assert reduce_word(w) == _reduce_oracle(w)


def test_word_algebra():
    assert word_mul((1, 2), (-2, 3)) == (1, 3)
    assert word_inv((1, -2, 3)) == (-3, 2, -1)
    assert word_mul((1, 2), word_inv((1, 2))) == ()


def test_slot_word_drops_trivial_entries():
    f = slot_word({0: (1, -1), 3: (2,), 5: ()})
    assert f.support() == (3,)
    assert f.word_at(0) == ()
    inverse = slot_word({s: word_inv(w) for s, w in f.assignment})
    assert sw_mul(f, inverse) == EMPTY


def test_anderson_golden():
    h = slot_word({0: (1,), 1: (2, 1)})
    u, width, ok = anderson(h, depth=6)
    assert ok
    assert width == 2
    assert u.word_at(0) == (1,)
    assert u.word_at(2) == (1,)  # copy on the next row
    assert u.word_at(13) == (2, 1)  # 6th row, slot 1


def test_anderson_random_property():
    rng = random.Random(99)
    for _ in range(100):
        h = slot_word({s: _random_word(rng, 3, 4) for s in range(rng.randint(1, 5))})
        depth = max(h.support(), default=0) + rng.randint(1, 10)
        _, _, ok = anderson(h, depth)
        assert ok


def test_anderson_rejects_negative_support():
    with pytest.raises(BadSupport):
        anderson(slot_word({-1: (1,)}), 4)


def test_alternating_check_and_guards():
    f = slot_word({0: (1, 2), 1: (3,), 10: (-2, -1), 11: (-3,)})
    split = ((0, 1), (10, 11))
    conj = {0: 10, 1: 11}
    assert alternating_check(f, split, conj)
    skew = slot_word({0: (1, 2), 10: (1, 2)})
    assert not alternating_check(skew, ((0,), (10,)), {0: 10})
    with pytest.raises(BadSplit):
        alternating_check(f, ((0, 1), (1, 11)), conj)
    with pytest.raises(BadSplit):
        alternating_check(f, ((0, 1), (10, 11)), {0: 10, 1: 12})
    stray = slot_word({0: (1,), 10: (-1,), 77: (5,)})
    with pytest.raises(BadSplit):
        alternating_check(stray, split, conj)


def test_commutator_round_trip():
    f = slot_word({0: (1, 2), 1: (3,), 10: (-2, -1), 11: (-3,)})
    split = ((0, 1), (10, 11))
    conj = {0: 10, 1: 11}
    f1, hmap = commutator_from_alternating(f, split, conj)
    assert f1.support() == (0, 1)
    assert hmap == {0: 10, 10: 0, 1: 11, 11: 1}
    rebuilt = {}
    for s, w in f1.assignment:
        rebuilt[s] = w
        rebuilt[hmap[s]] = word_inv(w)
    assert slot_word(rebuilt) == f
    with pytest.raises(NotAlternating):
        commutator_from_alternating(
            slot_word({0: (1,), 10: (1,)}), ((0,), (10,)), {0: 10}
        )


def test_em_layout_structure():
    layout, h1, h2 = em_layout(3)
    assert len(layout.red) == 3
    assert len(layout.blue_blocks) == 3
    assert layout.separators_ok()
    for s in layout.red:
        assert h1.word_at(s) and not h2.word_at(s)
    for inv, pos in layout.blue_blocks:
        for a, b in zip(inv, pos):
            assert h2.word_at(a) == word_inv(h2.word_at(b))
    with pytest.raises(ValueError):
        em_layout(0)


def test_em_check_up_to_depth_six():
    for d in range(1, 7):
        rep = em_check(d)
        assert rep["separators"]
        assert all(rep["blue_blocks"])
        assert all(rep["regrouped_blocks"])
        assert rep["reconstruction"]
        assert rep["product_identity"] == "both"


_WORDS = st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=4)


@given(st.dictionaries(st.integers(-40, 40), _WORDS, max_size=20))
def test_word_at_matches_scan(mapping):
    sw = slot_word(mapping)
    for s in range(-45, 46):
        scanned = next((w for slot, w in sw.assignment if slot == s), ())
        assert sw.word_at(s) == scanned
