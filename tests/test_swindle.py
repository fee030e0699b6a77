import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from endscope import swindle
from endscope.swindle import (
    EMPTY,
    BadSplit,
    BadSupport,
    NotAlternating,
    SlotWord,
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


# ---------------------------------------------------------------------------
# shift elements against the SlotWord-based reference they replaced: each
# product there re-reduced every word and sorted the support


def _ref_mul(a, b):
    (ka, wa), (kb, wb) = a, b
    support = set(wa.support()) | {s + ka for s in wb.support()}
    out = {s: word_mul(wa.word_at(s), wb.word_at(s - ka)) for s in support}
    return ka + kb, slot_word(out)


def _ref_inv(a):
    k, w = a
    return -k, slot_word({s - k: word_inv(x) for s, x in w.assignment})


def _ref_commutator(a, b):
    return _ref_mul(_ref_mul(a, b), _ref_mul(_ref_inv(a), _ref_inv(b)))


def _ref_anderson(h, depth):
    width = max(h.support(), default=0) + 1
    u = slot_word({s + i * width: w for i in range(depth + 1) for s, w in h.assignment})
    k, comm = _ref_commutator((0, u), (width, EMPTY))
    check = k == 0 and all(comm.word_at(s) == h.word_at(s) for s in range((depth + 1) * width))
    return u, width, check


def _as_ref(e):
    """A shift element as the reference holds it; the words stay unreduced,
    so a word that is not reduced or is empty shows as a difference."""
    k, words = e
    return k, SlotWord(tuple(sorted(words.items())))


def _from_ref(e):
    return e[0], dict(e[1].assignment)


_LETTERS = st.sampled_from([-3, -2, -1, 1, 2, 3])
_REDUCED = st.lists(_LETTERS, max_size=6).map(reduce_word)
_ELEMS = st.tuples(
    st.integers(-6, 6),
    st.dictionaries(st.integers(-8, 8), _REDUCED.filter(bool), max_size=8),
)


@st.composite
def _pairs(draw):
    """Two shift elements; in some slots b's word starts with the inverse of
    a suffix of a's word there, so the product cancels in part or to ()."""
    a, b = draw(_ELEMS), draw(_ELEMS)
    k, bw = a[0], dict(b[1])
    for s, w in a[1].items():
        if draw(st.booleans()):
            cut = draw(st.integers(0, len(w) - 1))
            tail = draw(_REDUCED) if draw(st.booleans()) else ()
            x = word_mul(word_inv(w[cut:]), tail)
            if x:
                bw[s - k] = x
    return a, (b[0], bw)


@given(_REDUCED, _REDUCED, st.integers(0, 6))
def test_mul2_is_reduce_word_of_the_concatenation(a, b, cut):
    assert swindle._mul2(a, b) == reduce_word(a + b)
    c = word_mul(word_inv(a[cut:]), b)
    assert swindle._mul2(a, c) == reduce_word(a + c)


@given(_pairs())
def test_shift_products_match_the_slot_word_reference(pair):
    a, b = pair
    ra, rb = _as_ref(a), _as_ref(b)
    assert _as_ref(swindle._e_mul(a, b)) == _ref_mul(ra, rb)
    assert _as_ref(swindle._e_mul(b, a)) == _ref_mul(rb, ra)
    assert _as_ref(swindle._e_inv(a)) == _ref_inv(ra)
    assert _as_ref(swindle._e_commutator(a, b)) == _ref_commutator(ra, rb)
    # the arguments are left as they were
    assert (_as_ref(a), _as_ref(b)) == (ra, rb)


@given(st.dictionaries(st.integers(0, 7), _REDUCED, max_size=8), st.integers(1, 40))
def test_anderson_matches_the_reference(mapping, depth):
    h = slot_word(mapping)
    assert anderson(h, depth) == _ref_anderson(h, depth)


def test_the_commutator_is_h_on_row_zero_and_its_inverse_past_the_stack():
    rng = random.Random(29)
    for _ in range(50):
        width = rng.randint(1, 8)
        h = slot_word({s: _random_word(rng, 3, 4) for s in range(width)})
        width = max(h.support(), default=0) + 1
        depth = rng.randint(1, 30)
        u, v, ok = anderson(h, depth)
        assert ok and v == width
        k, comm = swindle._e_commutator((0, dict(u.assignment)), (width, {}))
        edge = (depth + 1) * width
        assert k == 0
        assert comm == {**dict(h.assignment), **{s + edge: word_inv(w) for s, w in h.assignment}}


@pytest.mark.parametrize("depth", [64, 256, 1024])
def test_anderson_reduces_each_word_of_h_once_at_any_depth(monkeypatch, depth):
    rng = random.Random(0)
    h = slot_word({s: _random_word(rng, 4, 3) for s in range(8)})
    calls = []

    def counted(letters):
        calls.append(1)
        return reduce_word(letters)

    monkeypatch.setattr(swindle, "reduce_word", counted)
    _, _, ok = anderson(h, depth)
    assert ok
    assert len(calls) <= len(h.support())
