import random

import pytest
from hypothesis import given

from catalog import cnfs
from endscope.ordinals import (
    ONE,
    OMEGA,
    ZERO,
    Cnf,
    OrdinalError,
    add,
    cmp,
    from_nat,
    fundamental,
    mul_nat,
    omega_pow,
    print_cnf,
)
from endscope.parser import parse_cnf


def some_ordinals():
    w2 = omega_pow(from_nat(2))
    ww = omega_pow(OMEGA)
    return [
        ZERO,
        ONE,
        from_nat(2),
        from_nat(7),
        OMEGA,
        add(OMEGA, ONE),
        add(mul_nat(OMEGA, 2), from_nat(5)),
        mul_nat(OMEGA, 3),
        w2,
        add(w2, OMEGA),
        mul_nat(w2, 2),
        ww,
        add(ww, w2),
        omega_pow(add(OMEGA, ONE)),
    ]


def test_nat_values():
    assert ZERO.is_zero()
    assert from_nat(0) == ZERO
    assert from_nat(1) == ONE
    assert from_nat(5).is_nat()
    assert from_nat(5).nat_value() == 5
    assert not OMEGA.is_nat()


def test_comparison_is_total_and_consistent():
    xs = some_ordinals()
    for a in xs:
        assert cmp(a, a) == 0
        for b in xs:
            assert cmp(a, b) == -cmp(b, a)
    # the listing above is strictly increasing
    for a, b in zip(xs, xs[1:]):
        assert cmp(a, b) < 0


def test_addition_left_absorption():
    # 1 + w == w, n + w^k == w^k
    assert add(ONE, OMEGA) == OMEGA
    assert add(from_nat(9), omega_pow(from_nat(2))) == omega_pow(from_nat(2))
    # but w + 1 != w
    assert cmp(add(OMEGA, ONE), OMEGA) > 0


def test_addition_matches_expected_forms():
    # (w*2 + 3) + (w + 1) == w*3 + 1: the finite tail is absorbed
    left = add(mul_nat(OMEGA, 2), from_nat(3))
    right = add(OMEGA, ONE)
    assert add(left, right) == add(mul_nat(OMEGA, 3), ONE)
    # (w^2 + w) + w^2 == w^2*2
    w2 = omega_pow(from_nat(2))
    assert add(add(w2, OMEGA), w2) == mul_nat(w2, 2)


def test_addition_associative_on_samples():
    rng = random.Random(3)
    xs = some_ordinals()
    for _ in range(200):
        a, b, c = rng.choice(xs), rng.choice(xs), rng.choice(xs)
        assert add(add(a, b), c) == add(a, add(b, c))


def test_addition_monotone_right():
    xs = some_ordinals()
    for a in xs:
        for b in xs:
            for c in xs:
                if cmp(b, c) < 0:
                    assert cmp(add(a, b), add(a, c)) < 0


def test_mul_nat():
    assert mul_nat(OMEGA, 1) == OMEGA
    assert mul_nat(ZERO, 5) == ZERO
    assert mul_nat(OMEGA, 0) == ZERO
    w2 = omega_pow(from_nat(2))
    assert mul_nat(add(w2, ONE), 2) == add(w2, add(w2, ONE))


def test_omega_pow():
    assert omega_pow(ZERO) == ONE
    assert omega_pow(ONE) == OMEGA
    assert cmp(omega_pow(OMEGA), omega_pow(from_nat(99))) > 0


def test_successor_limit_predicates():
    assert add(OMEGA, ONE).is_successor()
    assert add(OMEGA, ONE).pred() == OMEGA
    assert OMEGA.is_limit()
    assert not ZERO.is_limit() and not ZERO.is_successor()
    assert from_nat(4).is_successor()
    assert from_nat(4).pred() == from_nat(3)
    assert omega_pow(OMEGA).is_limit()


def test_fundamental_sequence():
    for a in [OMEGA, mul_nat(OMEGA, 2), omega_pow(from_nat(2)), omega_pow(OMEGA)]:
        prev = None
        for k in range(1, 8):
            fk = fundamental(a, k)
            assert cmp(fk, a) < 0
            if prev is not None:
                assert cmp(prev, fk) < 0
            prev = fk


def _max_nat(a) -> int:
    """The largest coefficient anywhere in a, exponents included."""
    return max((max(c, _max_nat(e)) for e, c in a.summands), default=0)


@given(cnfs, cnfs, cnfs)
def test_fundamental_sequence_of_a_sum_is_increasing_and_cofinal(x, e, b):
    # a limit of two or more summands: w^(e+1) after a sum that starts higher
    a = add(add(omega_pow(add(e, from_nat(2))), x), omega_pow(add(e, ONE)))
    assert len(a.summands) >= 2
    seq = [fundamental(a, k) for k in range(1, 6)]
    assert all(cmp(p, q) < 0 for p, q in zip(seq, seq[1:]))
    assert cmp(seq[-1], a) < 0
    # each b < a is passed by the element of index one more than b's largest
    # coefficient; the head of a is below a, so that one must be passed too
    for below in (Cnf(a.summands[:-1]), b):
        if cmp(below, a) < 0:
            assert cmp(below, fundamental(a, _max_nat(below) + 1)) < 0, (a, below)


def test_the_fundamental_sequence_keeps_the_head_of_a_sum():
    w2 = omega_pow(from_nat(2))
    for k in range(1, 5):
        assert fundamental(add(w2, OMEGA), k) == add(w2, from_nat(k))


def test_fundamental_rejects_non_limits():
    with pytest.raises(OrdinalError):
        fundamental(add(OMEGA, ONE), 1)
    with pytest.raises(OrdinalError):
        fundamental(ZERO, 1)


def test_print_parse_round_trip():
    for a in some_ordinals():
        if a.is_zero():
            continue  # the grammar has no zero ordinal literal
        assert parse_cnf(print_cnf(a)) == a


def test_invalid_cnf_shapes_rejected():
    with pytest.raises((OrdinalError, ValueError)):
        # exponents must be strictly decreasing
        Cnf(((ZERO, 1), (ONE, 1)))
