"""Shared term catalogs and the seeded random term generator."""

import random

from hypothesis import strategies as st

from endscope.ordinals import ONE, OMEGA, ZERO, add, from_nat, mul_nat, omega_pow
from endscope.parser import parse_term
from endscope.terms import Cantor, Color, Mix, Ord, Pt, Sum, has_genus, mk_cantor, mk_mix

# a broad catalog of small terms (size <= 12) covering every constructor
CATALOG_SOURCES = [
    "pt",
    "pt^g",
    "ord(1)",
    "ord(w^(0)*3)",
    "ord(w)",
    "ord(w*2)",
    "ord(w+1)",
    "ord(w^(2))",
    "ord(w^(2)*2+w)",
    "ord(w^(3))",
    "ord(w^(w))",
    "ord(w^(w+1)*2)",
    "cantor()",
    "cantor^g()",
    "cantor(pt)",
    "cantor^g(pt^g)",
    "cantor(ord(w))",
    "cantor^g(cantor())",
    "cantor(pt,ord(w))",
    "cantor^g(ord(w^(2)))",
    "mix(pt;planar)",
    "mix(pt^g;g)",
    "mix(ord(w);planar)",
    "mix(cantor();g)",
    "mix(cantor^g(),cantor();g)",
    "mix(pt,pt^g;g)",
    "mix(ord(w),pt^g;g)",
    "mix(mix(pt^g;g);g)",
    "mix(cantor(ord(w));g)",
    "sum(pt,pt)",
    "sum(ord(w),cantor())",
    "sum(pt^g,cantor^g())",
    "sum(ord(w^(2)),ord(w))",
    "sum(mix(pt^g;g),cantor())",
    "sum(cantor^g(pt),ord(w+1))",
]

# inputs whose digits lie outside 0-9: str.isdigit() accepts each of them, and
# int() rejects the superscripts and reads "\u0663" (Arabic-Indic three) as 3
NON_ASCII_DIGITS = ["ord(\u00b2)", "ord(w*\u00b9)", "surface { genus: \u00b2, ends: pt }", "ord(\u0663)"]

# countable all-planar terms with ranks 0..3 for derivative cross-checks
COUNTABLE_SOURCES = [
    "pt",
    "ord(1)",
    "sum(pt,pt)",
    "ord(w^(0)*4)",
    "ord(w)",
    "ord(w*3)",
    "ord(w+1)",
    "ord(w+2)",
    "ord(w*2+1)",
    "mix(pt;planar)",
    "sum(ord(w),pt)",
    "sum(ord(w),ord(w))",
    "ord(w^(2))",
    "ord(w^(2)*2)",
    "ord(w^(2)+w)",
    "mix(ord(w);planar)",
    "sum(ord(w^(2)),pt)",
    "ord(w^(3))",
    "ord(w^(3)+w^(2))",
    "mix(ord(w^(2));planar)",
]


def catalog():
    return [parse_term(s) for s in CATALOG_SOURCES]


def countable_catalog():
    return [parse_term(s) for s in COUNTABLE_SOURCES]


_RANKS = [
    ZERO,
    ONE,
    from_nat(2),
    from_nat(3),
    OMEGA,
    add(OMEGA, ONE),
    mul_nat(OMEGA, 2),
    omega_pow(from_nat(2)),
    omega_pow(OMEGA),
]


def random_term(rng: random.Random, budget: int = 5):
    if budget <= 1:
        kind = rng.choice(["pt", "pt", "ord"])
    else:
        kind = rng.choice(["pt", "ord", "mix", "cantor", "sum"])
    if kind == "pt":
        return Pt(rng.choice([Color.PLANAR, Color.GENUS]))
    if kind == "ord":
        return Ord(rng.choice(_RANKS), rng.randint(1, 3))
    if kind == "mix":
        comps = [random_term(rng, budget - 1) for _ in range(rng.randint(1, 3))]
        color = (
            Color.GENUS
            if any(has_genus(c) for c in comps)
            else rng.choice([Color.PLANAR, Color.GENUS])
        )
        return mk_mix(comps, color)
    if kind == "cantor":
        comps = [random_term(rng, budget - 1) for _ in range(rng.randint(0, 2))]
        color = (
            Color.GENUS
            if any(has_genus(c) for c in comps)
            else rng.choice([Color.PLANAR, Color.GENUS])
        )
        return mk_cantor(comps, color)
    return Sum(tuple(random_term(rng, budget - 1) for _ in range(rng.randint(2, 3))))


# Hypothesis strategies. `cnfs` builds ordinals with the arithmetic; `raw_terms`
# calls the constructors directly, so components come in any order and genus
# closedness is not enforced (for properties of the data types, not of spaces).
cnfs = st.recursive(
    st.integers(0, 3).map(from_nat),
    lambda inner: st.one_of(
        inner.map(omega_pow),
        st.tuples(inner, inner).map(lambda p: add(*p)),
        st.tuples(inner, st.integers(1, 3)).map(lambda p: mul_nat(*p)),
    ),
    max_leaves=6,
)
_colors = st.sampled_from([Color.PLANAR, Color.GENUS])
raw_terms = st.recursive(
    st.one_of(st.builds(Pt, _colors), st.builds(Ord, cnfs, st.integers(1, 3))),
    lambda kids: st.one_of(
        st.builds(Mix, st.lists(kids, min_size=1, max_size=3).map(tuple), _colors),
        st.builds(Cantor, st.lists(kids, max_size=2).map(tuple), _colors),
        st.builds(Sum, st.lists(kids, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=10,
)
# valid terms from the seeded generator above
random_terms = st.integers(0, 2**32).map(lambda seed: random_term(random.Random(seed)))
