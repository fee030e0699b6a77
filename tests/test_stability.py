import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import catalog
from endscope.examples_builtin import EXAMPLES
from endscope.germs import derive_table, from_json
from endscope.parser import parse, parse_term
from endscope.stability import (
    Annulus,
    AnnulusDecomposition,
    Brick,
    NotTelescoping,
    Stable,
    Unknown,
    Unstable,
    _pair,
    _row_of_u,
    _unpair,
    annuli,
    annuli_certificate,
    check_annuli,
    check_decomposition,
    check_shift,
    decomposition_certificate,
    shift,
    stable_nbhd,
)
from endscope.terms import pretty


def test_every_derived_class_is_stable_on_catalog():
    for t in catalog():
        table = derive_table(t)
        for c in table.classes:
            res = stable_nbhd(table, c.id)
            assert isinstance(res, Stable), (pretty(t), c.id, res)
            problems = check_decomposition(res.decomposition, depth=20, seed=3)
            assert problems == [], (pretty(t), c.id, problems)


def _decomposition(src: str, x: str):
    return stable_nbhd(derive_table(parse_term(src)), x).decomposition


def test_decomposition_shapes():
    assert _decomposition("pt", "rank(0)").shape == "degenerate"
    assert _decomposition("ord(w)", "rank(1)").shape == "rank-blocks"
    assert _decomposition("cantor()", "cantor()").shape == "shells"
    ml = "mix(cantor^g(),cantor();g)"
    assert _decomposition(ml, "mix(cantor(),cantor^g();g)").shape == "rounds"


def test_family_members_are_stable():
    table = derive_table(parse_term("ord(w^(w))"))
    res = stable_nbhd(table, "rank(5)")
    assert isinstance(res, Stable)
    assert check_decomposition(res.decomposition) == []


def test_user_supplied_table_verdicts():
    table = from_json(json.loads(EXAMPLES["unknown-6-2"]))
    res = stable_nbhd(table, "Linf")
    assert isinstance(res, Unstable)
    assert "accumulate" in res.obstruction
    assert isinstance(stable_nbhd(table, "p"), Unknown)
    tf = from_json(json.loads(EXAMPLES["telescopefail-iii"]))
    assert isinstance(stable_nbhd(tf, "x"), Unstable)


def test_brick_validation():
    with pytest.raises(ValueError):
        Brick(period=(1, 1))
    with pytest.raises(ValueError):
        Brick(period=(0,))
    with pytest.raises(ValueError):
        Brick(prefix=(2,), period=(1, 0))


def test_shift_translates_brick_off_itself():
    for b in (Brick(), Brick(prefix=(1, 1, 0), period=(1, 0, 0))):
        assert check_shift(shift(b), depth=20) == []


def test_shift_coordinates_invert():
    r = shift(Brick())
    for x in range(40):
        row, col = r.coords(x)
        assert r.index_at(row, col) == x
        assert r.sigma(r.sigma(x, 1), -1) == x


def test_annuli_cases():
    fl = parse(EXAMPLES["flute"])
    d1 = annuli(fl, "rank(0)", depth=6)
    assert d1.case == "i"
    assert all(a.contents == () for a in d1.annuli)
    assert check_annuli(derive_table(fl.ends), d1) == []

    bc = parse(EXAMPLES["blooming-cantor"])
    d2 = annuli(bc, "cantor^g()", depth=6)
    assert d2.case == "ii"
    assert check_annuli(derive_table(bc.ends), d2) == []

    ml = parse(EXAMPLES["mona-lisa"])
    d3 = annuli(ml, "mix(cantor(),cantor^g();g)", depth=6)
    assert d3.case == "iii"
    assert check_annuli(derive_table(ml.ends), d3) == []


def test_annuli_raises_when_not_telescoping():
    tf = from_json(json.loads(EXAMPLES["telescopefail-iii"]))
    with pytest.raises(NotTelescoping):
        annuli(tf, "x")


def test_check_annuli_detects_missing_content():
    ml = parse(EXAMPLES["mona-lisa"])
    d = annuli(ml, "mix(cantor(),cantor^g();g)", depth=4)
    starved = AnnulusDecomposition(
        d.basepoint,
        d.case,
        (Annulus(0, ("cantor()",), True, term=d.annuli[0].term),) + d.annuli[1:],
    )
    problems = check_annuli(derive_table(ml.ends), starved)
    assert any("misses" in p for p in problems)


def test_certificates_are_json_ready():
    c1 = decomposition_certificate(_decomposition("ord(w)", "rank(1)"), depth=5)
    assert c1["kind"] == "decomposition"
    assert len(c1["pieces"]) == 5
    ml = parse(EXAMPLES["mona-lisa"])
    c2 = annuli_certificate(annuli(ml, "mix(cantor(),cantor^g();g)", depth=4))
    assert c2["kind"] == "annuli" and c2["case"] == "iii"
    for cert in (c1, c2):
        json.dumps(cert)  # must serialize without custom encoders


def _unpair_by_search(j: int):
    """Reference inverse Cantor pairing: the largest diagonal w with
    w(w+1)/2 <= j, found by counting up."""
    w = 0
    while (w + 1) * (w + 2) // 2 <= j:
        w += 1
    u = j - w * (w + 1) // 2
    return u, w - u


def test_unpair_matches_search():
    for j in range(5000):
        assert _unpair(j) == _unpair_by_search(j)
        assert _pair(*_unpair(j)) == j


_BITS = st.lists(st.integers(0, 1), max_size=8)
_PERIODS = st.lists(st.integers(0, 1), min_size=2, max_size=8).filter(
    lambda p: 0 in p and 1 in p
)
_WINDOW = 2000


@settings(max_examples=60)
@given(_BITS, _PERIODS)
def test_brick_rank_and_select_match_enumeration(prefix, period):
    b = Brick(tuple(prefix), tuple(period))
    seen = {0: [], 1: []}
    for x in range(_WINDOW):
        assert b.count_below(x, 0) == len(seen[0])
        assert b.count_below(x, 1) == len(seen[1])
        seen[int(b.member(x))].append(x)
    for bit in (0, 1):
        assert [b.select(n, bit) for n in range(len(seen[bit]))] == seen[bit]
    assert b.elements(len(seen[1])) == seen[1]


@settings(max_examples=60)
@given(_BITS, _PERIODS)
def test_shift_coords_match_enumeration(prefix, period):
    b = Brick(tuple(prefix), tuple(period))
    recipe = shift(b)
    members = [x for x in range(_WINDOW) if b.member(x)]
    gaps = [x for x in range(_WINDOW) if not b.member(x)]
    for col, x in enumerate(members):
        assert recipe.coords(x) == (0, col)
        assert recipe.index_at(0, col) == x
    for j, x in enumerate(gaps):
        u, q = _unpair_by_search(j)
        row = _row_of_u(u)
        assert recipe.coords(x) == (row, q)
        assert recipe.index_at(row, q) == x
    for x in range(_WINDOW):
        assert recipe.index_at(*recipe.coords(x)) == x
