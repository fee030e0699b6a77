import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import catalog
from endscope import stability
from endscope.examples_builtin import EXAMPLES
from endscope.germs import derive_table, from_json
from endscope.ordinals import OMEGA, Cnf, from_nat
from endscope.parser import parse, parse_term
from endscope.stability import (
    Annulus,
    AnnulusDecomposition,
    Brick,
    Decomposition,
    NotTelescoping,
    ShiftRecipe,
    Stable,
    Unknown,
    Unstable,
    _check_reassembly,
    _pair,
    _piece_embeds,
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
from endscope.terms import Ord, pretty


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


# the rank blocks below w, for tests that patch what their pieces are
_RANK_W = Decomposition("rank(w)", "rank-blocks", Ord(OMEGA, 1), rank=OMEGA)


def test_pieces_that_shrink_fail_every_embedding_obligation(monkeypatch):
    dec = Decomposition("rank(w)", "rank-blocks", Ord(OMEGA, 1), rank=OMEGA)
    assert check_decomposition(dec, depth=6) == []
    # Y_k of rank 100 - k: each piece is too big to embed into the next
    monkeypatch.setattr(Decomposition, "piece", lambda self, k: Ord(from_nat(100 - k), 1))
    problems = check_decomposition(dec, depth=6)
    assert [p for p in problems if p.startswith("no embedding")] == [
        f"no embedding Y_{k} -> Y_{k + 1}" for k in range(1, 6)]


def test_pieces_at_the_basepoint_rank_fail_the_rank_obligation(monkeypatch):
    dec = _RANK_W
    monkeypatch.setattr(Decomposition, "piece", lambda self, k: Ord(OMEGA, 1))
    problems = check_decomposition(dec, depth=3)
    assert [p for p in problems if p.startswith("piece")] == [
        f"piece {k} does not sit strictly below the basepoint rank" for k in (1, 2, 3)]


@pytest.mark.parametrize("rank", [from_nat(0), from_nat(3), OMEGA])
def test_a_piece_embeds_into_one_of_its_rank_and_no_smaller_degree(rank):
    assert _piece_embeds(Ord(rank, 1), Ord(rank, 2))
    assert not _piece_embeds(Ord(rank, 2), Ord(rank, 1))
    assert _piece_embeds(Ord(rank, 2), Ord(rank, 2))


def test_a_piece_embeds_only_into_a_piece_of_its_own_kind():
    # no embedding between a rank piece and a Cantor piece, either way, and
    # a missing piece only matches another missing one
    cantor = parse_term("cantor()")
    assert not _piece_embeds(Ord(OMEGA, 1), cantor)
    assert not _piece_embeds(cantor, Ord(OMEGA, 1))
    assert not _piece_embeds(Ord(from_nat(3), 1), Ord(from_nat(2), 5))
    assert _piece_embeds(None, None)
    assert not _piece_embeds(None, Ord(OMEGA, 1))
    assert not _piece_embeds(Ord(OMEGA, 1), None)


def test_the_reassembly_obligations_sample_every_piece_index(monkeypatch):
    # three subsequences a seed, drawn from the indices 1 .. 3*depth - 1
    picked = set()
    monkeypatch.setattr(stability, "_check_reassembly", lambda dec, picks: picked.update(picks) or [])
    dec = _RANK_W
    for seed in range(5):
        assert check_decomposition(dec, depth=3, seed=seed) == []
    assert picked == set(range(1, 9))


def test_the_replay_draws_the_subsequences_its_certificate_names(monkeypatch):
    dec = _RANK_W
    witnesses = decomposition_certificate(dec)["witnesses"]
    seed = next(w["seed"] for w in witnesses if w["kind"] == "reassembly")
    draws = []
    monkeypatch.setattr(stability, "_check_reassembly", lambda dec, picks: draws.append(picks) or [])
    check_decomposition(dec)  # as `certify --check` replays it
    replayed, draws[:] = list(draws), []
    check_decomposition(dec, seed=seed)
    assert replayed == draws


@pytest.mark.parametrize("ranks, problem", [
    ((1, 5, 2, 6), "subsequence ranks not strictly increasing"),  # falls from Y_2 to Y_3
    ((1, 5, 5, 6), "subsequence ranks not strictly increasing"),  # stays once
    ((1, 5, 6, OMEGA), "subsequence rank escapes the limit bound"),  # reaches w
])
def test_pieces_below_a_limit_rank_rise_at_every_step_and_stay_below_it(monkeypatch, ranks, problem):
    dec = _RANK_W
    ords = [Ord(r if isinstance(r, Cnf) else from_nat(r), 1) for r in ranks]
    monkeypatch.setattr(Decomposition, "piece", lambda self, k: ords[k - 1])
    assert _check_reassembly(dec, [1, 2, 3, 4]) == [problem]


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


def test_a_shift_whose_next_power_overlaps_the_brick_is_rejected(monkeypatch):
    # sigma^p moves by 1000 * floor(p / 2): powers 2m and 2m + 1 agree, and
    # every other pair of powers is disjoint on the brick window
    monkeypatch.setattr(ShiftRecipe, "sigma", lambda self, x, power=1: x + 1000 * (power // 2))
    problems = check_shift(shift(Brick()), depth=3)
    assert [p for p in problems if "meets" in p] == [
        f"sigma^{i}(b) meets sigma^{i + 1}(b)" for i in (-2, 0, 2)]


def test_a_shift_is_checked_on_the_powers_up_to_its_depth_alone(monkeypatch):
    # sigma^p is x + 1000p up to |p| = 3 and constant beyond: neither the
    # injectivity nor the orbit obligation at depth 3 reaches power 4
    def moves(self, x, power=1):
        return 0 if abs(power) > 3 else x + 1000 * power

    monkeypatch.setattr(ShiftRecipe, "sigma", moves)
    assert check_shift(shift(Brick()), depth=3) == []
    assert "sigma^4 is not injective on the brick window" in check_shift(shift(Brick()), depth=4)


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


def test_isolated_puncture_annuli_hold_no_contents_and_no_term():
    fl = parse(EXAMPLES["flute"])
    d = annuli(fl, "rank(0)", depth=3)
    for bad in (Annulus(0, ("rank(0)",), False), Annulus(0, (), False, term=parse_term("pt"))):
        dec = AnnulusDecomposition(d.basepoint, d.case, (bad,) + d.annuli[1:])
        assert check_annuli(derive_table(fl.ends), dec) == ["isolated-puncture annuli must be empty"]


def test_a_chain_of_one_annulus_replays():
    ml = parse(EXAMPLES["mona-lisa"])
    d = annuli(ml, "mix(cantor(),cantor^g();g)", depth=1)
    assert len(d.annuli) == 1 and check_annuli(derive_table(ml.ends), d) == []


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


def test_every_annulus_carries_the_classes_of_the_first():
    ml = parse(EXAMPLES["mona-lisa"])
    d = annuli(ml, "mix(cantor(),cantor^g();g)", depth=4)
    planar_only = Annulus(1, ("cantor()",), False, term=parse_term("cantor()"))
    shrunk = AnnulusDecomposition(d.basepoint, d.case, d.annuli[:1] + (planar_only,) + d.annuli[2:])
    assert check_annuli(derive_table(ml.ends), shrunk) == ["annulus 1 misses classes ['cantor^g()']"]


def test_an_annulus_lists_no_class_its_term_lacks():
    ml = parse(EXAMPLES["mona-lisa"])
    d = annuli(ml, "mix(cantor(),cantor^g();g)", depth=4)
    a = d.annuli[2]
    padded = Annulus(2, a.contents + ("rank(0)",), a.genus, term=a.term)
    dec = AnnulusDecomposition(d.basepoint, d.case, d.annuli[:2] + (padded,) + d.annuli[3:])
    assert check_annuli(derive_table(ml.ends), dec) == ["annulus 2 content list mismatch"]


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
