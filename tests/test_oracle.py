import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import countable_catalog, random_terms
from endscope import oracle
from endscope.oracle import (
    NEVER,
    _colors_mismatch,
    _derivative_mismatch,
    _fold,
    _hidden,
    _isolated_mismatch,
    equiv_invariants,
    sample_nodes,
)
from oracle_ref import _flatten, bundle, cb_bruteforce, tr_embeds, truncate
from endscope.parser import parse_term
from endscope.terms import (
    Cantor,
    Color,
    Mix,
    NotCountable,
    Ord,
    Pt,
    Sum,
    ValidationError,
    cb_rank,
)


def test_cb_bruteforce_golden_sequences():
    assert cb_bruteforce(truncate(parse_term("pt"), 3)) == [1, 0]
    assert cb_bruteforce(truncate(parse_term("sum(pt,pt)"), 3)) == [2, 0]
    assert cb_bruteforce(truncate(parse_term("ord(w)"), 3)) == [4, 1, 0]
    assert cb_bruteforce(truncate(parse_term("ord(w^(2))"), 4)) == [17, 5, 1, 0]


def test_cb_bruteforce_rejects_dust():
    with pytest.raises(NotCountable):
        cb_bruteforce(truncate(parse_term("cantor(pt)"), 3))


def test_extinction_matches_cb_rank_on_countable_catalog():
    for t in countable_catalog():
        rank, degree = cb_rank(t)
        r = rank.nat_value()
        counts = cb_bruteforce(truncate(t, r + 2))
        assert counts[-1] == 0, t
        assert len(counts) - 1 == r + 1, t
        assert counts[r] == degree, t


def test_bundle_fields():
    b = bundle(parse_term("cantor(pt)"), 2)
    assert b["perfect_kernel"] is True
    assert b["colors"] == ["planar"]
    assert b["derivative"] is None
    b2 = bundle(parse_term("ord(w)"), 3)
    assert b2["perfect_kernel"] is False
    assert b2["derivative"]["rounds"] == 2
    assert b2["derivative"]["final_nonzero"] == 1


def test_equiv_invariants_separates_distinct_spaces():
    pairs = [
        ("pt", "pt^g"),
        ("cantor(pt)", "cantor()"),
        ("ord(w)", "ord(w^(2))"),
        ("sum(pt,pt)", "pt"),
        ("mix(pt;planar)", "cantor()"),
        ("ord(w*2)", "ord(w)"),
        ("cantor^g()", "cantor()"),
        ("ord(w^(2))", "ord(w^(2)*2)"),
        ("cantor^g(pt)", "cantor^g(pt^g)"),
        ("mix(cantor();g)", "cantor^g()"),
    ]
    for a, b in pairs:
        res = equiv_invariants(parse_term(a), parse_term(b), 4)
        assert res != "same", (a, b)


def test_equiv_invariants_accepts_equal_presentations():
    pairs = [
        ("ord(w)", "mix(pt;planar)"),
        ("ord(w^(2))", "mix(ord(w);planar)"),
        ("sum(pt,pt)", "ord(w^(0)*2)"),
        ("cantor()", "cantor(cantor())"),
    ]
    for a, b in pairs:
        assert equiv_invariants(parse_term(a), parse_term(b), 4) == "same", (a, b)


def test_tr_embeds_spot_checks():
    assert tr_embeds(parse_term("pt"), parse_term("ord(w)"), 3)
    assert tr_embeds(parse_term("ord(w)"), parse_term("ord(w^(2))"), 3)
    assert not tr_embeds(parse_term("pt^g"), parse_term("ord(w)"), 3)
    assert not tr_embeds(parse_term("cantor()"), parse_term("ord(w)"), 3)
    assert tr_embeds(parse_term("cantor()"), parse_term("cantor(pt)"), 3)


# ---------------------------------------------------------------------------
# bundles from one truncation per depth against three truncations per depth


def _ref_flatten(roots) -> list:
    out, stack = [], list(roots)
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(n.children)
    return out


def _ref_isolated_counts(roots) -> dict:
    out = {}
    for n in _ref_flatten(roots):
        if n.mark == "point" and not n.children:
            out[str(n.color)] = out.get(str(n.color), 0) + 1
    return out


def _ref_cb_bruteforce(tr) -> list:
    alive = _ref_flatten(tr.roots)
    counts = [len(alive)]
    while alive:
        keep = [n for n in alive if not (n.mark == "point" and not n.children)]
        removed = {id(n) for n in alive} - {id(n) for n in keep}
        if not removed:
            break
        alive = keep
        for n in alive:
            n.groups = [[c for c in grp if id(c) not in removed] for grp in n.groups]
        counts.append(len(alive))
    return counts


def _ref_rounds(tr) -> dict:
    """Nodes per removal round, from the brute-force run: round k + 1
    removes counts[k] - counts[k + 1] nodes, and counts[-1] are never
    removed."""
    counts = _ref_cb_bruteforce(tr)
    out = {k + 1: counts[k] - counts[k + 1] for k in range(len(counts) - 1)}
    if counts[-1]:
        out[NEVER] = counts[-1]
    return out


def _ref_bundle(t, depth) -> dict:
    """The bundle as built from a fresh truncation for every fact."""
    nodes = _ref_flatten(truncate(t, depth).roots)
    colors = set()
    for n in nodes:
        colors |= {n.color} | n.hidden_colors
    out = {
        "colors": sorted(str(c) for c in colors),
        "perfect_kernel": any(n.mark == "dust" or n.hidden_dust for n in nodes),
        "deep": any(n.mark == "deep" for n in nodes),
        "hidden_isolated": sorted(
            str(c) for c in frozenset().union(*(n.hidden_iso for n in nodes))
        ),
    }
    iso_now = _ref_isolated_counts(truncate(t, depth).roots)
    iso_prev = _ref_isolated_counts(truncate(t, depth - 1).roots) if depth else iso_now
    out["isolated"] = {
        c: (k if k == iso_prev.get(c, 0) else "growing") for c, k in iso_now.items()
    }
    out["derivative"] = None
    if not out["perfect_kernel"] and out["colors"] in ([], ["planar"]):
        counts = _ref_cb_bruteforce(truncate(t, depth))
        out["derivative"] = {
            "rounds": len(counts) - 1,
            "final_nonzero": next((c for c in reversed(counts) if c != 0), 0),
            "stalled": counts[-1] != 0,
        }
    return out


def _ref_equiv_invariants(a, b, depth):
    for d in range(depth + 1):
        ba, bb = _ref_bundle(a, d), _ref_bundle(b, d)
        if ba["perfect_kernel"] != bb["perfect_kernel"]:
            return (
                "differ",
                f"perfect_kernel at depth {d}: "
                f"{ba['perfect_kernel']!r} vs {bb['perfect_kernel']!r}",
            )
        for key, witness in (
            ("colors", _colors_mismatch(ba, bb)),
            ("isolated", _isolated_mismatch(ba, bb)),
            ("derivative", _derivative_mismatch(ba, bb)),
        ):
            if witness:
                return ("differ", f"{key} at depth {d}: {witness}")
    return "same"


_NEST_POOL = ["pt", "pt^g", "cantor()", "ord(w)", "cantor(ord(w))", "cantor^g(pt)", "ord(w^(2))"]
# limit ranks, where the fundamental sequences branch
_LIMITS = ["ord(w^(w)*2)", "cantor^g(ord(w*2+1),pt^g)", "mix(mix(pt,cantor();g),ord(w^(2));g)"]
# planar countable terms whose derivative stalls on deep markers below the cut
_STALLED = ["ord(w^(5))", "mix(mix(ord(w^(2));planar),pt;planar)", "sum(ord(w^(w)),ord(w^(3)*2))"]
# and ones whose derivative settles by depth 2, so that pairs differ in it
_SETTLED = ["ord(w*3)", "mix(pt;planar)", "mix(ord(w),pt;planar)", "sum(ord(w^(2)),pt)"]
_SHAPES = st.sampled_from(_LIMITS + _STALLED + _SETTLED).map(parse_term)


@st.composite
def _nested_mix_cases(draw):
    """A genus mix nested up to 6 deep, the same mix with every component
    list written in the other order, and a depth up to 6, where the sample
    tree stays within about 15,000 nodes."""
    sides = draw(st.lists(st.sampled_from(_NEST_POOL), min_size=1, max_size=6))
    text = perm = "cantor^g()"
    for side in sides:
        text, perm = f"mix({text},{side};g)", f"mix({side},{perm};g)"
    return (parse_term(text), parse_term(perm)), draw(st.integers(0, 6))


@settings(max_examples=60)
@given(st.one_of(random_terms, _SHAPES), st.integers(0, 4))
def test_bundle_matches_reference(t, depth):
    assert bundle(t, depth) == _ref_bundle(t, depth)
    # a bundle shows few exact counts (most grow with the depth), so the
    # folded counts are held to the built tree too
    facts, tr = _fold(t, depth, {}), truncate(t, depth)
    assert {str(c): n for c, n in facts.iso.items()} == _ref_isolated_counts(tr.roots)
    assert facts.rounds == _ref_rounds(tr)  # prunes tr


_DEPTHS = st.integers(0, 4)


@settings(max_examples=60)
@given(st.one_of(
    st.tuples(st.tuples(random_terms, random_terms), _DEPTHS),
    st.tuples(st.tuples(_SHAPES, _SHAPES), _DEPTHS),
    st.tuples(st.tuples(_SHAPES, random_terms), _DEPTHS),
    _nested_mix_cases(),
))
def test_equiv_invariants_matches_reference(case):
    (a, b), depth = case
    assert equiv_invariants(a, b, depth) == _ref_equiv_invariants(a, b, depth)
    assert equiv_invariants(a, a, depth) == _ref_equiv_invariants(a, a, depth)


def _ref_colors(t) -> frozenset:
    if isinstance(t, Pt):
        return frozenset((t.color,))
    if isinstance(t, Ord):
        return frozenset((Color.PLANAR,))
    if isinstance(t, Mix):
        return frozenset((t.limit_color,)).union(*map(_ref_colors, t.components))
    if isinstance(t, Cantor):
        return frozenset((t.color,)).union(*map(_ref_colors, t.components))
    return frozenset().union(*map(_ref_colors, t.parts))


def _ref_iso(t) -> frozenset:
    if isinstance(t, (Pt, Ord)):
        return _ref_colors(t)
    kids = t.parts if isinstance(t, Sum) else t.components
    return frozenset().union(*map(_ref_iso, kids))


def _ref_dust(t) -> bool:
    if isinstance(t, (Pt, Ord)):
        return False
    kids = t.parts if isinstance(t, Sum) else t.components
    return isinstance(t, Cantor) or any(map(_ref_dust, kids))


@given(st.lists(random_terms, min_size=1, max_size=4))
def test_hidden_facts_match_a_fresh_computation(terms):
    memo = {}  # shared, as within one truncation
    for t in terms + terms:
        assert _hidden(t, memo) == (_ref_colors(t), _ref_iso(t), _ref_dust(t))


# ---------------------------------------------------------------------------
# the sample-tree budget


@settings(max_examples=100)
@given(st.one_of(random_terms, st.sampled_from(_LIMITS).map(parse_term)), st.integers(0, 5))
def test_sample_nodes_counts_the_truncation(t, depth):
    assert sample_nodes(t, depth) == len(_flatten(truncate(t, depth).roots))


def test_a_truncation_past_the_budget_is_refused(monkeypatch):
    t = parse_term("mix(mix(pt,cantor();g),ord(w);g)")
    n = sample_nodes(t, 5)
    monkeypatch.setattr(oracle, "MAX_SAMPLE_NODES", n)
    assert len(_flatten(truncate(t, 5).roots)) == n
    assert equiv_invariants(t, t, 5) == "same"
    monkeypatch.setattr(oracle, "MAX_SAMPLE_NODES", n - 1)
    for call in (lambda: truncate(t, 5), lambda: equiv_invariants(t, t, 5),
                 lambda: tr_embeds(t, t, 5), lambda: bundle(t, 5)):
        with pytest.raises(ValidationError, match=f"maximum of {n - 1} nodes"):
            call()
