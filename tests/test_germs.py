import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import catalog, random_term
from endscope.examples_builtin import EXAMPLES
from endscope.germs import (
    NotGenusColored,
    NotSuccessor,
    Successor,
    UnknownClass,
    _close,
    cantor_type,
    derive_table,
    dominates,
    from_json,
    isolated_in_Eg,
    maximal_classes,
    predecessors,
    to_json,
)
from endscope.ordinals import OMEGA
from endscope.parser import parse_term
from endscope.terms import Cantor, Color, Mix, require_valid


def T(src: str):
    return derive_table(parse_term(src))


def test_mixed_cantor_table_structure():
    t = T("mix(cantor^g(),cantor();g)")
    assert t.ids() == ["cantor()", "cantor^g()", "mix(cantor(),cantor^g();g)"]
    assert maximal_classes(t) == {"mix(cantor(),cantor^g();g)"}
    assert dominates(t, "cantor()", "mix(cantor(),cantor^g();g)")
    assert dominates(t, "cantor^g()", "mix(cantor(),cantor^g();g)")
    assert not dominates(t, "mix(cantor(),cantor^g();g)", "cantor()")
    preds = predecessors(t, "mix(cantor(),cantor^g();g)")
    assert isinstance(preds, Successor)
    assert set(preds.preds) == {"cantor()", "cantor^g()"}
    assert cantor_type(t, "cantor()")
    assert cantor_type(t, "cantor^g()")
    assert not cantor_type(t, "mix(cantor(),cantor^g();g)")


def test_rank_classes_of_finite_rank_ordinal():
    t = T("ord(w^(2)*2)")
    assert t.ids() == ["rank(0)", "rank(1)", "rank(2)"]
    assert t.row("rank(2)").kind == "finite(2)"
    assert t.row("rank(1)").kind == "countable_discrete"
    assert maximal_classes(t) == {"rank(2)"}
    assert predecessors(t, "rank(2)") == Successor(("rank(1)",))
    assert predecessors(t, "rank(1)") == Successor(("rank(0)",))
    assert isinstance(predecessors(t, "rank(0)"), NotSuccessor)


def test_rank_family_for_limit_exponent():
    t = T("ord(w^(w))")
    assert t.ids() == ["rank(*)", "rank(w)"]
    fam = t.row("rank(*)")
    assert fam.family and fam.family_bound == OMEGA
    assert t.row("rank(w)").kind == "finite(1)"
    # family members instantiate: any concrete rank below the bound embeds
    assert dominates(t, "rank(3)", "rank(w)")
    assert not dominates(t, "rank(w)", "rank(3)")
    assert isinstance(predecessors(t, "rank(w)"), NotSuccessor)
    assert isinstance(predecessors(t, "rank(*)"), NotSuccessor)


def test_family_member_predecessors():
    t = T("ord(w^(w))")
    assert predecessors(t, "rank(3)") == Successor(("rank(2)",))
    assert isinstance(predecessors(t, "rank(w)"), NotSuccessor)


def test_isolated_in_genus_set():
    ln = T("pt^g")
    assert isolated_in_Eg(ln, "pt^g")
    ml = T("mix(cantor^g(),cantor();g)")
    assert not isolated_in_Eg(ml, "cantor^g()")
    with pytest.raises(NotGenusColored):
        isolated_in_Eg(ml, "cantor()")


def test_unknown_class_errors():
    t = T("cantor()")
    with pytest.raises(UnknownClass):
        predecessors(t, "nope")
    with pytest.raises(UnknownClass):
        dominates(t, "nope", "cantor()")


def test_leq_is_reflexive_and_transitive_on_catalog():
    for term in catalog():
        t = derive_table(term)
        ids = set(t.ids())
        for i in ids:
            assert (i, i) in t.leq
        for (a, b) in t.leq:
            for (c, d) in t.leq:
                if b == c:
                    assert (a, d) in t.leq
        assert t.acc <= t.leq


def test_genus_closedness_of_accumulation():
    for term in catalog():
        t = derive_table(term)
        for (a, x) in t.acc:
            if t.row(a).color is Color.GENUS:
                assert t.row(x).color is Color.GENUS, (term, a, x)


def test_single_maximal_class_for_mix_and_cantor_roots():
    rng = random.Random(11)
    seen = 0
    while seen < 60:
        term = random_term(rng)
        if not isinstance(term, (Mix, Cantor)):
            continue
        require_valid(term)
        seen += 1
        assert len(maximal_classes(derive_table(term))) == 1, term


def test_json_round_trip_is_stable():
    for src in ["mix(cantor^g(),cantor();g)", "ord(w^(w))", "cantor(pt,ord(w))"]:
        t = T(src)
        j = to_json(t)
        assert to_json(from_json(j)) == j


def test_from_json_completes_closures():
    doc = {
        "classes": [
            {"id": "a", "kind": "countable_discrete", "color": "planar"},
            {"id": "b", "kind": "cantor", "color": "planar"},
            {"id": "c", "kind": "cantor", "color": "planar"},
        ],
        "leq": [["a", "b"], ["b", "c"]],
        "acc": [["a", "b"]],
        "origin": "user-supplied",
    }
    t = from_json(doc)
    assert ("a", "c") in t.leq  # transitive completion
    assert ("b", "b") in t.leq  # reflexive completion


def test_from_json_rejects_bad_tables():
    with pytest.raises(ValueError):
        from_json({"classes": [], "leq": [], "acc": [], "origin": "user-supplied"})
    with pytest.raises(ValueError):
        from_json(
            {
                "classes": [{"id": "a", "kind": "weird", "color": "planar"}],
                "leq": [],
                "acc": [],
                "origin": "user-supplied",
            }
        )
    with pytest.raises(ValueError):
        from_json(
            {
                "classes": [{"id": "a", "kind": "cantor", "color": "planar"}],
                "leq": [["a", "zzz"]],
                "acc": [],
                "origin": "user-supplied",
            }
        )


def test_builtin_germ_table_examples_load():
    for name in ("unknown-6-2", "telescopefail-iii"):
        t = from_json(json.loads(EXAMPLES[name]))
        assert t.surface
        assert t.origin == "user-supplied"


def _fixpoint_close(pairs) -> set:
    """Reference transitive closure: compose pairs until nothing is added."""
    pairs = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


_IDS = st.integers(0, 11).map(lambda i: f"c{i}")


@settings(max_examples=300)
@given(st.sets(st.tuples(_IDS, _IDS), max_size=60))
def test_close_matches_fixpoint_closure(pairs):
    assert _close(pairs) == _fixpoint_close(pairs)


def test_row_index_matches_scan():
    for term in catalog() + [parse_term("ord(w^(w))"), parse_term("mix(ord(w^(w)),pt^g;g)")]:
        table = derive_table(term)
        for r in table.classes:
            assert table.row(r.id) is r
    assert derive_table(parse_term("ord(w^(w))")).family_row.id == "rank(*)"
    assert derive_table(parse_term("ord(w^(3))")).family_row is None
