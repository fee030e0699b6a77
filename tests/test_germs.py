import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import catalog, random_term, random_terms
from endscope.examples_builtin import EXAMPLES
from endscope.germs import (
    USER,
    NotGenusColored,
    NotSuccessor,
    Successor,
    UnknownClass,
    _close,
    _pair_leq,
    cap,
    cantor_type,
    derive_table,
    dominates,
    from_json,
    isolated_in_Eg,
    maximal_classes,
    predecessors,
    to_json,
)
from endscope.ordinals import OMEGA, ONE, add, cmp, print_cnf
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


# ---------------------------------------------------------------------------
# predecessors and maximal classes against all-pairs scans through _pair_leq


def _ref_strictly(table, a, b) -> bool:
    return _pair_leq(table, a, b) and not _pair_leq(table, b, a)


def _ref_maximal_classes(table) -> set:
    return {
        r.id
        for r in table.classes
        if not any(_ref_strictly(table, r, o) for o in table.classes if o.id != r.id)
    }


def _ref_predecessors(table, x):
    """Every candidate against every other one, as the scan over pairs did."""
    r = table.row(x)
    if r.family:
        return predecessors(table, x)  # not a maximality question
    below = [z for z in table.classes if z.id != r.id and _ref_strictly(table, z, r)]
    pool = list(below)
    if table.origin == USER:
        if not below:
            return NotSuccessor("no classes below")
    else:
        pool = [z for z in below if not z.family]
        fam = table.family_row
        c = cap(r.germ) if fam is not None else None
        if c is not None:
            hi = add(c, ONE)
            member_cap = hi if cmp(hi, fam.family_bound) < 0 else fam.family_bound
            covered = any(
                z.germ is not None and cap(z.germ) is not None
                and cmp(member_cap, add(cap(z.germ), ONE)) <= 0
                for z in pool
            )
            if not member_cap.is_zero() and not covered:
                if not member_cap.is_successor():
                    return NotSuccessor("limit rank family below with no covering class")
                pool.append(("member", member_cap.pred()))
        if not pool:
            return NotSuccessor("no classes below")
    maximal = [
        z for z in pool
        if not any(_ref_strictly(table, z, o) for o in pool if o is not z)
    ]
    if table.origin == USER and any(z.family for z in maximal):
        return NotSuccessor("infinitely many pairwise incomparable classes below")
    return Successor(tuple(sorted(
        f"rank({print_cnf(z[1])})" if isinstance(z, tuple) else z.id for z in maximal
    )))


def _check_against_reference(table):
    assert maximal_classes(table) == _ref_maximal_classes(table)
    for r in table.classes:
        assert predecessors(table, r.id) == _ref_predecessors(table, r.id), r.id


@settings(max_examples=150)
@given(random_terms)
def test_predecessors_match_all_pairs_on_derived_tables(term):
    table = derive_table(term)
    _check_against_reference(table)
    _check_against_reference(from_json(dict(to_json(table), origin=USER)))


_USER_CLASS = st.tuples(
    st.sampled_from(["countable_discrete", "cantor", "finite(1)", "finite(3)"]),
    st.sampled_from(["planar", "genus"]),
    st.booleans(),
)


@settings(max_examples=200)
@given(
    st.lists(_USER_CLASS, min_size=1, max_size=8),
    st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
    st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
)
def test_predecessors_match_all_pairs_on_user_tables(rows, leq, acc):
    n = len(rows)
    colors = [color for _, color, _ in rows]
    doc = {
        "classes": [
            {"id": f"c{i}", "kind": kind, "color": color, "family": family}
            for i, (kind, color, family) in enumerate(rows)
        ],
        "leq": [[f"c{y}", f"c{x}"] for y, x in sorted(leq) if y < n and x < n],
        # genus classes accumulate only onto genus classes
        "acc": [
            [f"c{z}", f"c{x}"] for z, x in sorted(acc)
            if z < n and x < n and (colors[z] == "planar" or colors[x] == "genus")
        ],
        "origin": USER,
    }
    try:
        table = from_json(doc)
    except ValueError:  # the closure made genus accumulate onto planar
        return
    _check_against_reference(table)
