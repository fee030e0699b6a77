import json
import random
import re
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catalog import catalog, cnfs, random_term, random_terms
from endscope import germs
from endscope.examples_builtin import EXAMPLES
from endscope.germs import (
    CANTOR,
    COUNTABLE,
    GermClass,
    GermTable,
    Kind,
    Member,
    NotGenusColored,
    NotSuccessor,
    Successor,
    UnknownClass,
    _close,
    _collected_rows,
    _interior_ids,
    _masks,
    _pair_leq,
    _row_leq,
    canon,
    cap,
    cantor_type,
    derive_table,
    dominates,
    emb,
    family_accumulates,
    from_json,
    isolated_in_Eg,
    maximal_classes,
    predecessors,
    to_json,
)
from endscope.normalize import normalize, normalize_structural
from endscope.ordinals import OMEGA, ONE, ZERO, Cnf, add, cmp, print_cnf
from endscope.parser import parse_term
from endscope.stability import Decomposition, Stable, stable_nbhd
from endscope.terms import Cantor, Color, Mix, Ord, Pt, Sum, ValidationError, require_valid
from endscope.verdict import TelescopingResult, telescoping

USER = "user-supplied"


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
    assert str(t.row("rank(2)").kind) == "finite(2)"
    assert str(t.row("rank(1)").kind) == "countable_discrete"
    assert maximal_classes(t) == {"rank(2)"}
    assert predecessors(t, "rank(2)") == Successor(("rank(1)",))
    assert predecessors(t, "rank(1)") == Successor(("rank(0)",))
    assert isinstance(predecessors(t, "rank(0)"), NotSuccessor)


def test_rank_family_for_limit_exponent():
    t = T("ord(w^(w))")
    assert t.ids() == ["rank(*)", "rank(w)"]
    fam = t.row("rank(*)")
    assert fam.family and fam.family_bound == OMEGA
    assert str(t.row("rank(w)").kind) == "finite(1)"
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


def _ref_close(pairs: set) -> set:
    """Transitive closure over successor sets, as `_close` was before the
    relations were bitmask rows."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    for k, via in succ.items():
        for out in succ.values():
            if k in out:
                out |= via
    return {(a, b) for a, out in succ.items() for b in out}


@settings(max_examples=300)
@given(st.sets(st.tuples(_IDS, _IDS), max_size=60))
def test_close_matches_fixpoint_closure(pairs):
    ids = [f"c{i}" for i in range(12)]
    closed = _close(_masks({c: i for i, c in enumerate(ids)}, pairs))
    got = {(ids[i], ids[j]) for i, mask in enumerate(closed) for j in range(12) if mask >> j & 1}
    assert got == _fixpoint_close(pairs)
    assert _ref_close(pairs) == got


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
    user = all(z.germ is None for z in table.classes)
    if user:
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
                pool.append(Member(member_cap.pred()))
        if not pool:
            return NotSuccessor("no classes below")
    maximal = [
        z for z in pool
        if not any(_ref_strictly(table, z, o) for o in pool if o is not z)
    ]
    if user and any(z.family for z in maximal):
        return NotSuccessor("infinitely many pairwise incomparable classes below")
    return Successor(tuple(sorted(z.id for z in maximal)))


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


# ---------------------------------------------------------------------------
# kinds: the JSON spelling and the merge, against the string forms they replace


def _ref_finite_count(kind: str) -> int:
    return int(re.fullmatch(r"finite\((\d+)\)", kind).group(1))


def _ref_kind_merge(a: str, b: str) -> str:
    """The merge of kind strings, as it was done before kinds were values."""
    if "cantor" in (a, b):
        return "cantor"
    if "countable_discrete" in (a, b):
        return "countable_discrete"
    return f"finite({_ref_finite_count(a) + _ref_finite_count(b)})"


def _one_class_table(kind) -> dict:
    return {"classes": [{"id": "a", "kind": kind, "color": "planar"}], "origin": USER}


# candidates for a kind: the accepted spellings, near misses, and digits of
# any script (`\d` in a pattern matches them, and int() reads them)
_KIND_TEXT = st.one_of(
    st.sampled_from(["countable_discrete", "cantor", "finite(0)", "finite(01)", "finite"]),
    st.from_regex(r"finite\(\d{1,4}\)", fullmatch=True),
    st.integers(1, 10**30).map(lambda n: f"finite({n})"),
    st.text(max_size=12),
)


@settings(max_examples=300)
@given(_KIND_TEXT)
def test_accepted_kind_strings_round_trip(kind):
    try:
        table = from_json(_one_class_table(kind))
    except ValueError:
        return
    assert to_json(table)["classes"][0]["kind"] == kind


_KIND_STRINGS = st.one_of(
    st.sampled_from(["countable_discrete", "cantor"]),
    st.integers(1, 50).map(lambda n: f"finite({n})"),
)


@settings(max_examples=200)
@given(_KIND_STRINGS, _KIND_STRINGS)
def test_kind_sum_matches_string_merge(a, b):
    ka, kb = (from_json(_one_class_table(k)).row("a").kind for k in (a, b))
    assert str(ka + kb) == _ref_kind_merge(a, b)


# ---------------------------------------------------------------------------
# instantiated family members against the answers of the ("member", b) tuple


def _ref_resolve(table, cid):
    if cid in table.position:
        return table.row(cid)
    return ("member", parse_term(f"ord(w^({cid[5:-1]}))").rank)


def _ref_member_leq(table, y, x) -> bool:
    """The tuple branches of `_pair_leq` before members were values."""
    bound = table.family_row.family_bound
    ym, xm = isinstance(y, tuple), isinstance(x, tuple)
    if not ym and not xm:
        return (y.id, x.id) in table.leq
    if ym and xm:
        return cmp(y[1], x[1]) <= 0
    if ym:
        if x.family:
            return True
        c = cap(x.germ) if x.germ is not None else None
        return c is not None and cmp(y[1], c) <= 0
    if y.family:
        return cmp(bound, add(x[1], ONE)) <= 0
    return y.rank is not None and cmp(y.rank, x[1]) <= 0


def _ref_member_stable(x, b):
    if b.is_zero():
        return Stable(Decomposition(x, "degenerate", Ord(ZERO, 1)))
    return Stable(Decomposition(x, "rank-blocks", Ord(b, 1), rank=b))


def _ref_member_telescoping(x, b):
    if b.is_zero():
        return TelescopingResult(x, "telescoping", case="i")
    return TelescopingResult(x, "not_telescoping", failure="F2")


@settings(max_examples=200)
@given(random_terms, cnfs, cnfs)
def test_family_members_answer_as_the_member_tuple(term, b, b2):
    table = derive_table(term)
    fam = table.family_row
    assume(fam is not None and cmp(b, fam.family_bound) < 0)
    x = f"rank({print_cnf(b)})"
    assert x not in table.position
    others = table.ids()
    if cmp(b2, fam.family_bound) < 0:
        others.append(f"rank({print_cnf(b2)})")
    for y in others:
        for a, c in ((x, y), (y, x)):
            expected = _ref_member_leq(table, _ref_resolve(table, a), _ref_resolve(table, c))
            assert dominates(table, a, c) == expected, (a, c)
    assert stable_nbhd(table, x) == _ref_member_stable(x, b)
    for surface in (True, False):
        assert telescoping(table, x, surface) == _ref_member_telescoping(x, b)
    assert not cantor_type(table, x)
    with pytest.raises(NotGenusColored):
        isolated_in_Eg(table, x)


def test_json_tables_instantiate_no_member():
    table = from_json(to_json(T("ord(w^(w))")))
    assert table.origin == "derived-from-term" and not table.has_germs
    with pytest.raises(UnknownClass):
        dominates(table, "rank(3)", "rank(w)")


# ---------------------------------------------------------------------------
# one row-preorder pass in _derive, against merging and comparing in two passes


def _two_pass_derive(term) -> GermTable:
    """`_row_leq` once to merge mutually embeddable rows, and once more over
    the rows that are left."""
    rows, bound = _collected_rows(normalize_structural(term))
    merged = []
    for r in rows:
        target = next((i for i, e in enumerate(merged)
                       if _row_leq(r, e, bound) and _row_leq(e, r, bound)), None)
        if target is None:
            merged.append(r)
            continue
        keep = merged[target]
        if keep.kind != CANTOR and r.kind == CANTOR:
            keep, r = r, keep
        merged[target] = GermClass(keep.id, keep.kind + r.kind, keep.color, keep.germ,
                                   keep.rank, keep.family, keep.family_bound)
    leq = {(a.id, b.id) for a in merged for b in merged if _row_leq(a, b, bound)}
    return _ref_table(merged, leq, _ref_acc_pairs(merged, bound))


def _ref_acc_pairs(rows, bound) -> set:
    """The `acc` pairs among merged rows, before the closure, as they were
    built before the relations were bitmask rows."""
    by_id = {r.id: r for r in rows}
    pairs = set()
    for x in rows:
        if x.family:
            if cmp(bound, ONE) > 0:
                pairs.add((x.id, x.id))
            continue
        g = x.germ
        if isinstance(g, Ord):
            if cmp(g.rank, ZERO) > 0:
                for z in rows:
                    if z.family or (z.rank is not None and cmp(z.rank, g.rank) < 0):
                        pairs.add((z.id, x.id))
            continue
        if isinstance(g, Pt):
            continue
        for src in _interior_ids(g, by_id, bound):
            if src in by_id:
                pairs.add((src, x.id))
        if isinstance(g, Cantor):
            pairs.add((x.id, x.id))
    return pairs


def _ref_table(rows, leq, acc) -> GermTable:
    """The table of `rows`, closing the pair sets as `_table` did."""
    acc = _ref_close(acc)
    leq = _ref_close(set(leq) | acc | {(r.id, r.id) for r in rows})
    rows = tuple(sorted(rows, key=lambda r: r.id))
    pos = {r.id: i for i, r in enumerate(rows)}
    return GermTable(rows, _masks(pos, leq), _masks(pos, acc))


# terms whose collected rows merge, which few random terms of budget 5 do
_MERGING = [
    "cantor^g(mix(ord(1);planar),mix(ord(3),cantor(pt),sum(pt^g,pt,cantor(sum(pt,pt)));g))",
    "sum(cantor^g(cantor(ord(w^(w*2))),mix(pt^g,mix(pt;g);g)),cantor(ord(w^(3)*2),"
    "ord(w^(3)*3)),mix(cantor^g(cantor(ord(w^(w*2)*2)));g))",
    "mix(pt,cantor^g(ord(2),pt),sum(ord(w^(w*2)*2),cantor^g(),sum(sum(pt^g,cantor(pt),"
    "sum(ord(w),pt^g)),mix(cantor(),cantor^g(ord(2));g)));g)",
]


@settings(max_examples=300)
@given(st.one_of(random_terms, st.sampled_from(_MERGING).map(parse_term)))
def test_derive_matches_two_pass_reference(term):
    assert derive_table(term) == _two_pass_derive(term)


@settings(max_examples=300)
@given(st.one_of(random_terms, st.sampled_from(_MERGING).map(parse_term)))
def test_a_derived_class_accumulates_exactly_when_its_kind_is_not_finite(term):
    # compactness: infinitely many points accumulate somewhere; `absorbable`
    # reads accumulation off the kind because of this
    table = derive_table(term)
    sources = {z for z, _ in table.acc}
    assert sources == {r.id for r in table.classes if not r.kind.is_finite}


# ---------------------------------------------------------------------------
# the embedding memo and the rank comparison, against the recursion they replace


def _ref_cap(t):
    """`cap` as it was when `emb` recursed without a memo."""
    if isinstance(t, Pt):
        return ZERO if t.color is Color.PLANAR else None
    if isinstance(t, Ord):
        return t.rank
    kids = t.parts if isinstance(t, Sum) else t.components
    best = None
    for k in kids:
        c = _ref_cap(k)
        if c is not None and (best is None or cmp(best, c) < 0):
            best = c
    return best


def _ref_emb(s, t) -> bool:
    """`emb` as it was before it was memoized."""
    t = canon(t)
    if s == t:
        return True
    if isinstance(s, Ord):
        c = _ref_cap(t)
        return c is not None and cmp(s.rank, c) <= 0
    if _ref_cantor_sub(s, t):
        return True
    if isinstance(t, Sum):
        return any(_ref_emb(s, p) for p in t.parts)
    if isinstance(t, (Mix, Cantor)):
        return any(_ref_emb(s, c) for c in t.components)
    return False


def _ref_cantor_sub(s, t) -> bool:
    if not (isinstance(s, Cantor) and isinstance(t, Cantor)):
        return False
    if s.color is not t.color:
        return False
    return all(any(_ref_emb(c, comp) for comp in t.components) for c in s.components)


@settings(max_examples=150)
@given(random_terms, random_terms)
def test_memoized_emb_matches_the_recursion(t1, t2):
    found = [r.germ for t in (t1, t2) for r in derive_table(t).classes if r.germ is not None]
    pairs = [(s, t) for s in found for t in found]
    expected = [_ref_emb(s, t) for s, t in pairs]
    assert [emb(s, t) for s, t in pairs] == expected  # the process-wide memo
    emb.cache_clear()
    assert [emb(s, t) for s, t in pairs] == expected  # cold
    assert [emb(s, t) for s, t in pairs] == expected  # warm


def _rank_rows(b: Cnf, label: str) -> list:
    """Rank b as a derived rank row, as a `Member`, and as a row whose id is
    `label`, so that equal ranks meet under different ids too."""
    germ = Ord(b, 1)
    row = GermClass(f"rank({print_cnf(b)})", COUNTABLE, Color.PLANAR, germ, rank=b)
    return [row, Member(b), GermClass(label, COUNTABLE, Color.PLANAR, germ, rank=b)]


@settings(max_examples=200)
@given(cnfs, cnfs, cnfs)
def test_rank_rows_compare_as_their_germs_embed(a, b, bound):
    for x, y in ((a, b), (b, a), (a, a)):
        expected = _ref_emb(Ord(x, 1), Ord(y, 1))
        for rx in _rank_rows(x, "x"):
            for ry in _rank_rows(y, "y"):
                assert _row_leq(rx, ry, bound) == expected, (rx, ry)


_MEMOS = (canon, emb, germs._classes, derive_table, germs._derive)


def _clear_memos():
    for f in _MEMOS:
        f.cache_clear()


def _body_runs(memoized, run) -> list:
    """The arguments of every run of the body behind `memoized` while `run()`
    executes, however the body was reached."""
    return _runs(memoized.__wrapped__.__code__, run)


def _runs(code, run) -> list:
    """The arguments of every run of the function whose code is `code` while
    `run()` executes."""
    names = code.co_varnames[: code.co_argcount]
    runs = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            runs.append(tuple(frame.f_locals[n] for n in names))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return runs


def test_one_derivation_decides_each_embedding_once():
    _clear_memos()
    term = parse_term("mix(mix(mix(mix(cantor(pt),pt;g),ord(w);g),cantor^g(pt^g);g),pt;g)")
    runs = _body_runs(emb, lambda: derive_table(term))
    # no pair is decided twice, and every decision, the recursion's included,
    # is a miss of the memo
    assert runs and len(set(runs)) == len(runs) == emb.cache_info().misses


def test_rank_comparisons_grow_with_the_rank_rows_not_their_pairs():
    # the rank rows compare through one sort, so doubling the tower about
    # doubles the comparisons; comparing every pair of rows would quadruple them
    counts = []
    for n in (100, 200, 400):
        _clear_memos()
        term = parse_term(f"ord(w^({n}))")
        counts.append(len(_runs(cmp.__code__, lambda: derive_table(term))))
    assert all(b <= 2.5 * a for a, b in zip(counts, counts[1:])), counts


# ---------------------------------------------------------------------------
# derive_table reads its cache before validating


def test_invalid_terms_raise_on_every_call_and_are_never_cached():
    bad = Mix((Pt(Color.GENUS),), Color.PLANAR)
    derive_table.cache_clear()
    for _ in range(2):
        with pytest.raises(ValidationError):
            derive_table(bad)
    info = derive_table.cache_info()
    assert info.misses == 2 and info.currsize == 0


def test_a_cached_table_is_returned_without_validating(monkeypatch):
    term = parse_term("sum(mix(ord(w),pt;g),sum(pt,cantor(pt)))")
    table = derive_table(term)
    calls = []
    for name in ("require_valid", "normalize_structural"):
        monkeypatch.setattr(germs, name, lambda t, name=name: calls.append(name))
    assert derive_table(term) is table
    assert calls == []


@pytest.mark.parametrize("normal_first", [False, True])
def test_a_term_and_its_normal_form_share_one_table(normal_first):
    _clear_memos()
    term = parse_term("sum(sum(pt,pt),mix(ord(w),ord(w);g),pt)")
    normal = normalize_structural(term)
    assert normal != term
    if normal_first:
        derive_table(normal)
    assert derive_table(term) is derive_table(normal)


# ---------------------------------------------------------------------------
# the accumulation index and the one table builder, against scans of the pairs


def _ref_acc_into(table) -> list:
    return [{z for z, x in table.acc if x == r.id} for r in table.classes]


def _ref_isolated_in_Eg(table, cid) -> bool:
    return not any(x == cid and table.row(z).color is Color.GENUS for z, x in table.acc)


def _ref_family_accumulates(table, cid) -> bool:
    return any(z.family and z.id != cid and (z.id, cid) in table.acc for z in table.classes)


def _ref_case_i(table, r) -> bool:
    """The case-i test `telescoping` makes on a row that is neither of cantor
    kind nor a derived family row."""
    return r.color is Color.PLANAR and not any(x == r.id for _, x in table.acc)


def _check_acc_queries(table):
    assert [{z.id for z in table.rows_in(m)} for m in table.acc_into] == _ref_acc_into(table)
    for r in table.classes:
        assert family_accumulates(table, r.id) == _ref_family_accumulates(table, r.id), r.id
        if r.color is Color.GENUS:
            assert isolated_in_Eg(table, r.id) == _ref_isolated_in_Eg(table, r.id), r.id
        if r.kind != CANTOR and not (r.family and r.family_bound is not None):
            case_i = telescoping(table, r.id).case == "i"
            assert case_i == _ref_case_i(table, r), r.id


_FAMILY_TERMS = [
    "ord(w^(w))",
    "mix(ord(w^(w)),pt^g;g)",
    "sum(cantor^g(ord(1),pt^g),ord(w^(w)))",
    "cantor(ord(w^(w+1)*2),pt)",
    "sum(mix(ord(w^(w*2)),cantor^g();g),ord(3))",
]


@st.composite
def user_docs(draw):
    """A random user table: classes c0.., leq and acc pairs among them, with
    no genus class accumulating onto a planar one."""
    rows = draw(st.lists(_USER_CLASS, min_size=1, max_size=7))
    ids = st.sampled_from(range(len(rows)))
    leq = draw(st.lists(st.tuples(ids, ids), max_size=20))
    acc = draw(st.lists(st.tuples(ids, ids), max_size=12))
    return {
        "classes": [
            {"id": f"c{i}", "kind": kind, "color": color, "family": family}
            for i, (kind, color, family) in enumerate(rows)
        ],
        "leq": [[f"c{y}", f"c{x}"] for y, x in leq],
        "acc": [
            [f"c{z}", f"c{x}"] for z, x in acc
            if rows[z][1] == "planar" or rows[x][1] == "genus"
        ],
        "origin": USER,
    }


@settings(max_examples=200)
@given(st.one_of(random_terms, st.sampled_from(_FAMILY_TERMS).map(parse_term)))
def test_accumulation_index_matches_pair_scans_on_derived_tables(term):
    table = derive_table(term)
    _check_acc_queries(table)
    _check_acc_queries(from_json(dict(to_json(table), origin=USER)))


@settings(max_examples=200)
@given(user_docs())
def test_accumulation_index_matches_pair_scans_on_user_tables(doc):
    _check_acc_queries(from_json(doc))


@settings(max_examples=200)
@given(user_docs())
def test_json_relations_are_the_closure_of_the_listed_pairs(doc):
    table = from_json(doc)
    acc = {tuple(p) for p in doc["acc"]}
    identity = {(c["id"], c["id"]) for c in doc["classes"]}
    assert table.acc == _fixpoint_close(acc)
    assert table.leq == _fixpoint_close({tuple(p) for p in doc["leq"]} | acc | identity)


# ---------------------------------------------------------------------------
# class sets and R4, against the walk and the table lookups they replace


class _RefCollector:
    """The accumulator that one recursive walk of every subterm filled."""

    def __init__(self):
        self.germs = {}  # canonical non-rank germ -> Kind
        self.ranks = {}  # Cnf rank -> Kind
        self.fam_bound = None

    def add_germ(self, g, kind):
        self.germs[g] = self.germs[g] + kind if g in self.germs else kind

    def add_rank(self, b, kind):
        self.ranks[b] = self.ranks[b] + kind if b in self.ranks else kind

    def bump_family(self, bound):
        if self.fam_bound is None or cmp(self.fam_bound, bound) < 0:
            self.fam_bound = bound


def _ref_collect(t, ctx, col):
    """The classes of t gathered by walking every subterm, with no memo."""
    base = COUNTABLE if ctx else None
    if isinstance(t, Pt):
        if t.color is Color.GENUS:
            col.add_germ(Pt(Color.GENUS), base or Kind("finite", 1))
        else:
            col.add_rank(ZERO, base or Kind("finite", 1))
        return
    if isinstance(t, Ord):
        if t.rank.is_nat():
            k = ZERO
            while cmp(k, t.rank) < 0:
                col.add_rank(k, COUNTABLE)
                k = add(k, ONE)
            col.add_rank(t.rank, base or Kind("finite", t.degree))
        else:
            col.bump_family(add(t.rank, ONE) if ctx else t.rank)
            if not ctx:
                col.add_rank(t.rank, Kind("finite", t.degree))
        return
    if isinstance(t, Mix):
        for c in t.components:
            _ref_collect(c, True, col)
        g = canon(t)
        if isinstance(g, Ord):
            col.add_rank(g.rank, base or Kind("finite", 1))
        elif isinstance(g, Cantor):
            col.add_germ(g, CANTOR)
        else:
            col.add_germ(g, base or Kind("finite", 1))
        return
    if isinstance(t, Cantor):
        for c in t.components:
            _ref_collect(c, True, col)
        col.add_germ(canon(t), CANTOR)
        return
    for p in t.parts:
        _ref_collect(p, ctx, col)


def _ref_absorbable(a, b) -> bool:
    """R4 read off the derived tables of both siblings."""
    ta, tb = derive_table(a), derive_table(b)
    fam_b = tb.family_row
    for row in ta.classes:
        if row.family:
            if fam_b is None or cmp(fam_b.family_bound, row.family_bound) < 0:
                return False
            continue
        if row.rank is not None:
            if fam_b is not None and cmp(row.rank, fam_b.family_bound) < 0:
                continue
            i = tb.position.get(f"rank({print_cnf(row.rank)})")
            match = None if i is None else tb.classes[i]
        else:
            match = next((r for r in tb.classes if r.germ is not None and r.rank is None
                          and emb(row.germ, r.germ) and emb(r.germ, row.germ)), None)
        if match is None or match.kind.is_finite:
            return False
    return True


def _subterms(t) -> list:
    kids = t.parts if isinstance(t, Sum) else getattr(t, "components", ())
    return [t] + [s for k in kids for s in _subterms(k)]


_SIDES = ["pt", "pt^g", "cantor()", "ord(w)", "cantor(ord(w))", "cantor^g(pt)", "ord(w^(2))",
          "mix(pt,pt;g)", "ord(3)"]


@st.composite
def _nested_mixes(draw):
    """A genus mix nested up to 8 deep over a few sides, which R4 shrinks."""
    text = draw(st.sampled_from(["pt", "pt^g", "cantor^g()"]))
    for side in draw(st.lists(st.sampled_from(_SIDES), min_size=1, max_size=8)):
        text = f"mix({text},{side};g)"
    return parse_term(text)


_WHOLE = st.one_of(random_terms, st.sampled_from(_MERGING).map(parse_term), _nested_mixes())
_SUBTERMS = _WHOLE.flatmap(lambda t: st.sampled_from(_subterms(t)))


@settings(max_examples=300)
@given(_SUBTERMS, st.booleans())
def test_class_sets_match_the_recursive_walk(term, ctx):
    col = _RefCollector()
    _ref_collect(term, ctx, col)
    got = germs._classes(term, ctx)
    assert (got.ranks, got.germs, got.bound) == (col.ranks, col.germs, col.fam_bound)


# siblings of one term, and pairs of unrelated terms
_PAIRS = st.one_of(
    _WHOLE.flatmap(lambda t: st.tuples(*[st.sampled_from(_subterms(t))] * 2)),
    st.tuples(_SUBTERMS, _SUBTERMS),
)


@settings(max_examples=400)
@given(_PAIRS)
def test_absorbable_matches_the_table_lookup(pair):
    a, b = pair
    assert germs.absorbable(a, b) == _ref_absorbable(a, b)
    assert germs.absorbable(b, a) == _ref_absorbable(b, a)


def _left_nested_mix(levels: int):
    term = "pt"
    for _ in range(levels - 1):
        term = f"mix({term},pt;g)"
    return parse_term(term)


def test_rewriting_builds_no_table(monkeypatch):
    built = []
    inner = germs._table

    def counting(*args, **kw):
        built.append(args)
        return inner(*args, **kw)

    monkeypatch.setattr(germs, "_table", counting)
    _clear_memos()
    term = _left_nested_mix(20)
    normalize(term)
    canon(term)
    assert built == []


def test_one_derivation_collects_each_subterm_once():
    _clear_memos()
    term = _left_nested_mix(20)
    runs = _body_runs(germs._classes, lambda: derive_table(term))
    assert runs and len(set(runs)) == len(runs) == germs._classes.cache_info().misses


def test_every_memo_shares_one_bound():
    for f in _MEMOS:
        assert f.cache_info().maxsize == germs.MEMO_ENTRIES, f.__name__
