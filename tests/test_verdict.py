import json

import pytest

from endscope.examples_builtin import EXAMPLES
from endscope.germs import derive_table, from_json
from endscope.parser import parse, parse_term
from endscope.exponents import REQUIRED_CONSTANTS, constants
from endscope.terms import ValidationError
from endscope.verdict import CASE_NOTE, EQUIV_NOTE, stone_verdict, surface_verdict, telescoping


def _table(src: str):
    return derive_table(parse_term(src))


def test_telescoping_case_i_isolated_planar():
    t = _table("pt")
    res = telescoping(t, "rank(0)")
    assert res.status == "telescoping" and res.case == "i"


def test_telescoping_case_ii_cantor():
    t = _table("cantor^g()")
    res = telescoping(t, "cantor^g()")
    assert res.status == "telescoping" and res.case == "ii"


def test_telescoping_case_iii_successor_of_cantor_types():
    t = _table("mix(cantor^g(),cantor();g)")
    res = telescoping(t, "mix(cantor(),cantor^g();g)")
    assert res.status == "telescoping" and res.case == "iii"


def test_isolated_genus_end_fails_f1():
    t = _table("pt^g")
    res = telescoping(t, "pt^g")
    assert res.status == "not_telescoping" and res.failure == "F1"


def test_countable_class_below_fails_f2():
    t = _table("ord(w)")
    res = telescoping(t, "rank(1)")
    assert res.status == "not_telescoping" and res.failure == "F2"


def test_family_accumulation_fails_f3():
    t = from_json(json.loads(EXAMPLES["telescopefail-iii"]))
    res = telescoping(t, "x")
    assert res.status == "not_telescoping" and res.failure == "F3"


def test_genus_isolation_clause_only_binds_surfaces():
    t = _table("mix(cantor();g)")
    on_surface = telescoping(t, "mix(cantor();g)", surface_context=True)
    as_stone = telescoping(t, "mix(cantor();g)", surface_context=False)
    assert on_surface.status == "not_telescoping"
    assert as_stone.status == "telescoping" and as_stone.case == "iii"


def test_failure_case_rejects_telescoping_basepoints():
    res = telescoping(_table("cantor()"), "cantor()")
    assert res.status == "telescoping" and res.failure is None
    # a genus class of cantor kind is case ii even when isolated among genus
    # ends, which only a user table can say
    lone = from_json({"classes": [{"id": "c", "kind": "cantor", "color": "genus"}]})
    res = telescoping(lone, "c")
    assert (res.status, res.case, res.failure) == ("telescoping", "ii", None)


def test_surface_verdict_goldens():
    assert surface_verdict(parse(EXAMPLES["mona-lisa"])).ac == "holds"
    ln = surface_verdict(parse(EXAMPLES["loch-ness"]))
    assert ln.ac == "fails"
    assert ln.witness == "curve-separating-genus"
    fl = surface_verdict(parse(EXAMPLES["flute"]))
    assert fl.ac == "fails"
    assert fl.witness == "puncture-count curve"
    assert surface_verdict(parse(EXAMPLES["blooming-cantor"])).ac == "holds"


def test_surface_verdict_on_user_tables():
    unknown = surface_verdict(from_json(json.loads(EXAMPLES["unknown-6-2"])))
    assert unknown.ac == "unknown"
    assert unknown.basis == "open-question"
    tf = surface_verdict(from_json(json.loads(EXAMPLES["telescopefail-iii"])))
    assert tf.ac == "fails"
    assert tf.basis == "sufficiency"
    assert tf.witness == "pair-of-pants chain"


def test_surface_verdict_basis_and_notes():
    v = surface_verdict(parse(EXAMPLES["mona-lisa"]))
    assert v.basis == "telescoping-criterion"
    assert v.notes == (CASE_NOTE, EQUIV_NOTE)
    assert len(v.per_class) == 3
    assert all(p.status == "telescoping" for p in v.per_class)


def test_surface_verdict_input_guards():
    with pytest.raises(ValidationError):
        surface_verdict(parse_term("ord(w)"))
    stone_only = json.loads(EXAMPLES["unknown-6-2"])
    stone_only["surface"] = False
    with pytest.raises(ValidationError):
        surface_verdict(from_json(stone_only))


def test_stone_verdict_holds_for_derived_spaces():
    for src in ("ord(w)", "ord(w^(2)*2)", "ord(w^(w))", "cantor()", "cantor(pt,ord(w))"):
        v = stone_verdict(parse_term(src))
        assert v.ac == "holds", src
        assert v.basis == "stable-stone"


def test_stone_verdict_rejects_surfaces():
    with pytest.raises(ValidationError):
        stone_verdict(parse(EXAMPLES["flute"]))


def test_constants_match_required_values():
    dag = constants()
    for name, value in REQUIRED_CONSTANTS.items():
        assert dag.value(name) == value, name


def test_constants_dag_shape():
    dag = constants()
    names = [n.name for n in dag.nodes]
    assert len(names) == len(set(names))
    seen = set()
    for node in dag.nodes:
        assert all(d in seen for d in node.deps), node.name
        seen.add(node.name)
        assert node.note
    proof_only = [n.name for n in dag.nodes if n.compute is None]
    assert set(proof_only) == {"baire-category", "diagonal-cover", "inductive-step"}
    assert all(dag.value(n) is None for n in proof_only)
