import ast
import inspect
import json
import re
from dataclasses import make_dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalog import catalog, cnfs, random_terms, raw_terms
import endscope
from endscope import germs
from endscope.examples_builtin import EXAMPLES
from endscope.exponents import DagNode, ExponentDag, constants
from endscope.germs import (
    CANTOR,
    COUNTABLE,
    GermClass,
    GermTable,
    Kind,
    Member,
    NotSuccessor,
    Successor,
    derive_table,
    from_json,
    predecessors,
    to_json,
)
from endscope.ordinals import ONE, OMEGA, ZERO, Cnf, add, from_nat, mul_nat, omega_pow, print_cnf
from endscope.parser import Token, lex, parse, parse_term
from endscope.stability import (
    Annulus,
    AnnulusDecomposition,
    Brick,
    Decomposition,
    ShiftRecipe,
    Stable,
    Unknown,
    Unstable,
    annuli,
    shift,
    stable_nbhd,
)
from endscope.swindle import SlotLayout, SlotWord, em_layout, slot_word
from endscope.terms import (
    Cantor,
    Color,
    GenusMismatch,
    Mix,
    NotAllPlanar,
    NotCountable,
    Ord,
    Pt,
    Sum,
    SurfaceDescriptor,
    ValidationError,
    cb_rank,
    colors_of,
    has_genus,
    is_countable,
    is_perfect,
    mk_cantor,
    mk_mix,
    pretty,
    require_valid,
    surface_check,
    term_size,
    validate,
)
from endscope.verdict import TelescopingResult, Verdict, surface_verdict, telescoping


def test_catalog_is_valid():
    for t in catalog():
        assert validate(t) == []
        assert term_size(t) <= 12


def test_color_predicates():
    t = parse_term("mix(ord(w),pt^g;g)")
    assert colors_of(t) == frozenset({Color.PLANAR, Color.GENUS})
    assert has_genus(t)
    assert not has_genus(parse_term("cantor(ord(w))"))


def test_countable_and_perfect():
    assert is_countable(parse_term("mix(ord(w);planar)"))
    assert not is_countable(parse_term("mix(cantor();g)"))
    assert is_perfect(parse_term("cantor()"))
    assert is_perfect(parse_term("cantor^g(cantor())"))
    assert not is_perfect(parse_term("cantor(pt)"))
    assert not is_perfect(parse_term("ord(w)"))


def test_genus_closedness_validation():
    bad = Mix((Pt(Color.GENUS),), Color.PLANAR)
    assert validate(bad)
    with pytest.raises(ValidationError):
        require_valid(bad)
    bad_cantor = mk_cantor([Pt(Color.GENUS)], Color.PLANAR)
    assert validate(bad_cantor)


def test_component_ordering_is_canonical():
    a = mk_mix([parse_term("cantor()"), Pt(Color.GENUS)], Color.GENUS)
    b = mk_mix([Pt(Color.GENUS), parse_term("cantor()")], Color.GENUS)
    assert a == b


def test_surface_check_both_directions():
    ends_genus = parse_term("pt^g")
    ends_planar = parse_term("ord(w)")
    s = surface_check("inf", ends_genus)
    assert s.genus == "inf"
    assert surface_check(0, ends_planar).ends == ends_planar
    with pytest.raises(GenusMismatch):
        surface_check("inf", ends_planar)
    with pytest.raises(GenusMismatch):
        surface_check(0, ends_genus)
    with pytest.raises(GenusMismatch):
        surface_check(-1, ends_planar)


def test_cb_rank_base_cases():
    assert cb_rank(Pt(Color.PLANAR)) == (ZERO, 1)
    assert cb_rank(parse_term("ord(w*2)")) == (ONE, 2)
    assert cb_rank(parse_term("sum(pt,pt)")) == (ZERO, 2)


def test_cb_rank_mix_raises_rank_by_one():
    assert cb_rank(parse_term("mix(pt;planar)")) == (ONE, 1)
    assert cb_rank(parse_term("mix(ord(w);planar)")) == (from_nat(2), 1)
    assert cb_rank(parse_term("mix(ord(w^(w));planar)")) == (add(OMEGA, ONE), 1)


def test_cb_rank_sum_merges_top_degrees():
    assert cb_rank(parse_term("sum(ord(w),ord(w))")) == (ONE, 2)
    assert cb_rank(parse_term("sum(ord(w^(2)),ord(w))")) == (from_nat(2), 1)
    assert cb_rank(parse_term("sum(ord(w),pt)")) == (ONE, 1)


def test_cb_rank_domain_errors():
    with pytest.raises(NotCountable):
        cb_rank(parse_term("cantor()"))
    with pytest.raises(NotAllPlanar):
        cb_rank(parse_term("pt^g"))


def test_ord_degree_validated():
    assert validate(Ord(ONE, 0))
    assert validate(Sum((Pt(Color.PLANAR),))) or True  # single-part sums
    # pretty of every catalog term mentions no spaces
    for t in catalog():
        assert " " not in pretty(t)


# ---------------------------------------------------------------------------
# cached hash, size and rendering against the methods a frozen dataclass
# generates and the recursive renderers they replace

# the fields of each immutable class of the package, in the order of its
# constructor's parameters; those that it compares, for the classes with `==`
_FIELDS = {
    # terms and ordinals
    Pt: ("color",),
    Ord: ("rank", "degree"),
    Mix: ("components", "limit_color"),
    Cantor: ("components", "color"),
    Sum: ("parts",),
    Cnf: ("summands",),
    SurfaceDescriptor: ("genus", "ends"),
    Token: ("kind", "text", "line", "col"),
    # germ tables
    Kind: ("name", "count"),
    GermClass: ("id", "kind", "color", "germ", "rank", "family", "family_bound"),
    Successor: ("preds",),
    NotSuccessor: ("reason",),
    GermTable: ("classes", "up", "acc_out", "origin", "surface"),
    Member: ("rank",),
    germs._Classes: ("ranks", "germs", "bound"),
    # stability and verdicts
    Decomposition: ("basepoint", "shape", "germ", "rank"),
    Stable: ("decomposition",),
    Unstable: ("obstruction",),
    Unknown: ("note",),
    Brick: ("prefix", "period"),
    ShiftRecipe: ("brick",),
    Annulus: ("index", "contents", "genus", "term"),
    AnnulusDecomposition: ("basepoint", "case", "annuli"),
    TelescopingResult: ("id", "status", "case", "failure"),
    Verdict: ("ac", "basis", "per_class", "witness", "notes", "table", "stability"),
    DagNode: ("name", "deps", "compute", "note"),
    ExponentDag: ("nodes", "values"),
    # commutator checks
    SlotWord: ("assignment",),
    SlotLayout: ("red", "blue_blocks"),
}

# plain frozen dataclasses with the same names and fields: their hash, == and
# repr are the ones dataclasses generates
_PLAIN = {cls: make_dataclass(cls.__name__, names, frozen=True) for cls, names in _FIELDS.items()}


def _plain(x, cnf: bool = True):
    """x rebuilt from the plain dataclasses; Cnf values too when `cnf`."""
    if isinstance(x, tuple):
        return tuple(_plain(v, cnf) for v in x)
    if type(x) in _PLAIN and (cnf or not isinstance(x, Cnf)):
        return _PLAIN[type(x)](*(_plain(v, cnf) for v in _field_tuple(x)))
    return x


def _subterms(t):
    yield t
    for k in getattr(t, "components", ()) + getattr(t, "parts", ()):
        yield from _subterms(k)


def _field_tuple(x) -> tuple:
    return tuple(getattr(x, name) for name in _FIELDS[type(x)])


def _ref_print_cnf(a) -> str:
    out = []
    for exp, coeff in a.summands:
        if exp.is_zero():
            out.append(str(coeff))
            continue
        piece = "w" if exp == ONE else f"w^({_ref_print_cnf(exp)})"
        out.append(piece + (f"*{coeff}" if coeff > 1 else ""))
    return "+".join(out) or "0"


def _ref_pretty(t) -> str:
    if isinstance(t, Pt):
        return "pt^g" if t.color is Color.GENUS else "pt"
    if isinstance(t, Ord):
        return f"ord({_ref_print_cnf(mul_nat(omega_pow(t.rank), t.degree))})"
    if isinstance(t, Mix):
        word = "g" if t.limit_color is Color.GENUS else "planar"
        return f"mix({','.join(map(_ref_pretty, t.components))};{word})"
    if isinstance(t, Cantor):
        flag = "^g" if t.color is Color.GENUS else ""
        return f"cantor{flag}({','.join(map(_ref_pretty, t.components))})"
    return f"sum({','.join(map(_ref_pretty, t.parts))})"


def _ref_size(t) -> int:
    return 1 + sum(_ref_size(k) for k in getattr(t, "components", ()) + getattr(t, "parts", ()))


@given(raw_terms)
def test_cached_hash_is_the_generated_hash(t):
    for u in _subterms(t):
        assert hash(u) == hash(_field_tuple(u)) == hash(_plain(u))


@given(cnfs)
def test_cnf_cached_hash_and_rendering(a):
    assert hash(a) == hash(_field_tuple(a)) == hash(_plain(a))
    for _ in range(2):  # computed, then cached
        assert print_cnf(a) == _ref_print_cnf(a)
        assert repr(a) == f"Cnf<{_ref_print_cnf(a)}>"


@given(raw_terms, raw_terms)
def test_equality_and_repr_are_the_generated_ones(a, b):
    assert (a == b) == (_plain(a) == _plain(b))
    copy = type(a)(*_field_tuple(a))
    assert copy == a and hash(copy) == hash(a)
    assert repr(a) == repr(_plain(a, cnf=False))


@given(raw_terms)
def test_cached_size_and_rendering_match_a_fresh_computation(t):
    for _ in range(2):  # computed, then cached
        for u in _subterms(t):
            assert term_size(u) == _ref_size(u)
            assert pretty(u) == _ref_pretty(u)


# ---------------------------------------------------------------------------
# stored facts against the recursive walkers they replace


def _ref_colors_of(t) -> frozenset:
    if isinstance(t, Pt):
        return frozenset({t.color})
    if isinstance(t, Ord):
        return frozenset({Color.PLANAR})
    if isinstance(t, Mix):
        out = frozenset({t.limit_color})
        for c in t.components:
            out |= _ref_colors_of(c)
        return out
    if isinstance(t, Cantor):
        out = frozenset({t.color})
        for c in t.components:
            out |= _ref_colors_of(c)
        return out
    out = frozenset()
    for p in t.parts:
        out |= _ref_colors_of(p)
    return out


def _ref_has_genus(t) -> bool:
    return Color.GENUS in _ref_colors_of(t)


def _ref_is_countable(t) -> bool:
    """No Cantor node anywhere."""
    if isinstance(t, (Pt, Ord)):
        return True
    if isinstance(t, Cantor):
        return False
    kids = t.components if isinstance(t, Mix) else t.parts
    return all(_ref_is_countable(k) for k in kids)


def _ref_is_perfect(t) -> bool:
    """No isolated points."""
    if isinstance(t, (Pt, Ord)):
        return False
    if isinstance(t, Mix):
        return all(_ref_is_perfect(c) for c in t.components)
    if isinstance(t, Cantor):
        return all(_ref_is_perfect(c) for c in t.components)
    return all(_ref_is_perfect(p) for p in t.parts)


_FLIP = {Color.PLANAR: Color.GENUS, Color.GENUS: Color.PLANAR}


def _rebuilt(t):
    """t rebuilt through its constructor: as it is, and with its own color
    flipped."""
    fields = dict(zip(_FIELDS[type(t)], _field_tuple(t)))
    yield type(t)(**fields)
    for name in ("color", "limit_color"):
        if name in fields:
            yield type(t)(**{**fields, name: _FLIP[fields[name]]})


@given(st.one_of(raw_terms, random_terms))
def test_stored_facts_match_the_recursive_walkers(t):
    for u in _subterms(t):
        for v in (u, *_rebuilt(u)):
            assert colors_of(v) == _ref_colors_of(v)
            assert has_genus(v) == _ref_has_genus(v)
            assert is_countable(v) == _ref_is_countable(v)
            assert is_perfect(v) == _ref_is_perfect(v)
            assert term_size(v) == _ref_size(v)


@given(raw_terms, raw_terms)
def test_equal_color_sets_are_one_shared_object(a, b):
    assert (colors_of(a) == colors_of(b)) == (colors_of(a) is colors_of(b))


def test_different_terms_share_their_color_set():
    a, b = parse_term("mix(ord(w),pt^g;g)"), parse_term("sum(pt,cantor^g())")
    assert a != b and colors_of(a) is colors_of(b)


# ---------------------------------------------------------------------------
# the value classes of the other modules against the methods a frozen
# dataclass generates


def _values() -> dict:
    """Instances of each class, some equal and some not: the ones the engine
    builds from the built-in examples, one of every immutable class, and
    copies rebuilt from their fields."""
    surface = parse(EXAMPLES["mona-lisa"])
    table = derive_table(surface.ends)
    user = from_json(json.loads(EXAMPLES["unknown-6-2"]))
    tables = [table, derive_table(surface.ends), derive_table(parse_term("ord(w^(2))")), user,
              from_json(to_json(table)), from_json(json.loads(EXAMPLES["unknown-6-2"]))]
    ids = table.ids()
    stable = [stable_nbhd(table, x) for x in ids]
    rows = [r for t in tables for r in t.classes]
    out = {
        SurfaceDescriptor: [surface, parse(EXAMPLES["mona-lisa"]), parse(EXAMPLES["flute"])],
        Kind: [Kind("finite", 2), Kind("finite", 2), Kind("finite", 3), COUNTABLE, CANTOR,
               Kind("cantor")],
        GermClass: rows,
        GermTable: tables,
        Member: [Member(ONE), Member(from_nat(1)), Member(OMEGA)],
        Successor: [predecessors(t, x) for t in tables for x in t.ids()]
        + [Successor(("a",)), Successor(("a",))],
        NotSuccessor: [NotSuccessor(), NotSuccessor(""), NotSuccessor("x")],
        Stable: stable + [stable_nbhd(table, x) for x in ids],
        Decomposition: [v.decomposition for v in stable],
        Brick: [Brick(), Brick((), (1, 0)), Brick((1,), (0, 1))],
        SlotWord: [slot_word({0: [1]}), slot_word({0: [1, 2, -2]}), slot_word({1: [1]})],
        TelescopingResult: [telescoping(t, x) for t in tables[:2] for x in t.ids()],
        Unstable: [stable_nbhd(user, "Linf")],
        Unknown: [stable_nbhd(user, "p"), Unknown()],
    }
    for x in _every_value_class():
        out.setdefault(type(x), []).append(x)
    for cls, xs in out.items():
        xs += [cls(*_field_tuple(x)) for x in xs if type(x) is cls]
    return out


def test_value_classes_compare_hash_and_show_as_the_generated_methods():
    values = _values()
    assert set(values) == set(_FIELDS)
    for cls, xs in values.items():
        for x in xs:
            twin = _plain(x)
            # Cnf keeps its own `Cnf<...>` repr, inside other values too
            assert repr(x) == repr(_plain(x, cnf=False)), cls
            try:
                expected = hash(twin)
            except TypeError:  # a dict or list field
                with pytest.raises(TypeError):
                    hash(x)
            else:
                assert hash(x) == expected, cls
            for y in xs:
                assert (x == y) == (twin == _plain(y)), (cls, x, y)


def _every_value_class() -> list:
    """One instance of each immutable class."""
    surface = parse(EXAMPLES["mona-lisa"])
    table = derive_table(surface.ends)
    user = from_json(json.loads(EXAMPLES["unknown-6-2"]))
    dec = annuli(surface, "cantor()", depth=2)
    dag = constants()
    layout, h1, _ = em_layout(2)
    stable = stable_nbhd(table, "cantor()")
    return [
        Pt(), Ord(ONE, 2), surface.ends, Cantor(), Sum((Pt(), Pt())), ONE, surface,
        lex("pt")[0], CANTOR, table.classes[0], predecessors(table, table.ids()[-1]),
        NotSuccessor("none"), table, Member(ONE), germs._classes(surface.ends, False),
        stable, stable.decomposition, stable_nbhd(user, "Linf"), stable_nbhd(user, "p"),
        Brick(), shift(Brick()), dec, dec.annuli[0], telescoping(table, "cantor()"),
        surface_verdict(surface), dag, dag.nodes[0], h1, layout,
    ]


def test_every_value_class_is_immutable():
    values = _every_value_class()
    assert {type(x) for x in values} == set(_FIELDS)
    for x in values:
        for name in _FIELDS[type(x)] + ("unknown_field",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        for name in _FIELDS[type(x)]:
            with pytest.raises(AttributeError):
                delattr(x, name)


# `_Frozen` owns the constructor, `==`, `hash` and `repr`, and `_Interned`
# makes `==` identity over the hash it stores; `Cnf` keeps its own `Cnf<...>`
# repr, and only that, and `Brick` its own constructor, which checks bricks
# read from certificates
_OWN_VALUE_METHODS = {"_Frozen": {"__eq__", "__hash__", "__repr__"},
                      "_Interned": {"__eq__", "__hash__"}, "Cnf": {"__repr__"},
                      "Brick": {"__init__"}}


def _frozen_class_names(trees) -> set:
    """The names of `_Frozen` and of the classes in `trees` that derive from
    it, read off the base names."""
    bases = {cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
             for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)}
    frozen = {"_Frozen"}
    while more := {name for name, names in bases.items() if names & frozen} - frozen:
        frozen |= more
    return frozen


def test_only_frozen_and_the_fast_paths_define_value_methods():
    paths = sorted(Path(endscope.__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    frozen = _frozen_class_names(trees.values())
    assert {"Token", "GermTable", "Verdict", "Brick", "Pt", "Cnf"} <= frozen
    found = set()
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            checked = {"__eq__", "__hash__", "__repr__"}
            if cls.name in frozen:
                checked.add("__init__")
            own = _OWN_VALUE_METHODS.get(cls.name, set())
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names = {item.name}
                elif isinstance(item, ast.Assign):  # `__hash__ = ...`
                    names = {t.id for t in item.targets if isinstance(t, ast.Name)}
                else:
                    continue
                for name in names & checked - own:
                    found.add(f"{path.name}:{item.lineno} {cls.name}.{name}")
    assert not found, sorted(found)


# the classes that build in a constructor of their own: the terms and `Cnf`
# in `__new__`, through the intern table, and `Brick`
_OWN_CONSTRUCTORS = {Pt, Ord, Mix, Cantor, Sum, Cnf, Brick}


def test_generated_constructors_take_the_fields_in_order():
    for x in _every_value_class():
        cls, fields = type(x), _field_tuple(x)
        params = inspect.signature(cls).parameters.values()
        assert [p.name for p in params] == list(cls._fields) == list(_FIELDS[cls]), cls
        by_name = cls(**dict(zip(cls._fields, fields)))
        assert by_name == cls(*fields) and _field_tuple(by_name) == fields, cls
        if cls in _OWN_CONSTRUCTORS:
            continue
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        assert defaults == getattr(cls, "_defaults", {}), cls
        required = len(fields) - len(defaults)
        assert _field_tuple(cls(*fields[:required])) == fields[:required] + tuple(
            defaults[name] for name in cls._fields[required:]), cls
        init = f"{cls.__qualname__}.__init__()"
        with pytest.raises(TypeError, match=re.escape(f"{init} got an unexpected keyword")):
            cls(*fields, unknown_field=None)
        if required:
            with pytest.raises(TypeError, match=re.escape(f"{init} missing {required} required")):
                cls()
