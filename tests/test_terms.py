from dataclasses import fields, make_dataclass, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalog import catalog, cnfs, random_terms, raw_terms
from endscope.ordinals import ONE, OMEGA, ZERO, Cnf, add, from_nat, mul_nat, omega_pow, print_cnf
from endscope.parser import parse_term
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
# cached hash, size and rendering against the generated dataclass methods and
# the recursive renderers they replace

# plain frozen dataclasses with the same names and compared fields: their
# hash, == and repr are the ones dataclasses generates
_PLAIN = {
    cls: make_dataclass(cls.__name__, [f.name for f in fields(cls) if f.compare], frozen=True)
    for cls in (Pt, Ord, Mix, Cantor, Sum, Cnf)
}


def _plain(x, cnf: bool = True):
    """x rebuilt from the plain dataclasses; Cnf values too when `cnf`."""
    if isinstance(x, tuple):
        return tuple(_plain(v, cnf) for v in x)
    if type(x) in _PLAIN and (cnf or not isinstance(x, Cnf)):
        cls = _PLAIN[type(x)]
        return cls(*(_plain(getattr(x, f.name), cnf) for f in fields(cls)))
    return x


def _subterms(t):
    yield t
    for k in getattr(t, "components", ()) + getattr(t, "parts", ()):
        yield from _subterms(k)


def _field_tuple(x) -> tuple:
    return tuple(getattr(x, f.name) for f in fields(x) if f.compare)


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
    """t rebuilt by dataclasses.replace: as it is, and with its own color flipped."""
    yield replace(t)
    for name in ("color", "limit_color"):
        if hasattr(t, name):
            yield replace(t, **{name: _FLIP[getattr(t, name)]})


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
