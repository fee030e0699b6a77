import pytest

from catalog import CATALOG_SOURCES, NON_ASCII_DIGITS
from endscope.ordinals import ONE, OMEGA, from_nat
from endscope.parser import MAX_DIGITS, MAX_NESTING, LexError, ParseError, parse, parse_cnf, parse_term
from endscope.terms import (
    Color,
    Mix,
    Ord,
    Pt,
    SurfaceDescriptor,
    pretty,
    pretty_surface,
)


def test_parse_pretty_round_trip_on_catalog():
    for src in CATALOG_SOURCES:
        t = parse_term(src)
        assert parse_term(pretty(t)) == t


def test_point_flags():
    assert parse_term("pt") == Pt(Color.PLANAR)
    assert parse_term("pt^g") == Pt(Color.GENUS)


def test_ord_literal_reads_leading_summand():
    assert parse_term("ord(1)") == Ord(from_nat(0), 1)
    assert parse_term("ord(w)") == Ord(ONE, 1)
    assert parse_term("ord(w*2)") == Ord(ONE, 2)
    assert parse_term("ord(w^(w))") == Ord(OMEGA, 1)
    # a tail beyond the leading summand does not change the space
    assert parse_term("ord(w+1)") == Ord(ONE, 1)


def test_ord_zero_rejected():
    with pytest.raises((ParseError, LexError)):
        parse_term("ord(0)")


def test_mix_requires_limit_color():
    t = parse_term("mix(pt,pt^g;g)")
    assert isinstance(t, Mix)
    assert t.limit_color is Color.GENUS
    with pytest.raises(ParseError):
        parse_term("mix(pt,pt)")


def test_surface_descriptor():
    s = parse("surface { genus: inf, ends: mix(cantor^g(),cantor();g) }")
    assert isinstance(s, SurfaceDescriptor)
    assert s.genus == "inf"
    s2 = parse("surface { genus: 0, ends: ord(w) }")
    assert s2.genus == 0
    assert parse(pretty_surface(s)) == s


def test_parse_errors_are_syntax_errors_with_position():
    with pytest.raises(SyntaxError) as err:
        parse_term("sum(pt")
    assert ":" in str(err.value)
    with pytest.raises(ParseError):
        parse_term("cantor(pt,)")
    with pytest.raises(ParseError):
        parse_term("sum(pt)")  # sums need two parts


def test_lex_errors():
    with pytest.raises(LexError):
        parse_term("frob(pt)")
    with pytest.raises(LexError):
        parse_term("pt $")


def test_numbers_have_a_maximum_length():
    # past it int() would raise a bare ValueError
    big = "1" + "0" * (MAX_DIGITS - 1)
    assert parse_cnf(big) == from_nat(10 ** (MAX_DIGITS - 1))
    for text in (big + "0", f"ord(w*{big}0)", f"surface {{ genus: {big}0, ends: pt }}"):
        with pytest.raises(LexError, match=f"longer than {MAX_DIGITS} digits"):
            parse(text)


@pytest.mark.parametrize("text", NON_ASCII_DIGITS)
def test_only_ascii_digits_are_numbers(text):
    with pytest.raises(LexError, match="unknown character"):
        parse(text)


def test_whitespace_insensitive():
    a = parse_term("mix( cantor^g() , cantor() ; g )")
    b = parse_term("mix(cantor^g(),cantor();g)")
    assert a == b



def _wrap(times: int, wrap: str, inner: str) -> str:
    for _ in range(times):
        inner = wrap.format(inner)
    return inner


@pytest.mark.parametrize("outer,wrap,leaf", [
    ("{}", "mix({},pt;g)", "pt"),
    ("{}", "cantor({})", "pt"),
    ("{}", "sum({},pt)", "pt"),
    ("ord({})", "w^({})", "1"),  # exponents nest one level below the ord term
])
def test_nesting_has_a_maximum(outer, wrap, leaf):
    # the outermost term is one level, and each wrap adds one
    parse(outer.format(_wrap(MAX_NESTING - 1, wrap, leaf)))
    deeper = outer.format(_wrap(MAX_NESTING, wrap, leaf))
    with pytest.raises(ParseError, match=f"maximum of {MAX_NESTING} levels"):
        parse(deeper)
    with pytest.raises(ParseError, match=f"maximum of {MAX_NESTING} levels"):
        parse(f"surface {{ genus: inf, ends: {deeper} }}")


def test_exponents_alone_have_the_same_maximum():
    parse_cnf(_wrap(MAX_NESTING, "w^({})", "1"))
    with pytest.raises(ParseError, match=f"maximum of {MAX_NESTING} levels"):
        parse_cnf(_wrap(MAX_NESTING + 1, "w^({})", "1"))
