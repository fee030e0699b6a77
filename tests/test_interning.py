"""Terms and ordinals are interned: two values with equal fields are one
object, so `==` is `is` and the hash is the identity hash, and the table of
live values forgets a value that nothing else holds."""

import cProfile
import gc
import pstats
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalog import catalog, cnfs, random_terms, raw_terms
import endscope
from endscope.cli import run
from endscope.germs import canon
from endscope.normalize import normalize
from endscope.ordinals import ONE, ZERO, Cnf, OrdinalError, add, from_nat, fundamental, mul_nat
from endscope.parser import parse_cnf, parse_term
from endscope.terms import Color, Ord, Pt, Sum, pretty, validate


def _tree(x):
    """x as nested tuples of class names and field values: equal exactly when
    the values are equal field by field, all the way down."""
    if isinstance(x, tuple):
        return tuple(_tree(v) for v in x)
    if isinstance(x, endscope._Frozen):
        return (type(x).__name__, *(_tree(getattr(x, name)) for name in x._fields))
    return x


def _subterms(t):
    yield t
    for k in getattr(t, "components", ()) + getattr(t, "parts", ()):
        yield from _subterms(k)


def _assert_equal_exactly_when_identical(values):
    trees = [_tree(v) for v in values]
    for a, ta in zip(values, trees):
        for b, tb in zip(values, trees):
            assert (a == b) is (a is b) is (ta == tb), (a, b)


def _term_views(t) -> list:
    """t and its subterms, each rebuilt by position and by keyword, and, where
    valid, through the parser, `normalize` and `canon`."""
    out = []
    for u in _subterms(t):
        fields = {name: getattr(u, name) for name in u._fields}
        out += [u, type(u)(*fields.values()), type(u)(**fields)]
        if not validate(u):
            out += [parse_term(pretty(u)), normalize(u), canon(u)]
    return out


@given(st.one_of(raw_terms, random_terms, st.sampled_from(catalog())))
def test_terms_are_equal_exactly_when_they_are_one_object(t):
    _assert_equal_exactly_when_identical(_term_views(t))


def _cnf_views(a) -> list:
    out = [a, Cnf(a.summands), Cnf(summands=a.summands), add(a, ZERO), add(ZERO, a), mul_nat(a, 1)]
    if not a.is_zero():
        out.append(parse_cnf(str(a)))
    if a.is_limit():
        out += [fundamental(a, k) for k in (1, 2, 3)]
    return out + [add(x, ONE) for x in out]


@given(cnfs, cnfs)
def test_ordinals_are_equal_exactly_when_they_are_one_object(a, b):
    _assert_equal_exactly_when_identical(_cnf_views(a) + _cnf_views(b))


@pytest.mark.parametrize("summands", [
    ((ZERO, 1), (ONE, 1)),  # increasing exponents
    ((ONE, 1), (ONE, 2)),  # repeated exponent
    ((ONE, 0),),  # coefficient 0
])
def test_an_invalid_ordinal_is_refused_on_every_call_and_never_stored(summands):
    errors = []  # each keeps the frames of its call alive, and what they built
    for _ in range(3):
        with pytest.raises(OrdinalError) as error:
            Cnf(summands)
        errors.append(error)
    assert (Cnf, (summands,)) not in endscope._Interned._live


def test_the_table_forgets_a_term_that_nothing_holds():
    live = endscope._Interned._live
    gc.collect()
    before = len(live)
    # a rank that no memoized function has seen, so no memo holds the term
    t = Sum((Pt(Color.GENUS), Ord(from_nat(918_273_645), 7)))
    ref = weakref.ref(t)
    assert len(live) > before
    del t
    gc.collect()
    assert ref() is None
    assert len(live) == before


def test_a_verdict_makes_no_python_level_hash_call(tmp_path, capsys):
    # interned values and `Color` hash by identity, in C: a profile of a
    # verdict that builds and compares thousands of terms shows no `__hash__`
    # of the package or of `enum` (operation counts gate, wall time reports)
    text = "pt"
    for _ in range(50):
        text = f"mix(pt,{text};g)"
    f = tmp_path / "mix50.txt"
    f.write_text(text)
    prof = cProfile.Profile()
    assert prof.runcall(run, ["verdict", str(f)]) == 0
    capsys.readouterr()
    calls = {f"{path}:{line}": v[1] for (path, line, name), v in pstats.Stats(prof).stats.items()
             if name == "__hash__" and ("endscope" in path or path.endswith("enum.py"))}
    assert calls == {}
