"""Term AST for colored second-countable Stone spaces (end spaces).

A term denotes a compact, metrizable, totally disconnected space whose points
carry one of two colors. `genus` marks the closed set of non-planar ends of a
surface; `planar` everything else.

Constructors:
  Pt(color)                  one isolated point
  Ord(rank, degree)          the countable compact space of Cantor-Bendixson
                             rank `rank` and degree `degree`, all planar
                             (n discrete points when rank = 0, else w^rank*n+1)
  Mix(components, color)     one-point compactification of a sequence of clopen
                             copies of the components, each appearing
                             infinitely often, converging to a new point
  Cantor(components, color)  Cantor set with copies of each component inserted
                             densely into the gaps
  Sum(parts)                 disjoint clopen union

Each term sets its hash, size, colors, countability and perfectness when it is
built, from its own fields and the facts its children already hold, so
`term_size`, `colors_of`, `has_genus`, `is_countable` and `is_perfect` read a
stored value and never walk the term.
"""

from __future__ import annotations

import enum
from typing import Union

from . import _Frozen, _set
from .ordinals import Cnf, ZERO, add, cmp, from_nat, mul_nat, omega_pow


class Color(enum.Enum):
    PLANAR = "planar"
    GENUS = "genus"

    def __str__(self) -> str:
        return self.value


class ValidationError(ValueError):
    pass


class GenusMismatch(ValueError):
    pass


class NotCountable(ValueError):
    pass


class NotAllPlanar(ValueError):
    pass


# Terms are immutable and shared, so each one computes its facts once, in its
# constructor, from its own fields and its children's facts: the hash, the size,
# the colors (a mask of `_BIT` values), whether it is countable and whether it
# is perfect. Its rendering is computed the first time `pretty` asks. `==`,
# `hash` and `repr` are `_Frozen`'s over each class's own slots, but `__hash__`
# returns the stored hash and `__eq__` compares fields without building key
# tuples, which make a deep nested-mix `verdict` a third slower. `Mix`, `Cantor`
# and `Sum` compare stored hashes first: unequal trees mostly differ at roots.
_BIT = {Color.PLANAR: 1, Color.GENUS: 2}
_COLOR_SETS = tuple(frozenset(c for c in Color if mask & _BIT[c]) for mask in range(4))


class _Node(_Frozen):
    __slots__ = ("_hash", "_size", "_text", "_colors", "_countable", "_perfect")

    def _seal(self, fields: tuple, kids=(), colors=0, countable=True, perfect=True):
        size = 1
        for k in kids:
            size += k._size
            colors |= k._colors
            countable = countable and k._countable
            perfect = perfect and k._perfect
        set_ = _set
        set_(self, "_hash", hash(fields))
        set_(self, "_size", size)
        set_(self, "_text", None)
        set_(self, "_colors", colors)
        set_(self, "_countable", countable)
        set_(self, "_perfect", perfect)

    # each subclass names it again: a class body that defines `__eq__` and no
    # `__hash__` makes its instances unhashable
    def __hash__(self) -> int:
        return self._hash


class Pt(_Node):
    __slots__ = ("color",)

    def __init__(self, color: Color = Color.PLANAR):
        _set(self, "color", color)
        self._seal((color,), colors=_BIT[color], perfect=False)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.color == other.color
        return NotImplemented

    __hash__ = _Node.__hash__


class Ord(_Node):
    __slots__ = ("rank", "degree")

    def __init__(self, rank: Cnf, degree: int):
        _set(self, "rank", rank)
        _set(self, "degree", degree)
        self._seal((rank, degree), colors=_BIT[Color.PLANAR], perfect=False)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rank == other.rank and self.degree == other.degree
        return NotImplemented

    __hash__ = _Node.__hash__


class Mix(_Node):
    __slots__ = ("components", "limit_color")

    def __init__(self, components: tuple, limit_color: Color):
        _set(self, "components", components)
        _set(self, "limit_color", limit_color)
        self._seal((components, limit_color), components, _BIT[limit_color])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self._hash == other._hash
                and self.components == other.components
                and self.limit_color == other.limit_color
            )
        return NotImplemented

    __hash__ = _Node.__hash__


class Cantor(_Node):
    __slots__ = ("components", "color")

    def __init__(self, components: tuple = (), color: Color = Color.PLANAR):
        _set(self, "components", components)
        _set(self, "color", color)
        self._seal((components, color), components, _BIT[color], countable=False)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self._hash == other._hash
                and self.components == other.components
                and self.color == other.color
            )
        return NotImplemented

    __hash__ = _Node.__hash__


class Sum(_Node):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        _set(self, "parts", parts)
        self._seal((parts,), parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._hash == other._hash and self.parts == other.parts
        return NotImplemented

    __hash__ = _Node.__hash__


Term = Union[Pt, Ord, Mix, Cantor, Sum]

INF = "inf"


class SurfaceDescriptor(_Frozen):
    __slots__ = ("genus", "ends")

    def __init__(self, genus, ends: Term):
        _set(self, "genus", genus)  # natural number or INF
        _set(self, "ends", ends)


# ---------------------------------------------------------------------------
# structural helpers


def term_size(t: Term) -> int:
    return t._size


def pretty(t: Term) -> str:
    """Render a term in the input grammar; parse(pretty(t)) == t."""
    text = t._text
    if text is None:
        text = _render(t)
        _set(t, "_text", text)
    return text


def _render(t: Term) -> str:
    if isinstance(t, Pt):
        return "pt^g" if t.color is Color.GENUS else "pt"
    if isinstance(t, Ord):
        lit = mul_nat(omega_pow(t.rank), t.degree)
        return f"ord({lit})"
    if isinstance(t, Mix):
        comps = ",".join(pretty(c) for c in t.components)
        word = "g" if t.limit_color is Color.GENUS else "planar"
        return f"mix({comps};{word})"
    if isinstance(t, Cantor):
        comps = ",".join(pretty(c) for c in t.components)
        flag = "^g" if t.color is Color.GENUS else ""
        return f"cantor{flag}({comps})"
    return "sum(" + ",".join(pretty(p) for p in t.parts) + ")"


def pretty_surface(s: SurfaceDescriptor) -> str:
    g = "inf" if s.genus == INF else str(s.genus)
    return f"surface {{ genus: {g}, ends: {pretty(s.ends)} }}"


def sort_components(comps) -> tuple:
    """Canonical multiset order: by (size, rendered form)."""
    return tuple(sorted(comps, key=lambda c: (term_size(c), pretty(c))))


def mk_mix(components, limit_color: Color) -> Mix:
    return Mix(sort_components(components), limit_color)


def mk_cantor(components, color: Color) -> Cantor:
    return Cantor(sort_components(components), color)


def colors_of(t: Term) -> frozenset:
    return _COLOR_SETS[t._colors]


def has_genus(t: Term) -> bool:
    return bool(t._colors & _BIT[Color.GENUS])


def is_countable(t: Term) -> bool:
    """No Cantor node anywhere."""
    return t._countable


def is_perfect(t: Term) -> bool:
    """No isolated points."""
    return t._perfect


# ---------------------------------------------------------------------------
# validation


def validate(t: Term) -> list:
    """Check every structural invariant; returns a list of violations."""
    out = []

    def walk(u):
        if isinstance(u, Pt):
            return
        if isinstance(u, Ord):
            if u.degree < 1:
                out.append(f"degree must be >= 1 at {pretty(u)}")
            return
        if isinstance(u, Mix):
            if not u.components:
                out.append("mix needs at least one component")
            if u.limit_color is not Color.GENUS and has_genus(u):
                out.append(f"genus closedness violated at {pretty(u)}")
            for c in u.components:
                walk(c)
            return
        if isinstance(u, Cantor):
            if u.color is not Color.GENUS and has_genus(u):
                out.append(f"genus closedness violated at {pretty(u)}")
            for c in u.components:
                walk(c)
            return
        if isinstance(u, Sum):
            if len(u.parts) < 2:
                out.append("sum needs at least two parts")
            for p in u.parts:
                walk(p)
            return
        out.append(f"unknown node {u!r}")

    walk(t)
    return out


def require_valid(t: Term) -> None:
    problems = validate(t)
    if problems:
        raise ValidationError("; ".join(problems))


def surface_check(genus, ends: Term) -> SurfaceDescriptor:
    """Build a surface descriptor, enforcing genus/color consistency."""
    require_valid(ends)
    genus_ends = has_genus(ends)
    if genus == INF and not genus_ends:
        raise GenusMismatch("infinite genus requires a genus-colored end")
    if genus != INF and genus_ends:
        raise GenusMismatch("finite genus forbids genus-colored ends")
    if genus != INF and (not isinstance(genus, int) or genus < 0):
        raise GenusMismatch("genus must be a natural number or inf")
    return SurfaceDescriptor(genus, ends)


# ---------------------------------------------------------------------------
# Cantor-Bendixson rank of countable all-planar terms


def cb_rank(t: Term):
    """(rank, degree) with t homeomorphic to the rank/degree-canonical space."""
    if not is_countable(t):
        raise NotCountable(pretty(t))
    if has_genus(t):
        raise NotAllPlanar(pretty(t))
    return _cb(t)


def _cb(t: Term):
    if isinstance(t, Pt):
        return ZERO, 1
    if isinstance(t, Ord):
        return t.rank, t.degree
    if isinstance(t, Mix):
        top = max((_cb(c)[0] for c in t.components), default=ZERO)
        return add(top, from_nat(1)), 1
    # Sum: highest rank wins; degrees merge at the top rank
    ranked = [_cb(p) for p in t.parts]
    top = max(r for r, _ in ranked)
    degree = sum(n for r, n in ranked if cmp(r, top) == 0)
    return top, degree
