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

Each term sets its size, colors, countability and perfectness when it is
built, from its own fields and the facts its children already hold, so
`term_size`, `colors_of`, `has_genus`, `is_countable` and `is_perfect` read a
stored value and never walk the term.
"""

from __future__ import annotations

import enum
from typing import Union

from . import _Frozen, _Interned, _set
from .ordinals import Cnf, ZERO, add, from_nat, mul_nat, omega_pow


class Color(enum.Enum):
    PLANAR = "planar"
    GENUS = "genus"
    __hash__ = object.__hash__  # each member is a singleton

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


# Terms are interned (`_Interned`): equal terms are one object, so `==` is
# `is`, and a components tuple compares and hashes element by element by
# identity. Each term computes its facts once, when it is first built, from
# its own fields and its children's facts: the size, the colors (a mask of
# `_BIT` values), whether it is countable and whether it is perfect. Its
# rendering is computed the first time `pretty` asks.
_BIT = {Color.PLANAR: 1, Color.GENUS: 2}
_COLOR_SETS = tuple(frozenset(c for c in Color if mask & _BIT[c]) for mask in range(4))


class _Node(_Interned):
    __slots__ = ("_size", "_text", "_colors", "_countable", "_perfect")

    def _seal(self, kids=(), colors=0, countable=True, perfect=True):
        size = 1
        for k in kids:
            size += k._size
            colors |= k._colors
            countable = countable and k._countable
            perfect = perfect and k._perfect
        set_ = _set
        set_(self, "_size", size)
        set_(self, "_text", None)
        set_(self, "_colors", colors)
        set_(self, "_countable", countable)
        set_(self, "_perfect", perfect)


class Pt(_Node):
    __slots__ = ("color",)

    def __new__(cls, color: Color = Color.PLANAR):
        return cls._make((color,), colors=_BIT[color], perfect=False)


class Ord(_Node):
    __slots__ = ("rank", "degree")

    def __new__(cls, rank: Cnf, degree: int):
        return cls._make((rank, degree), colors=_BIT[Color.PLANAR], perfect=False)


class Mix(_Node):
    __slots__ = ("components", "limit_color")

    def __new__(cls, components: tuple, limit_color: Color):
        return cls._make((components, limit_color), components, _BIT[limit_color])


class Cantor(_Node):
    __slots__ = ("components", "color")

    def __new__(cls, components: tuple = (), color: Color = Color.PLANAR):
        return cls._make((components, color), components, _BIT[color], countable=False)


class Sum(_Node):
    __slots__ = ("parts",)

    def __new__(cls, parts: tuple):
        return cls._make((parts,), parts)


Term = Union[Pt, Ord, Mix, Cantor, Sum]

INF = "inf"


class SurfaceDescriptor(_Frozen):
    # genus: natural number or INF
    __slots__ = ("genus", "ends")


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
    degree = sum(n for r, n in ranked if r is top)
    return top, degree
