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

Each term sets its size, colors, countability, perfectness, validity
problems and, when it is countable and all planar, its Cantor-Bendixson
(rank, degree) when it is built, from its own fields and the facts its
children already hold, so `term_size`, `colors_of`, `has_genus`,
`is_countable`, `is_perfect`, `validate` and `cb_rank` read a stored value
and never walk the term.
"""

from __future__ import annotations

import enum
from typing import Union

from . import _Frozen, _Interned, _set
from .ordinals import Cnf, ONE, ZERO, add, mul_nat, omega_pow


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
# `_BIT` values), whether it is countable and whether it is perfect, its
# validity problems, and the (rank, degree) of a countable all-planar term.
# Its rendering is computed the first time `pretty` asks.
_BIT = {Color.PLANAR: 1, Color.GENUS: 2}
_PLANAR, _GENUS = _BIT[Color.PLANAR], _BIT[Color.GENUS]
_COLOR_SETS = tuple(frozenset(c for c in Color if mask & _BIT[c]) for mask in range(4))
_POINT = (ZERO, 1)


class _Node(_Interned):
    __slots__ = ("_size", "_text", "_colors", "_countable", "_perfect", "_problems", "_cb")

    def _seal(self, kids=(), colors=0, countable=True, perfect=True, flaw=None, cb=None):
        """`colors` is the node's own color bit (0 for a Sum), `flaw` the
        template of its own problem, if any, and `cb` the (rank, degree) of a
        leaf; an inner node's comes from its children's."""
        size = 1
        below = 0
        problems = ()
        for k in kids:
            size += k._size
            below |= k._colors
            countable = countable and k._countable
            perfect = perfect and k._perfect
            problems += k._problems
        set_ = _set
        set_(self, "_size", size)
        set_(self, "_text", None)
        set_(self, "_colors", colors | below)
        set_(self, "_countable", countable)
        set_(self, "_perfect", perfect)
        if colors == _PLANAR and below & _GENUS:  # a planar Mix or Cantor over genus
            flaw = "genus closedness violated at {}"
        if flaw is not None:  # the node's own problem comes before its children's
            problems = (flaw.format(pretty(self)),) + problems
        set_(self, "_problems", problems)
        if not countable or (colors | below) & _GENUS:
            cb = None
        elif cb is None:
            top = max((k._cb[0] for k in kids), default=ZERO)
            if colors:  # a Mix: one limit point over its components
                cb = add(top, ONE), 1
            else:  # a Sum: the highest rank wins; degrees merge at the top rank
                cb = top, sum(k._cb[1] for k in kids if k._cb[0] is top)
        set_(self, "_cb", cb)


class Pt(_Node):
    __slots__ = ("color",)

    def __new__(cls, color: Color = Color.PLANAR):
        return cls._make((color,), colors=_BIT[color], perfect=False, cb=_POINT)


class Ord(_Node):
    __slots__ = ("rank", "degree")

    def __new__(cls, rank: Cnf, degree: int):
        flaw = "degree must be >= 1 at {}" if degree < 1 else None
        return cls._make((rank, degree), colors=_PLANAR, perfect=False, flaw=flaw,
                         cb=(rank, degree))


class Mix(_Node):
    __slots__ = ("components", "limit_color")

    def __new__(cls, components: tuple, limit_color: Color):
        flaw = None if components else "mix needs at least one component"
        return cls._make((components, limit_color), components, _BIT[limit_color], flaw=flaw)


class Cantor(_Node):
    __slots__ = ("components", "color")

    def __new__(cls, components: tuple = (), color: Color = Color.PLANAR):
        return cls._make((components, color), components, _BIT[color], countable=False)


class Sum(_Node):
    __slots__ = ("parts",)

    def __new__(cls, parts: tuple):
        flaw = "sum needs at least two parts" if len(parts) < 2 else None
        return cls._make((parts,), parts, flaw=flaw)


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
    return bool(t._colors & _GENUS)


def is_countable(t: Term) -> bool:
    """No Cantor node anywhere."""
    return t._countable


def is_perfect(t: Term) -> bool:
    """No isolated points."""
    return t._perfect


# ---------------------------------------------------------------------------
# validation


def validate(t: Term) -> list:
    """Every violated structural invariant, the node's own before its
    children's, in order; read from the term, not walked."""
    return list(t._problems)


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
    return t._cb
