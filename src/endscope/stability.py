"""Stability certificates: decompositions, brick shifts and annulus
decompositions.

A neighborhood U of a point x is stable when U minus x splits into clopen
pieces Y_1, Y_2, ... descending to x, with each piece embedding into the
next, such that any infinite subsequence of pieces reassembles to U minus x.
Certificates here are symbolic recipes (piece terms indexed by round), and
the checker replays every obligation at a finite depth.
"""

from __future__ import annotations

import math
import random

from . import _Frozen, _set
from .germs import (
    GermTable,
    canon,
    derive_table,
    family_accumulates,
    _resolve,
)
from .ordinals import Cnf, ZERO, cmp, fundamental, print_cnf
from .terms import (
    Color,
    Mix,
    Ord,
    Pt,
    Sum,
    SurfaceDescriptor,
    Term,
    ValidationError,
    has_genus,
    mk_mix,
    pretty,
)


class NotTelescoping(ValueError):
    def __init__(self, failure: str):
        super().__init__(f"basepoint is not telescoping (failure {failure})")
        self.failure = failure


DEFAULT_DEPTH = 20


# ---------------------------------------------------------------------------
# decompositions


class Decomposition(_Frozen):
    # shape: "degenerate" | "rounds" | "shells" | "rank-blocks"
    # germ: neighborhood type U of the basepoint (None for degenerate Pt)
    # rank: for rank-blocks
    __slots__ = ("basepoint", "shape", "germ", "rank")
    _defaults = {"rank": None}

    def piece(self, k: int):
        """Term of the k-th clopen piece Y_k (1-based); None when degenerate."""
        if self.shape == "degenerate":
            return None
        if self.shape == "rounds":
            comps = self.germ.components
            return comps[0] if len(comps) == 1 else Sum(comps)
        if self.shape == "shells":
            return self.germ
        below = (
            self.rank.pred()
            if self.rank.is_successor()
            else fundamental(self.rank, k)
        )
        return Ord(below, 1)


class Stable(_Frozen):
    __slots__ = ("decomposition",)


# `certify` prints the repr of an `Unstable` or `Unknown` result when it
# refuses a class
class Unstable(_Frozen):
    __slots__ = ("obstruction",)


class Unknown(_Frozen):
    __slots__ = ("note",)
    _defaults = {"note": ""}


def stable_nbhd(table: GermTable, x: str):
    row = _resolve(table, x)
    if not table.has_germs:
        if family_accumulates(table, row.id):
            return Unstable(
                "cofinally many incomparable maximal germs accumulate at " + row.id
            )
        return Unknown("no decomposition witness derivable from a bare table")
    if row.family:
        bound = row.family_bound
        rep = bound.pred() if bound.is_successor() else fundamental(bound, 1)
        return Stable(_rank_decomposition(x, rep))
    g = row.germ
    if isinstance(g, Pt) or (isinstance(g, Ord) and g.rank.is_zero()):
        return Stable(Decomposition(x, "degenerate", g))
    if isinstance(g, Ord):
        return Stable(_rank_decomposition(x, g.rank))
    if isinstance(g, Mix):
        return Stable(Decomposition(x, "rounds", g))
    return Stable(Decomposition(x, "shells", g))


def _rank_decomposition(x: str, b: Cnf) -> Decomposition:
    if b.is_zero():
        return Decomposition(x, "degenerate", Ord(ZERO, 1))
    return Decomposition(x, "rank-blocks", Ord(b, 1), rank=b)


def _piece_embeds(a: Term, b: Term) -> bool:
    """Y embedding used between consecutive pieces."""
    if a is None or b is None:
        return a is None and b is None
    ca, cb = canon(a), canon(b)
    if ca == cb:
        return True
    if isinstance(ca, Ord) and isinstance(cb, Ord):
        c = cmp(ca.rank, cb.rank)
        return c < 0 or (c == 0 and ca.degree <= cb.degree)
    return False


def check_decomposition(dec: Decomposition, depth: int = DEFAULT_DEPTH, seed: int = 0) -> list:
    """Replay every certificate obligation; returns a list of failures."""
    problems = []
    if dec.shape == "degenerate":
        return problems
    pieces = [dec.piece(k) for k in range(1, depth + 1)]
    # index sanity: rounds occupy distinct indices descending to the basepoint
    if len(pieces) != depth:
        problems.append("piece family truncated")
    for k in range(depth - 1):
        if not _piece_embeds(pieces[k], pieces[k + 1]):
            problems.append(f"no embedding Y_{k + 1} -> Y_{k + 2}")
    if dec.shape == "rank-blocks":
        for k, p in enumerate(pieces):
            if cmp(p.rank, dec.rank) >= 0:
                problems.append(f"piece {k + 1} does not sit strictly below the basepoint rank")
    rng = random.Random(seed)
    for trial in range(3):
        size = rng.randint(4, 8)
        picks = sorted(rng.sample(range(1, 3 * depth), size))
        problems.extend(_check_reassembly(dec, picks))
    return problems


def _check_reassembly(dec: Decomposition, picks: list) -> list:
    """Any infinite subsequence of pieces rebuilds the punctured neighborhood."""
    pieces = [dec.piece(k) for k in picks]
    if dec.shape in ("rounds", "shells"):
        color = (
            dec.germ.limit_color if isinstance(dec.germ, Mix) else dec.germ.color
        )
        rebuilt = canon(mk_mix(pieces, color))
        if rebuilt != canon(dec.germ):
            return [
                f"subsequence {picks} reassembles to {pretty(rebuilt)}, "
                f"not {pretty(dec.germ)}"
            ]
        return []
    # rank blocks: a subsequence of the fundamental sequence keeps supremum b
    out = []
    if dec.rank.is_successor():
        rebuilt = canon(mk_mix(pieces, Color.PLANAR))
        if rebuilt != Ord(dec.rank, 1):
            out.append(f"constant blocks reassemble to {pretty(rebuilt)}")
        return out
    ranks = [p.rank for p in pieces]
    for a, b in zip(ranks, ranks[1:]):
        if cmp(a, b) >= 0:
            out.append("subsequence ranks not strictly increasing")
    for r in ranks:
        if cmp(r, dec.rank) >= 0:
            out.append("subsequence rank escapes the limit bound")
    return out


# ---------------------------------------------------------------------------
# bricks and shifts


class Brick(_Frozen):
    """Infinite, co-infinite index set as an eventually periodic word."""

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: tuple = (), period: tuple = (1, 0)):
        if not period or any(b not in (0, 1) for b in prefix + period):
            raise ValueError("characteristic word must be bits with a nonempty period")
        if 1 not in period:
            raise ValueError("index set must be infinite")
        if 0 not in period:
            raise ValueError("complement must be infinite")
        _set(self, "prefix", prefix)
        _set(self, "period", period)

    def member(self, i: int) -> bool:
        if i < len(self.prefix):
            return bool(self.prefix[i])
        return bool(self.period[(i - len(self.prefix)) % len(self.period)])

    def elements(self, count: int) -> list:
        return [self.select(n, 1) for n in range(count)]

    def count_below(self, x: int, bit: int) -> int:
        """How many indices i < x carry `bit`."""
        head = self.prefix[:x].count(bit)
        if x <= len(self.prefix):
            return head
        rounds, rest = divmod(x - len(self.prefix), len(self.period))
        return head + rounds * self.period.count(bit) + self.period[:rest].count(bit)

    def select(self, n: int, bit: int) -> int:
        """The n-th index (from 0) that carries `bit`."""
        head = [i for i, b in enumerate(self.prefix) if b == bit]
        if n < len(head):
            return head[n]
        hits = [i for i, b in enumerate(self.period) if b == bit]
        rounds, rest = divmod(n - len(head), len(hits))
        return len(self.prefix) + rounds * len(self.period) + hits[rest]


def _unpair(j: int):
    """Inverse Cantor pairing: j -> (u, q)."""
    w = (math.isqrt(8 * j + 1) - 1) // 2
    u = j - w * (w + 1) // 2
    return u, w - u


def _pair(u: int, q: int) -> int:
    w = u + q
    return w * (w + 1) // 2 + u


def _row_of_u(u: int) -> int:
    # 0,1,2,3,... -> 1,-1,2,-2,...
    return (u // 2 + 1) if u % 2 == 0 else -(u // 2 + 1)


def _u_of_row(r: int) -> int:
    return 2 * (r - 1) if r > 0 else 2 * (-r - 1) + 1


class ShiftRecipe(_Frozen):
    __slots__ = ("brick",)

    def coords(self, x: int):
        """Position (row, column) of index x; the brick occupies row 0."""
        if self.brick.member(x):
            return (0, self.brick.count_below(x, 1))
        u, q = _unpair(self.brick.count_below(x, 0))
        return (_row_of_u(u), q)

    def index_at(self, row: int, col: int) -> int:
        if row == 0:
            return self.brick.select(col, 1)
        return self.brick.select(_pair(_u_of_row(row), col), 0)

    def sigma(self, x: int, power: int = 1) -> int:
        row, col = self.coords(x)
        return self.index_at(row + power, col)


def shift(b: Brick) -> ShiftRecipe:
    return ShiftRecipe(b)


def check_shift(recipe: ShiftRecipe, depth: int = DEFAULT_DEPTH) -> list:
    problems = []
    base = recipe.brick.elements(depth)
    images = {}
    for i in range(-depth, depth + 1):
        row = {recipe.sigma(x, i) for x in base}
        if len(row) != len(base):
            problems.append(f"sigma^{i} is not injective on the brick window")
        images[i] = row
    for i in range(-depth, depth + 1):
        for j in range(i + 1, depth + 1):
            if images[i] & images[j]:
                problems.append(f"sigma^{i}(b) meets sigma^{j}(b)")
    # rows partition the integers: every small index lies in exactly one row
    for x in range(depth):
        row, col = recipe.coords(x)
        if recipe.index_at(row, col) != x:
            problems.append(f"index {x} not recovered from its row position")
    # orbits leave every finite prefix: orbit points are pairwise distinct
    for x in base[:5]:
        orbit = [recipe.sigma(x, i) for i in range(-depth, depth + 1)]
        if len(set(orbit)) != len(orbit):
            problems.append(f"orbit of {x} revisits an index")
    return problems


# ---------------------------------------------------------------------------
# annulus decompositions for telescoping ends


class Annulus(_Frozen):
    # contents: germ class ids present in the annulus
    # term: end-space content; None for empty annuli
    __slots__ = ("index", "contents", "genus", "term")
    _defaults = {"term": None}


class AnnulusDecomposition(_Frozen):
    # case: telescoping case that produced the decomposition
    __slots__ = ("basepoint", "case", "annuli")


def annuli(s, x: str, depth: int = DEFAULT_DEPTH) -> AnnulusDecomposition:
    """Chain of big annuli descending to the telescoping end x of surface s."""
    from .verdict import telescoping

    if isinstance(s, SurfaceDescriptor):
        table = derive_table(s.ends)
    else:
        table = s
    result = telescoping(table, x, surface_context=True)
    if result.status != "telescoping":
        raise NotTelescoping(result.failure)
    if result.case == "i":
        return AnnulusDecomposition(
            x, "i", tuple(Annulus(k, (), False) for k in range(depth))
        )
    row = table.row(x)
    if not table.has_germs:
        raise ValidationError(
            f"{x}: a germ table read from JSON has no germ terms to build annuli from"
        )
    if result.case == "ii":
        content = row.germ
    else:
        comps = row.germ.components
        content = comps[0] if len(comps) == 1 else Sum(comps)
    ctab = derive_table(content)
    ids = tuple(sorted(ctab.ids()))
    flag = has_genus(content)
    rings = tuple(
        Annulus(k, ids, flag, term=content) for k in range(depth)
    )
    return AnnulusDecomposition(x, result.case, rings)


def check_annuli(table: GermTable, dec: AnnulusDecomposition, depth: int = 6) -> list:
    problems = []
    if dec.case == "i":
        if any(a.contents or a.term is not None for a in dec.annuli):
            problems.append("isolated-puncture annuli must be empty")
        return problems
    # every big annulus carries every end type of the ambient stable
    # neighborhood of the basepoint (not of the whole surface)
    nbhd = dec.annuli[0].term
    ntab = derive_table(nbhd)
    expected = {c.id for c in ntab.classes if not c.kind.is_finite}
    for a in dec.annuli:
        if not set(a.contents) <= set(derive_table(a.term).ids()):
            problems.append(f"annulus {a.index} content list mismatch")
        missing = expected - set(a.contents)
        if missing:
            problems.append(f"annulus {a.index} misses classes {sorted(missing)}")
    # unions of consecutive annuli are copies of a single annulus
    base = dec.annuli[0].term
    sig0 = _table_signature(derive_table(base))
    for j in range(2, min(depth, len(dec.annuli)) + 1):
        union = Sum(tuple([base] * j))
        if _table_signature(derive_table(union)) != sig0:
            problems.append(f"union of {j} annuli is not a copy of one annulus")
    return problems


def _table_signature(table: GermTable):
    """Table identity with finite multiplicities erased (clopen duplication
    of an annulus multiplies finite counts but changes nothing else)."""
    classes = tuple(
        (c.id, c.kind.name, str(c.color), c.family, print_cnf(c.family_bound) if c.family_bound else None)
        for c in table.classes
    )
    return (classes, table.up, table.acc_out)


# ---------------------------------------------------------------------------
# certificate JSON


def decomposition_certificate(dec: Decomposition, depth: int = DEFAULT_DEPTH, seed: int = 0) -> dict:
    pieces = []
    for k in range(1, depth + 1):
        p = dec.piece(k)
        pieces.append({"index": k, "term": pretty(p) if p is not None else None})
    return {
        "kind": "decomposition",
        "basepoint": dec.basepoint,
        "shape": dec.shape,
        "neighborhood": pretty(dec.germ) if dec.germ is not None else None,
        "pieces": pieces,
        "witnesses": [
            {"kind": "embed", "note": "each piece embeds into the next"},
            {"kind": "reassembly", "seed": seed, "trials": 3},
        ],
    }


def annuli_certificate(dec: AnnulusDecomposition) -> dict:
    return {
        "kind": "annuli",
        "basepoint": dec.basepoint,
        "case": dec.case,
        "pieces": [
            {
                "index": a.index,
                "contents": list(a.contents),
                "genus": a.genus,
                "term": pretty(a.term) if a.term is not None else None,
            }
            for a in dec.annuli
        ],
        "witnesses": [{"kind": "union-homogeneity"}],
    }

