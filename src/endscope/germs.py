"""Germ tables: end-equivalence classes of a term with preorder and accumulation.

Every point of a term space has a local germ: the homeomorphism type (with
colors) of its small clopen neighborhoods. Points with mutually embeddable
germs form one class. `derive_table` computes the finite class table of a
term together with

  leq(y, x)   germ of y clopen-embeds into every neighborhood of x
  acc(z, x)   points of class z accumulate onto points of class x

Each class has a `Kind`: finite (with its count), countable or cantor.
Countable planar germs are exactly the spaces w^b+1; their classes are named
"rank(b)". A term containing an Ord leaf of infinite rank has infinitely many
rank classes; these are stored symbolically as one family row "rank(*)" with
an exclusive upper bound, and queries instantiate a `Member` on demand, which
answers the row attributes as the rank row of germ Ord(b, 1) would.

A table holds each relation as one int bitmask per row, indexed by the row's
position in the id-sorted `classes`; `leq` and `acc` are pair views built
when read, never stored. `_table` closes both relations for every table,
derived or read from JSON, by one Warshall pass over the rows of each. Rank
rows compare through one sort by rank: the rank rows above one are a suffix
of that order, the rank rows it accumulates onto too, and `_row_leq` runs
only on the pairs with a germ or family row.

Classes are a synthesized attribute: each (term, context) pair has one
immutable class set (kinds by rank and by canonical germ, the family bound),
built once from its children's sets. Tables start from these sets; rewrite R4
(`absorbable`) reads them and builds no table.

`canon`, `emb`, `_classes`, `derive_table` and `_derive` are memoized per
process under one policy, `_memo`: each keeps its last `MEMO_ENTRIES` results.

Tables read from JSON go through the same queries but carry no germ terms
(`GermTable.has_germs`, whatever their `origin` says), so only the explicitly
listed relations are available and no family member is instantiated.
"""

from __future__ import annotations

import re
from functools import cached_property, cmp_to_key, lru_cache

from . import _Frozen
from .normalize import _absorb_pass, fixpoint, normalize_structural
from .ordinals import Cnf, ONE, ZERO, add, cmp, print_cnf
from .parser import LexError, ParseError, parse_cnf
from .terms import (
    Cantor,
    Color,
    Mix,
    Ord,
    Pt,
    Sum,
    Term,
    ValidationError,
    colors_of,
    is_perfect,
    mk_cantor,
    mk_mix,
    pretty,
    require_valid,
)


class UnknownClass(KeyError):
    # a KeyError's str() is the repr of its key alone
    def __str__(self) -> str:
        return f"unknown class id {self.args[0]!r}"


class NotGenusColored(ValueError):
    pass


FAMILY_ID = "rank(*)"


class Kind(_Frozen):
    """How many points of a class one region holds: `count`, countably many,
    or a Cantor set. `str` is the JSON spelling; `+` the kind of a union."""

    # name: "finite" | "countable_discrete" | "cantor"
    # count: points of a finite kind
    __slots__ = ("name", "count")
    _defaults = {"count": 0}

    @property
    def is_finite(self) -> bool:
        return self.name == "finite"

    def __str__(self) -> str:
        return f"finite({self.count})" if self.is_finite else self.name

    def __add__(self, other: Kind) -> Kind:
        if CANTOR in (self, other):
            return CANTOR
        if COUNTABLE in (self, other):
            return COUNTABLE
        return Kind("finite", self.count + other.count)


COUNTABLE = Kind("countable_discrete")
CANTOR = Kind("cantor")
ONE_POINT = Kind("finite", 1)


class GermClass(_Frozen):
    """One row of a table. `germ` is the canonical germ term (None in user
    tables), `rank` is set for countable planar rank classes, and
    `family_bound` is the exclusive bound of the symbolic family row."""

    __slots__ = ("id", "kind", "color", "germ", "rank", "family", "family_bound")
    _defaults = {"germ": None, "rank": None, "family": False, "family_bound": None}


class Successor(_Frozen):
    __slots__ = ("preds",)  # class ids, finite, maximal and covering


class NotSuccessor(_Frozen):
    __slots__ = ("reason",)
    _defaults = {"reason": ""}


DERIVED = "derived-from-term"


class GermTable(_Frozen):
    """The classes of a space: `classes` holds the `GermClass` rows sorted by
    id. The relations are one bitmask per row, over row indices: bit x of
    `up[y]` is set when (y, x) is in `leq`, and bit x of `acc_out[z]` when
    (z, x) is in `acc`. The fields, and so the constructor's parameters,
    `==`, `hash` and `repr`, are those masks; `_table` closes them, and
    `_masks` turns id pairs into them. `leq` and `acc` build the pair sets
    on every read, so that no table, memoized ones included, stores them.
    Its instances keep a `__dict__`, where the cached properties below store
    their values, so it names its `_fields` itself."""

    _fields = ("classes", "up", "acc_out", "origin", "surface")
    _defaults = {"origin": DERIVED, "surface": False}

    @property
    def leq(self) -> frozenset:
        """The id pairs (y, x) of `up`, built on each read."""
        return frozenset(self._id_pairs(self.up))

    @property
    def acc(self) -> frozenset:
        """The id pairs (z, x) of `acc_out`, built on each read."""
        return frozenset(self._id_pairs(self.acc_out))

    def _id_pairs(self, masks: tuple):
        """The id pairs of `masks`, row by row and bit by bit ascending: as
        `classes` is sorted by id, in sorted order."""
        ids = self.ids()
        return ((ids[i], ids[j]) for i, mask in enumerate(masks) for j in _bits(mask))

    @cached_property
    def position(self) -> dict:
        """Class id -> index of its row in `classes`."""
        return {c.id: i for i, c in enumerate(self.classes)}

    @cached_property
    def strict_up(self) -> tuple:
        """Per row, a bitmask over row indices of the classes strictly above
        it in `leq`. Built on first use, so only tables that are queried
        carry it."""
        down = _transpose(self.up)
        return tuple(u & ~d & ~(1 << i) for i, (u, d) in enumerate(zip(self.up, down)))

    @cached_property
    def strict_down(self) -> tuple:
        """Per row, a bitmask over row indices of the classes strictly below
        it in `leq`: `strict_up` transposed. Built on first use."""
        return _transpose(self.strict_up)

    @cached_property
    def acc_into(self) -> tuple:
        """Per row, a bitmask over row indices of the classes that accumulate
        onto it in `acc`: `acc_out` transposed. Built on first use."""
        return _transpose(self.acc_out)

    def rows_in(self, mask: int):
        """The rows whose indices are set in `mask`, in table order, one at a
        time, so that `any` and `all` stop at the first row that decides."""
        return (self.classes[i] for i in _bits(mask))

    def row(self, cid: str) -> GermClass:
        try:
            return self.classes[self.position[cid]]
        except KeyError:
            raise UnknownClass(cid) from None

    def ids(self) -> list:
        return [c.id for c in self.classes]

    @cached_property
    def family_row(self):
        return next((c for c in self.classes if c.family), None)

    @cached_property
    def has_germs(self) -> bool:
        """Whether the rows carry germ terms, as derived tables do. A table
        read from JSON never does, whatever its `origin` says."""
        return any(c.germ is not None for c in self.classes)


def _bits(mask: int):
    """The indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _masks(pos: dict, pairs) -> tuple:
    """The id pairs `pairs` as one bitmask per row; `pos` maps id -> row."""
    rows = [0] * len(pos)
    for y, x in pairs:
        rows[pos[y]] |= 1 << pos[x]
    return tuple(rows)


def _transpose(rows: tuple) -> tuple:
    """The bitmask rows of the transposed relation: bit i of row j is bit j
    of row i. Each row is spelled as n binary digits, most significant
    first, so `zip` reads the columns off from the highest bit down."""
    n = len(rows)
    spelled = [format(mask, f"0{n}b") for mask in rows]
    return tuple(int("".join(col)[::-1], 2) for col in zip(*spelled))[::-1]


class Member(_Frozen):
    """The family member rank(b), b below the family bound, answering the row
    attributes as the rank row of germ Ord(b, 1) would."""

    __slots__ = ("rank",)
    kind = COUNTABLE
    color = Color.PLANAR
    family = False

    @property
    def id(self) -> str:
        return _rank_id(self.rank)

    @property
    def germ(self) -> Ord:
        return Ord(self.rank, 1)


MEMO_ENTRIES = 1 << 16
_memo = lru_cache(maxsize=MEMO_ENTRIES)


# ---------------------------------------------------------------------------
# canonical germ terms


@_memo
def canon(t: Term) -> Term:
    """Canonical form deciding germ equality.

    Extends the public normal form with two rewrites valid up to
    color-preserving homeomorphism: a perfect monochromatic space is a Cantor
    set of its color, and a one-point compactification of clopen copies of a
    same-colored Cantor-rooted space is that space itself.
    """
    return fixpoint(t, (normalize_structural, _canon_pass, _absorb_pass))


def _canon_pass(t: Term) -> Term:
    if isinstance(t, Pt):
        return Ord(ZERO, 1) if t.color is Color.PLANAR else t
    if isinstance(t, Ord):
        return t
    if isinstance(t, Mix):
        node = mk_mix([_canon_pass(c) for c in t.components], t.limit_color)
        folded = _fold_perfect(node, node.limit_color)
        if folded is not None:
            return folded
        comps = set(node.components)
        if len(comps) == 1:
            (k,) = comps
            if isinstance(k, Cantor) and k.color is node.limit_color:
                return k
        return node
    if isinstance(t, Cantor):
        node = mk_cantor([_canon_pass(c) for c in t.components], t.color)
        folded = _fold_perfect(node, node.color)
        return node if folded is None else folded
    return Sum(tuple(_canon_pass(p) for p in t.parts))


def _fold_perfect(node: Term, color: Color):
    if is_perfect(node) and colors_of(node) == frozenset({color}):
        return Cantor((), color)
    return None


# ---------------------------------------------------------------------------
# clopen-embedding of germs


def cap(t: Term):
    """Largest rank b with w^b+1 clopen-embeddable into t, or None."""
    if isinstance(t, Pt):
        return ZERO if t.color is Color.PLANAR else None
    if isinstance(t, Ord):
        return t.rank
    kids = t.parts if isinstance(t, Sum) else t.components
    best = None
    for k in kids:
        c = cap(k)
        if c is not None and (best is None or cmp(best, c) < 0):
            best = c
    return best


@_memo
def emb(s: Term, t: Term) -> bool:
    """Whether germ s (canonical) clopen-embeds into t, canonicalized first.
    The memo sits on `emb` itself, not on a helper behind it: every memoized
    call counts against the recursion limit, and terms nest `MAX_NESTING`
    levels deep."""
    t = canon(t)
    if s == t:
        return True
    if isinstance(s, Ord):
        c = cap(t)
        return c is not None and cmp(s.rank, c) <= 0
    if _cantor_sub(s, t):
        return True
    if isinstance(t, Sum):
        return any(emb(s, p) for p in t.parts)
    if isinstance(t, (Mix, Cantor)):
        return any(emb(s, c) for c in t.components)
    return False


def _cantor_sub(s: Term, t: Term) -> bool:
    """A Cantor germ sits inside another dust of the same color whenever
    each of its decorations occurs densely there; the copy drops the extra
    decorations."""
    if not (isinstance(s, Cantor) and isinstance(t, Cantor)):
        return False
    if s.color is not t.color:
        return False
    return all(any(emb(c, comp) for comp in t.components) for c in s.components)


# ---------------------------------------------------------------------------
# class collection


class _Classes(_Frozen):
    """The point classes of a term in one context: kinds by rank and by
    canonical non-rank germ, and the exclusive family bound (None or >= w)."""

    __slots__ = ("ranks", "germs", "bound")
    _defaults = {"bound": None}


def _union(sets) -> _Classes:
    """The classes of the disjoint union of the spaces behind `sets`."""
    ranks, germs, bound = {}, {}, None
    for s in sets:
        for into, kinds in ((ranks, s.ranks), (germs, s.germs)):
            for key, kind in kinds.items():
                into[key] = into[key] + kind if key in into else kind
        if s.bound is not None and (bound is None or cmp(bound, s.bound) < 0):
            bound = s.bound
    return _Classes(ranks, germs, bound)


@_memo
def _classes(t: Term, ctx) -> _Classes:
    """The classes of t from its children's class sets, once per (t, ctx):
    ctx True marks an infinitely repeated region, None the structural normal
    form of t."""
    if ctx is None:
        return _classes(normalize_structural(t), False)
    base = COUNTABLE if ctx else None
    if isinstance(t, Pt):
        if t.color is Color.GENUS:
            return _Classes({}, {Pt(Color.GENUS): base or ONE_POINT})
        return _Classes({ZERO: base or ONE_POINT}, {})
    if isinstance(t, Ord):
        if not t.rank.is_nat():
            ranks = {} if ctx else {t.rank: Kind("finite", t.degree)}
            return _Classes(ranks, {}, add(t.rank, ONE) if ctx else t.rank)
        ranks, k = {}, ZERO
        while cmp(k, t.rank) < 0:
            ranks[k] = COUNTABLE
            k = add(k, ONE)
        ranks[t.rank] = base or Kind("finite", t.degree)
        return _Classes(ranks, {})
    if isinstance(t, Sum):
        return _union([_classes(p, ctx) for p in t.parts])
    g = canon(t)
    if isinstance(t, Cantor) or isinstance(g, Cantor):  # a dust class; a limit may merge into one
        own = _Classes({}, {g: CANTOR})
    elif isinstance(g, Ord):  # countable planar limit
        own = _Classes({g.rank: base or ONE_POINT}, {})
    else:
        own = _Classes({}, {g: base or ONE_POINT})
    return _union([_classes(c, True) for c in t.components] + [own])


def _rank_id(b: Cnf) -> str:
    return f"rank({print_cnf(b)})"


@_memo
def derive_table(t: Term) -> GermTable:
    """The table of t. A hit neither validates nor normalizes again. An
    invalid term raises on every call, because the memo stores no exception."""
    require_valid(t)
    return _derive(normalize_structural(t))


@_memo
def _derive(t: Term) -> GermTable:
    """The table of a structural normal form t, which every term with that
    normal form shares. The masks index the collected rows in id order, the
    order of the table, so merging only drops the bits of the rows that
    merged into another."""
    collected, bound = _collected_rows(t)
    rows = sorted(collected, key=lambda r: r.id)
    pos = {r.id: i for i, r in enumerate(rows)}
    order = [pos[r.id] for r in collected]
    up, down = _row_masks(rows, [i for i in order if rows[i].rank is not None], bound)
    slots = _merge_mutual(rows, order, up, down)
    kept = sorted(k for k, _ in slots)
    gone = sorted(set(range(len(rows))) - set(kept), reverse=True)
    merged = [r for _, r in slots]
    rows = tuple(sorted(merged, key=lambda r: r.id))
    pos = {r.id: i for i, r in enumerate(rows)}
    return _table(rows, [_drop_bits(up[k], gone) for k in kept], _acc_masks(merged, pos, bound))


def _collected_rows(t: Term) -> tuple:
    """The class rows of t before mutually embeddable rows merge, and the
    family bound (None without a family row). Rank rows come first, by
    ascending rank."""
    col = _classes(t, False)
    bound = col.bound
    rows = []
    for b in sorted(col.ranks, key=_BY_RANK):
        if bound is not None and cmp(b, bound) < 0:
            continue  # covered by the family row
        rows.append(
            GermClass(_rank_id(b), col.ranks[b], Color.PLANAR, Ord(b, 1), rank=b)
        )
    if bound is not None:
        rows.append(
            GermClass(
                FAMILY_ID,
                COUNTABLE,
                Color.PLANAR,
                family=True,
                family_bound=bound,
            )
        )
    for g in sorted(col.germs, key=pretty):  # pt^g, mix and cantor germs
        color = g.limit_color if isinstance(g, Mix) else g.color
        rows.append(GermClass(pretty(g), col.germs[g], color, g))
    return rows, bound


_BY_RANK = cmp_to_key(cmp)


def _row_leq(a: GermClass, b: GermClass, bound) -> bool:
    """a ⪯ b; for the family row: every member vs. some member."""
    if a.id == b.id:
        return True
    if a.family:
        c = cap(b.germ)
        return c is not None and cmp(bound, add(c, ONE)) <= 0
    if b.family:
        return a.rank is not None and cmp(a.rank, bound) < 0
    if a.rank is not None and b.rank is not None:
        # what emb(Ord(a.rank, 1), Ord(b.rank, 1)) decides through cap
        return cmp(a.rank, b.rank) <= 0
    return emb(a.germ, b.germ)


def _row_masks(rows: list, ranked: list, bound) -> tuple:
    """`up` and `down`: per row, the bitmask of the rows that `_row_leq`
    puts it below and above. `ranked` holds the indices of the rank rows by
    ascending rank; their ranks are distinct, so each is below exactly the
    rank rows from itself on. `_row_leq` decides the pairs with a germ or
    family row."""
    n = len(rows)
    up, down = [0] * n, [0] * n
    above = below = 0
    for i, j in zip(reversed(ranked), ranked):
        above |= 1 << i
        up[i] = above
        below |= 1 << j
        down[j] = below
    others = [i for i, r in enumerate(rows) if r.rank is None]
    for a, ra in enumerate(rows):
        for b in range(n) if ra.rank is None else others:
            if _row_leq(ra, rows[b], bound):
                up[a] |= 1 << b
                down[b] |= 1 << a
    return up, down


def _merge_mutual(rows: list, order: list, up: list, down: list) -> list:
    """Merge each row into the first earlier row it embeds both ways with,
    visiting the rows in the order of the indices `order`; `up` and `down`
    are the masks of `_row_masks`. Returns one (index, row) slot per merged
    class, in visiting order, where the index is that of the row whose id
    the class keeps."""
    slots, kept = [], 0  # kept: the bitmask of the slot indices
    for i in order:
        mutual = up[i] & down[i] & kept
        if not mutual:
            slots.append((i, rows[i]))
            kept |= 1 << i
            continue
        s = next(s for s, (k, _) in enumerate(slots) if mutual >> k & 1)
        k, keep = slots[s]
        r = rows[i]
        if keep.kind != CANTOR and r.kind == CANTOR:
            keep, r = r, keep
            kept ^= 1 << k | 1 << i
            k = i
        slots[s] = (k, GermClass(
            keep.id,
            keep.kind + r.kind,
            keep.color,
            keep.germ,
            keep.rank,
            keep.family,
            keep.family_bound,
        ))
    return slots


def _drop_bits(mask: int, gone: list) -> int:
    """`mask` without the bits at the indices `gone`, in descending order;
    the bits above each one move down."""
    for i in gone:
        mask = mask >> (i + 1) << i | mask & ((1 << i) - 1)
    return mask


def _acc_masks(rows: list, pos: dict, bound) -> list:
    """Per row, the bitmask of the rows it accumulates onto, before the
    closure. `rows` are the merged rows in collected order, so the rank rows
    come by ascending rank; `pos` maps each id to its row index. A rank row
    accumulates onto each higher one, and the family row onto every rank
    row of positive rank."""
    by_id = {r.id: r for r in rows}
    out = [0] * len(rows)
    onto = 0  # the rank rows of positive rank above the current one
    for r in reversed([r for r in rows if r.rank is not None]):
        i = pos[r.id]
        out[i] = onto
        if not r.rank.is_zero():
            onto |= 1 << i
    for x in rows:
        i = pos[x.id]
        if x.family:
            out[i] |= onto
            if cmp(bound, ONE) > 0:
                out[i] |= 1 << i
            continue
        g = x.germ
        if isinstance(g, (Ord, Pt)):
            continue
        for src in _interior_ids(g, by_id, bound):
            if src in by_id:
                out[pos[src]] |= 1 << i
        if isinstance(g, Cantor):
            out[i] |= 1 << i
    return out


def _interior_ids(g: Term, by_id: dict, bound) -> set:
    """Ids of classes whose points lie arbitrarily close to the basepoint of g;
    `by_id` maps each row id to its row, in row order."""
    col = _union([_classes(c, True) for c in g.components])
    out = set()
    for b in col.ranks:
        if bound is not None and cmp(b, bound) < 0:
            out.add(FAMILY_ID)
        else:
            out.add(_rank_id(b))
    if col.bound is not None:
        out.add(FAMILY_ID)
    for sub in col.germs:
        sid = pretty(sub)
        if sid in by_id:
            out.add(sid)
        else:  # merged into an equivalent row
            match = _equivalent_row(by_id.values(), sub)
            if match is not None:
                out.add(match.id)
    return out


def _equivalent_row(rows, g: Term):
    """The first germ row, not a rank or family row, that embeds both ways
    with g; None when there is none."""
    for r in rows:
        if r.germ is not None and r.rank is None and emb(g, r.germ) and emb(r.germ, g):
            return r
    return None


def _table(rows: tuple, up, acc, **kw) -> GermTable:
    """The table of `rows`, sorted by id, with `acc` closed and `leq` the
    closure of `leq | acc` and the identity: accumulation onto x makes the
    accumulating class embed into every neighborhood of x. `up` and `acc`
    are bitmask rows over `rows`; `kw` goes to `GermTable`."""
    acc = _close(acc)
    up = _close([u | a | 1 << i for i, (u, a) in enumerate(zip(up, acc))])
    return GermTable(rows, up, acc, **kw)


def _close(rows) -> tuple:
    """Transitive closure of bitmask rows, by Warshall's algorithm: row k in
    turn joins every row that has bit k."""
    rows = list(rows)
    for k in range(len(rows)):
        bit, via = 1 << k, rows[k]
        rows = [r | via if r & bit else r for r in rows]
    return tuple(rows)


# ---------------------------------------------------------------------------
# sibling absorption (rewrite rule R4)


def absorbable(a: Term, b: Term) -> bool:
    """Whether copies of a add no new structure next to b.

    True iff every class of a matches a class of b that accumulates
    somewhere inside b, so the copies can be slid into the accumulation
    sites of b without changing any germ. A class accumulates somewhere
    exactly when its kind is not finite (compactness), so the kind decides.
    Read off both structural normal forms' class sets: family members are
    countable, and a germ of a matches any germ of b it embeds both ways with.
    """
    ca, cb = _classes(a, None), _classes(b, None)
    if ca.bound is not None and (cb.bound is None or cmp(cb.bound, ca.bound) < 0):
        return False
    for r in ca.ranks:
        if cb.bound is not None and cmp(r, cb.bound) < 0:
            continue  # family members accumulate along the rank chain
        if r not in cb.ranks or cb.ranks[r].is_finite:
            return False
    return all(
        any(not k.is_finite and emb(g, h) and emb(h, g) for h, k in cb.germs.items())
        for g in ca.germs
    )


# ---------------------------------------------------------------------------
# queries


def _resolve(table: GermTable, cid: str):
    """A row, or the `Member` an instantiated family member id names."""
    i = table.position.get(cid)
    if i is not None:
        return table.classes[i]
    fam = table.family_row
    if fam is not None and table.has_germs:
        m = re.fullmatch(r"rank\((.*)\)", cid)
        if m:  # "rank(*)" fails to parse
            try:
                b = parse_cnf(m.group(1))
            except (ParseError, LexError):
                raise UnknownClass(cid) from None
            if _rank_id(b) == cid and cmp(b, fam.family_bound) < 0:
                return Member(b)
    raise UnknownClass(cid)


def _pair_leq(table: GermTable, y, x) -> bool:
    if isinstance(y, Member) or isinstance(x, Member):
        return _row_leq(y, x, table.family_row.family_bound)
    pos = table.position
    return bool(table.up[pos[y.id]] >> pos[x.id] & 1)


def dominates(table: GermTable, y: str, x: str) -> bool:
    return _pair_leq(table, _resolve(table, y), _resolve(table, x))


def maximal_classes(table: GermTable) -> set:
    return {r.id for r, up in zip(table.classes, table.strict_up) if not up}


def _strictly_below(table: GermTable, r: GermClass) -> int:
    """The bitmask of the rows strictly below row r."""
    return table.strict_down[table.position[r.id]]


def _maximal_among(table: GermTable, below: int) -> list:
    """The rows of the bitmask `below` with no row of `below` strictly
    above, in table order."""
    up = table.strict_up
    return [table.classes[i] for i in _bits(below) if not up[i] & below]


def cantor_type(table: GermTable, x: str) -> bool:
    return _resolve(table, x).kind == CANTOR


def isolated_in_Eg(table: GermTable, x: str) -> bool:
    r = _resolve(table, x)
    if r.color is not Color.GENUS:
        raise NotGenusColored(x)
    into = table.acc_into[table.position[r.id]]
    return all(z.color is not Color.GENUS for z in table.rows_in(into))


def family_accumulates(table: GermTable, cid: str) -> bool:
    """Whether a family row other than class cid accumulates onto it."""
    into = table.acc_into[table.position[cid]]
    return any(z.family and z.id != cid for z in table.rows_in(into))


def predecessors(table: GermTable, x: str):
    r = _resolve(table, x)
    if isinstance(r, Member):
        b = r.rank
        if b.is_zero():
            return NotSuccessor("no classes below")
        if b.is_successor():
            return Successor((_rank_id(b.pred()),))
        return NotSuccessor("limit rank: strictly increasing cofinal chain below")
    if r.family:
        return NotSuccessor("family members differ; instantiate a member rank")
    if not table.has_germs:
        return _predecessors_user(table, r)
    return _predecessors_derived(table, r)


def _predecessors_user(table: GermTable, r: GermClass):
    below = _strictly_below(table, r)
    if not below:
        return NotSuccessor("no classes below")
    maximal = _maximal_among(table, below)
    if any(z.family for z in maximal):
        return NotSuccessor("infinitely many pairwise incomparable classes below")
    return Successor(tuple(sorted(z.id for z in maximal)))


def _predecessors_derived(table: GermTable, r: GermClass):
    below = _strictly_below(table, r)
    fam = table.family_row
    if fam is not None:  # a derived table has one family row at most
        below &= ~(1 << table.position[fam.id])
    member_cap = None
    if fam is not None and not r.family:
        c = cap(r.germ)
        if c is not None:
            hi = add(c, ONE)  # members b <= cap embed
            member_cap = hi if cmp(hi, fam.family_bound) < 0 else fam.family_bound
    extra_member = None
    if member_cap is not None and not member_cap.is_zero():
        covered = any(
            z.germ is not None
            and cap(z.germ) is not None
            and cmp(member_cap, add(cap(z.germ), ONE)) <= 0
            for z in table.rows_in(below)
        )
        if not covered:
            if member_cap.is_successor():
                extra_member = member_cap.pred()
            else:
                return NotSuccessor(
                    "limit rank family below with no covering class"
                )
    if not below and extra_member is None:
        return NotSuccessor("no classes below")
    ids = [z.id for z in _maximal_among(table, below)]
    if extra_member is not None:
        # maximal and incomparable to every row: no row covers it, and the
        # rows of rank below the family bound are folded into the family
        ids.append(_rank_id(extra_member))
    return Successor(tuple(sorted(ids)))


# ---------------------------------------------------------------------------
# JSON exchange


def to_json(table: GermTable) -> dict:
    classes = []
    for r in table.classes:
        row = {"id": r.id, "kind": str(r.kind), "color": str(r.color)}
        if r.family:
            row["family"] = True
        if r.family_bound is not None:
            row["family_bound"] = print_cnf(r.family_bound)
        classes.append(row)
    out = {
        "classes": classes,
        "leq": [list(p) for p in table._id_pairs(table.up)],
        "acc": [list(p) for p in table._id_pairs(table.acc_out)],
        "origin": table.origin,
    }
    if table.surface:
        out["surface"] = True
    return out


_COLORS = {"planar": Color.PLANAR, "genus": Color.GENUS}


def from_json(doc: dict) -> GermTable:
    if not isinstance(doc, dict) or not isinstance(doc.get("classes"), list):
        raise ValidationError("germ table document needs a 'classes' list")
    if not doc["classes"]:
        raise ValidationError("germ table needs at least one class")
    leq, accs = _pairs(doc, "leq"), _pairs(doc, "acc")
    rows = {}  # id -> row, in document order
    for entry in doc["classes"]:
        if not isinstance(entry, dict):
            raise ValidationError(f"class entries must be objects, not {type(entry).__name__}")
        cid = entry.get("id")
        kind = entry.get("kind", "")
        color = entry.get("color")
        if not isinstance(cid, str) or cid in rows:
            raise ValidationError(f"bad or duplicate class id {cid!r}")
        # [0-9], not \d: int() reads other scripts' digits, and the kind
        # would not print back as it was read
        m = isinstance(kind, str) and re.fullmatch(r"finite\(([1-9][0-9]*)\)", kind)
        if m:
            kind = Kind("finite", int(m.group(1)))
        elif kind in (COUNTABLE.name, CANTOR.name):
            kind = Kind(kind)
        else:
            raise ValidationError(f"bad kind {kind!r} for class {cid}")
        if not isinstance(color, str) or color not in _COLORS:
            raise ValidationError(f"bad color {color!r} for class {cid}")
        rows[cid] = GermClass(
            cid,
            kind,
            _COLORS[color],
            family=bool(entry.get("family")),
            family_bound=_family_bound(entry.get("family_bound"), cid),
        )
    for pair in leq + accs:
        for cid in pair:
            if cid not in rows:
                raise ValidationError(f"relation mentions unknown class {cid!r}")
    # a genus-to-planar pair of the closure has a genus-to-planar step here
    for (z, x) in accs:
        if rows[z].color is Color.GENUS and rows[x].color is not Color.GENUS:
            raise ValidationError(f"genus class {z} accumulates onto planar class {x}")
    rows = tuple(sorted(rows.values(), key=lambda r: r.id))
    pos = {r.id: i for i, r in enumerate(rows)}
    origin = doc.get("origin", "user-supplied")
    return _table(
        rows, _masks(pos, leq), _masks(pos, accs), origin=origin, surface=bool(doc.get("surface"))
    )


def _pairs(doc: dict, key: str) -> list:
    """The pairs under `key`, in document order, so that the first faulty
    pair named in an error does not depend on set iteration order."""
    pairs = doc.get(key, [])
    if isinstance(pairs, list) and all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str)
        for p in pairs
    ):
        return [(y, x) for y, x in pairs]
    raise ValidationError(f"'{key}' must be a list of [class id, class id] pairs")


def _family_bound(bound, cid: str):
    if not bound:
        return None
    if not isinstance(bound, str):
        raise ValidationError(f"bad family_bound {bound!r} for class {cid}")
    try:
        return parse_cnf(bound)
    except (ParseError, LexError) as e:
        raise ValidationError(f"bad family_bound {bound!r} for class {cid}: {e}") from None
