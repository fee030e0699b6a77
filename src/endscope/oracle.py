"""Independent brute-force validators over finite truncations of term spaces.

This module deliberately shares no logic with the germ/ordinal machinery: it
expands a term into a finite sample tree and computes invariants (isolated
point counts, Cantor-Bendixson derivative sequences, perfect-kernel flag)
directly on that tree. It is the second opinion used by tests to validate
normalization rewrites and preorder answers.

Tree semantics: each node is a sample point; the points in a node's child
groups converge to that node. Marks:
  "point"  an ordinary sampled point (isolated iff it has no children)
  "deep"   unexpanded countable structure beyond the depth budget
  "dust"   a Cantor-set sample point (never isolated)

A sample tree repeats a few subtrees many times, so the invariant bundles
are folded over the term instead of read off a built tree: the facts of
each distinct subtree are computed once and multiplied where the tree
repeats them. Only the tests build the tree (`tests/oracle_ref.py`), and
they hold the fold to it.

A sample tree grows exponentially with the depth, so one truncation holds at
most MAX_SAMPLE_NODES nodes; a larger one is a ValidationError naming the
maximum. The fold counts the nodes it covers and stops at the first partial
sum past the maximum, so `sample_nodes` refuses such a tree before any node
is built or any depth compared, with work bounded by the budget.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .ordinals import Cnf, fundamental
from .terms import Cantor, Color, Mix, Ord, Pt, Sum, Term, ValidationError

MAX_SAMPLE_NODES = 250_000
_PLANAR = frozenset((Color.PLANAR,))


def sample_nodes(t: Term, depth: int, memo: dict | None = None) -> int:
    """The number of nodes of the depth-`depth` sample tree of t, read off
    the fold without building them. Past MAX_SAMPLE_NODES, a ValidationError
    naming the maximum. The count grows with the depth, so a term within the
    budget at one depth is within it at every smaller one. A `memo` passed in keeps
    the folded facts for later `_fold` calls on the same term."""
    try:
        return _fold(t, depth, {} if memo is None else memo).nodes
    except _OverBudget:
        raise ValidationError(
            f"the depth-{depth} sample tree exceeds the maximum of "
            f"{MAX_SAMPLE_NODES} nodes"
        ) from None


class _OverBudget(Exception):
    pass


def _within(n: int) -> int:
    if n > MAX_SAMPLE_NODES:
        raise _OverBudget
    return n


def _hidden(t: Term, memo: dict) -> tuple:
    """What a clopen copy of t holds below a cut: every color present, the
    colors of isolated points, and whether Cantor dust occurs. `memo` keeps
    the answers of one truncation, where the same subterms recur."""
    out = memo.get(t)
    if out is not None:
        return out
    if isinstance(t, Pt):
        out = (frozenset((t.color,)), frozenset((t.color,)), False)
    elif isinstance(t, Ord):
        out = (_PLANAR, _PLANAR, False)
    else:
        kids = [_hidden(k, memo) for k in (t.parts if isinstance(t, Sum) else t.components)]
        colors = frozenset().union(*(k[0] for k in kids))
        iso = frozenset().union(*(k[1] for k in kids))
        dust = any(k[2] for k in kids)
        if isinstance(t, Mix):
            colors |= {t.limit_color}
        elif isinstance(t, Cantor):
            colors, dust = colors | {t.color}, True
        out = (colors, iso, dust)
    memo[t] = out
    return out


# ---------------------------------------------------------------------------
# invariant bundles and comparison


class _Facts(NamedTuple):
    """What a bundle reads off a forest of sample trees: every color shown or
    hidden, the hidden isolated colors, whether dust occurs (shown or
    hidden), whether a deep marker occurs, the isolated points per color, the
    nodes per Cantor-Bendixson removal round, and the nodes in all, the sum
    of `rounds`. A leaf point is removed in round 1, a point with children
    one round after the last of them; deep and dust nodes, and the points
    above them, in round NEVER. Every total passes through `_within`, so a
    fold past the budget stops at its first partial sum past it."""

    colors: frozenset
    hidden_iso: frozenset
    dust: bool
    deep: bool
    iso: dict  # Color -> isolated points
    rounds: dict  # removal round -> nodes
    nodes: int


NEVER = math.inf
_NONE = _Facts(frozenset(), frozenset(), False, False, {}, {}, 0)
_NOTHING_HIDDEN = (frozenset(), frozenset(), False)


def _times(f: _Facts, k: int) -> _Facts:
    """The facts of k copies of a forest."""
    if k == 1:
        return f
    return _Facts(
        f.colors,
        f.hidden_iso,
        f.dust,
        f.deep,
        {c: k * n for c, n in f.iso.items()},
        {r: k * n for r, n in f.rounds.items()},
        _within(k * f.nodes),
    )


def _join(a: _Facts, b: _Facts) -> _Facts:
    """The facts of two forests laid side by side."""
    if a is _NONE:
        return b
    return _Facts(
        a.colors | b.colors,
        a.hidden_iso | b.hidden_iso,
        a.dust or b.dust,
        a.deep or b.deep,
        _add(a.iso, b.iso),
        _add(a.rounds, b.rounds),
        _within(a.nodes + b.nodes),
    )


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, n in b.items():
        out[key] = out.get(key, 0) + n
    return out


def _node(color: Color, mark: str, below: _Facts, hidden=_NOTHING_HIDDEN) -> _Facts:
    """The facts of one node over the forest of its children; `hidden` is
    what an unexpanded node records of the structure below the cut."""
    hidden_colors, hidden_iso, hidden_dust = hidden
    iso = {}
    if mark != "point":
        removed = NEVER
    elif below.rounds:
        removed = 1 + max(below.rounds)
    else:
        removed, iso = 1, {color: 1}
    own = _Facts(
        hidden_colors | {color},
        hidden_iso,
        hidden_dust or mark == "dust",
        mark == "deep",
        iso,
        {removed: 1},
        1,
    )
    return _join(below, own)


# the leaves of every ordinal tree: a point of rank 0, and a point of
# positive rank past the depth budget
_ORD_POINT = _node(Color.PLANAR, "point", _NONE)
_ORD_DEEP = _node(Color.PLANAR, "deep", _NONE, (_PLANAR, _PLANAR, False))


def _fold(t: Term, d: int, memo: dict) -> _Facts:
    """The facts of the depth-d sample forest of t, without building it (the
    tests' `oracle_ref._forest` builds it). `memo` holds the facts of every
    distinct (subterm, depth), (rank, budget) and (Cantor components, color,
    depth) of one `equiv_invariants` call,
    and `_hidden`'s answers. Children are folded in loops, one frame per
    level of the term, so the deepest inputs stay within the recursion
    limit."""
    key = (t, d)
    f = memo.get(key)
    if f is not None:
        return f
    if isinstance(t, Pt):
        f = _node(t.color, "point", _NONE)
    elif isinstance(t, Ord):
        f = _times(_fold_ord(t.rank, d, memo), t.degree)
    elif isinstance(t, Mix):
        if d > 0:
            group = _NONE
            for c in dict.fromkeys(t.components):
                group = _join(group, _fold(c, d - 1, memo))
            f = _node(t.limit_color, "point", _times(group, d))
        else:
            f = _node(t.limit_color, "deep", _NONE, _hidden(t, memo))
    elif isinstance(t, Cantor):
        f = _fold_cantor(tuple(dict.fromkeys(t.components)), t.color, d, memo)
    else:
        f = _NONE
        for p in t.parts:
            f = _join(f, _fold(p, d, memo))
    memo[key] = f
    return f


def _fold_ord(rank: Cnf, budget: int, memo: dict) -> _Facts:
    """The facts of the sample tree of a point of rank `rank` with its
    neighborhood sampled `budget` levels deep."""
    if rank.is_zero():
        return _ORD_POINT
    if budget <= 0:
        return _ORD_DEEP
    key = (rank, budget)
    f = memo.get(key)
    if f is not None:
        return f
    if rank.is_successor():
        below = _times(_fold_ord(rank.pred(), budget - 1, memo), budget)
    else:
        below = _NONE
        for k in range(1, budget + 1):
            below = _join(below, _fold_ord(fundamental(rank, k), budget - 1, memo))
    f = _node(Color.PLANAR, "point", below)
    memo[key] = f
    return f


def _fold_cantor(distinct_comps: tuple, color: Color, d: int, memo: dict) -> _Facts:
    """The facts of the depth-d sample tree of a Cantor node of `color` with
    the gap insertions `distinct_comps`."""
    key = (distinct_comps, color, d)
    f = memo.get(key)
    if f is not None:
        return f
    if d <= 0:
        hidden = [_hidden(c, memo) for c in distinct_comps]
        colors = frozenset((color,)).union(*(h[0] for h in hidden))
        iso = frozenset().union(*(h[1] for h in hidden))
        f = _node(color, "dust", _NONE, (colors, iso, False))
    else:
        below = _times(_fold_cantor(distinct_comps, color, d - 1, memo), 2)
        for c in distinct_comps:  # the gaps
            below = _join(below, _fold(c, d - 1, memo))
        f = _node(color, "dust", below)
    memo[key] = f
    return f


def _bundle(f: _Facts, iso_prev):
    """The bundle of a truncation with facts `f`, and its isolated-point
    counts; `iso_prev` holds the counts at the depth below, or None at
    depth 0."""
    iso_now = {str(c): n for c, n in f.iso.items()}
    if iso_prev is None:
        iso_prev = iso_now
    out = {
        "colors": sorted(str(c) for c in f.colors),
        "perfect_kernel": f.dust,
        "deep": f.deep,
        "hidden_isolated": sorted(str(c) for c in f.hidden_iso),
        "isolated": {
            color: (count if count == iso_prev.get(color, 0) else "growing")
            for color, count in iso_now.items()
        },
        "derivative": None,
    }
    if not f.dust and out["colors"] in ([], ["planar"]):
        # the brute force counts the nodes that survive each round, up to
        # the last round that removes any: its last count is the nodes never
        # removed, and the one before that the nodes of the last round
        rounds = max((r for r in f.rounds if r != NEVER), default=0)
        stalled = f.rounds.get(NEVER, 0)
        out["derivative"] = {
            "rounds": rounds,
            "final_nonzero": stalled or f.rounds.get(rounds, 0),
            "stalled": stalled != 0,
        }
    return out, iso_now


def equiv_invariants(a: Term, b: Term, depth: int):
    """Compare invariant bundles at every depth <= depth.

    Returns "same" or ("differ", witness). Agreement is necessary, not
    sufficient, for homeomorphism. Isolated-point counts are compared only
    when settled: a count still growing with the depth is skipped, and a
    deficit on a side that carries unexpanded deep markers is skipped too
    (the missing points may sit below the depth budget).
    """
    memo = {}
    for side in (a, b):  # before any depth is compared
        sample_nodes(side, depth, memo)
    iso_a = iso_b = None
    for d in range(depth + 1):
        ba, iso_a = _bundle(_fold(a, d, memo), iso_a)
        bb, iso_b = _bundle(_fold(b, d, memo), iso_b)
        if ba["perfect_kernel"] != bb["perfect_kernel"]:
            return (
                "differ",
                f"perfect_kernel at depth {d}: "
                f"{ba['perfect_kernel']!r} vs {bb['perfect_kernel']!r}",
            )
        for key, witness in (
            ("colors", _colors_mismatch(ba, bb)),
            ("isolated", _isolated_mismatch(ba, bb)),
            ("derivative", _derivative_mismatch(ba, bb)),
        ):
            if witness:
                return ("differ", f"{key} at depth {d}: {witness}")
    return "same"


def _colors_mismatch(ba: dict, bb: dict):
    # colors account for unexpanded regions, so the sets are exact
    if ba["colors"] != bb["colors"]:
        return f"{ba['colors']!r} vs {bb['colors']!r}"
    return None


def _isolated_mismatch(ba: dict, bb: dict):
    for color in sorted(set(ba["isolated"]) | set(bb["isolated"])):
        va = ba["isolated"].get(color)
        vb = bb["isolated"].get(color)
        if va == vb:
            continue
        if "growing" in (va, vb):
            # a growing count is consistent with any nonempty other side;
            # against an absent side the absence must be explainable by
            # unexpanded structure carrying that color
            other, side = (vb, bb) if va == "growing" else (va, ba)
            if other is None and color not in side["hidden_isolated"]:
                return f"{color}: {va!r} vs {vb!r}"
            continue
        deficient = ba if (va or 0) < (vb or 0) else bb
        if color in deficient["hidden_isolated"]:
            continue
        return f"{color}: {va!r} vs {vb!r}"
    return None


def _derivative_mismatch(ba: dict, bb: dict):
    da, db = ba["derivative"], bb["derivative"]
    if da is None and db is None:
        return None
    if (da is None) != (db is None):
        return f"{da!r} vs {db!r}"
    if da["stalled"] and db["stalled"]:
        return None  # leftover counts under a stall are sampling artifacts
    if da["stalled"] != db["stalled"]:
        return f"stalled {da['stalled']!r} vs {db['stalled']!r}"
    if (da["rounds"], da["final_nonzero"]) != (db["rounds"], db["final_nonzero"]):
        return f"{da!r} vs {db!r}"
    return None
