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
repeats them. `truncate` still builds the tree, for `tr_embeds` and
`cb_bruteforce`, and the tests hold the fold to it.

A sample tree grows exponentially with the depth, so one truncation holds at
most MAX_SAMPLE_NODES nodes; a larger one is a ValidationError naming the
maximum, raised by `sample_nodes` before any node is built or folded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ordinals import Cnf, fundamental
from .terms import Cantor, Color, Mix, NotCountable, Ord, Pt, Sum, Term, ValidationError

MAX_SAMPLE_NODES = 250_000


@dataclass
class TrNode:
    color: Color
    mark: str  # "point" | "deep" | "dust"
    groups: list = field(default_factory=list)  # list of lists of TrNode
    # unexpanded nodes record what lives below the cut: every color present,
    # the colors of isolated points, and whether Cantor dust occurs
    hidden_colors: frozenset = frozenset()
    hidden_iso: frozenset = frozenset()
    hidden_dust: bool = False

    @property
    def children(self):
        return [c for grp in self.groups for c in grp]


@dataclass
class Truncation:
    depth: int
    roots: list  # forest of TrNode


def truncate(t: Term, depth: int) -> Truncation:
    sample_nodes(t, depth)
    return Truncation(depth, _forest(t, depth, {}))


def sample_nodes(t: Term, depth: int) -> int:
    """The number of nodes truncate(t, depth) builds, counted without
    building them. Past MAX_SAMPLE_NODES, a ValidationError naming the
    maximum. The count grows with the depth, so a term within the budget at
    one depth is within it at every smaller one."""
    try:
        return _count(t, depth, {})
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


def _count(t: Term, d: int, memo: dict) -> int:
    """Nodes of `_forest(t, d)`; raises _OverBudget at the first partial sum
    past the budget, so the work stays within the budget too."""
    key = (t, d)
    n = memo.get(key)
    if n is not None:
        return n
    if isinstance(t, Pt):
        n = 1
    elif isinstance(t, Ord):
        n = _within(t.degree * _count_ord(t.rank, d, memo))
    elif isinstance(t, Mix):
        n = _within(1 + d * _count_all(_distinct(t.components), d - 1, memo)) if d > 0 else 1
    elif isinstance(t, Cantor):
        comps = _distinct(t.components)
        n = 1  # `_cantor_node` at depth 0, then one depth more per round
        for below in range(d):
            n = _within(1 + 2 * n + _count_all(comps, below, memo))
    else:
        n = _count_all(t.parts, d, memo)
    memo[key] = n
    return n


def _count_all(terms, d: int, memo: dict) -> int:
    n = 0
    for c in terms:
        n = _within(n + _count(c, d, memo))
    return n


def _count_ord(rank: Cnf, budget: int, memo: dict) -> int:
    """Nodes of `_ord_node(rank, budget)`. The `budget` groups of a successor
    rank are alike, so its chain of predecessors is a loop whose product of
    widths stops it within the budget."""
    widths, least = [], 1
    while budget > 0 and rank.is_successor():
        least = _within(least * budget)
        widths.append(budget)
        rank, budget = rank.pred(), budget - 1
    n = 1
    if budget > 0 and not rank.is_zero():  # a limit rank
        key = (rank, budget)
        n = memo.get(key)
        if n is None:
            n = 1
            for k in range(1, budget + 1):
                n = _within(n + _count_ord(fundamental(rank, k), budget - 1, memo))
            memo[key] = n
    for width in reversed(widths):
        n = _within(1 + width * n)
    return n


def _forest(t: Term, d: int, memo: dict) -> list:
    if isinstance(t, Pt):
        return [TrNode(t.color, "point")]
    if isinstance(t, Ord):
        if t.rank.is_zero():
            return [TrNode(Color.PLANAR, "point") for _ in range(t.degree)]
        return [_ord_node(t.rank, d) for _ in range(t.degree)]
    if isinstance(t, Mix):
        if d > 0:
            node = TrNode(t.limit_color, "point")
        else:
            colors, iso, dust = _hidden(t, memo)
            node = TrNode(
                t.limit_color,
                "deep",
                hidden_colors=colors,
                hidden_iso=iso,
                hidden_dust=dust,
            )
        distinct = _distinct(t.components)
        for _ in range(d):
            node.groups.append(
                [n for c in distinct for n in _forest(c, d - 1, memo)]
            )
        return [node]
    if isinstance(t, Cantor):
        return [_cantor_node(_distinct(t.components), t.color, d, memo)]
    out = []
    for p in t.parts:
        out.extend(_forest(p, d, memo))
    return out


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
        planar = frozenset((Color.PLANAR,))
        out = (planar, planar, False)
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


def _distinct(comps):
    seen, out = set(), []
    for c in comps:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _ord_node(rank: Cnf, budget: int) -> TrNode:
    """A point of the given rank together with a sampled neighborhood."""
    if rank.is_zero():
        return TrNode(Color.PLANAR, "point")
    if budget <= 0:
        planar = frozenset((Color.PLANAR,))
        return TrNode(
            Color.PLANAR, "deep", hidden_colors=planar, hidden_iso=planar
        )
    node = TrNode(Color.PLANAR, "point")
    for k in range(1, budget + 1):
        below = rank.pred() if rank.is_successor() else fundamental(rank, k)
        node.groups.append([_ord_node(below, budget - 1)])
    return node


def _cantor_node(distinct_comps, color: Color, d: int, memo: dict) -> TrNode:
    if d <= 0:
        hidden = [_hidden(c, memo) for c in distinct_comps]
        return TrNode(
            color,
            "dust",
            hidden_colors=frozenset((color,)).union(*(h[0] for h in hidden)),
            hidden_iso=frozenset().union(*(h[1] for h in hidden)),
        )
    node = TrNode(color, "dust")
    if d > 0:
        node.groups.append([_cantor_node(distinct_comps, color, d - 1, memo)])
        node.groups.append([_cantor_node(distinct_comps, color, d - 1, memo)])
        node.groups.append(
            [n for c in distinct_comps for n in _forest(c, d - 1, memo)]
        )
    return node


# ---------------------------------------------------------------------------
# Cantor-Bendixson brute force


def cb_bruteforce(tr: Truncation) -> list:
    """Repeatedly delete isolated sample points; return surviving counts.

    The initial count is included; the run stops at 0 or when only opaque
    nodes survive. The truncation is pruned in place.
    """
    return _cb_counts(_flatten(tr.roots))


def _cb_counts(alive: list) -> list:
    if any(n.mark == "dust" for n in alive):
        raise NotCountable("truncation contains Cantor dust")
    counts = [len(alive)]
    while alive:
        # a point is isolated at this stage once all its children are gone
        removed = {id(n) for n in alive if n.mark == "point" and not any(n.groups)}
        if not removed:
            break  # stalled on deep markers
        # prune deleted children from survivors
        alive = [n for n in alive if id(n) not in removed]
        for n in alive:
            n.groups = [[c for c in grp if id(c) not in removed] for grp in n.groups]
        counts.append(len(alive))
    return counts


def _flatten(roots) -> list:
    out = []
    stack = list(roots)
    while stack:
        n = stack.pop()
        out.append(n)
        for grp in n.groups:
            stack.extend(grp)
    return out


# ---------------------------------------------------------------------------
# invariant bundles and comparison


@dataclass(frozen=True)
class _Facts:
    """What a bundle reads off a forest of sample trees: every color shown or
    hidden, the hidden isolated colors, whether dust occurs (shown or
    hidden), whether a deep marker occurs, the isolated points per color, and
    the nodes per Cantor-Bendixson removal round. A leaf point is removed in
    round 1, a point with children one round after the last of them; deep
    and dust nodes, and the points above them, in round NEVER."""

    colors: frozenset
    hidden_iso: frozenset
    dust: bool
    deep: bool
    iso: dict  # Color -> isolated points
    rounds: dict  # removal round -> nodes


NEVER = math.inf
_NONE = _Facts(frozenset(), frozenset(), False, False, {}, {})
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
    )


def _join(forests) -> _Facts:
    """The facts of forests laid side by side."""
    out = _NONE
    for f in forests:
        out = _Facts(
            out.colors | f.colors,
            out.hidden_iso | f.hidden_iso,
            out.dust or f.dust,
            out.deep or f.deep,
            _add(out.iso, f.iso),
            _add(out.rounds, f.rounds),
        )
    return out


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
    )
    return _join((below, own))


def _fold(t: Term, d: int, memo: dict) -> _Facts:
    """The facts of `_forest(t, d)`, without building it. `memo` holds the
    facts of every distinct (subterm, depth), (rank, budget) and (Cantor
    components, color, depth) of one `bundle` or `equiv_invariants` call,
    and `_hidden`'s answers."""
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
            group = _join(_fold(c, d - 1, memo) for c in _distinct(t.components))
            f = _node(t.limit_color, "point", _times(group, d))
        else:
            f = _node(t.limit_color, "deep", _NONE, _hidden(t, memo))
    elif isinstance(t, Cantor):
        f = _fold_cantor(tuple(_distinct(t.components)), t.color, d, memo)
    else:
        f = _join(_fold(p, d, memo) for p in t.parts)
    memo[key] = f
    return f


def _fold_ord(rank: Cnf, budget: int, memo: dict) -> _Facts:
    """The facts of `_ord_node(rank, budget)`."""
    key = (rank, budget)
    f = memo.get(key)
    if f is not None:
        return f
    if rank.is_zero():
        f = _node(Color.PLANAR, "point", _NONE)
    elif budget <= 0:
        planar = frozenset((Color.PLANAR,))
        f = _node(Color.PLANAR, "deep", _NONE, (planar, planar, False))
    elif rank.is_successor():
        below = _times(_fold_ord(rank.pred(), budget - 1, memo), budget)
        f = _node(Color.PLANAR, "point", below)
    else:
        below = _join(
            _fold_ord(fundamental(rank, k), budget - 1, memo) for k in range(1, budget + 1)
        )
        f = _node(Color.PLANAR, "point", below)
    memo[key] = f
    return f


def _fold_cantor(distinct_comps: tuple, color: Color, d: int, memo: dict) -> _Facts:
    """The facts of `_cantor_node(distinct_comps, color, d)`."""
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
        dust = _times(_fold_cantor(distinct_comps, color, d - 1, memo), 2)
        gaps = (_fold(c, d - 1, memo) for c in distinct_comps)
        f = _node(color, "dust", _join((dust, *gaps)))
    memo[key] = f
    return f


def bundle(t: Term, depth: int) -> dict:
    """Robust invariants of the depth-`depth` truncation of t."""
    sample_nodes(t, depth)
    memo = {}
    iso_prev = _bundle(_fold(t, depth - 1, memo), None)[1] if depth >= 1 else None
    return _bundle(_fold(t, depth, memo), iso_prev)[0]


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
    for side in (a, b):  # before any work, not at the first depth past it
        sample_nodes(side, depth)
    memo = {}
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


# ---------------------------------------------------------------------------
# truncation-level clopen-embedding check (second opinion for the preorder)


def tr_embeds(a: Term, b: Term, depth: int) -> bool:
    """Whether the depth-truncation of a fits into that of b as sample trees."""
    fa = truncate(a, depth).roots
    fb = truncate(b, depth).roots
    return _fit_forest(fa, fb)


def _fit_forest(fa, fb) -> bool:
    # every root of fa must fit somewhere in fb's forest (subtrees reusable:
    # the target regions repeat, so multiplicity is not an obstruction)
    candidates = []
    for r in fb:
        candidates.extend(_subtrees(r))
    return all(any(_fits(x, y) for y in candidates) for x in fa)


def _subtrees(node):
    out = [node]
    for c in node.children:
        out.extend(_subtrees(c))
    return out


def _fits(x: TrNode, y: TrNode) -> bool:
    if x.color != y.color:
        return False
    if x.mark == "dust":
        return y.mark == "dust"
    if y.mark == "dust":
        # a convergence point can sit at a dust sample when its sampled
        # neighborhood fits among the dust node's gap insertions
        return bool(x.groups) and _fit_forest(x.children, _subtrees_below(y))
    if y.mark == "deep":
        return x.mark != "dust"  # unexpanded countable region: permissive
    if x.mark == "deep":
        return bool(y.groups) or y.mark == "deep"
    if not x.groups:
        return not y.groups or _has_isolated_below(y)
    return _fit_forest(x.children, _subtrees_below(y))


def _subtrees_below(node):
    out = []
    for c in node.children:
        out.extend(_subtrees(c))
    return out


def _has_isolated_below(node) -> bool:
    return any(
        n.mark == "point" and not n.children for n in _subtrees_below(node)
    )
