"""The built-tree reference of `endscope.oracle`.

`truncate` expands a term into its finite sample tree, node by node, which
`endscope.oracle` only folds over; `cb_bruteforce` deletes isolated sample
points round by round, `bundle` reads the invariant bundle of one depth, and
`tr_embeds` fits one truncation into another as sample trees. The tests hold
the oracle's fold to these trees. The tree semantics are those of the
`endscope.oracle` docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from endscope.oracle import _PLANAR, _bundle, _fold, _hidden, sample_nodes
from endscope.ordinals import Cnf, fundamental
from endscope.terms import Cantor, Color, Mix, NotCountable, Ord, Pt, Term


# ---------------------------------------------------------------------------
# the built sample tree


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
        distinct = list(dict.fromkeys(t.components))
        for _ in range(d):
            node.groups.append(
                [n for c in distinct for n in _forest(c, d - 1, memo)]
            )
        return [node]
    if isinstance(t, Cantor):
        return [_cantor_node(list(dict.fromkeys(t.components)), t.color, d, memo)]
    out = []
    for p in t.parts:
        out.extend(_forest(p, d, memo))
    return out


def _ord_node(rank: Cnf, budget: int) -> TrNode:
    """A point of the given rank together with a sampled neighborhood."""
    if rank.is_zero():
        return TrNode(Color.PLANAR, "point")
    if budget <= 0:
        return TrNode(
            Color.PLANAR, "deep", hidden_colors=_PLANAR, hidden_iso=_PLANAR
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
# invariant bundles


def bundle(t: Term, depth: int) -> dict:
    """Robust invariants of the depth-`depth` truncation of t."""
    memo = {}
    sample_nodes(t, depth, memo)
    iso_prev = _bundle(_fold(t, depth - 1, memo), None)[1] if depth >= 1 else None
    return _bundle(_fold(t, depth, memo), iso_prev)[0]


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
