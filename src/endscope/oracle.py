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

A sample tree grows exponentially with the depth, so one truncation holds at
most MAX_SAMPLE_NODES nodes; a larger one is a ValidationError naming the
maximum, raised by `sample_nodes` before any node is built.
"""

from __future__ import annotations

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


def bundle(t: Term, depth: int) -> dict:
    """Robust invariants of the depth-`depth` truncation of t."""
    iso_prev = _bundle(t, depth - 1, None)[1] if depth >= 1 else None
    return _bundle(t, depth, iso_prev)[0]


def _bundle(t: Term, depth: int, iso_prev):
    """The bundle of t at `depth` and its isolated-point counts, from one
    walk over one truncation; `iso_prev` holds the counts at depth - 1, or
    None at depth 0. The brute-force derivative runs last, since it prunes
    the tree."""
    nodes = _flatten(truncate(t, depth).roots)
    colors, hidden_iso, iso_now = set(), set(), {}
    perfect_kernel = deep = False
    for n in nodes:
        colors.add(n.color)
        colors |= n.hidden_colors
        hidden_iso |= n.hidden_iso
        if n.mark == "dust" or n.hidden_dust:
            perfect_kernel = True
        if n.mark == "deep":
            deep = True
        elif n.mark == "point" and not any(n.groups):
            key = str(n.color)
            iso_now[key] = iso_now.get(key, 0) + 1
    if iso_prev is None:
        iso_prev = iso_now
    out = {
        "colors": sorted(str(c) for c in colors),
        "perfect_kernel": perfect_kernel,
        "deep": deep,
        "hidden_isolated": sorted(str(c) for c in hidden_iso),
        "isolated": {
            color: (count if count == iso_prev.get(color, 0) else "growing")
            for color, count in iso_now.items()
        },
        "derivative": None,
    }
    if not perfect_kernel and out["colors"] in ([], ["planar"]):
        counts = _cb_counts(nodes)
        out["derivative"] = {
            "rounds": len(counts) - 1,
            "final_nonzero": next((c for c in reversed(counts) if c != 0), 0),
            "stalled": counts[-1] != 0,
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
    iso_a = iso_b = None
    for d in range(depth + 1):
        ba, iso_a = _bundle(a, d, iso_a)
        bb, iso_b = _bundle(b, d, iso_b)
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
    for color in set(ba["isolated"]) | set(bb["isolated"]):
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
