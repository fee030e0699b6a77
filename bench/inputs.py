"""Seeded input generators for the benchmark workloads.

Everything here is plain text in the endscope input grammar, built without
importing endscope, so that the expected properties the checks compare
against are computed independently of the program under test.
"""

from __future__ import annotations

import json
import random

# ranks of the countable components, as cnf literals ("0" = finite points)
RANKS = ["0", "1", "2", "3", "w", "w+1", "w*2", "w^(2)", "w^(w)"]

# surfaces whose genus contradicts the colour of their ends. They do not
# depend on the seed: `verdict` and `classify` on them must exit 65 with a
# one-line message, and today they end in a traceback (counted as failed).
GENUS_MISMATCHES = [
    "surface { genus: 0, ends: pt^g }",
    "surface { genus: 2, ends: cantor^g() }",
    "surface { genus: inf, ends: ord(w) }",
    "surface { genus: inf, ends: cantor(pt) }",
]

# a term whose decomposition certificate, emitted by the engine for the
# class of the term itself, fails its own replay today
REASSEMBLY_FAULT = "mix(ord(w*2),ord(w*3);g)"

# a term whose normal form gets other class ids today, and the renaming of
# its class ids that the normal form shows
CLASS_ID_FAULT = (
    "sum(cantor(ord(w^(3))),cantor(cantor(ord(w^(3)*3))))",
    {"cantor(ord(w^(3)))": "cantor(ord(w^(3)*3))"},
)

# the paper's named surfaces among the built-in examples: expected verdict and
# witness (None when the property holds)
NAMED_VERDICTS = {
    "mona-lisa": ("holds", None),
    "blooming-cantor": ("holds", None),
    "loch-ness": ("fails", "curve-separating-genus"),
    "flute": ("fails", "puncture-count curve"),
}
SURFACE_EXAMPLES = ["mona-lisa", "loch-ness", "flute", "blooming-cantor"]
TABLE_EXAMPLES = ["unknown-6-2", "telescopefail-iii"]


class Term:
    """A generated term: its text and the facts the generator tracks."""

    __slots__ = ("text", "genus", "countable", "cantor_root", "atoms")

    def __init__(self, text, genus, countable, cantor_root=None, atoms=None):
        self.text = text
        self.genus = genus
        self.countable = countable
        # the colour ("g" or "planar") when the term is a Cantor set with
        # decorations, up to the engine's rewrites; None otherwise
        self.cantor_root = cantor_root
        # the components this term contributes when spliced into a mix or
        # cantor node (a sum contributes its parts)
        self.atoms = atoms if atoms is not None else (self,)


def _ord_literal(rank: str, degree: int) -> str:
    if rank == "0":
        return str(degree)
    return f"w^({rank})" if degree == 1 else f"w^({rank})*{degree}"


def _clashes(atoms, color: str) -> bool:
    return (sum(1 for a in atoms if a.countable and not a.genus) > 1
            or sum(1 for a in atoms if a.cantor_root == color) > 1)


def random_term(rng: random.Random, budget: int, inner: bool = False) -> Term:
    """A random valid term with at most `budget` levels of nesting.

    Below a mix or cantor node (`inner`), an ord has degree 1; and after
    sums are spliced in, a node has at most one countable planar component
    and at most one Cantor-rooted component of its own colour. Two faults
    named in CHANGES.md show otherwise, on some seeds only: `certify --check`
    rejects the engine's own decomposition certificate, and `classify` of
    `normalize(t)` gives other class ids than `classify` of `t`. An
    operation that fails on some seeds only cannot be kept in a workload
    whose failure share must not depend on the seed; each session round
    runs one fixed input of each fault instead (REASSEMBLY_FAULT,
    CLASS_ID_FAULT).
    """
    kind = rng.choice(["pt", "pt", "ord"] if budget <= 1 else
                      ["pt", "ord", "mix", "cantor", "sum"])
    if kind == "pt":
        genus = rng.random() < 0.5
        return Term("pt^g" if genus else "pt", genus, True)
    if kind == "ord":
        lit = _ord_literal(rng.choice(RANKS), 1 if inner else rng.randint(1, 3))
        return Term(f"ord({lit})", False, True)
    if kind == "sum":
        parts = [random_term(rng, budget - 1, inner) for _ in range(rng.randint(2, 3))]
        return Term(
            "sum(" + ",".join(p.text for p in parts) + ")",
            any(p.genus for p in parts),
            all(p.countable for p in parts),
            atoms=tuple(a for p in parts for a in p.atoms),
        )
    lo, hi = (1, 3) if kind == "mix" else (0, 2)
    while True:
        comps = [random_term(rng, budget - 1, True) for _ in range(rng.randint(lo, hi))]
        atoms = [a for c in comps for a in c.atoms]
        genus = any(c.genus for c in comps) or rng.random() < 0.5
        color = "g" if genus else "planar"
        if not _clashes(atoms, color):
            break
    body = ",".join(c.text for c in comps)
    if kind == "mix":
        # a mix of copies of one Cantor-rooted space of its colour is that space
        root = color if len({a.text for a in atoms}) == 1 and atoms[0].cantor_root == color else None
        return Term(f"mix({body};{color})", genus, all(c.countable for c in comps), root)
    return Term(f"cantor{'^g' if genus else ''}({body})", genus, False, color)


def surface_text(t: Term, rng: random.Random) -> str:
    genus = "inf" if t.genus else rng.choice(["0", "1", "2"])
    return f"surface {{ genus: {genus}, ends: {t.text} }}"


def distinct_terms(rng: random.Random, count: int, budget: int, seen: set) -> list:
    """`count` random terms whose texts are not in `seen` (which grows)."""
    out = []
    while len(out) < count:
        t = random_term(rng, budget)
        if t.text not in seen:
            seen.add(t.text)
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# rank towers: ord(w^(n)*k) has the closed-form germ table below


def tower_ids(n: int) -> list:
    return sorted(f"rank({i})" for i in range(n + 1))


def tower_table(n: int, k: int, surface: bool) -> dict:
    """The germ table of ord(w^(n)*k): classes rank(0..n), rank(i) <= rank(j)
    for i <= j and rank(i) accumulating at rank(j) for i < j."""
    classes = [
        {"id": f"rank({i})", "kind": "countable_discrete", "color": "planar"}
        for i in range(n)
    ]
    classes.append({"id": f"rank({n})", "kind": f"finite({k})", "color": "planar"})
    doc = {
        "classes": sorted(classes, key=lambda c: c["id"]),
        "leq": sorted([f"rank({i})", f"rank({j})"]
                      for j in range(n + 1) for i in range(j + 1)),
        "acc": sorted([f"rank({i})", f"rank({j})"]
                      for j in range(n + 1) for i in range(j)),
        "origin": "derived-from-term",
    }
    if surface:
        doc["surface"] = True
    return doc


# ---------------------------------------------------------------------------
# nested mix surfaces and bricks


def nested_mix(rng: random.Random, depth: int, pool: list) -> tuple:
    """A genus mix nested `depth` deep, and a copy with every component list
    in another order (the same space, so the oracle must answer "same").

    The side components are the pool repeated to `depth` entries, in an
    order the seed picks: every seed nests the same components, so the size
    of the tables, and the cost, hardly depend on the seed."""
    sides = [pool[i % len(pool)] for i in range(depth)]
    rng.shuffle(sides)
    text = perm = "cantor^g()"
    for side in sides:
        text = f"mix({text},{side};g)"
        perm = f"mix({side},{perm};g)"
    return text, perm


def random_brick(rng: random.Random, max_prefix: int, max_period: int,
                 balanced: bool = False) -> dict:
    """A shift certificate for an eventually periodic brick; its period holds
    both a 0 and a 1, as the certificate format requires. A balanced period
    is half ones, which keeps the cost of a replay within a factor of two."""
    prefix = [rng.randint(0, 1) for _ in range(rng.randint(0, max_prefix))]
    while True:
        period = [rng.randint(0, 1) for _ in range(rng.randint(2, max_period))]
        if 2 * sum(period) == len(period) if balanced else 0 in period and 1 in period:
            break
    return {
        "kind": "shift",
        "basepoint": None,
        "pieces": [{"prefix": prefix, "period": period}],
        "witnesses": [{"kind": "disjoint-rows"}, {"kind": "partition"}],
    }


def tamper(cert_text: str, rng: random.Random) -> str:
    """The certificate with one field changed."""
    doc = json.loads(cert_text)
    if rng.random() < 0.5 and doc.get("pieces"):
        piece = rng.choice(doc["pieces"])
        piece["index"] += 1
    else:
        doc["basepoint"] = f"{doc['basepoint']}'"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
