"""The Steinhaus exponent DAG: each node names one step of the automatic
continuity argument and, where the step has one, the exponent it
contributes, computed from the exponents of the steps it depends on.
`constants` evaluates the DAG; `REQUIRED_CONSTANTS` holds the values the
argument needs. It imports nothing of the germ engine, so `endscope
constants` loads none of it.
"""

from __future__ import annotations

from . import _Frozen


class DagNode(_Frozen):
    # compute: callable over dep values, or None for proof-only nodes
    __slots__ = ("name", "deps", "compute", "note")


class ExponentDag(_Frozen):
    __slots__ = ("nodes", "values")

    def value(self, name: str):
        return self.values[name]


_DAG_SPEC = [
    ("w2-step", (), lambda: 2, "one symmetric-set doubling step"),
    ("baire-category", (), None, "a translate of W is non-meager"),
    (
        "diagonal2",
        ("w2-step",),
        lambda a: 4 * a,
        "diagonal argument over pointwise-convergent products",
    ),
    (
        "conjugated-finite-part",
        ("w2-step", "diagonal2"),
        lambda a, b: a + b + a,
        "finite part conjugated into the brick",
    ),
    (
        "F-product",
        ("conjugated-finite-part", "diagonal2"),
        lambda a, b: a + b,
        "product with the diagonal remainder",
    ),
    (
        "pigeonhole",
        ("w2-step", "F-product"),
        lambda a, b: a + b + a,
        "pigeonhole over countably many translates; brick-supported maps",
    ),
    (
        "diagonal-cover",
        (),
        None,
        "countable cover refined along a descending brick chain",
    ),
    (
        "globalpointed",
        ("pigeonhole",),
        lambda a: 4 * a,
        "pointwise-stabilizing subgroup of a stable Stone space",
    ),
    (
        "surface-third",
        ("conjugated-finite-part",),
        lambda a: 3 * a,
        "third-power step for big-annulus supports",
    ),
    (
        "surface-brick",
        ("surface-third",),
        lambda a: 2 * a,
        "maps supported on a surface brick",
    ),
    (
        "globalpointedS",
        ("surface-brick",),
        lambda a: 4 * a,
        "pointwise-stabilizing subgroup over a stable surface neighborhood",
    ),
    (
        "inductive-step",
        (),
        None,
        "induction over the finitely many maximal classes",
    ),
    (
        "fragmentation-triple",
        ("globalpointedS",),
        lambda a: 3 * a,
        "three-way fragmentation across annulus bricks",
    ),
    (
        "final-surface",
        ("globalpointedS",),
        lambda a: 17 * a,
        "seventeen-fold composition closing the surface case",
    ),
]

REQUIRED_CONSTANTS = {
    "diagonal2": 8,
    "conjugated-finite-part": 12,
    "F-product": 20,
    "pigeonhole": 24,
    "globalpointed": 96,
    "surface-third": 36,
    "surface-brick": 72,
    "globalpointedS": 288,
    "fragmentation-triple": 864,
    "final-surface": 4896,
}


def constants() -> ExponentDag:
    nodes = []
    values = {}
    for name, deps, compute, note in _DAG_SPEC:
        nodes.append(DagNode(name, deps, compute, note))
        if compute is None:
            values[name] = None
        else:
            values[name] = compute(*(values[d] for d in deps))
    return ExponentDag(tuple(nodes), values)
