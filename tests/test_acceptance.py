"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single pass/fail line
so the suite output doubles as a checklist.
"""

import json
import random
import subprocess
import sys
import time

from catalog import catalog, countable_catalog, random_term
from endscope.examples_builtin import EXAMPLES
from endscope.exponents import REQUIRED_CONSTANTS, constants
from endscope.germs import derive_table, from_json
from endscope.normalize import normalize
from endscope.oracle import equiv_invariants
from endscope.parser import parse, parse_term
from endscope.stability import Stable, check_decomposition, stable_nbhd
from endscope.swindle import (
    alternating_check,
    anderson,
    commutator_from_alternating,
    em_check,
    slot_word,
    word_inv,
)
from endscope.terms import Cantor, Color, Mix, cb_rank, pretty
from endscope.verdict import stone_verdict, surface_verdict
from oracle_ref import cb_bruteforce, truncate


def _report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


def test_criterion_1_exponent_constants():
    start = time.monotonic()
    dag = constants()
    mismatches = [
        name
        for name, expected in REQUIRED_CONSTANTS.items()
        if dag.value(name) != expected
    ]
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: exponent constants",
        not mismatches and elapsed < 1.0,
        f"{len(REQUIRED_CONSTANTS)} constants, {elapsed:.3f}s",
    )


def test_criterion_2_golden_verdicts():
    start = time.monotonic()
    problems = []

    def expect(label, verdict, ac, witness=None):
        if verdict.ac != ac:
            problems.append(f"{label}: ac {verdict.ac!r} != {ac!r}")
        elif witness is not None and verdict.witness != witness:
            problems.append(f"{label}: witness {verdict.witness!r}")

    expect("mona-lisa", surface_verdict(parse(EXAMPLES["mona-lisa"])), "holds")
    expect(
        "loch-ness",
        surface_verdict(parse(EXAMPLES["loch-ness"])),
        "fails",
        "curve-separating-genus",
    )
    # any surface descriptor containing an isolated genus class fails with F1
    for src in ("pt^g", "sum(pt^g,cantor^g())", "mix(ord(w),pt^g;g)"):
        v = surface_verdict(parse(f"surface {{ genus: inf, ends: {src} }}"))
        expect(f"isolated-genus {src}", v, "fails", "curve-separating-genus")
    expect(
        "flute",
        surface_verdict(parse(EXAMPLES["flute"])),
        "fails",
        "puncture-count curve",
    )
    for src in ("ord(1)", "ord(w)", "ord(w*3)", "ord(w^(2)*2)", "ord(w^(w))"):
        expect(f"stone {src}", stone_verdict(parse_term(src)), "holds")
    expect("cantor stone", stone_verdict(parse_term("cantor()")), "holds")
    expect(
        "unknown-6-2",
        surface_verdict(from_json(json.loads(EXAMPLES["unknown-6-2"]))),
        "unknown",
    )
    elapsed = time.monotonic() - start
    _report(
        "criterion 2: golden verdicts",
        not problems and elapsed < 5.0,
        "; ".join(problems) or f"{elapsed:.3f}s",
    )


def test_criterion_3_stability_certificates():
    start = time.monotonic()
    terms = catalog()
    failures = []
    checked = 0
    for t in terms:
        table = derive_table(t)
        for c in table.classes:
            res = stable_nbhd(table, c.id)
            if not isinstance(res, Stable):
                failures.append(f"{pretty(t)}/{c.id}: {res}")
                continue
            problems = check_decomposition(res.decomposition, depth=20, seed=1)
            if problems:
                failures.append(f"{pretty(t)}/{c.id}: {problems}")
            checked += 1
    elapsed = time.monotonic() - start
    ok = len(terms) >= 30 and not failures and elapsed < 60.0
    _report(
        "criterion 3: stability certificates",
        ok,
        "; ".join(failures[:3]) or f"{len(terms)} terms, {checked} classes, {elapsed:.1f}s",
    )


def test_criterion_4_preorder_laws():
    rng = random.Random(20260823)
    violations = []
    for i in range(500):
        term = random_term(rng)
        table = derive_table(term)
        ids = [c.id for c in table.classes]
        for x in ids:
            if (x, x) not in table.leq:
                violations.append(f"{pretty(term)}: leq not reflexive at {x}")
        for (a, b) in table.leq:
            for (c, d) in table.leq:
                if b == c and (a, d) not in table.leq:
                    violations.append(f"{pretty(term)}: leq not transitive")
        for (a, x) in table.acc:
            if table.row(a).color is Color.GENUS and table.row(x).color is not Color.GENUS:
                violations.append(f"{pretty(term)}: genus closedness broken")
        from endscope.germs import maximal_classes

        top = maximal_classes(table)
        if not top or len(top) > len(ids):
            violations.append(f"{pretty(term)}: bad maximal class count")
        if isinstance(term, (Mix, Cantor)) and len(top) != 1:
            violations.append(f"{pretty(term)}: {len(top)} maximal classes at root")
        if violations:
            break
    _report(
        "criterion 4: preorder laws on 500 random tables",
        not violations,
        "; ".join(violations[:3]) or "0 violations",
    )


def test_criterion_5_swindle_suite():
    start = time.monotonic()
    failures = []
    rng = random.Random(42)

    def random_word(length):
        return [rng.choice([k for k in range(-4, 5) if k]) for _ in range(length)]

    for i in range(200):
        h = slot_word(
            {s: random_word(rng.randint(1, 6)) for s in range(rng.randint(1, 8))}
        )
        depth = rng.randint(max(h.support(), default=0) + 1, 32)
        _, _, ok = anderson(h, depth)
        if not ok:
            failures.append(f"anderson case {i}")
    for d in range(1, 7):
        rep = em_check(d)
        if not (
            rep["separators"]
            and all(rep["blue_blocks"])
            and all(rep["regrouped_blocks"])
            and rep["reconstruction"]
            and rep["product_identity"] == "both"
        ):
            failures.append(f"em_check d={d}: {rep}")
    f = slot_word({0: (1, 2), 1: (3,), 10: (-2, -1), 11: (-3,)})
    split, conj = ((0, 1), (10, 11)), {0: 10, 1: 11}
    if not alternating_check(f, split, conj):
        failures.append("alternating check")
    f1, hmap = commutator_from_alternating(f, split, conj)
    rebuilt = {}
    for s, w in f1.assignment:
        rebuilt[s] = w
        rebuilt[hmap[s]] = word_inv(w)
    if slot_word(rebuilt) != f:
        failures.append("commutator round trip")
    elapsed = time.monotonic() - start
    _report(
        "criterion 5: swindle suite",
        not failures and elapsed < 30.0,
        "; ".join(failures[:3]) or f"200 anderson + em d<=6, {elapsed:.1f}s",
    )


def test_criterion_6_oracle_agreement():
    disagreements = []
    for t in catalog():
        res = equiv_invariants(t, normalize(t), 4)
        if res != "same":
            disagreements.append(f"{pretty(t)}: {res}")
    rng = random.Random(20260823)
    for _ in range(300):
        t = random_term(rng)
        res = equiv_invariants(t, normalize(t), 4)
        if res != "same":
            disagreements.append(f"{pretty(t)}: {res}")
    terms = countable_catalog()
    for t in terms:
        rank, degree = cb_rank(t)
        r = rank.nat_value()
        counts = cb_bruteforce(truncate(t, r + 2))
        if len(counts) - 1 != r + 1 or counts[-1] != 0 or counts[r] != degree:
            disagreements.append(f"extinction mismatch for {pretty(t)}")
    _report(
        "criterion 6: oracle agreement",
        not disagreements and len(terms) >= 20,
        "; ".join(disagreements[:3]) or f"catalog + 300 random + {len(terms)} countable",
    )


def test_criterion_7_json_determinism(tmp_path):
    mismatches = []
    for name, text in sorted(EXAMPLES.items()):
        f = tmp_path / name
        f.write_text(text)
        outs = set()
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "endscope", "verdict", str(f), "--format", "json"],
                capture_output=True,
            )
            outs.add(proc.stdout)
        if len(outs) != 1:
            mismatches.append(name)
    _report(
        "criterion 7: verdict JSON determinism",
        not mismatches,
        "; ".join(mismatches) or f"{len(EXAMPLES)} examples x3 runs",
    )
