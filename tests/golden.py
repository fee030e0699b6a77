"""Golden corpus: the stdout SHA-256 and exit code of the report commands on
fixed inputs, so that a refactor or an optimization can show that it changes
no byte of output.

The inputs are the six built-in examples, fixed-seed random terms and
surfaces from `catalog.random_term` (terms at sizes 5 and 7), a few larger
rank towers and nested mixes, and user-supplied copies of derived tables. Each case is one
`endscope.cli.run` call; a `certify --check` case reads the certificate the
`certify` case before it printed.

    python3 tests/golden.py     # rewrite tests/golden_corpus.json

Regenerate only when an output change is intended, and say so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "golden_corpus.json")


def _inputs() -> list:
    from catalog import random_term
    from endscope.examples_builtin import EXAMPLES
    from endscope.germs import derive_table, to_json
    from endscope.terms import has_genus, pretty

    out = [(f"example:{name}", EXAMPLES[name]) for name in sorted(EXAMPLES)]
    for seed in range(24):
        t = random_term(random.Random(f"golden-term-{seed}"), 5)
        out.append((f"term:{seed}", pretty(t)))
    for seed in range(16):
        t = random_term(random.Random(f"golden-surface-{seed}"), 5)
        genus = "inf" if has_genus(t) else "0"
        out.append((f"surface:{seed}", f"surface {{ genus: {genus}, ends: {pretty(t)} }}"))
    out += [
        ("tower:stone", "ord(w^(9)*3)"),
        ("tower:surface", "surface { genus: 0, ends: ord(w^(7)*2+w^(3)) }"),
        ("tower:family", "ord(w^(w+2)*2+w^(5))"),
        ("nest:4", "surface { genus: inf, ends: mix(cantor^g(mix(mix(mix("
                   "cantor^g(),pt;g),cantor(ord(w));g),pt^g;g)),cantor();g) }"),
    ]
    for name, src in (("tower", "ord(w^(8)*2)"), ("mix", "mix(ord(w^(3)),cantor(),pt^g;g)"),
                      ("family", "mix(ord(w^(w)),cantor^g(pt);g)")):
        from endscope.parser import parse_term

        doc = dict(to_json(derive_table(parse_term(src))), origin="user-supplied")
        out.append((f"user:{name}", json.dumps(doc, sort_keys=True)))
        out.append((f"user-surface:{name}", json.dumps(dict(doc, surface=True), sort_keys=True)))
    for seed in range(32):
        t = random_term(random.Random(f"golden-term7-{seed}"), 7)
        out.append((f"term7:{seed}", pretty(t)))
    left = "pt"
    for _ in range(7):
        left = f"mix({left},pt;g)"
    alternating = "pt^g"
    for i in range(8):
        alternating = (f"mix({alternating},cantor(ord(w));g)" if i % 2
                       else f"cantor^g({alternating},pt)")
    out += [
        ("nest:7", left),
        ("nest:8", f"surface {{ genus: inf, ends: {alternating} }}"),
    ]
    return out


def _oracle_pairs() -> list:
    from catalog import random_term
    from endscope.normalize import normalize
    from endscope.terms import pretty

    out = []
    for seed in range(12):
        rng = random.Random(f"golden-oracle-{seed}")
        a, b = random_term(rng, 4), random_term(rng, 4)
        out.append((pretty(a), pretty(b), 3))
        out.append((pretty(a), pretty(normalize(a)), 3))
    nest = "mix(mix(mix(cantor^g(),pt;g),cantor(ord(w));g),pt^g;g)"
    perm = "mix(pt^g,mix(cantor(ord(w)),mix(pt,cantor^g();g);g);g)"
    out.append((nest, perm, 4))
    return out


def run_cli(argv) -> tuple:
    """(exit code, stdout) of one in-process command; an escaping exception
    is recorded by its class name in place of the exit code."""
    from endscope.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as e:  # the corpus records it, the test compares it
            code = type(e).__name__
    return code, out.getvalue()


def cases(workdir: str):
    """Yield (name, argv) for every case; files go to `workdir`. The argv of a
    `certify --check` case is only complete once the case before it ran, so
    the caller sends back that case's stdout."""
    from endscope.cli import _load, _table_of

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    for i, (name, text) in enumerate(_inputs()):
        path = write(f"in{i}.txt", text + "\n")
        for argv in (["verdict", path, "--format", "json"], ["verdict", path],
                     ["classify", path], ["normalize", path]):
            yield f"{name} {' '.join(argv[:1] + argv[2:])}", argv
        for cid in _table_of(_load(text)).ids()[:4]:
            cert = yield f"{name} certify {cid}", ["certify", path, "--end", cid]
            if cert is not None:
                check = write(f"cert{i}.json", cert)
                yield f"{name} certify --check {cid}", ["certify", path, "--end", cid, "--check", check]
    for a, b, depth in _oracle_pairs():
        yield f"oracle {a} {b} {depth}", ["oracle", "--compare", a, b, "--depth", str(depth)]


def run_corpus() -> list:
    """Run every case; [{"case", "code", "stdout_sha256"}] in case order."""
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        gen = cases(workdir)
        sent = None
        while True:
            try:
                name, argv = gen.send(sent)
            except StopIteration:
                break
            code, out = run_cli(argv)
            rows.append({"case": name, "code": code,
                         "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()})
            sent = out if argv[0] == "certify" and "--check" not in argv and code == 0 else None
    return rows


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(run_corpus(), fh, indent=1)
        fh.write("\n")
