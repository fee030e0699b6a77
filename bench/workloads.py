"""The three workloads: each is a list of rounds, each round a list of
scripts, and each script a generator that yields one CLI command at a time
and checks the result it is sent back.

A script receives a `Result` for every `Op` it yields and reports problems
through the `Ctx`. The checks rest on facts computed here, not on earlier
output of the program: the paper's verdicts for its named surfaces, the
closed-form germ table of a rank tower, SHA-256 of the input, the telescoping
criterion, and properties such as idempotence or tamper detection.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from inputs import (
    CLASS_ID_FAULT,
    GENUS_MISMATCHES,
    NAMED_VERDICTS,
    REASSEMBLY_FAULT,
    SURFACE_EXAMPLES,
    distinct_terms,
    nested_mix,
    random_brick,
    random_term,
    surface_text,
    tamper,
    tower_ids,
    tower_table,
)

EXIT_FOR = {"holds": 0, "fails": 1, "unknown": 2}
WITNESS_FOR = {
    "F1": "curve-separating-genus",
    "F2": "puncture-count curve",
    "F3": "pair-of-pants chain",
}
EXIT_INPUT = 65


class Op:
    __slots__ = ("argv", "env")

    def __init__(self, *argv, env=None):
        self.argv = list(argv)
        self.env = env or {}


class Result:
    __slots__ = ("argv", "code", "out", "err", "ms", "cli_ms", "layers", "failed",
                 "maxrss_kb")

    def __init__(self, argv, code, out, err, ms, cli_ms=None, layers=None):
        self.argv, self.code, self.out, self.err = argv, code, out, err
        self.ms, self.cli_ms, self.layers = ms, cli_ms, layers
        self.failed = False
        self.maxrss_kb = None  # peak RSS of the process, when it ran alone


class Ctx:
    """Input files of one run, and what the checks found."""

    def __init__(self, workdir: str):
        self.dir = workdir
        self.files = 0
        self.problems = []  # wrong output of an operation that did not fail

    def write(self, text: str, suffix: str = ".txt") -> str:
        self.files += 1
        path = os.path.join(self.dir, f"{self.files:06d}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def ok(self, res: Result, codes=(0,), fault=None) -> bool:
        """The command exited with one of `codes` and printed no traceback.

        A failure is counted. It is also a problem, which makes the run
        incorrect, unless `fault(res)` says that it shows the documented
        symptom of a known fault of the program.
        """
        if res.code in codes and "Traceback" not in res.err:
            return True
        res.failed = True
        if fault is None or not fault(res):
            self.problems.append(f"{res.argv}: exit {res.code} {_last_line(res.err)[:200]}")
        return False

    def check(self, cond: bool, res: Result, what: str, symptom: bool = False) -> bool:
        """`cond` holds of the output. When it does not, the operation is
        counted as failed; it is also a problem unless `symptom` says that
        the output shows the documented symptom of a known fault."""
        if not cond:
            res.failed = True
            if not symptom:
                self.problems.append(f"{res.argv}: {what}")
        return cond


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(ctx: Ctx, res: Result, text: str, derived: bool, surface: bool):
    """A `verdict --format json` report; returns it, or None on failure."""
    if not ctx.ok(res, (0, 1, 2)):
        return None
    rep = json.loads(res.out)
    v = rep["verdict"]
    ctx.check(rep["input"] == text and rep["input_sha256"] == _sha(text), res,
              "input or input_sha256 differs from the input")
    ctx.check(res.code == EXIT_FOR[v["ac"]], res, f"exit {res.code} for ac={v['ac']}")
    ids = [c["id"] for c in rep["classes"]]
    ctx.check(ids == sorted(ids) and len(set(ids)) == len(ids), res, "class ids")
    if derived and not surface:
        # every derived class is stable, so by the Stone-space theorem the
        # verdict holds
        ctx.check(v["ac"] == "holds", res, f"stone verdict {v['ac']}")
    if derived and surface:
        # telescoping criterion: given stability, AC holds iff every class
        # telescopes; the witness comes from the first failure case F1..F3
        ctx.check(all(c["stable"] == "stable" for c in rep["classes"]), res,
                  "derived class not stable")
        failures = {c["case"] for c in rep["classes"] if not c["telescoping"]}
        want = "fails" if failures else "holds"
        witness = next((WITNESS_FOR[f] for f in ("F1", "F2", "F3") if f in failures), None)
        ctx.check(v["ac"] == want and v["witness"] == witness, res,
                  f"verdict {v['ac']}/{v['witness']}, criterion gives {want}/{witness}")
    return rep


def check_table(ctx: Ctx, res: Result):
    """A germ table from `classify`: leq is a reflexive, transitive relation
    that contains acc. Returns the table, or None on failure."""
    if not ctx.ok(res):
        return None
    doc = json.loads(res.out)
    ids = [c["id"] for c in doc["classes"]]
    leq = {tuple(p) for p in doc["leq"]}
    acc = {tuple(p) for p in doc["acc"]}
    ctx.check(all((i, i) in leq for i in ids), res, "leq not reflexive")
    ctx.check(acc <= leq, res, "acc not contained in leq")
    after = {}
    for a, b in leq:
        after.setdefault(a, set()).add(b)
    ctx.check(all(after.get(b, set()) <= after[a] for a, b in leq), res,
              "leq not transitive")
    return doc


def _ids(doc) -> list:
    return [c["id"] for c in doc["classes"]]


def certify(ctx: Ctx, path: str, end: str, rng: random.Random, kinds, forge=True,
            fault=None):
    """Emit a certificate for `end`, replay it, and (with `forge`) replay a
    copy with one field changed, which must fail. `fault` recognises the
    symptom of a known fault in the replay (see Ctx.ok)."""
    res = yield Op("certify", path, "--end", end)
    if not ctx.ok(res):
        return
    ctx.check(json.loads(res.out)["kind"] in kinds, res, "certificate kind")
    good = yield Op("certify", path, "--end", end, "--check", ctx.write(res.out, ".json"))
    if ctx.ok(good, fault=fault):
        ctx.check(good.out == "certificate ok\n", good, "replay did not report ok")
    if forge:
        bad = yield Op("certify", path, "--end", end,
                       "--check", ctx.write(tamper(res.out, rng), ".json"))
        if ctx.ok(bad, (1,)):
            ctx.check(bad.out.startswith("check failed: "), bad, "tampered certificate passed")


def shift_replay(ctx: Ctx, path: str, brick: dict, depth: str = None):
    """Replay a shift certificate built here from the brick's bits."""
    env = {"ENDSCOPE_DEPTH": depth} if depth else None
    res = yield Op("certify", path, "--end", "rank(0)",
                   "--check", ctx.write(json.dumps(brick), ".json"), env=env)
    if ctx.ok(res):
        ctx.check(res.out == "certificate ok\n", res, "shift replay not ok")


def swindle(ctx: Ctx, letters: int, depth: int, seed: int):
    res = yield Op("swindle", "--letters", str(letters), "--depth", str(depth),
                   "--seed", str(seed))
    if ctx.ok(res):
        doc = json.loads(res.out)
        a, em = doc["anderson"], doc["em"]
        ctx.check(a["check"] and a["seed"] == seed and a["depth"] >= depth, res,
                  "one-commutator check")
        ctx.check(em["separators"] and em["reconstruction"]
                  and em["product_identity"] == "both"
                  and all(em["blue_blocks"]) and all(em["regrouped_blocks"]), res,
                  "interleaved-product checks")


def oracle(ctx: Ctx, a: str, b: str, depth: int = None):
    extra = ("--depth", str(depth)) if depth else ()
    res = yield Op("oracle", "--compare", a, b, *extra)
    if ctx.ok(res):
        ctx.check(res.out.startswith("same up to depth"), res, "oracle says differ")


# ---------------------------------------------------------------------------
# session: distinct small inputs through every command, in one process


def analyse(ctx: Ctx, text: str, surface: bool, rng: random.Random):
    """verdict, classify, normalize (twice), classify of the normal form,
    certify emit/replay/tampered replay, and a user-table verdict (surfaces)
    or an oracle comparison with the normal form (bare terms)."""
    text += "\n"
    path = ctx.write(text)
    res = yield Op("verdict", path, "--format", "json")
    rep = check_report(ctx, res, text, derived=True, surface=surface)
    res = yield Op("classify", path)
    table = check_table(ctx, res)
    if rep is None or table is None:
        return
    ctx.check(_ids(table) == _ids(rep), res, "classify and verdict disagree on classes")
    res = yield Op("normalize", path)
    if not ctx.ok(res):
        return
    normal = res.out.strip()
    ctx.check(normal == rep["normalized"], res, "normal form differs from the report")
    npath = ctx.write(normal + "\n")
    res = yield Op("normalize", npath)
    if ctx.ok(res):
        ctx.check(res.out.strip() == normal, res, "normalize is not idempotent")
    res = yield Op("classify", npath)
    ntable = check_table(ctx, res)
    if ntable is not None:
        ctx.check(_ids(ntable) == _ids(table), res, "normalize changed the germ classes")
    yield from certify(ctx, path, rng.choice(_ids(table)), rng,
                       ("annuli", "decomposition") if surface else ("decomposition",))
    if surface:
        user = dict(table, origin="user-supplied", surface=True)
        utext = json.dumps(user, indent=2) + "\n"
        res = yield Op("verdict", ctx.write(utext, ".json"), "--format", "json")
        urep = check_report(ctx, res, utext, derived=False, surface=True)
        if urep is not None:
            pair = {urep["verdict"]["ac"], rep["verdict"]["ac"]}
            ctx.check(pair != {"holds", "fails"}, res, "user table flips holds and fails")
    else:
        yield from oracle(ctx, path, npath)


# Known faults of the program, on fixed inputs that do not depend on the
# seed (see the FOUND lines of CHANGES.md). Each session round runs every one
# of them, so the failed operations are the same share of every run. Each
# fault is recognised by its exact symptom today; any other wrong output is a
# problem, and a fixed program passes the same checks as on any other input.


def _genus_mismatch_symptom(res: Result) -> bool:
    # terms.GenusMismatch is a ValueError, not a ValidationError, so it
    # escapes the command as a traceback with exit 1
    return res.code == 1 and "Traceback" in res.err and _last_line(res.err).startswith(
        "endscope.terms.GenusMismatch: ")


def genus_mismatch(ctx: Ctx, text: str):
    """A surface whose genus contradicts its ends: an input error, so exit 65
    with a one-line message and no output."""
    path = ctx.write(text + "\n")
    for cmd in ("verdict", "classify"):
        res = yield Op(cmd, path, *(("--format", "json") if cmd == "verdict" else ()))
        if ctx.ok(res, (EXIT_INPUT,), fault=_genus_mismatch_symptom):
            ctx.check(res.out == "" and res.err.startswith("endscope: ")
                      and res.err.count("\n") == 1, res, "input error not one line")


def _reassembly_symptom(res: Result) -> bool:
    # stability._check_reassembly compares the rebuilt mix with canon output
    # syntactically, and the two ord components have merged into one
    return (res.code == 1 and "Traceback" not in res.err
            and res.out.startswith("check failed: subsequence ")
            and f"reassembles to mix(ord(w*5);g), not {REASSEMBLY_FAULT}" in res.out)


def reassembly_fault(ctx: Ctx):
    """The engine's decomposition certificate for a mix with two countable
    planar components must pass its own replay."""
    path = ctx.write(REASSEMBLY_FAULT + "\n")
    yield from certify(ctx, path, REASSEMBLY_FAULT, None, ("decomposition",), forge=False,
                       fault=_reassembly_symptom)


def class_id_fault(ctx: Ctx):
    """`normalize` must keep the germ-class ids of its input."""
    text, renamed = CLASS_ID_FAULT
    path = ctx.write(text + "\n")
    res = yield Op("classify", path)
    table = check_table(ctx, res)
    res = yield Op("normalize", path)
    if table is None or not ctx.ok(res):
        return
    res = yield Op("classify", ctx.write(res.out))
    ntable = check_table(ctx, res)
    if ntable is not None:
        # the class that the input spells first keeps that spelling as its id
        # in the input, and gets the normal form's spelling in the output
        ids = sorted(renamed.get(i, i) for i in _ids(table))
        ctx.check(_ids(ntable) == _ids(table), res, "normalize changed the germ classes",
                  symptom=_ids(ntable) == ids and ids != _ids(table))


def session_round(ctx: Ctx, seed: int, r: int, seen: set, pt_path: str) -> list:
    rng = random.Random(f"session-{seed}-{r}")
    scripts = []
    for i, t in enumerate(distinct_terms(rng, 3, 5, seen)):
        scripts.append(analyse(ctx, surface_text(t, rng), True, random.Random(f"{seed}-{r}-s{i}")))
    for i, t in enumerate(distinct_terms(rng, 2, 5, seen)):
        scripts.append(analyse(ctx, t.text, False, random.Random(f"{seed}-{r}-t{i}")))
    scripts.append(genus_mismatch(ctx, GENUS_MISMATCHES[r % len(GENUS_MISMATCHES)]))
    scripts.append(reassembly_fault(ctx))
    scripts.append(class_id_fault(ctx))
    scripts.append(shift_replay(ctx, pt_path, random_brick(rng, 3, 5), depth="8"))
    scripts.append(swindle(ctx, rng.randint(1, 3), rng.randint(8, 16), rng.randint(0, 999)))
    return scripts


# ---------------------------------------------------------------------------
# cli-cold: every subcommand on the built-in examples, one process each


def cli_cold_round(ctx: Ctx, seed: int, r: int, examples: dict, names: list,
                   pt_path: str):
    """`examples` maps a built-in example name to (path, text)."""
    rng = random.Random(f"cli-cold-{seed}-{r}")
    reports = {}
    for name in names:
        path, text = examples[name]
        res = yield Op("verdict", path, "--format", "json")
        surface = name in SURFACE_EXAMPLES
        rep = check_report(ctx, res, text, derived=surface, surface=surface)
        if rep is None:
            return
        if name in NAMED_VERDICTS:
            ac, witness = NAMED_VERDICTS[name]
            ctx.check((rep["verdict"]["ac"], rep["verdict"]["witness"]) == (ac, witness),
                      res, f"{name} must have verdict {ac} with witness {witness}")
        reports[name] = rep
        res = yield Op("verdict", path)
        if ctx.ok(res, (0, 1, 2)):
            v = rep["verdict"]
            line = f"verdict: ac={v['ac']} basis={v['basis']}"
            if v["witness"]:
                line += f" witness={v['witness']}"
            lines = res.out.splitlines()
            ctx.check(lines[0] == f"input sha256 {_sha(text)[:12]}" and line in lines
                      and res.code == EXIT_FOR[v["ac"]], res, "text report differs from JSON")
    tables = {}
    for name in names:
        res = yield Op("classify", examples[name][0])
        table = check_table(ctx, res)
        if table is None:
            return
        ctx.check(_ids(table) == _ids(reports[name]), res, "classify and verdict disagree")
        if name == "flute":  # ends ord(w): the rank tower with n = 1
            ctx.check(table == tower_table(1, 1, False), res,
                      "flute table differs from the closed form")
        tables[name] = table
    surfaces = [n for n in names if n in SURFACE_EXAMPLES]
    for name in surfaces:
        res = yield Op("normalize", examples[name][0])
        if ctx.ok(res):
            ctx.check(res.out.strip() == reports[name]["normalized"], res, "normal form")
    forged = surfaces[r % len(surfaces)]
    for name in surfaces:
        yield from certify(ctx, examples[name][0], rng.choice(_ids(tables[name])), rng,
                           ("annuli", "decomposition"), forge=name == forged)
    name = names[r % len(names)]
    res = yield Op("examples", name)
    if ctx.ok(res):
        ctx.check(res.out == examples[name][1], res, "example text changed")
    res = yield Op("constants")
    if ctx.ok(res):
        ctx.check("4896" in res.out.split(), res, "final Steinhaus constant 4896 missing")
    yield from swindle(ctx, rng.randint(1, 3), rng.randint(8, 16), rng.randint(0, 999))
    term = random_term(rng, 3).text + "\n"
    path = ctx.write(term)
    res = yield Op("verdict", path, "--format", "json")
    check_report(ctx, res, term, derived=True, surface=False)
    res = yield Op("normalize", path)
    if ctx.ok(res):
        yield from oracle(ctx, path, ctx.write(res.out))
    yield from shift_replay(ctx, pt_path, random_brick(rng, 3, 5), depth="8")


# ---------------------------------------------------------------------------
# deep: large inputs whose cost grows polynomially, one process

# sizes chosen so that each operation takes 0.1-0.5 s on the reference
# machine (see README.md); SHORT keeps every kind of operation but small
DEEP_FULL = {"tower_surface": 42, "tower_stone": 44, "tower_classify": 45,
             "tower_certify": 45, "annuli_nest": 11, "user_tower": 48,
             "oracle_nest": 8, "oracle_depth": 6, "swindle": (4, 256), "shift_depth": None}
DEEP_SHORT = {"tower_surface": 6, "tower_stone": 6, "tower_classify": 7,
              "tower_certify": 7, "annuli_nest": 3, "user_tower": 8,
              "oracle_nest": 3, "oracle_depth": 3, "swindle": (2, 16), "shift_depth": "8"}
NEST_POOL = ["pt", "pt^g", "cantor()", "ord(w)", "cantor(ord(w))", "cantor^g(pt)"]


def tower(ctx: Ctx, n: int, k: int, surface: bool):
    text = f"ord(w^({n})*{k})"
    if surface:
        text = f"surface {{ genus: 0, ends: {text} }}"
    text += "\n"
    return ctx.write(text), text


def deep_round(ctx: Ctx, seed: int, r: int, size: dict, pt_path: str):
    rng = random.Random(f"deep-{seed}-{r}")
    k = 2 + 3 * r + rng.randint(0, 2)  # distinct multiplicities: no cache hits

    n = size["tower_surface"]
    path, text = tower(ctx, n, k, True)
    res = yield Op("verdict", path, "--format", "json")
    rep = check_report(ctx, res, text, derived=True, surface=True)
    if rep is not None:  # planar towers with n >= 1 fail with F2
        ctx.check(_ids(rep) == tower_ids(n) and rep["verdict"]["witness"]
                  == WITNESS_FOR["F2"], res, "surface rank tower")

    n = size["tower_stone"]
    path, text = tower(ctx, n, k, False)
    res = yield Op("verdict", path, "--format", "json")
    rep = check_report(ctx, res, text, derived=True, surface=False)
    if rep is not None:
        ctx.check(_ids(rep) == tower_ids(n), res, "stone rank tower classes")

    n = size["tower_classify"]
    path, _ = tower(ctx, n, k, False)
    res = yield Op("classify", path)
    if ctx.ok(res):
        ctx.check(json.loads(res.out) == tower_table(n, k, False), res,
                  "rank tower table differs from its closed form")

    n = size["tower_certify"]
    path, _ = tower(ctx, n, k + 1, False)
    yield from certify(ctx, path, f"rank({n})", rng, ("decomposition",), forge=False)

    nest, _ = nested_mix(rng, size["annuli_nest"], NEST_POOL)
    text = f"surface {{ genus: inf, ends: mix(cantor^g({nest}),cantor();g) }}\n"
    path = ctx.write(text)
    res = yield Op("verdict", path, "--format", "json")
    rep = check_report(ctx, res, text, derived=True, surface=True)
    if rep is not None:
        ends = [c["id"] for c in rep["classes"]
                if c["maximal"] and c["telescoping"] and c["case"] != "i"]
        if ctx.check(bool(ends), res, "no telescoping top class"):
            yield from certify(ctx, path, ends[0], rng, ("annuli",), forge=False)

    for _ in range(2):
        yield from shift_replay(ctx, pt_path, random_brick(rng, 3, 4, balanced=True),
                                size["shift_depth"])

    n = size["user_tower"]
    user = dict(tower_table(n, k, True), origin="user-supplied")
    text = json.dumps(user) + "\n"
    res = yield Op("verdict", ctx.write(text, ".json"), "--format", "json")
    rep = check_report(ctx, res, text, derived=False, surface=True)
    if rep is not None:  # the derived planar tower fails: no flip to holds
        ctx.check(rep["verdict"]["ac"] != "holds", res, "user tower table flips to holds")

    a, b = nested_mix(rng, size["oracle_nest"], NEST_POOL)
    yield from oracle(ctx, ctx.write(a + "\n"), ctx.write(b + "\n"), size["oracle_depth"])

    letters, depth = size["swindle"]
    yield from swindle(ctx, letters, depth, rng.randint(0, 999))


# ---------------------------------------------------------------------------
# warm-up: every command once on fixed inputs, before the first timed one

WARMUP_SURFACE = "surface { genus: inf, ends: mix(cantor^g(), cantor(); g) }\n"
WARMUP_TERM = "mix(ord(w),pt^g;g)\n"


def warmup(ctx: Ctx, pt_path: str):
    path = ctx.write(WARMUP_SURFACE)
    res = yield Op("verdict", path, "--format", "json")
    check_report(ctx, res, WARMUP_SURFACE, derived=True, surface=True)
    res = yield Op("classify", path)
    check_table(ctx, res)
    res = yield Op("normalize", path)
    ctx.ok(res)
    yield from certify(ctx, path, "cantor^g()", random.Random(0), ("annuli",))
    term = ctx.write(WARMUP_TERM)
    yield from oracle(ctx, term, term)
    yield from swindle(ctx, 2, 8, 0)
    yield from shift_replay(ctx, pt_path, random_brick(random.Random(0), 2, 3), depth="4")
