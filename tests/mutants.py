"""Mutation testing: how many one-point faults in the engine the tests catch.

    python3 tests/mutants.py --seed 33 --count 40 \\
        'terms:_Node,validate,cb_rank' 'stability:check_*,_check_*' \\
        --out MUTANTS.json

Each module argument is `name` or `name:pattern,...`, `name` a module of
`src/endscope`; with patterns, only code inside the top-level functions and
classes whose names match one of them (fnmatch) is mutated. A mutant changes
one thing: a comparison operator, `and` into `or` or back, a dropped `not`,
`&` into `|` or back, or an integer constant 0, 1 or 2 raised by one. The
mutants are drawn with `random.Random(seed)` from every such site.

Each mutant runs in a copy of the checkout made under --workdir: first the
golden replay (`tests/test_golden.py`, `tests/test_output_hashes.py`), then
the tier-1 suite only if the mutant survives the replay, both with `-x`. The
record of each mutant (site, text before and after, what killed it, the first
failing test, seconds, and the reason if it is a known equivalent mutant)
goes to --out, rewritten after every mutant. pytest does not collect this
file: its name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import ast
import copy
import fnmatch
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = ["tests/test_golden.py", "tests/test_output_hashes.py"]
TIMEOUT_S = {"golden": 300, "tier1": 1200}

_SWAP = {
    ast.Lt: (ast.LtE, ast.Gt), ast.LtE: (ast.Lt, ast.GtE),
    ast.Gt: (ast.GtE, ast.Lt), ast.GtE: (ast.Gt, ast.LtE),
    ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
    ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,), ast.NotIn: (ast.In,),
    ast.And: (ast.Or,), ast.Or: (ast.And,),
    ast.BitAnd: (ast.BitOr,), ast.BitOr: (ast.BitAnd,),
}

# mutants that behave as the original on every input, with the reason:
# (module, scope, line within the scope, operator) -> reason
EQUIVALENT = {
    ("terms", "_Node", 27, "Or -> And"):
        "the (rank, degree) of an uncountable or genus term is then filled in, but only cb_rank, "
        "which raises for such a term, and parents that are themselves uncountable or genus "
        "read it; a countable planar term's children are all countable planar",
    ("stability", "_piece_embeds", 9, "LtE -> Lt"):
        "reached only with equal ranks, where equal degrees make ca == cb, which returned True",
    ("stability", "check_annuli", 20, "2 -> 3"):
        "skips the union of two annuli; Sum(base x j) has the rows of base with finite counts "
        "multiplied, which the signature erases, so no union check fails for any base or j",
    ("stability", "check_annuli", 20, "1 -> 2"):
        "adds the union of depth + 1 annuli, which fails for no base, as for 2 -> 3",
    ("stability", "check_shift", 9, "1 -> 2"):
        "the extra power i = depth + 1 of the outer loop has an empty inner range",
}


def _sites(tree: ast.Module, patterns: list) -> list:
    """(scope, scope's first line, node, mutated node, operator) for each
    mutation site inside a top-level definition whose name matches
    `patterns` (all when empty)."""
    out = []
    for top in tree.body:
        name = getattr(top, "name", None)
        if name is None or (patterns and not any(fnmatch.fnmatch(name, p) for p in patterns)):
            continue
        skip = {id(n) for j in ast.walk(top) if isinstance(j, ast.JoinedStr) for n in ast.walk(j)}
        for node in ast.walk(top):
            if id(node) in skip:
                continue
            for mutated, op in _mutations(node):
                out.append((name, top.lineno, node, mutated, op))
    return out


def _mutations(node):
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for new in _SWAP.get(type(op), ()):
                m = copy.deepcopy(node)
                m.ops[i] = new()
                yield m, f"{type(op).__name__} -> {new.__name__}"
    elif isinstance(node, (ast.BoolOp, ast.BinOp)) and type(node.op) in _SWAP:
        for new in _SWAP[type(node.op)]:
            m = copy.deepcopy(node)
            m.op = new()
            yield m, f"{type(node.op).__name__} -> {new.__name__}"
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand, "drop not"
    elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2):
        yield ast.Constant(node.value + 1), f"{node.value} -> {node.value + 1}"


def _splice(source: str, node: ast.AST, text: str) -> str:
    """`source` with the segment of `node` replaced by `(text)`; AST column
    offsets count UTF-8 bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    start = sum(len(x) for x in lines[: node.lineno - 1]) + node.col_offset
    end = sum(len(x) for x in lines[: node.end_lineno - 1]) + node.end_col_offset
    raw = source.encode("utf-8")
    return (raw[:start] + f"({text})".encode("utf-8") + raw[end:]).decode("utf-8")


def draw(specs: list, seed: int, count: int) -> list:
    """The mutants: dicts with the module, scope, line (and line within the
    scope), operator, the text before and after, and the mutated module
    source."""
    pool = []
    for spec in specs:
        module, _, pats = spec.partition(":")
        path = os.path.join(ROOT, "src", "endscope", f"{module}.py")
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        for scope, first, node, mutated, op in _sites(ast.parse(source),
                                                      [p for p in pats.split(",") if p]):
            after = ast.unparse(mutated)
            pool.append({
                "module": module, "scope": scope, "line": node.lineno,
                "offset": node.lineno - first, "operator": op,
                "before": ast.get_source_segment(source, node), "after": after,
                "source": _splice(source, node, after),
            })
    picks = random.Random(seed).sample(pool, min(count, len(pool)))
    for m in picks:
        compile(m["source"], m["module"], "exec")  # a mutant is still a module
    return picks


def _pytest(copy_dir: str, args: list, timeout: int) -> tuple:
    """(passed, first failing test or None, timed out) of one pytest run in
    its own process group, so that a timeout also ends its children."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy_dir, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             *args], cwd=copy_dir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, None, True
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
    return proc.returncode == 0, failed and failed.group(1), False


def run(mutant: dict, copy_dir: str) -> dict:
    target = os.path.join(copy_dir, "src", "endscope", f"{mutant['module']}.py")
    with open(target, encoding="utf-8") as fh:
        original = fh.read()
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(mutant["source"])
    t0 = time.perf_counter()
    try:
        killed_by = failure = None
        for stage, args in (("golden", GOLDEN), ("tier1", ["--continue-on-collection-errors"])):
            passed, failure, timed_out = _pytest(copy_dir, args, TIMEOUT_S[stage])
            if not passed:
                killed_by = "timeout" if timed_out else stage
                break
    finally:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(original)
    record = {k: mutant[k] for k in ("module", "scope", "line", "offset", "operator", "before",
                                     "after")}
    key = (mutant["module"], mutant["scope"], mutant["offset"], mutant["operator"])
    record.update(killed_by=killed_by, first_failure=failure,
                  seconds=round(time.perf_counter() - t0, 1), equivalent=EQUIVALENT.get(key))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+", help="name or name:pattern,... of src/endscope")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON file of the records")
    ap.add_argument("--workdir", help="where the checkout is copied (default: a temporary directory)")
    args = ap.parse_args(argv)
    mutants = draw(args.modules, args.seed, args.count)
    work = tempfile.mkdtemp(prefix="mutants-", dir=args.workdir)
    copy_dir = os.path.join(work, "checkout")
    shutil.copytree(ROOT, copy_dir, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out", ".benchmarks"))
    doc = {"seed": args.seed, "count": args.count, "modules": args.modules,
           "python": sys.version.split()[0], "mutants": []}
    try:
        for i, mutant in enumerate(mutants):
            record = run(mutant, copy_dir)
            doc["mutants"].append(record)
            print(f"{i + 1}/{len(mutants)} {record['module']}.{record['scope']}:{record['line']} "
                  f"{record['operator']}: {record['killed_by'] or 'survived'}", file=sys.stderr)
            doc["summary"] = dict(Counter(r["killed_by"] or "survived" for r in doc["mutants"]))
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, ensure_ascii=False)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
