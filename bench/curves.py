"""Growth curves of the costs that dominate the deep workload.

    python3 bench/curves.py

Run from the root of a checkout. Each point is timed in a fresh interpreter,
so no cache of an earlier point helps it, and the median of REPEAT runs is
printed:

  derive      germs.derive_table(ord(w^(n))) for n = 10 ... 80
  shift       stability.check_shift for the brick 1010... at depth 10 ... 40
  nested-mix  germs.derive_table of a genus mix nested d deep, d = 2 ... 12
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

POINT = """\
import sys, time
from endscope.germs import derive_table
from endscope.parser import parse_term
from endscope.stability import Brick, check_shift, shift
kind, size = sys.argv[1], int(sys.argv[2])
if kind == "shift":
    recipe = shift(Brick())
    t0 = time.perf_counter()
    check_shift(recipe, size)
    print((time.perf_counter() - t0) * 1000, 0)
else:
    if kind == "derive":
        text = f"ord(w^({size}))"
    else:
        pool = ["pt", "cantor()", "ord(w)", "cantor(ord(w))", "cantor^g(pt)", "pt^g"]
        text = "cantor^g()"
        for i in range(size):
            text = f"mix({text},{pool[i % len(pool)]};g)"
    term = parse_term(text)
    t0 = time.perf_counter()
    table = derive_table(term)
    print((time.perf_counter() - t0) * 1000, len(table.classes))
"""

CURVES = [
    ("derive", range(10, 81, 10), "n"),
    ("shift", range(10, 41, 5), "depth"),
    ("nested-mix", range(2, 13, 2), "depth"),
]
REPEAT = 3


def point(kind: str, size: int) -> tuple:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    p = subprocess.run([sys.executable, "-c", POINT, kind, str(size)], env=env,
                       cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    ms, classes = p.stdout.split()
    return float(ms), int(classes)


def main() -> None:
    for kind, sizes, label in CURVES:
        print(f"{kind}: {label} ms classes")
        for size in sizes:
            runs = [point(kind, size) for _ in range(REPEAT)]
            ms = statistics.median(r[0] for r in runs)
            print(f"  {size:3d} {ms:10.1f} {runs[0][1]:4d}", flush=True)


if __name__ == "__main__":
    main()
