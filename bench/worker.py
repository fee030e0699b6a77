"""Benchmark worker: runs endscope CLI commands in one long-lived process.

Started by run.py as `python bench/worker.py SRC [--once]`, with SRC the
checkout's source directory. It imports `endscope.cli` from SRC, reports
that it is ready, then reads one JSON request a line from stdin and answers
each with one JSON line on stdout:

    request   {"argv": [...], "env": {...}, "trace": bool}
    response  {"code": int, "out": str, "err": str, "cli_ms": float,
               "layers": {"ms": {...}, "counts": {...}, "error": str or null}
                         or null}

An operation is one `endscope.cli.run(argv)` call, with stdout and stderr
captured. An exception escaping it is printed as the interpreter would and
gives exit code 1. With "trace", the public functions of each module that
the command uses are first called one by one, in pipeline order, and timed;
the first stage that needs `derive_table` pays for it, and `cli.run` then
runs on warm caches. With --once the worker serves the single request on
stdin and exits.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback


def _import_cli(src: str):
    sys.path.insert(0, src)
    import endscope.cli as cli

    where = os.path.realpath(os.path.dirname(cli.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"endscope imported from {where}, not from {src}")
    return cli


class _Tracer:
    """Times calls into the endscope modules, as the CLI command would make
    them, and records the sizes they see."""

    def __init__(self):
        # import_module: the package rebinds some module names to functions
        for name in ("germs", "normalize", "oracle", "parser", "stability",
                     "swindle", "terms", "verdict"):
            setattr(self, name, importlib.import_module(f"endscope.{name}"))
        self.ms = {}
        self.counts = {}

    def time(self, layer: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.ms[layer] = self.ms.get(layer, 0.0) + (time.perf_counter() - t0) * 1000

    def count(self, name: str, value: int) -> None:
        self.counts.setdefault(name, []).append(value)

    # -- pipeline stages -----------------------------------------------------

    def load(self, path: str):
        with open(path, encoding="utf-8") as fh:
            text = fh.read().strip()
        if text.startswith("{"):
            return self.time("germs.from_json", lambda: self.germs.from_json(json.loads(text)))
        return self.time("parser.parse", self.parser.parse, text)

    def table(self, obj):
        if isinstance(obj, self.germs.GermTable):
            return obj
        ends = obj.ends if isinstance(obj, self.terms.SurfaceDescriptor) else obj
        if isinstance(obj, self.terms.SurfaceDescriptor):
            self.terms.surface_check(obj.genus, ends)
        table = self.time("germs.derive_table", self.germs.derive_table, ends)
        self.count("germs.classes", len(table.classes))
        self.count("germs.leq_pairs", len(table.leq))
        self.count("germs.acc_pairs", len(table.acc))
        return table

    def normal_form(self, obj):
        if isinstance(obj, self.germs.GermTable):
            return None
        ends = obj.ends if isinstance(obj, self.terms.SurfaceDescriptor) else obj
        out = self.time("normalize.normalize", self.normalize.normalize, ends)
        self.count("normalize.term_size_in", self.terms.term_size(ends))
        self.count("normalize.term_size_out", self.terms.term_size(out))
        return out

    def is_surface(self, obj) -> bool:
        return isinstance(obj, self.terms.SurfaceDescriptor) or (
            isinstance(obj, self.germs.GermTable) and obj.surface
        )

    def verdict_cmd(self, path: str) -> None:
        obj = self.load(path)
        surface = self.is_surface(obj)
        self.normal_form(obj)
        table = self.table(obj)
        ids = table.ids()
        for cid in ids:
            self.time("germs.predecessors", self.germs.predecessors, table, cid)
        for cid in ids:
            self.time("stability.stable_nbhd", self.stability.stable_nbhd, table, cid)
        for cid in ids:
            self.time("verdict.telescoping", self.verdict.telescoping, table, cid, surface)
        if surface:
            self.time("verdict.surface_verdict", self.verdict.surface_verdict, obj)
        else:
            self.time("verdict.stone_verdict", self.verdict.stone_verdict, obj)

    def classify_cmd(self, path: str) -> None:
        table = self.table(self.load(path))
        self.time("germs.to_json", self.germs.to_json, table)

    def normalize_cmd(self, path: str) -> None:
        self.normal_form(self.load(path))

    def certify_cmd(self, path: str, end: str, check) -> None:
        st = self.stability
        obj = self.load(path)
        table = self.table(obj)
        depth = int(os.environ.get("ENDSCOPE_DEPTH", st.DEFAULT_DEPTH))
        if check is not None:
            with open(check, encoding="utf-8") as fh:
                cert = json.load(fh)
            kind = cert.get("kind")
            if kind == "decomposition":
                res = self.time("stability.stable_nbhd", st.stable_nbhd, table, end)
                self.time("stability.check_decomposition", st.check_decomposition,
                          res.decomposition, depth)
            elif kind == "annuli":
                dec = self.time("stability.certificate", st.annuli, obj, end, depth)
                self.time("stability.check_annuli", st.check_annuli, table, dec)
            elif kind == "shift":
                piece = cert["pieces"][0]
                brick = st.Brick(tuple(piece["prefix"]), tuple(piece["period"]))
                self.time("stability.check_shift", st.check_shift, st.shift(brick), depth)
            return
        if self.is_surface(obj):
            try:
                dec = self.time("stability.certificate", st.annuli, obj, end, depth)
                self.time("stability.certificate", st.annuli_certificate, dec)
                return
            except st.NotTelescoping:
                pass
        res = self.time("stability.stable_nbhd", st.stable_nbhd, table, end)
        self.time("stability.certificate", st.decomposition_certificate,
                  res.decomposition, depth)

    def oracle_cmd(self, a: str, b: str, depth: int) -> None:
        ta, tb = self.load(a), self.load(b)
        self.time("oracle.equiv_invariants", self.oracle.equiv_invariants, ta, tb, depth)

    def swindle_cmd(self, letters: int, depth: int, seed: int) -> None:
        sw = self.swindle
        self.time("swindle.em_check", sw.em_check, letters)
        # the same slot word the swindle command builds from its seed
        rng = random.Random(seed)
        words = {}
        for s in range(8):
            alphabet = [i for i in range(-letters, letters + 1) if i]
            words[s] = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
        h = sw.slot_word(words)
        self.time("swindle.anderson", sw.anderson, h, max(depth, len(h.support()) + 1))

    def run(self, argv: list) -> None:
        cmd, rest = argv[0], argv[1:]

        def opt(name, default=None):
            return rest[rest.index(name) + 1] if name in rest else default

        if cmd == "verdict":
            self.verdict_cmd(rest[0])
        elif cmd == "classify":
            self.classify_cmd(rest[0])
        elif cmd == "normalize":
            self.normalize_cmd(rest[0])
        elif cmd == "certify":
            self.certify_cmd(rest[0], opt("--end"), opt("--check"))
        elif cmd == "oracle":
            i = rest.index("--compare")
            self.oracle_cmd(rest[i + 1], rest[i + 2], int(opt("--depth", 4)))
        elif cmd == "swindle":
            self.swindle_cmd(int(opt("--letters")), int(opt("--depth")), int(opt("--seed", 0)))


def serve(cli, req: dict) -> dict:
    env = req.get("env", {})
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    layers = None
    if req.get("trace"):
        tracer = _Tracer()
        layers = {"ms": tracer.ms, "counts": tracer.counts, "error": None}
        try:
            tracer.run(req["argv"])
        except Exception as e:  # cli.run below shows whether the command fails
            layers["error"] = f"{type(e).__name__}: {e}"
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        code = cli.run(req["argv"])
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        cli_ms = (time.perf_counter() - t0) * 1000
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(),
            "cli_ms": cli_ms, "layers": layers}


def _send(doc: dict) -> None:
    sys.__stdout__.write(json.dumps(doc) + "\n")
    sys.__stdout__.flush()


def main() -> None:
    cli = _import_cli(sys.argv[1])
    if sys.argv[2:] == ["--once"]:
        _send(serve(cli, json.loads(sys.stdin.readline())))
        return
    _send({"ready": True})
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("stop"):
            break
        _send(serve(cli, req))
    _send({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})


if __name__ == "__main__":
    main()
