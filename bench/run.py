"""endscope benchmark: three closed-loop workloads, end to end and per layer.

    python3 bench/run.py --workload {cli-cold,session,deep} --seed N
                         --seconds S --trace {0,1}
    python3 bench/run.py --short

Run it from the root of a checkout: it runs the program in `src/`. One
client process, with no threads, sends one CLI command at a time and waits
for it (a closed loop with one client). `cli-cold` starts a fresh
`python -m endscope` process for every command; `session` and `deep` send
every command to one worker process (bench/worker.py) that calls
`endscope.cli.run(argv)`. Every output is checked (see workloads.py).

The operations of a run are a fixed list made from --seed and --seconds:
whole rounds of the workload's operations, as many as fit in --seconds on
the reference machine (ROUND_S), and never fewer than 100 operations. No
run is cut by the clock, so every run of a workload does the same work.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same operations
with each module's public functions timed from outside (worker.py) and
prints the per-layer metrics. --short runs one small round of every
workload, untraced and traced, with all checks, and also checks that the two
modes print the same stdout. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from inputs import SURFACE_EXAMPLES, TABLE_EXAMPLES  # noqa: E402

WORKLOADS = ("cli-cold", "session", "deep")
SETUPS = 21  # set-ups per run; setup_s is their median
OP_TIMEOUT_S = 60
# wall seconds one round takes on the reference machine, checks included,
# and the fewest rounds that make 100 operations
ROUND_S = {"cli-cold": 5.1, "session": 0.25, "deep": 2.6}
MIN_ROUNDS = {"cli-cold": 3, "session": 3, "deep": 8}

LAYER_MS = [
    "parser.parse", "normalize.normalize", "germs.derive_table",
    "germs.predecessors", "germs.to_json", "germs.from_json",
    "stability.stable_nbhd", "stability.certificate",
    "stability.check_decomposition", "stability.check_annuli",
    "stability.check_shift", "verdict.telescoping", "verdict.surface_verdict",
    "verdict.stone_verdict", "oracle.equiv_invariants", "swindle.anderson",
    "swindle.em_check",
]
LAYER_COUNTS = [
    "normalize.term_size_in", "normalize.term_size_out", "germs.classes",
    "germs.leq_pairs", "germs.acc_pairs",
]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENDSCOPE_DEPTH", None)
    env["PYTHONPATH"] = SRC
    # fixed string hashing: set iteration order, and with it the work done in
    # the engine's fixpoint loops, is the same in every run
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A bench/worker.py process serving one command at a time."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), SRC],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            bufsize=0,
        )
        self.buf = bytearray()
        self._read()  # ready

    def _read(self) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + OP_TIMEOUT_S
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError(f"worker gave no answer in {OP_TIMEOUT_S} s")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise EOFError("worker exited")
            self.buf += chunk
        line, _, rest = bytes(self.buf).partition(b"\n")
        self.buf = bytearray(rest)
        return json.loads(line)

    def run(self, op: wl.Op, trace: bool) -> wl.Result:
        req = json.dumps({"argv": op.argv, "env": op.env, "trace": trace}) + "\n"
        t0 = time.perf_counter()
        self.proc.stdin.write(req.encode())
        resp = self._read()
        ms = (time.perf_counter() - t0) * 1000
        return wl.Result(op.argv, resp["code"], resp["out"], resp["err"], ms,
                         resp["cli_ms"], resp["layers"])

    def stop(self) -> int:
        """Stop the worker; returns its peak RSS in KiB."""
        self.proc.stdin.write(b'{"stop": true}\n')
        maxrss = self._read()["maxrss_kb"]
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()
        return maxrss

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


def spawn(argv: list, stdin: bytes, env: dict) -> tuple:
    """Run `argv` to its end: (exit code, stdout, stderr, peak RSS in KiB of
    that process alone). The child is reaped with wait4, which gives its own
    rusage; stdin must fit in a pipe's buffer."""
    p = subprocess.Popen(argv, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    if stdin:
        p.stdin.write(stdin)
        p.stdin.close()
    out, err = bytearray(), bytearray()
    bufs = {p.stdout.fileno(): out, p.stderr.fileno(): err}
    fds = list(bufs)
    deadline = time.monotonic() + OP_TIMEOUT_S
    try:
        while fds:
            left = deadline - time.monotonic()
            if left <= 0 or not (ready := select.select(fds, [], [], left)[0]):
                raise TimeoutError(f"{argv[1:]} gave no answer in {OP_TIMEOUT_S} s")
            for fd in ready:
                chunk = os.read(fd, 1 << 20)
                if chunk:
                    bufs[fd] += chunk
                else:
                    fds.remove(fd)
    except BaseException:
        p.kill()
        raise
    finally:
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        p.stderr.close()
    return p.returncode, out.decode("utf-8"), err.decode("utf-8"), usage.ru_maxrss


def run_fresh(op: wl.Op, trace: bool, env: dict) -> wl.Result:
    """One command in a fresh process: `python -m endscope`, or the worker's
    --once mode when traced."""
    env = dict(env, **op.env)
    if trace:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), SRC, "--once"]
        stdin = json.dumps({"argv": op.argv, "env": op.env, "trace": True}) + "\n"
    else:
        argv, stdin = [sys.executable, "-m", "endscope", *op.argv], ""
    t0 = time.perf_counter()
    code, out, err, maxrss_kb = spawn(argv, stdin.encode("utf-8"), env)
    ms = (time.perf_counter() - t0) * 1000
    if not trace:
        res = wl.Result(op.argv, code, out, err, ms)
    else:
        resp = json.loads(out.splitlines()[-1])
        res = wl.Result(op.argv, resp["code"], resp["out"], resp["err"], ms,
                        resp["cli_ms"], resp["layers"])
    res.maxrss_kb = maxrss_kb
    return res


class Tally:
    """What the timed operations of a run gave."""

    def __init__(self):
        self.ms = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.layer_ms = dict.fromkeys(LAYER_MS, 0.0)
        self.counts = {name: [] for name in LAYER_COUNTS}
        self.verdict_cli_ms = []
        self.stdout_bytes = 0
        self.maxrss_kb = 0  # largest peak RSS of a fresh process (cli-cold)
        self.trace_errors = []

    def add(self, res: wl.Result) -> None:
        self.ms.append(res.ms)
        self.failed += res.failed
        self.digest.update(res.out.encode("utf-8") + b"\0")
        self.stdout_bytes += len(res.out.encode("utf-8"))
        self.maxrss_kb = max(self.maxrss_kb, res.maxrss_kb or 0)
        if res.layers is not None:
            for name, ms in res.layers["ms"].items():
                self.layer_ms[name] += ms
            for name, values in res.layers["counts"].items():
                self.counts[name].extend(values)
            if res.argv[0] == "verdict":
                self.verdict_cli_ms.append(res.cli_ms)
            if res.layers["error"] and not res.failed:
                self.trace_errors.append(f"{res.argv}: traced stage raised {res.layers['error']}")


def drive(ctx: wl.Ctx, scripts, execute, tally=None) -> None:
    """Run every script to its end, one command at a time."""
    for script in scripts:
        try:
            op = next(script)
        except StopIteration:
            continue
        while True:
            res = execute(op)
            try:
                op = script.send(res)
            except StopIteration:
                op = None
            except Exception as e:  # output not in the shape the checks expect
                ctx.check(False, res, f"checking the output raised {type(e).__name__}: {e}")
                op = None
            if tally is not None:
                tally.add(res)  # after the script has checked it
            if op is None:
                break


def fetch_examples(ctx: wl.Ctx, env: dict) -> dict:
    """The built-in example texts, as `endscope examples NAME` prints them,
    written to input files: {name: (path, text)}."""
    code = ("import json; from endscope.examples_builtin import EXAMPLES; "
            "print(json.dumps(EXAMPLES))")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       encoding="utf-8", env=env, cwd=ROOT, timeout=OP_TIMEOUT_S,
                       check=True)
    out = {}
    for name, text in json.loads(p.stdout).items():
        out[name] = (ctx.write(text + "\n"), text + "\n")
    return out


def plan(workload: str, ctx: wl.Ctx, pt: str, seed: int, rounds: int, short: bool,
         env: dict) -> list:
    """The scripts of a run, in order. Makes every input that does not depend
    on an earlier output; `pt` is an input file for shift replays."""
    if workload == "cli-cold":
        examples = fetch_examples(ctx, env)
        names = SURFACE_EXAMPLES + TABLE_EXAMPLES
        if short:
            names = ["mona-lisa", "flute", "unknown-6-2"]
        return [wl.cli_cold_round(ctx, seed, r, examples, names, pt) for r in range(rounds)]
    if workload == "session":
        seen = set()
        return [s for r in range(rounds) for s in wl.session_round(ctx, seed, r, seen, pt)]
    size = wl.DEEP_SHORT if short else wl.DEEP_FULL
    return [wl.deep_round(ctx, seed, r, size, pt) for r in range(rounds)]


def run_workload(workload: str, seed: int, seconds: int, trace: bool, short: bool) -> dict:
    rounds = 1 if short else max(MIN_ROUNDS[workload], round(seconds / ROUND_S[workload]))
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    workers = []
    try:
        # set up SETUPS times: make the inputs, start the process that will
        # serve the commands, warm it up; keep the last set-up
        setups = []
        for _ in range(SETUPS):
            for w in workers:
                w.stop()
            workers.clear()
            t0 = time.perf_counter()
            ctx = wl.Ctx(tempfile.mkdtemp(prefix="inputs-", dir=rundir))
            pt = ctx.write("pt\n")
            scripts = plan(workload, ctx, pt, seed, rounds, short, env)
            if workload != "cli-cold":
                workers.append(Worker(env))
                drive(ctx, [wl.warmup(ctx, pt)], lambda op: workers[0].run(op, False))
            setups.append(time.perf_counter() - t0)
        if workload == "cli-cold":
            execute = lambda op: run_fresh(op, trace, env)  # noqa: E731
        else:
            execute = lambda op: workers[0].run(op, trace)  # noqa: E731
        tally = Tally()
        drive(ctx, scripts, execute, tally)
        if workload == "cli-cold":
            maxrss_kb = tally.maxrss_kb
        else:
            maxrss_kb = workers.pop().stop()
    finally:
        for w in workers:
            w.kill()
        shutil.rmtree(rundir, ignore_errors=True)

    lat = tally.ms
    result = {
        "workload": workload, "rounds": rounds,
        "problems": ctx.problems + tally.trace_errors,
        "attempted": len(lat), "failed": tally.failed,
        "stdout_sha256": tally.digest.hexdigest(),
        "latency_p50_ms": statistics.median(lat),
    }
    if not trace:
        result["metrics"] = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / (sum(lat) / 1000), "1/s"),
            "latency_p50_ms": (statistics.median(lat), "ms"),
            # a broken program can end a run after one operation
            "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
                               "ms"),
            "peak_rss_mb": (maxrss_kb / 1024, "MB"),
        }
        return result
    bare, import_ms, modules = startup(env)
    m = {
        "startup.interpreter_ms": (bare, "ms"),
        "startup.import_cli_ms": (import_ms, "ms"),
        "startup.modules_loaded": (modules, "count"),
    }
    for name in LAYER_MS:  # busy time per operation of the run
        m[f"{name}_ms"] = (tally.layer_ms[name] / len(lat), "ms")
    for name in LAYER_COUNTS:  # mean over the calls that saw it
        values = tally.counts[name]
        m[name] = (statistics.fmean(values or [0.0]), "count")
    m["cli.verdict_warm_ms"] = (statistics.fmean(tally.verdict_cli_ms or [0.0]), "ms")
    m["cli.stdout_bytes"] = (tally.stdout_bytes / len(lat), "count")
    result["metrics"] = m
    return result


IMPORT_PROBE = """\
import sys, time
t0 = time.perf_counter()
import endscope.cli
ms = (time.perf_counter() - t0) * 1000
print(ms, sum(1 for m in sys.modules if m.split(".")[0] == "endscope"))
"""


def startup(env: dict, runs: int = 5) -> tuple:
    """Medians over fresh interpreters: the wall ms of a bare `python -c pass`
    (the floor of cli-cold), the ms `import endscope.cli` takes, and the
    number of endscope modules that import loads."""
    bare, imports = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True,
                       timeout=OP_TIMEOUT_S)
        bare.append((time.perf_counter() - t0) * 1000)
        p = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                           text=True, env=env, cwd=ROOT, check=True, timeout=OP_TIMEOUT_S)
        ms, modules = p.stdout.split()
        imports.append(float(ms))
    return statistics.median(bare), statistics.median(imports), int(modules)


def build() -> None:
    """Byte-compile the program, so that no timed process compiles it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "endscope")],
                   check=True, stdout=subprocess.DEVNULL, timeout=600)


def report(result: dict, trace: bool) -> None:
    print(f"workload {result['workload']} trace {int(trace)}: {result['rounds']} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed")
    print(f"  stdout_sha256 {result['stdout_sha256']}")
    if trace:
        print(f"  traced latency_p50_ms {result['latency_p50_ms']:.3f}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} {value:.6g} {unit}")
    for p in result["problems"][:20]:
        print(f"  problem: {p}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="one small round of every workload, untraced and traced")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "endscope", "cli.py")):
        print(f"no endscope sources under {SRC}: run from a checkout", file=sys.stderr)
        return 2
    if not args.short and args.workload is None:
        ap.error("--workload is required without --short")
    build()

    if args.short:
        correct, attempted, failed = True, 0, 0
        for workload in WORKLOADS:
            plain = run_workload(workload, args.seed, 0, False, True)
            traced = run_workload(workload, args.seed, 0, True, True)
            for res, trace in ((plain, False), (traced, True)):
                report(res, trace)
                correct &= not res["problems"]
                attempted += res["attempted"]
                failed += res["failed"]
            if plain["stdout_sha256"] != traced["stdout_sha256"]:
                print(f"  problem: {workload}: traced stdout differs", file=sys.stderr)
                correct = False
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 0 if correct else 1

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    report(res, bool(args.trace))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
