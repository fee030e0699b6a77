"""Command-line front-end.

Subcommands: parse, normalize, classify, verdict, certify, swindle,
constants, oracle, examples. Inputs are files ("-" reads standard input)
containing a term, a surface descriptor, or a germ table in the JSON
interchange format; the format is detected from the first character.

Exit codes: 0 holds, 1 fails, 2 unknown; 64 usage or file errors, 65 input
errors (syntax, validation, unknown ids); 70 is reserved for internal errors,
which still end in a traceback and exit 1 (ROADMAP item 4). The JSON reports
are byte-identical across runs on identical input; the environment variable
ENDSCOPE_DEPTH overrides the default checker depth of 20.

Sizes that come from outside have fixed maxima, since the work grows with
them without bound: ENDSCOPE_DEPTH at most 256, swindle --depth at most 4096,
swindle --letters at most 64 and oracle --depth at most 256. A larger value,
a value below 1, or a negative oracle --depth exits 64 with one line. Terms
and ordinal exponents in an input nest at most parser.MAX_NESTING (200)
levels deep, and one oracle sample tree holds at most oracle.MAX_SAMPLE_NODES
(250,000) nodes; deeper or larger input exits 65 with one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import islice

from . import __version__
from .examples_builtin import EXAMPLES, example

# Each command imports the engine modules it runs, inside its function: a
# process runs one command, and `examples`, `constants` and `swindle` need
# none of the germ engine.

EXIT_USAGE = 64
EXIT_INPUT = 65
EXIT_INTERNAL = 70

# maxima of the sizes read from the environment and the command line
MAX_CHECK_DEPTH = 256
MAX_SWINDLE_DEPTH = 4096
MAX_SWINDLE_LETTERS = 64
MAX_ORACLE_DEPTH = 256


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _depth() -> int:
    from .stability import DEFAULT_DEPTH

    raw = os.environ.get("ENDSCOPE_DEPTH")
    if raw is None:
        return DEFAULT_DEPTH
    try:
        d = int(raw)
        if d < 1:
            raise ValueError
    except ValueError:
        raise _CliError(f"bad ENDSCOPE_DEPTH value: {raw!r}", EXIT_USAGE)
    if d > MAX_CHECK_DEPTH:
        raise _CliError(f"ENDSCOPE_DEPTH {d} exceeds the maximum {MAX_CHECK_DEPTH}", EXIT_USAGE)
    return d


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e.strerror}", EXIT_USAGE)


def _load(text: str):
    """Parse input text into a Term, SurfaceDescriptor, or GermTable."""
    from .parser import LexError, ParseError, parse
    from .terms import ValidationError

    stripped = text.strip()
    if not stripped:
        raise _CliError("empty input", EXIT_INPUT)
    if stripped.startswith("{"):
        from .germs import from_json

        try:
            return from_json(json.loads(stripped))
        except (json.JSONDecodeError, ValidationError, ValueError) as e:
            raise _CliError(f"bad germ table: {e}", EXIT_INPUT)
        except RecursionError:
            raise _CliError("bad germ table: nested too deeply", EXIT_INPUT)
    try:
        return parse(stripped)
    except (ParseError, LexError, ValidationError) as e:
        raise _CliError(str(e), EXIT_INPUT)


def _is_surface(obj) -> bool:
    from .germs import GermTable
    from .terms import SurfaceDescriptor

    return isinstance(obj, SurfaceDescriptor) or (isinstance(obj, GermTable) and obj.surface)


def _table_of(obj):
    from .germs import GermTable, derive_table
    from .terms import SurfaceDescriptor

    if isinstance(obj, GermTable):
        return obj
    if isinstance(obj, SurfaceDescriptor):
        return derive_table(obj.ends)
    return derive_table(obj)


def _emit_json(doc) -> None:
    """Write `doc` as `json.dumps(doc, indent=2, sort_keys=True)` and a
    newline, as a stream: the whole text is never held at once. The chunks go
    out in batches, since one `write` per chunk doubles the time."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    while batch := "".join(islice(chunks, 8192)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# reports


def _class_entries(v) -> list:
    """One report row per class of the verdict `v`'s table."""
    from .germs import CANTOR, maximal_classes

    maximal = maximal_classes(v.table)
    out = []
    for r, tl, st in zip(v.table.classes, v.per_class, v.stability):
        entry = {
            "id": r.id,
            "kind": str(r.kind),
            "color": str(r.color),
            "maximal": r.id in maximal,
            "cantor_type": r.kind == CANTOR,
            "stable": type(st).__name__.lower(),
            "telescoping": tl.status == "telescoping",
            "case": tl.case if tl.status == "telescoping" else tl.failure,
        }
        out.append(entry)
    return out


def _normal_form(obj):
    """The normal form of a term or surface, as text; None for a table."""
    from .normalize import normalize
    from .terms import SurfaceDescriptor, Term, pretty, pretty_surface

    if isinstance(obj, SurfaceDescriptor):
        return pretty_surface(SurfaceDescriptor(obj.genus, normalize(obj.ends)))
    if isinstance(obj, Term):
        return pretty(normalize(obj))
    return None


def _report(text: str, obj) -> dict:
    import hashlib

    from .verdict import stone_verdict, surface_verdict

    v = surface_verdict(obj) if _is_surface(obj) else stone_verdict(obj)
    return {
        "schema": 1,
        "version": __version__,
        "input": text,
        "input_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "normalized": _normal_form(obj),
        "classes": _class_entries(v),
        "verdict": {"ac": v.ac, "basis": v.basis, "witness": v.witness},
        "notes": list(v.notes),
    }


def _verdict_exit(ac: str) -> int:
    return {"holds": 0, "fails": 1, "unknown": 2}[ac]


def _print_text_report(report: dict) -> None:
    print(f"input sha256 {report['input_sha256'][:12]}")
    if report["normalized"] is not None:
        print(f"normalized   {report['normalized']}")
    print("classes:")
    for c in report["classes"]:
        flags = []
        if c["maximal"]:
            flags.append("maximal")
        if c["cantor_type"]:
            flags.append("cantor-type")
        flags.append(c["stable"])
        tl = f"telescoping({c['case']})" if c["telescoping"] else f"not-telescoping({c['case']})"
        flags.append(tl)
        print(f"  {c['id']}: {c['kind']} {c['color']} [{', '.join(flags)}]")
    v = report["verdict"]
    line = f"verdict: ac={v['ac']} basis={v['basis']}"
    if v["witness"]:
        line += f" witness={v['witness']}"
    print(line)
    for note in report["notes"]:
        print(f"note: {note}")


# ---------------------------------------------------------------------------
# subcommands


def _reads_input(cmd):
    """`cmd` with the engine's input errors (validation, unknown class ids)
    made exit 65. Only the commands that read input load the modules that
    define them."""

    @functools.wraps(cmd)
    def run_cmd(args) -> int:
        from .germs import UnknownClass
        from .terms import ValidationError

        try:
            return cmd(args)
        except (ValidationError, UnknownClass) as e:
            raise _CliError(str(e), EXIT_INPUT) from None

    return run_cmd


@_reads_input
def _cmd_parse(args) -> int:
    from .germs import to_json
    from .terms import SurfaceDescriptor, Term, pretty, pretty_surface

    obj = _load(_read(args.file))
    if isinstance(obj, SurfaceDescriptor):
        print(pretty_surface(obj))
    elif isinstance(obj, Term):
        print(pretty(obj))
    else:
        _emit_json(to_json(obj))
    return 0


@_reads_input
def _cmd_normalize(args) -> int:
    text = _normal_form(_load(_read(args.file)))
    if text is None:
        raise _CliError("germ tables have no normal form; pass a term", EXIT_INPUT)
    print(text)
    return 0


@_reads_input
def _cmd_classify(args) -> int:
    from .germs import to_json
    from .terms import SurfaceDescriptor, surface_check

    obj = _load(_read(args.file))
    if isinstance(obj, SurfaceDescriptor):
        surface_check(obj.genus, obj.ends)
    _emit_json(to_json(_table_of(obj)))
    return 0


@_reads_input
def _cmd_verdict(args) -> int:
    text = _read(args.file)
    report = _report(text, _load(text))
    if args.format == "json":
        _emit_json(report)
    else:
        _print_text_report(report)
    return _verdict_exit(report["verdict"]["ac"])


def _certificate_for(obj, end: str) -> dict:
    from .stability import (
        NotTelescoping,
        Stable,
        annuli,
        annuli_certificate,
        decomposition_certificate,
        stable_nbhd,
    )

    if _is_surface(obj):
        try:
            return annuli_certificate(annuli(obj, end, depth=_depth()))
        except NotTelescoping:
            pass  # no annulus chain: fall back to the stability certificate
    res = stable_nbhd(_table_of(obj), end)
    if not isinstance(res, Stable):
        raise _CliError(f"{end} has no stability certificate: {res}", EXIT_INPUT)
    return decomposition_certificate(res.decomposition, depth=_depth())


def _check_certificate(obj, end: str, cert: dict) -> list:
    from .stability import (
        NotTelescoping,
        Stable,
        annuli,
        annuli_certificate,
        check_annuli,
        check_decomposition,
        check_shift,
        decomposition_certificate,
        shift,
        stable_nbhd,
    )

    kind = cert.get("kind")
    if kind == "decomposition":
        res = stable_nbhd(_table_of(obj), end)
        if not isinstance(res, Stable):
            return [f"{end} is not certified stable"]
        problems = check_decomposition(res.decomposition, depth=_depth())
        fresh = decomposition_certificate(res.decomposition, depth=_depth())
        if fresh != cert:
            problems.append("certificate does not match the input")
        return problems
    if kind == "annuli":
        if not _is_surface(obj):
            return ["an annuli certificate needs a surface input"]
        try:
            dec = annuli(obj, end, depth=_depth())
        except NotTelescoping as e:
            return [str(e)]
        problems = check_annuli(_table_of(obj), dec)
        if annuli_certificate(dec) != cert:
            problems.append("certificate does not match the input")
        return problems
    if kind == "shift":
        return check_shift(shift(_shift_brick(cert)), depth=_depth())
    return [f"unknown certificate kind: {kind!r}"]


def _shift_brick(cert: dict):
    """The brick of a shift certificate; malformed ones are input errors."""
    from .stability import Brick

    pieces = cert.get("pieces")
    if not (isinstance(pieces, list) and pieces and isinstance(pieces[0], dict)):
        raise _CliError("bad shift certificate: 'pieces' must hold one brick", EXIT_INPUT)
    words = [pieces[0].get(key, []) for key in ("prefix", "period")]
    # bool and float entries compare equal to 0 and 1, so test the type too
    if not all(isinstance(w, list) and all(type(b) is int for b in w) for w in words):
        raise _CliError("bad shift certificate: prefix and period must be lists of bits", EXIT_INPUT)
    try:
        return Brick(*map(tuple, words))
    except ValueError as e:
        raise _CliError(f"bad shift certificate: {e}", EXIT_INPUT)


@_reads_input
def _cmd_certify(args) -> int:
    from .terms import GenusMismatch, SurfaceDescriptor, surface_check

    obj = _load(_read(args.file))
    if isinstance(obj, SurfaceDescriptor):
        try:
            surface_check(obj.genus, obj.ends)
        except GenusMismatch as e:
            raise _CliError(str(e), EXIT_INPUT)
    if args.check:
        try:
            cert = json.loads(_read(args.check))
        except json.JSONDecodeError as e:
            raise _CliError(f"bad certificate file: {e}", EXIT_INPUT)
        except RecursionError:
            raise _CliError("bad certificate file: nested too deeply", EXIT_INPUT)
        if not isinstance(cert, dict):
            raise _CliError("bad certificate file: not a JSON object", EXIT_INPUT)
        problems = _check_certificate(obj, args.end, cert)
        if problems:
            for p in problems:
                print(f"check failed: {p}")
            return 1
        print("certificate ok")
        return 0
    _emit_json(_certificate_for(obj, args.end))
    return 0


def _cmd_swindle(args) -> int:
    import random

    from .swindle import anderson, em_check, slot_word

    if args.letters < 1 or args.depth < 1:
        raise _CliError("--letters and --depth must be positive", EXIT_USAGE)
    if args.letters > MAX_SWINDLE_LETTERS:
        raise _CliError(f"--letters exceeds the maximum {MAX_SWINDLE_LETTERS}", EXIT_USAGE)
    if args.depth > MAX_SWINDLE_DEPTH:
        raise _CliError(f"--depth exceeds the maximum {MAX_SWINDLE_DEPTH}", EXIT_USAGE)
    rng = random.Random(args.seed)
    em = em_check(args.letters)
    width = 8
    words = {}
    for s in range(width):
        letters = [i for i in range(-args.letters, args.letters + 1) if i]
        words[s] = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
    h = slot_word(words)
    depth = max(args.depth, len(h.support()) + 1)
    _, v, ok = anderson(h, depth)
    report = {
        "schema": 1,
        "version": __version__,
        "em": em,
        "anderson": {
            "seed": args.seed,
            "depth": depth,
            "shift": v,
            "support": list(h.support()),
            "check": ok,
        },
    }
    _emit_json(report)
    passed = (
        ok
        and em["separators"]
        and em["reconstruction"]
        and em["product_identity"] == "both"
        and all(em["blue_blocks"])
        and all(em["regrouped_blocks"])
    )
    return 0 if passed else 1


def _cmd_constants(args) -> int:
    from .exponents import constants

    dag = constants()
    for node in dag.nodes:
        value = dag.value(node.name)
        shown = "-" if value is None else str(value)
        print(f"{node.name:24} {shown:>6}  {node.note}")
    return 0


@_reads_input
def _cmd_oracle(args) -> int:
    from .oracle import equiv_invariants
    from .terms import Term

    if args.depth < 0:
        raise _CliError("--depth must not be negative", EXIT_USAGE)
    if args.depth > MAX_ORACLE_DEPTH:
        raise _CliError(f"--depth exceeds the maximum {MAX_ORACLE_DEPTH}", EXIT_USAGE)
    a_text, b_text = args.compare
    a = _load(_read(a_text) if a_text == "-" or os.path.exists(a_text) else a_text)
    b = _load(_read(b_text) if b_text == "-" or os.path.exists(b_text) else b_text)
    for side in (a, b):
        if not isinstance(side, Term):
            raise _CliError("oracle comparison takes plain terms", EXIT_INPUT)
    res = equiv_invariants(a, b, args.depth)
    if res == "same":
        print(f"same up to depth {args.depth}")
        return 0
    print(f"differ: {res[1]}")
    return 1


def _cmd_examples(args) -> int:
    try:
        print(example(args.name))
    except KeyError as e:
        raise _CliError(e.args[0], EXIT_USAGE)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args returns a fresh Namespace and reads
    # sys.stdout and sys.stderr at call time, so calls share no state
    p = _Parser(prog="endscope", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"endscope {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse and pretty-print an input")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_parse)

    sp = sub.add_parser("normalize", help="print the normal form of a term")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("classify", help="dump the derived germ table")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("verdict", help="automatic-continuity verdict")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(func=_cmd_verdict)

    sp = sub.add_parser("certify", help="emit or check a stability certificate")
    sp.add_argument("file")
    sp.add_argument("--end", required=True, help="germ class id")
    sp.add_argument("--check", help="certificate file to validate")
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("swindle", help="commutator machinery checks")
    sp.add_argument("--letters", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_swindle)

    sp = sub.add_parser("constants", help="Steinhaus exponent table")
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("oracle", help="brute-force truncation comparison")
    sp.add_argument("--compare", nargs=2, metavar=("A", "B"), required=True)
    sp.add_argument("--depth", type=int, default=4)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("examples", help="print a built-in example input")
    sp.add_argument("name", choices=sorted(EXAMPLES))
    sp.set_defaults(func=_cmd_examples)

    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help/--version; keep that, remap usage errors
        code = e.code or 0
        return EXIT_USAGE if code not in (0, EXIT_USAGE) else code
    try:
        return args.func(args)
    except _CliError as e:
        print(f"endscope: {e}", file=sys.stderr)
        return e.code
    except BrokenPipeError:
        return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
