import functools
import json
import os
import subprocess
import sys

import pytest

from catalog import NON_ASCII_DIGITS
from endscope import cli, germs, oracle, stability
from endscope.cli import _load, run
from endscope.examples_builtin import EXAMPLES
from endscope.parser import MAX_NESTING, ParseError, parse


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_round_trip(tmp_path, capsys):
    f = _write(tmp_path, "in.txt", "mix( cantor^g() , cantor() ; g )")
    assert run(["parse", f]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "mix(cantor(),cantor^g();g)"


def test_parse_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("sum(pt,pt)"))
    assert run(["parse", "-"]) == 0
    assert capsys.readouterr().out.strip() == "sum(pt,pt)"


def test_normalize_command(tmp_path, capsys):
    f = _write(tmp_path, "in.txt", "sum(sum(pt,pt),pt)")
    assert run(["normalize", f]) == 0
    assert capsys.readouterr().out.strip() == "ord(3)"


def test_verdict_exit_codes(tmp_path):
    codes = {
        "mona-lisa": 0,
        "loch-ness": 1,
        "flute": 1,
        "blooming-cantor": 0,
        "unknown-6-2": 2,
        "telescopefail-iii": 1,
    }
    for name, expected in codes.items():
        f = _write(tmp_path, name, EXAMPLES[name])
        assert run(["verdict", f]) == expected, name


def test_verdict_json_is_deterministic(tmp_path, capsys):
    f = _write(tmp_path, "ml", EXAMPLES["mona-lisa"])
    run(["verdict", f, "--format", "json"])
    first = capsys.readouterr().out
    run(["verdict", f, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == 1
    assert doc["verdict"]["ac"] == "holds"
    assert all(c["stable"] for c in doc["classes"])


def test_verdict_json_stone_input(tmp_path, capsys):
    f = _write(tmp_path, "t", "ord(w^(2))")
    assert run(["verdict", f, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["ac"] == "holds"
    assert doc["normalized"] == "ord(w^(2))"


def test_classify_lists_classes(tmp_path, capsys):
    f = _write(tmp_path, "t", "mix(cantor^g(),cantor();g)")
    assert run(["classify", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    ids = [c["id"] for c in doc["classes"]]
    assert ids == ["cantor()", "cantor^g()", "mix(cantor(),cantor^g();g)"]


def test_certify_round_trip(tmp_path, capsys):
    f = _write(tmp_path, "ml", EXAMPLES["mona-lisa"])
    assert run(["certify", f, "--end", "mix(cantor(),cantor^g();g)"]) == 0
    cert = capsys.readouterr().out
    assert json.loads(cert)["kind"] == "annuli"
    c = _write(tmp_path, "cert.json", cert)
    assert run(["certify", f, "--end", "mix(cantor(),cantor^g();g)", "--check", c]) == 0


def test_certify_detects_tampering(tmp_path, capsys):
    f = _write(tmp_path, "ml", EXAMPLES["mona-lisa"])
    run(["certify", f, "--end", "mix(cantor(),cantor^g();g)"])
    doc = json.loads(capsys.readouterr().out)
    doc["pieces"][0]["contents"] = ["cantor()"]
    c = _write(tmp_path, "bad.json", json.dumps(doc))
    assert run(["certify", f, "--end", "mix(cantor(),cantor^g();g)", "--check", c]) == 1


def test_certify_unknown_end(tmp_path, capsys):
    f = _write(tmp_path, "ml", EXAMPLES["mona-lisa"])
    assert run(["certify", f, "--end", "cantor()"]) == 0
    cert = _write(tmp_path, "cert.json", capsys.readouterr().out)
    for check in ([], ["--check", cert]):
        assert run(["certify", f, "--end", "nope", *check]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "endscope: unknown class id 'nope'\n"


@pytest.mark.parametrize("end", [
    "rank(007)", "rank( 3 )", "rank(w*0)", "rank(w*1)", "rank(1" + "0" * 4300 + ")",
])
def test_a_family_member_has_one_spelling(tmp_path, capsys, end):
    f = _write(tmp_path, "fam.txt", "ord(w^(w))")  # family bound w, and a row rank(w)
    assert run(["certify", f, "--end", "rank(3)"]) == 0
    assert json.loads(capsys.readouterr().out)["basepoint"] == "rank(3)"
    assert run(["certify", f, "--end", end]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("endscope: ") and err.count("\n") == 1


def test_certify_rejects_a_genus_mismatch(tmp_path, capsys):
    good = _write(tmp_path, "good.txt", "surface { genus: inf, ends: cantor^g() }")
    assert run(["certify", good, "--end", "cantor^g()"]) == 0
    cert = _write(tmp_path, "cert.json", capsys.readouterr().out)
    bad = _write(tmp_path, "bad.txt", "surface { genus: 0, ends: cantor^g() }")
    for check in ([], ["--check", cert]):
        assert run(["certify", bad, "--end", "cantor^g()", *check]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "endscope: finite genus forbids genus-colored ends\n"


@pytest.mark.parametrize("command,levels", [("parse", 1000), ("classify", 300)])
def test_deep_nesting_is_an_input_error(tmp_path, capsys, command, levels):
    term = "pt"
    for _ in range(levels - 1):
        term = f"mix({term},pt;g)"
    f = _write(tmp_path, "deep.txt", term)
    assert run([command, f]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("endscope: input nests deeper than the maximum of 200 levels")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", NON_ASCII_DIGITS)
@pytest.mark.parametrize("command", ["parse", "verdict"])
def test_non_ascii_digits_are_an_input_error(tmp_path, capsys, command, text):
    f = _write(tmp_path, "digits.txt", text)
    assert run([command, f]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("endscope: unknown character ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["parse", "verdict"])
def test_overlong_numbers_are_an_input_error(tmp_path, capsys, command):
    f = _write(tmp_path, "big.txt", "ord(1" + "0" * 4300 + ")")
    assert run([command, f]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("endscope: number longer than 4300 digits")
    assert err.count("\n") == 1


def test_certify_falls_back_to_decomposition(tmp_path, capsys):
    f = _write(tmp_path, "ln", EXAMPLES["loch-ness"])
    assert run(["certify", f, "--end", "pt^g"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "decomposition"


def test_usage_and_io_errors(tmp_path):
    assert run(["verdict", "/no/such/file"]) == 64
    assert run(["frobnicate"]) == 64
    bad = _write(tmp_path, "bad", "mix(pt,pt)")
    assert run(["parse", bad]) == 65
    badjson = _write(tmp_path, "bad.json", '{"classes": []}')
    assert run(["classify", badjson]) == 65


def test_examples_command_outputs_parseable_inputs(capsys):
    for name in sorted(EXAMPLES):
        assert run(["examples", name]) == 0
        text = capsys.readouterr().out
        assert text.strip() == EXAMPLES[name].strip()
        if not text.lstrip().startswith("{"):
            parse(text.strip())


def test_swindle_command(capsys):
    assert run(["swindle", "--letters", "3", "--depth", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["anderson"]["check"] is True
    assert doc["em"]["separators"] is True


def test_oracle_compare(capsys):
    assert run(["oracle", "--compare", "ord(w)", "mix(pt;planar)"]) == 0
    capsys.readouterr()
    assert run(["oracle", "--compare", "ord(w)", "cantor()"]) == 1


def test_constants_command(capsys):
    assert run(["constants"]) == 0
    out = capsys.readouterr().out
    assert "final-surface" in out and "4896" in out


def test_depth_env_override(tmp_path, capsys, monkeypatch):
    f = _write(tmp_path, "ml", EXAMPLES["mona-lisa"])
    monkeypatch.setenv("ENDSCOPE_DEPTH", "5")
    run(["certify", f, "--end", "mix(cantor(),cantor^g();g)"])
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["pieces"]) == 5


def test_depth_env_rejects_garbage(tmp_path, monkeypatch):
    f = _write(tmp_path, "ml", EXAMPLES["mona-lisa"])
    monkeypatch.setenv("ENDSCOPE_DEPTH", "soon")
    assert run(["certify", f, "--end", "mix(cantor(),cantor^g();g)"]) == 64


def test_depth_env_has_a_maximum(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ENDSCOPE_DEPTH", "256")
    assert cli._depth() == 256
    f = _write(tmp_path, "ml", EXAMPLES["mona-lisa"])
    monkeypatch.setenv("ENDSCOPE_DEPTH", "257")
    assert run(["certify", f, "--end", "mix(cantor(),cantor^g();g)"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "256" in err


@pytest.mark.parametrize("flag, maximum", [("--letters", 64), ("--depth", 4096)])
def test_swindle_sizes_have_maxima(capsys, flag, maximum):
    def swindle(value):
        sizes = {"--letters": "1", "--depth": "8", flag: str(value)}
        return run(["swindle", *(x for kv in sizes.items() for x in kv)])

    assert swindle(maximum) == 0
    capsys.readouterr()
    assert swindle(maximum + 1) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and str(maximum) in err


def test_oracle_rejects_negative_depth(capsys):
    assert run(["oracle", "--compare", "pt", "pt", "--depth", "-3"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert run(["oracle", "--compare", "pt", "pt", "--depth", "0"]) == 0
    assert capsys.readouterr().out == "same up to depth 0\n"


def test_oracle_depth_has_a_maximum(capsys):
    assert run(["oracle", "--compare", "pt", "pt", "--depth", str(cli.MAX_ORACLE_DEPTH)]) == 0
    capsys.readouterr()
    for depth in (cli.MAX_ORACLE_DEPTH + 1, 100000):
        assert run(["oracle", "--compare", "pt", "pt", "--depth", str(depth)]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and str(cli.MAX_ORACLE_DEPTH) in err


def test_oracle_sample_trees_have_a_maximum(capsys, monkeypatch):
    def compare(*args):
        raise AssertionError("a depth was compared before the refusal")

    # refused before any depth is compared; the package builds no sample tree
    monkeypatch.setattr(oracle, "_bundle", compare)
    nodes = []
    node = oracle._node

    def counting(*args):
        nodes.append(args)
        return node(*args)

    monkeypatch.setattr(oracle, "_node", counting)
    nest = "mix(mix(mix(pt,cantor();g),pt;g),ord(w);g)"
    for term, depth in ((nest, "12"), ("cantor()", "256")):
        nodes.clear()
        assert run(["oracle", "--compare", term, term, "--depth", depth]) == 65
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert f"maximum of {oracle.MAX_SAMPLE_NODES} nodes" in err
        # the fold stops at its first partial sum past the budget
        assert len(nodes) < 100


_DEEP_RANK = "ord(w^(w^(300)))"


@pytest.mark.parametrize("term", [
    functools.reduce(lambda t, _: f"sum({t},pt)", range(190), _DEEP_RANK),
    functools.reduce(lambda t, _: f"mix({t},pt;g)", range(190), _DEEP_RANK),
    functools.reduce(lambda t, _: f"sum({t},pt)", range(190), f"cantor({_DEEP_RANK})"),
], ids=["sum", "mix", "cantor-in-sum"])
def test_an_oracle_refusal_at_full_nesting_and_depth_is_one_line(capsys, monkeypatch, term):
    monkeypatch.setattr(oracle, "MAX_SAMPLE_NODES", 1_000)
    assert run(["oracle", "--compare", term, term, "--depth", "256"]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "maximum of 1000 nodes" in err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    parser_class = cli._Parser

    def counting(*args, **kwargs):
        built.append(args)
        return parser_class(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", counting)
    for _ in range(5):
        assert run(["constants"]) == 0
    assert len(built) <= 1


def test_reused_parser_gives_the_same_results(tmp_path, capsys):
    f = _write(tmp_path, "ml", EXAMPLES["mona-lisa"])
    calls = [
        ["frobnicate"],
        ["certify", f],
        ["--version"],
        ["verdict", f, "--format", "json"],
        ["examples", "flute"],
        ["oracle", "--compare", "pt", "pt"],
    ]

    def replay():
        results = []
        for argv in calls:
            code = run(argv)
            results.append((code, *capsys.readouterr()))
        return results

    first = replay()
    assert [code for code, _, _ in first] == [64, 64, 0, 0, 0, 0]
    assert all(out == "" and "error:" in err for _, out, err in first[:2])
    assert replay() == first


@pytest.mark.parametrize("cert", [
    [],
    {"kind": "shift"},
    {"kind": "shift", "pieces": []},
    {"kind": "shift", "pieces": [5]},
    {"kind": "shift", "pieces": [{"prefix": [], "period": [1]}]},
    {"kind": "shift", "pieces": [{"prefix": [], "period": [0, 0]}]},
    {"kind": "shift", "pieces": [{"prefix": [1], "period": []}]},
    {"kind": "shift", "pieces": [{"prefix": "10", "period": [1, 0]}]},
    {"kind": "shift", "pieces": [{"prefix": [], "period": 10}]},
    {"kind": "shift", "pieces": [{"prefix": [2], "period": [1, 0]}]},
    {"kind": "shift", "pieces": [{"prefix": [], "period": [1, "0"]}]},
    {"kind": "shift", "pieces": [{"prefix": [True], "period": [1, 0]}]},
    {"kind": "shift", "pieces": [{"prefix": [], "period": [1, 0.0]}]},
])
def test_malformed_certificate_is_an_input_error(tmp_path, capsys, cert):
    f = _write(tmp_path, "pt.txt", "pt")
    c = _write(tmp_path, "cert.json", json.dumps(cert))
    assert run(["certify", f, "--end", "rank(0)", "--check", c]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("endscope: bad ") and err.count("\n") == 1


def test_shift_certificate_replays(tmp_path, capsys):
    f = _write(tmp_path, "pt.txt", "pt")
    cert = {"kind": "shift", "pieces": [{"prefix": [1, 1, 0], "period": [1, 0, 0]}]}
    c = _write(tmp_path, "cert.json", json.dumps(cert))
    assert run(["certify", f, "--end", "rank(0)", "--check", c]) == 0
    assert capsys.readouterr().out == "certificate ok\n"


_TABLE = {
    "classes": [
        {"id": "a", "kind": "finite(1)", "color": "planar"},
        {"id": "b", "kind": "cantor", "color": "genus"},
    ],
    "leq": [["a", "b"]],
    "acc": [["a", "b"]],
}


@pytest.mark.parametrize("text, end", [
    ("mix(ord(w),pt^g;g)", "pt^g"),
    ("ord(w)", "rank(0)"),
    (json.dumps(_TABLE), "a"),
], ids=["mix", "ord", "table"])
def test_an_annuli_certificate_of_a_non_surface_fails_its_check(tmp_path, capsys, text, end):
    f = _write(tmp_path, "in.txt", text)
    c = _write(tmp_path, "cert.json", json.dumps({"kind": "annuli"}))
    assert run(["certify", f, "--end", end, "--check", c]) == 1
    out, err = capsys.readouterr()
    assert out == "check failed: an annuli certificate needs a surface input\n" and err == ""


@pytest.mark.parametrize("levels", [1_000, 100_000])
@pytest.mark.parametrize("path", ["table", "certificate"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, levels, path):
    nested = "[" * levels + "]" * levels
    if path == "table":
        argv = ["verdict", _write(tmp_path, "t.json", '{"classes": ' + nested + "}")]
        message = "bad germ table"
    else:
        c = _write(tmp_path, "cert.json", nested)
        argv = ["certify", _write(tmp_path, "pt.txt", "pt"), "--end", "rank(0)", "--check", c]
        message = "bad certificate file"
    assert run(argv) == 65
    assert capsys.readouterr() == ("", f"endscope: {message}: nested too deeply\n")


@pytest.mark.parametrize("doc", [
    {"classes": [1, 2]},
    {"classes": "abc"},
    {"classes": {"a": 1}},
    {"classes": 5},
    dict(_TABLE, leq=5),
    dict(_TABLE, leq=None),
    dict(_TABLE, leq=[[["a"], "b"]]),
    dict(_TABLE, leq=[[1, 2]]),
    dict(_TABLE, acc=5),
    dict(_TABLE, acc=[["a", "b", "a"]]),
    {"classes": [{"id": "a", "kind": 5, "color": "planar"}]},
    {"classes": [{"id": "a", "kind": "cantor", "color": ["planar"]}]},
    {"classes": [{"id": "a", "kind": "cantor", "color": "planar", "family": True,
                  "family_bound": 5}]},
    {"classes": [{"id": "a", "kind": "cantor", "color": "planar", "family": True,
                  "family_bound": "w+("}]},
])
@pytest.mark.parametrize("command", ["classify", "verdict"])
def test_malformed_germ_table_is_an_input_error(tmp_path, capsys, doc, command):
    f = _write(tmp_path, "t.json", json.dumps(doc))
    assert run([command, f]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("endscope: bad germ table: ") and err.count("\n") == 1


def test_well_formed_germ_table_still_loads(tmp_path, capsys):
    f = _write(tmp_path, "t.json", json.dumps(_TABLE))
    assert run(["classify", f]) == 0
    assert [c["id"] for c in json.loads(capsys.readouterr().out)["classes"]] == ["a", "b"]


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_verdict_on_derived_origin_table_with_family_row(tmp_path, capsys, fmt):
    # a table read from JSON carries no germ terms, whatever its origin says
    f = _write(tmp_path, "t.txt", "mix(ord(w^(w)),cantor^g(pt);g)")
    assert run(["classify", f]) == 0
    table = capsys.readouterr().out
    doc = json.loads(table)
    assert doc["origin"] == "derived-from-term" and any(c.get("family") for c in doc["classes"])
    assert run(["verdict", _write(tmp_path, "t.json", table), *fmt]) in (0, 1, 2)
    out, err = capsys.readouterr()
    assert out and err == ""


def _user_surface_copy(tmp_path, capsys, term):
    f = _write(tmp_path, "t.txt", term)
    assert run(["classify", f]) == 0
    doc = dict(json.loads(capsys.readouterr().out), origin="user-supplied", surface=True)
    return _write(tmp_path, "t.json", json.dumps(doc))


def test_certify_on_json_surface_table_is_an_input_error(tmp_path, capsys):
    term = "mix(ord(w^(3)),cantor(),pt^g;g)"
    s = _write(tmp_path, "s.txt", f"surface {{ genus: inf, ends: {term} }}")
    assert run(["certify", s, "--end", "cantor()"]) == 0
    cert = _write(tmp_path, "cert.json", capsys.readouterr().out)
    assert json.loads(open(cert).read())["kind"] == "annuli"
    assert run(["certify", s, "--end", "cantor()", "--check", cert]) == 0
    capsys.readouterr()
    tables = [(_user_surface_copy(tmp_path, capsys, term), "cantor()"),
              (_write(tmp_path, "tf.json", EXAMPLES["telescopefail-iii"]), "zfam")]
    for table, end in tables:
        for check in ([], ["--check", cert]):
            assert run(["certify", table, "--end", end, *check]) == 65
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"endscope: {end}: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_verdict_analyses_each_class_once(tmp_path, capsys, monkeypatch, name):
    derived, stable = [], []

    def counting(fn, log, arg):
        def wrapper(*args):
            log.append(args[arg])
            return fn(*args)
        return wrapper

    # every module that imported the function holds its own reference
    wrappers = {germs.derive_table: ("derive_table", counting(germs.derive_table, derived, 0)),
                stability.stable_nbhd: ("stable_nbhd", counting(stability.stable_nbhd, stable, 1))}
    for mod in [m for n, m in sys.modules.items() if n.startswith("endscope.")]:
        for fn, (attr, wrapper) in wrappers.items():
            if getattr(mod, attr, None) is fn:
                monkeypatch.setattr(mod, attr, wrapper)
    obj = _load(EXAMPLES[name])
    run(["verdict", _write(tmp_path, name, EXAMPLES[name]), "--format", "json"])
    ids = [c["id"] for c in json.loads(capsys.readouterr().out)["classes"]]
    assert sorted(stable) == sorted(ids)
    if hasattr(obj, "ends"):
        # canon's absorption pass derives tables of subterms too; not counted
        assert derived.count(obj.ends) == 1
    else:
        assert derived == []


# ---------------------------------------------------------------------------
# the package imports only the module asked for, and messages do not depend
# on the hash seed


def _python(args, seed="0", **kw):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kw)


@pytest.mark.parametrize("module", ["swindle", "ordinals"])
def test_a_leaf_module_loads_no_other_endscope_module(module):
    code = (f"import sys, endscope.{module}; "
            "print(sorted(m for m in sys.modules if m.startswith('endscope')))")
    proc = _python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["endscope", f"endscope.{module}"])


# each subcommand once, in a fresh interpreter, and the modules it loaded
_COMMANDS = {
    "parse": ["parse", "{mona-lisa}"],
    "normalize": ["normalize", "{mona-lisa}"],
    "classify": ["classify", "{mona-lisa}"],
    "verdict": ["verdict", "{mona-lisa}"],
    "verdict-json": ["verdict", "{mona-lisa}", "--format", "json"],
    "certify": ["certify", "{mona-lisa}", "--end", "cantor()"],
    "swindle": ["swindle", "--letters", "2", "--depth", "3"],
    "constants": ["constants"],
    "oracle": ["oracle", "--compare", "pt", "pt"],
    "examples": ["examples", "mona-lisa"],
}


def _modules_loaded(argv: list) -> set:
    code = ("import sys; from endscope.cli import run; code = run(sys.argv[1:]); "
            "print(); print(code, *sorted(sys.modules))")
    proc = _python(["-c", code, *argv])
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stdout
    return set(modules)


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    path = _write(tmp_path, "mona-lisa", EXAMPLES["mona-lisa"])
    loaded = {
        name: _modules_loaded([a.replace("{mona-lisa}", path) for a in argv])
        for name, argv in _COMMANDS.items()
    }
    engine = {"endscope.germs", "endscope.stability", "endscope.verdict", "endscope.oracle"}
    for name, modules in loaded.items():
        # the dataclass machinery costs a cold command a third of its time
        assert not modules & {"dataclasses", "inspect"}, name
        if name in ("examples", "constants", "swindle"):
            assert not modules & engine, name
        # `verdict` prints its input's hash in either format
        assert ("hashlib" in modules) == name.startswith("verdict"), name


def _classes(**colors):
    return [{"id": cid, "kind": "cantor", "color": color} for cid, color in colors.items()]


_TWO_FAULTS = {
    "verdict": {
        "classes": _classes(a="genus", b="planar", c="genus", d="planar"),
        "acc": [["a", "b"], ["c", "d"]],
        "surface": True,
    },
    "classify": {
        "classes": _classes(a="planar"),
        "leq": [["x", "a"], ["y", "a"], ["z", "a"]],
    },
}


@pytest.mark.parametrize("command, expected", [
    ("verdict", "genus class a accumulates onto planar class b"),
    ("classify", "relation mentions unknown class 'x'"),
])
def test_a_malformed_table_names_its_first_fault_under_every_hash_seed(
    tmp_path, command, expected
):
    f = tmp_path / "table.json"
    f.write_text(json.dumps(_TWO_FAULTS[command]))
    errs = set()
    for seed in range(1, 9):
        proc = _python(["-m", "endscope", command, str(f)], seed=str(seed))
        assert proc.returncode == 65 and proc.stdout == ""
        errs.add(proc.stderr)
    assert len(errs) == 1
    (err,) = errs
    assert err.count("\n") == 1 and expected in err


def test_an_oracle_witness_is_the_same_under_every_hash_seed():
    argv = ["-m", "endscope", "oracle", "--compare", "sum(pt,pt^g)", "sum(pt,pt,pt^g,pt^g)"]
    outs = set()
    for seed in range(12):
        proc = _python(argv, seed=str(seed))
        assert proc.returncode == 1 and proc.stderr == ""
        outs.add(proc.stdout)
    assert outs == {"differ: isolated at depth 0: genus: 1 vs 2\n"}


# ---------------------------------------------------------------------------
# the deepest inputs the parser accepts run through the engine


def _nested(wraps, wrap, leaf="pt"):
    return functools.reduce(wrap, range(wraps), leaf)


# input shape -> the input with a given number of wraps around its leaf
_DEEPEST = {
    "genus-mix": lambda n: _nested(n, lambda t, _: f"mix(pt,{t};g)"),
    "genus-alternation": lambda n: _nested(
        n, lambda t, i: f"mix({t},pt;g)" if i % 2 else f"cantor^g({t})"),
    "planar-alternation": lambda n: _nested(
        n, lambda t, i: f"mix({t},pt;planar)" if i % 2 else f"cantor({t})"),
    "rank-tower": lambda n: "ord(" + _nested(n, lambda t, _: f"w^({t})", "1") + ")",
}
_SURFACE_GENUS = {"genus-alternation": "inf", "planar-alternation": "0"}


@pytest.mark.parametrize("shape", sorted(_DEEPEST))
def test_the_deepest_inputs_sit_at_the_nesting_maximum(shape):
    parse(_DEEPEST[shape](MAX_NESTING - 1))
    with pytest.raises(ParseError, match="nests deeper"):
        parse(_DEEPEST[shape](MAX_NESTING))


# the term verdict of the two mixes is left out: it takes 3 to 12 s
@pytest.mark.parametrize("shape, command", [
    ("genus-mix", "classify"),
    ("genus-mix", "normalize"),
    ("genus-alternation", "classify"),
    ("genus-alternation", "normalize"),
    ("genus-alternation", "surface verdict"),
    ("planar-alternation", "classify"),
    ("planar-alternation", "normalize"),
    ("planar-alternation", "surface verdict"),
    ("rank-tower", "classify"),
    ("rank-tower", "normalize"),
    ("rank-tower", "verdict"),
])
def test_the_deepest_accepted_inputs_run_through_the_engine(tmp_path, shape, command):
    # a fresh process, so that the stack is as deep as the command line makes
    # it: every memoized call on the way down counts against the recursion limit
    text = _DEEPEST[shape](MAX_NESTING - 1)
    if command == "surface verdict":
        command, text = "verdict", f"surface {{ genus: {_SURFACE_GENUS[shape]}, ends: {text} }}"
    f = _write(tmp_path, "deep.txt", text)
    proc = _python(["-m", "endscope", command, f])
    assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr, proc.stderr[-500:]


# ordinals nested that deep, through certification and its replay
_TOWER = _DEEPEST["rank-tower"](MAX_NESTING - 1)


def test_a_certificate_of_the_deepest_rank_replays(tmp_path, capsys):
    f = _write(tmp_path, "tower.txt", _TOWER)
    assert run(["classify", f]) == 0
    classes = json.loads(capsys.readouterr().out)["classes"]
    top = next(c["id"] for c in classes if not c.get("family"))
    assert run(["certify", f, "--end", top]) == 0
    cert = _write(tmp_path, "cert.json", capsys.readouterr().out)
    assert run(["certify", f, "--end", top, "--check", cert]) == 0
    assert capsys.readouterr() == ("certificate ok\n", "")


def test_the_oracle_compares_the_deepest_rank_with_itself(capsys):
    assert run(["oracle", "--compare", _TOWER, _TOWER, "--depth", "3"]) == 0
    assert capsys.readouterr() == ("same up to depth 3\n", "")


def _stored(obj) -> list:
    """The values that `obj` holds in its `__dict__` and its slots."""
    slots = [s for c in type(obj).__mro__ for s in getattr(c, "__slots__", ())]
    return list(vars(obj).values()) + [getattr(obj, s) for s in slots if hasattr(obj, s)]


def test_memoized_tables_store_no_pair_set(tmp_path, capsys):
    n = 40
    f = _write(tmp_path, "tower.txt", f"ord(w^({n}))")
    for argv in (["classify", f], ["verdict", "--format", "json", f],
                 ["certify", f, "--end", f"rank({n})"]):
        assert run(argv) == 0, argv
    hits = germs.derive_table.cache_info().hits
    table = germs.derive_table(parse(f"ord(w^({n}))"))
    assert germs.derive_table.cache_info().hits == hits + 1  # the table the commands read
    assert not any(isinstance(v, (set, frozenset)) for v in _stored(table))
    # the pair views keep their closed-form sizes, and reading them stores nothing
    assert len(table.leq) == (n + 1) * (n + 2) // 2
    assert len(table.acc) == n * (n + 1) // 2
    assert not any(isinstance(v, (set, frozenset)) for v in _stored(table))


def test_the_deepest_rank_finds_its_memoized_table(tmp_path, capsys):
    f = _write(tmp_path, "tower.txt", _TOWER)
    assert run(["verdict", f]) == 0
    assert run(["classify", f]) == 0  # the memo compares the two parsed terms
    assert capsys.readouterr().err == ""


# runs one `python -m endscope` command and prints its exit code and
# `ru_maxrss`; from a small process of its own, since a child's peak RSS
# starts at the RSS of the process that forks it, and the test process is large
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "endscope", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(argv) -> int:
    proc = _python(["-c", _PEAK_RSS, *argv])
    code, kb = proc.stdout.split()
    assert int(code) in (0, 1, 2), (argv, proc.stderr)
    return int(kb)


def test_classify_of_a_rank_tower_peaks_near_its_verdict(tmp_path):
    # JSON goes out as a stream, so `classify`, which prints 8 MB here, peaks
    # at 1.5 times `verdict`, which prints 28 kB; built as one string, the
    # text made it 4.1 times
    f = _write(tmp_path, "tower.txt", "ord(w^(400))")
    assert _peak_rss_kb(["classify", f]) <= 2 * _peak_rss_kb(["verdict", f])
