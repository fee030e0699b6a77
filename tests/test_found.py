"""Known faults, one test each, written as the behaviour that is right.

Each test is a strict xfail whose reason is the `FOUND:` line of CHANGES.md
that reports the fault. The fix that mends a fault makes its test pass, which
a strict marker turns into a failure until the fix also removes the marker;
the test then stays as the fix's regression test. Open lines that are not
here yet: R3 and the family row, whose right answers wait on ROADMAP items 2
and 6; the slow refusals, which wait on item 16's work budget; and the
isolated counts in Cantor dust, the `check_annuli` unions and the
left-nested mix.
"""

import cProfile
import json
import pstats

import pytest

from endscope.cli import run


def _classify(tmp_path, capsys, text) -> dict:
    f = tmp_path / "in.txt"
    f.write_text(text)
    assert run(["classify", str(f)]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: terms.GenusMismatch is a ValueError, not a ValidationError, so it escapes "
    "cli._cmd_verdict and cli._cmd_classify: verdict or classify on "
    "surface { genus: 0, ends: pt^g } prints a traceback and exits 1 instead of 65"))
@pytest.mark.parametrize("command", ["verdict", "classify"])
def test_a_genus_mismatch_exits_65_with_one_line(tmp_path, capsys, command):
    f = tmp_path / "in.txt"
    f.write_text("surface { genus: 0, ends: pt^g }")
    assert run([command, str(f)]) == 65
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: stability._check_reassembly rejects the engine's own decomposition certificate "
    "when the basepoint germ is a mix with two countable planar components: --check of the "
    "certificate for mix(ord(w*2),ord(w*3);g) prints 'reassembles to mix(ord(w*5);g)' "
    "and exits 1"))
def test_the_engines_own_certificate_of_a_two_rank_mix_replays(tmp_path, capsys):
    end = "mix(ord(w*2),ord(w*3);g)"
    f = tmp_path / "in.txt"
    f.write_text(end)
    assert run(["certify", str(f), "--end", end]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(capsys.readouterr().out)
    assert run(["certify", str(f), "--end", end, "--check", str(cert)]) == 0
    assert capsys.readouterr() == ("certificate ok\n", "")


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: class ids depend on how the input is written: classify of "
    "sum(mix(ord(w*2);g),mix(ord(w);g)) lists two finite(1) genus classes where one "
    "finite(2) class belongs"))
def test_two_homeomorphic_genus_mixes_are_one_class_of_two(tmp_path, capsys):
    doc = _classify(tmp_path, capsys, "sum(mix(ord(w*2);g),mix(ord(w);g))")
    genus = [c["kind"] for c in doc["classes"] if c["color"] == "genus"]
    assert genus == ["finite(2)"]


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: acc misses pairs whose source class lies inside a germ that canon rewrote: "
    "classify of cantor^g(ord(2),mix(pt^g,cantor^g(pt^g);g)) has no acc pair from "
    "cantor^g(pt^g) to cantor^g(ord(2),pt^g)"))
def test_a_class_inside_a_rewritten_germ_accumulates_onto_it(tmp_path, capsys):
    doc = _classify(tmp_path, capsys, "cantor^g(ord(2),mix(pt^g,cantor^g(pt^g);g))")
    assert ["cantor^g(pt^g)", "cantor^g(ord(2),pt^g)"] in doc["acc"]


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the 250,000-node budget now refuses comparisons that the fold answers at once. "
    "oracle --compare 'cantor()' 'cantor()' --depth 20 exits 65 with \"the depth-20 sample "
    "tree exceeds the maximum of 250000 nodes\""))
def test_the_oracle_compares_a_cantor_set_at_depth_20(capsys):
    assert run(["oracle", "--compare", "cantor()", "cantor()", "--depth", "20"]) == 0
    assert capsys.readouterr() == ("same up to depth 20\n", "")


def _bits_steps(tmp_path, capsys, n: int) -> int:
    """The `germs._bits` steps (cProfile call counts) of `verdict` of ord(w^(n))."""
    f = tmp_path / f"ord{n}.txt"
    f.write_text(f"ord(w^({n}))")
    prof = cProfile.Profile()
    assert prof.runcall(run, ["verdict", str(f)]) == 0
    capsys.readouterr()
    stats = pstats.Stats(prof).stats
    return sum(v[1] for (path, _, name), v in stats.items()
               if name == "_bits" and path.endswith("germs.py"))


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: `verdict` of `ord(w^(n))` still walks every row below each class: "
    "`germs._maximal_among` tests each bit of the class's `strict_down` mask against "
    "`strict_up`, so the predecessors of n rank rows cost about n²/2 Python steps. cProfile "
    "of `verdict` of `ord(w^(800))` (0.43 s unprofiled): 322,800 `germs._bits` steps, the "
    "top entry, nearly all from `_maximal_among`"))
def test_the_predecessor_walk_grows_at_most_linearly_in_the_rank_rows(tmp_path, capsys):
    steps = [_bits_steps(tmp_path, capsys, n) for n in (100, 200, 400)]
    assert all(b <= 2.5 * a for a, b in zip(steps, steps[1:])), steps
