import json

from golden import CORPUS, run_corpus


def _change(expected: dict, got: dict) -> str:
    stdout = "" if got["stdout_sha256"] == expected["stdout_sha256"] else ", stdout differs"
    return f"{expected['case']}: code {expected['code']!r} -> {got['code']!r}{stdout}"


def test_golden_corpus_is_byte_identical():
    with open(CORPUS, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = run_corpus()
    assert [r["case"] for r in got] == [r["case"] for r in expected]
    changed = [_change(e, g) for g, e in zip(got, expected) if g != e]
    assert not changed, f"{len(changed)} of {len(expected)} cases changed:\n" + "\n".join(changed)
