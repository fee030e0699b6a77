import json

from golden import CORPUS, run_corpus


def test_golden_corpus_is_byte_identical():
    with open(CORPUS, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = run_corpus()
    assert [r["case"] for r in got] == [r["case"] for r in expected]
    changed = [g["case"] for g, e in zip(got, expected) if g != e]
    assert not changed, f"{len(changed)} of {len(expected)} cases changed: {changed[:5]}"
