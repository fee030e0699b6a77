"""Byte-identity gate: SHA-256 digests of the engine's output on seeded random terms.

For each term, three lines are hashed in order: `pretty(normalize(t))`,
`pretty(canon(t))` and the sorted-key JSON of `derive_table(t)`. A change that
moves one byte of any of them changes the digest. The expected digests were
generated before the term facts moved into the constructors. They do not
depend on `PYTHONHASHSEED`, and `_digest(size, count)` recomputes one.
"""

import hashlib
import json
import random

import pytest

from catalog import random_term
from endscope.germs import canon, derive_table, to_json
from endscope.normalize import normalize
from endscope.terms import pretty

_EXPECTED = {
    (6, 400): "c826e73b14903c689f398bd76a023894d766aec8d03f943fcd25d2a798821fcc",
    (9, 150): "d2610735b1e582662bfbed49f00ac510c84b36053222ee74100de8a4a06794e3",
}


def _digest(size: int, count: int) -> str:
    h = hashlib.sha256()
    for i in range(count):
        t = random_term(random.Random(f"hash-{size}-{i}"), size)
        table = json.dumps(to_json(derive_table(t)), sort_keys=True)
        for line in (pretty(normalize(t)), pretty(canon(t)), table):
            h.update(line.encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("size,count", sorted(_EXPECTED))
def test_random_term_outputs_are_byte_identical(size, count):
    assert _digest(size, count) == _EXPECTED[size, count]
