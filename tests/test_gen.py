"""Random generators: the seeded corpus is pinned byte for byte, and a size
that is no int in range is a RangeError."""

import hashlib

import pytest

from gridgram import RangeError, dump_slg1, dump_slg2
from gridgram.gen import (
    random_matrix,
    random_slg1,
    random_slg2,
    random_slp1,
    random_slp2,
    random_string,
)

# sha256 over the dumps below. The benchmark's access-shallow and
# reduce-chains inputs come from these generators, so any edit that changes
# which random numbers they draw, or in what order, shows here.
CORPUS_SHA256 = "95abb766604f52377044e1ef61ddee4d6bd64d4c63b2aa1a8047b5b055453282"


def _corpus():
    for seed in range(150):
        for n_rules in (1, 2, 3, 5, 20, 60):
            yield dump_slg1(random_slp1(seed, n_rules, sigma=3, max_len=500))
            yield dump_slg1(random_slg1(seed, n_rules, sigma=3, max_len=500))
            yield dump_slg2(random_slp2(seed, n_rules, sigma=3, max_cells=400))
            yield dump_slg2(random_slg2(seed, n_rules, sigma=3, max_cells=400))
    # the access-shallow corpus
    yield dump_slg1(random_slp1(7, 200, 4, 1 << 20))
    yield dump_slg2(random_slp2(7, 200, 4, 1 << 20))


def test_generator_corpus_digest():
    h = hashlib.sha256()
    for text in _corpus():
        h.update(text.encode())
    assert h.hexdigest() == CORPUS_SHA256


@pytest.mark.parametrize("make, args", [
    (random_slp1, (1, 2.5)),
    (random_slp1, (1, "3")),
    (random_slp2, (1, 5, 4, 2.5)),
    (random_matrix, (1, 2.5, 2)),
    (random_string, (1, -1)),
    (random_string, (1, 3, 0)),
    (random_matrix, (1, 2, 2, 0)),
], ids=["slp1-float-rules", "slp1-str-rules", "slp2-float-cells", "matrix-float-rows",
        "string-negative-n", "string-sigma-0", "matrix-sigma-0"])
def test_generators_refuse_a_size_that_is_no_int_in_range(make, args):
    with pytest.raises(RangeError, match="must be an int >= "):
        make(*args)
