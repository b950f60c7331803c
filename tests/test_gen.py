"""Random generators: the seeded corpus is pinned byte for byte, a size
that is no int in range is a RangeError, and the 2D generators' joiner
pools hold every id that fits."""

import hashlib
import random

import pytest

from gridgram import Horiz, RangeError, Vert, dump_slg1, dump_slg2
from gridgram.gen import (
    _Pools,
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


# sha256 over the 2D dumps below: every seed reduce-chains' grid search tries
# (100 rules, 2^10 cells; the k-th grid tries seeds 7000 + 100k upwards and
# none takes more than 8), in both 2D kinds, and a few grammars with a cap
# far above their size.
GRID_CORPUS_SHA256 = "72214b986f96765edb7d262cd0a718d13a13d8b1576a09a6cbb69758e061a0fc"


def _grid_corpus():
    for first in range(7000, 7800, 100):
        for seed in range(first, first + 8):
            yield dump_slg2(random_slp2(seed, 100, 4, 1 << 10))
            yield dump_slg2(random_slg2(seed, 100, 4, max_cells=1 << 10))
    for seed in range(6):
        yield dump_slg2(random_slp2(seed, 150, 5, 1 << 24))
        yield dump_slg2(random_slg2(seed, 150, 5, max_cells=1 << 24))


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def test_generator_corpus_digest():
    assert _digest(_corpus()) == CORPUS_SHA256


def test_grid_corpus_digest():
    assert _digest(_grid_corpus()) == GRID_CORPUS_SHA256


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


@pytest.mark.parametrize("seed", range(20))
def test_joiners_are_every_id_that_fits(seed):
    """A pool's joiners, an empty pool included, are the filed ids, ascending,
    that share the rule's fixed side and keep it within the cap."""
    rng = random.Random(seed)
    sizes = [rng.choice((1, 2, 3, 5, 8)) for _ in range(40)]
    pools = _Pools(sizes, len(sizes))     # nothing filed yet
    pools.cols = [rng.choice((1, 2, 4)) for _ in sizes]
    for i in range(len(sizes) - 1, -1, -1):
        pools._file(i)
    empty = 0
    for kind in (Horiz, Vert):
        grow, share = (pools.rows, pools.cols) if kind is Horiz else (pools.cols, pools.rows)
        for a in range(len(sizes)):
            for cap in (4, 8, 16, 32):
                want = [i for i in range(len(sizes))
                        if share[i] == share[a] and (grow[a] + grow[i]) * share[a] <= cap]
                got = pools.joiners(kind, [a], cap)
                assert got == want, (kind, a, cap)
                empty += not got
    assert empty > 0
