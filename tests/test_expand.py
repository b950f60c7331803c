"""expand1/expand2: each output cell written once, and nothing else changed.

Expansion builds every small variable (at most 2**12 cells) that lies at
two or more places once and copies it into place; everything else it only
splits. These tests hold it to the definitional folds of ``conftest`` on
random grammars of mixed arity, combs, staircases,
tiled blocks and the marking grammars, with sizes on both sides of the
threshold; run each of the three ways a block is painted; expand combs
deeper than the recursion limit; refuse a 2**40-cell grammar before
allocating anything; and bound the memory an expansion traces.
"""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridgram import (
    ExpansionTooLarge,
    Horiz,
    Slg1,
    Slg2,
    Vert,
    dims,
    expand1,
    expand2,
    validate_slg1,
    validate_slg2,
)
from gridgram import slg2d
from gridgram.errors import RangeError
from gridgram.slg import _BLOCK as BLOCK
from gridgram.gen import (
    grammar_from_matrix,
    random_matrix,
    random_slg1,
    random_slg2,
    random_slp1,
    random_slp2,
)
from gridgram.reductions import alphabet_reduce, ext_mark_grammar, mark_grammar
from conftest import comb1, comb2, expand_all_1d, expand_all_2d, staircase2

# target sizes for the families that take one: on both sides of BLOCK
SIZES = st.sampled_from([16, BLOCK // 2, BLOCK, BLOCK + 1, 3 * BLOCK])
RULES = st.integers(1, 12) | st.integers(20, 40)
# the folds keep every variable, so a comb's reference holds ~teeth * size / 2 cells
TEETH = st.integers(1, 300)

N_DEEP = 3000   # past the default recursion limit


def _traced_peak(fn, *args):
    """fn(*args) and the peak memory tracemalloc saw during the call, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# -- deep grammars and the cap ------------------------------------------------

def test_deep_right_comb_1d():
    codes = [random.Random(1).randrange(4) for _ in range(N_DEEP)]
    g = comb1(codes, right=True)
    assert expand1(g) == expand_all_1d(g)[g.start] == codes


def test_deep_vert_comb_2d():
    codes = [random.Random(2).randrange(4) for _ in range(N_DEEP)]
    g = comb2(codes, Vert, right=True)
    m = expand2(g)
    assert m == expand_all_2d(g)[g.start]
    assert (m.rows, m.cols, m.cells) == (1, N_DEEP, codes)


def _refused(fn, g):
    with pytest.raises(ExpansionTooLarge):
        fn(g)


def test_doubling_past_the_cap_raises_before_allocating():
    g1 = validate_slg1(Slg1([(i + 1, i + 1) for i in range(40)] + [0], 1, 0))
    g2 = validate_slg2(Slg2([(Horiz if i % 2 else Vert)(i + 1, i + 1) for i in range(40)] + [0],
                            1, 0))
    assert dims(g2, g2.start) == (1 << 20, 1 << 20)
    for fn, g in ((expand1, g1), (expand2, g2)):
        assert _traced_peak(_refused, fn, g)[1] < 1 << 16


@pytest.mark.parametrize("cap", ["3", 3.0, None])
def test_a_cap_that_is_not_an_int_is_a_range_error(cap):
    g1 = validate_slg1(Slg1([(1, 1), 0], 1, 0))
    g2 = validate_slg2(Slg2([Vert(1, 1), 0], 1, 0))
    for fn, g in ((expand1, g1), (expand2, g2)):
        with pytest.raises(RangeError, match="cap must be an int"):
            fn(g, cap=cap)


# -- random families, both sides of the threshold -----------------------------

def _tiled2(rng, h, w, reps_r, reps_c):
    """A random h x w block, written as one rule per row, repeated reps_c
    times across and reps_r times down."""
    block = grammar_from_matrix(random_matrix(rng.getrandbits(32), h, w, sigma=3))
    rules = list(block.rules)
    rules.append(Vert([block.start] * reps_c))
    rules.append(Horiz([len(rules) - 1] * reps_r))
    return Slg2(rules, block.alphabet_size, len(rules) - 1)


def _tooth_comb(rng, kind, teeth, tooth):
    """A comb of ``teeth`` random strips of ``tooth`` literals along the
    axis kind joins (kind a 2D rule class, or tuple in 1D), each joined on
    a random side of the rest."""
    strip = tuple if kind is tuple else Horiz if kind is Vert else Vert
    rules, strips = [0, 1, 2], []
    for _ in range(2):
        rules.append(strip(rng.randrange(3) for _ in range(tooth)))
        strips.append(len(rules) - 1)
    prev = strips[0]
    for _ in range(teeth):
        pair = (rng.choice(strips), prev)
        rules.append(kind(pair if rng.random() < 0.5 else pair[::-1]))
        prev = len(rules) - 1
    return (Slg1 if kind is tuple else Slg2)(rules, 3, prev)


@st.composite
def grammars2(draw):
    family = draw(st.sampled_from(["gen", "slp", "comb", "stair", "mark", "ext", "tiled"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if family == "gen":
        g = random_slg2(rng, draw(RULES), max_arity=4, max_cells=draw(SIZES))
    elif family == "slp":
        g = random_slp2(rng, draw(RULES), max_cells=draw(SIZES))
    elif family == "comb":
        kind = draw(st.sampled_from([Horiz, Vert]))
        if draw(st.booleans()):
            codes = [rng.randrange(4) for _ in range(draw(st.integers(2, 200)))]
            g = comb2(codes, kind, draw(st.booleans()))
        else:
            teeth = draw(TEETH)
            g = _tooth_comb(rng, kind, teeth, max(1, draw(SIZES) // teeth))
    elif family == "stair":
        steps = draw(st.integers(1, 12) | st.integers(60, 90))
        g = staircase2([rng.randrange(4) for _ in range(2 * steps + 2)], steps)
    elif family in ("mark", "ext"):
        text = random_slp1(rng, draw(st.integers(4, 40)), sigma=3,
                           max_len=draw(st.sampled_from([8, 64, 200])))
        reduced, amap = alphabet_reduce(text)
        if family == "mark":
            g = mark_grammar(reduced, len(amap))
        else:
            g = ext_mark_grammar(reduced, len(amap))
    else:
        h = draw(st.integers(1, 96))
        w = max(1, draw(SIZES) // h)
        g = _tiled2(rng, h, w, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return validate_slg2(g)


@settings(max_examples=120, deadline=None)
@given(g=grammars2())
def test_expand2_equals_the_structural_fold(g):
    assert expand2(g) == expand_all_2d(g)[g.start]


@st.composite
def grammars1(draw):
    family = draw(st.sampled_from(["gen", "comb", "tiled"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if family == "gen":
        g = random_slg1(rng, draw(RULES), max_len=draw(SIZES))
    elif family == "comb":
        if draw(st.booleans()):
            codes = [rng.randrange(4) for _ in range(draw(st.integers(2, 200)))]
            g = comb1(codes, draw(st.booleans()))
        else:
            teeth = draw(TEETH)
            g = _tooth_comb(rng, tuple, teeth, max(1, draw(SIZES) // teeth))
    else:
        # a block of n random literals, repeated
        n = max(1, draw(SIZES) // draw(st.sampled_from([1, 2, 3])))
        block = tuple(2 + rng.randrange(3) for _ in range(n))
        g = Slg1([(1,) * draw(st.integers(1, 4)), block, 0, 1, 2], 3, 0)
    return validate_slg1(g)


@settings(max_examples=120, deadline=None)
@given(g=grammars1())
def test_expand1_equals_the_structural_fold(g):
    assert expand1(g) == expand_all_1d(g)[g.start]


def test_every_paint_branch_runs():
    """A block repeated down (full width), across (a slice per row), and a
    tall narrow block repeated across (a strided slice per column)."""
    rng = random.Random(3)
    cases = {"full": (_tiled2(rng, 32, 128, 2, 1), 128),
             "row": (_tiled2(rng, 64, 64, 1, 2), 128),
             "column": (_tiled2(rng, BLOCK, 1, 1, 2), 2)}
    for branch, (g, width) in cases.items():
        g = validate_slg2(g)
        seen = []

        def spy(out, w_out, off, src, h, w, real=slg2d._paint):
            seen.append("full" if w == w_out else "row" if h <= w else "column")
            return real(out, w_out, off, src, h, w)

        with mock.patch.object(slg2d, "_paint", spy):
            m = expand2(g)
        assert m.cols == width and m == expand_all_2d(g)[g.start]
        assert seen.count(branch) >= 2, (branch, seen)


# -- memory ---------------------------------------------------------------------

def _corpus():
    yield expand1, random_slp1(7, 200, 4, 1 << 20)
    yield expand2, random_slp2(7, 200, 4, 1 << 20)
    text = random_slp1(11, 60, sigma=4, max_len=512)
    reduced, amap = alphabet_reduce(text)
    yield expand2, ext_mark_grammar(reduced, len(amap))


def test_expansion_traces_little_beyond_its_output():
    """Peak traced memory stays within 1.25 x 8 bytes per output cell: the
    output list, plus the small variables, and no second copy."""
    for fn, g in _corpus():
        out, peak = _traced_peak(fn, g)
        cells = len(out) if isinstance(out, list) else out.rows * out.cols
        assert cells >= 1 << 19
        assert peak <= 1.25 * 8 * cells, (fn.__name__, cells, peak / (8 * cells))
