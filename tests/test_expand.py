"""expand1/expand2: each output cell written at most once, and nothing else changed.

Expansion starts from an output of zeros and leaves every all-zero
variable as those zeros. It builds every small variable (at most 2**12
cells, at least one in ``_DENSE`` = 16 of them nonzero) that lies at two
or more places once and copies it into place; everything else it only
splits. So the 4096 x 1024 ext-marking matrix of reduce-chains, one 1 per
column, paints its 1024 ones alone into a one-byte ``Codes`` array of
zeros (README, "Expansion cost"). These tests hold it to the definitional
folds of ``conftest`` on random grammars of mixed arity, combs,
staircases, tiled blocks, the marking grammars, grammars rich in code 0,
rules of 200 or more children and the OV texts, with sizes on both sides
of the thresholds, and on all of these with codes too wide for a byte;
run each of the four ways a block is painted; check that a sparse matrix
paints only its nonzero cells; expand combs deeper than the recursion
limit; refuse a 2**40-cell grammar before allocating anything; hold
``Codes`` to its contract (the narrowest width, equality with lists, no
code past 64 bits); and bound the memory an expansion traces.
"""

import random
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridgram import (
    ExpansionTooLarge,
    Horiz,
    Matrix2D,
    Slg1,
    Slg2,
    Vert,
    dims,
    expand1,
    expand2,
    validate_slg1,
    validate_slg2,
)
from gridgram import slg
from gridgram.errors import RangeError
from gridgram.slg import _BLOCK as BLOCK, _DENSE as DENSE, Codes
from gridgram.gen import (
    grammar_from_matrix,
    random_matrix,
    random_slg1,
    random_slg2,
    random_slp1,
    random_slp2,
)
from gridgram.reductions import (
    OvInstance,
    alphabet_reduce,
    ext_mark_grammar,
    mark_grammar,
    ov_to_pm,
    uniform_ov,
)
from conftest import comb1, comb2, expand_all_1d, expand_all_2d, staircase2

# target sizes for the families that take one: on both sides of BLOCK
SIZES = st.sampled_from([16, BLOCK // 2, BLOCK, BLOCK + 1, 3 * BLOCK])
# strip lengths of the zero-heavy shapes: on both sides of DENSE and BLOCK
STRIPS = st.sampled_from([1, 2, DENSE, DENSE + 1, 100, BLOCK // DENSE, BLOCK + 1])
ZERO_SHAPES = ["literal", "zero", "column", "built", "shared"]
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


def _zero_shape(rng, shape, kind, h, k):
    """A grammar rich in code 0 built from strips of ``h`` literals along
    the axis kind joins (kind a 2D rule class, or tuple in 1D), repeated
    ``k`` times across. Literal ids 0, 1, 2 hold codes 0, 1, 2.

    ``literal``: the start is the literal 0. ``zero``: the start is all
    zero. ``column``: a zero strip with a single 1, taller than DENSE from
    17 cells up, so it is split down to the 1. ``built``: a block of up to
    15 zero strips and one strip of nonzero codes, dense enough to be built
    whole where it repeats, so its zero child is built too. ``shared``: that
    block twice with a zero strip between them, so the zero strip lies at a
    place of the split start and is also needed by the built block.
    """
    if shape == "literal":
        return (Slg1 if kind is tuple else Slg2)([0], 1, 0)
    across = tuple if kind is tuple else Horiz if kind is Vert else Vert
    rules = [0, 1, 2]

    def add(rule):
        rules.append(rule)
        return len(rules) - 1

    zero = add(kind([0] * h))
    if shape == "zero":
        start = add(across([zero] * k))
    elif shape == "column":
        at = rng.randrange(h)
        parts = [add(kind([0] * at))] if at else []
        parts.append(1)
        if at < h - 1:
            parts.append(add(kind([0] * (h - 1 - at))))
        start = add(across([add(kind(parts))] * k))
    else:
        dense = add(kind(rng.choice((1, 2)) for _ in range(h)))
        block = add(across([zero] * rng.randint(1, DENSE - 1) + [dense]))
        start = add(across([block, zero, block] if shape == "shared" else [block] * (k + 1)))
    return (Slg1 if kind is tuple else Slg2)(rules, 3, start)


def _zero_heavy(draw, rng, kind):
    """One of the shapes of ``_zero_shape``, or a random grammar (of the
    dimension kind belongs to) most or all of whose literals are code 0."""
    shape = draw(st.sampled_from(["gen"] + ZERO_SHAPES))
    if shape != "gen":
        return _zero_shape(rng, shape, kind, draw(STRIPS), draw(st.integers(1, 3)))
    if kind is tuple:
        g = random_slg1(rng, draw(RULES), max_len=draw(SIZES))
    else:
        g = random_slg2(rng, draw(RULES), max_arity=4, max_cells=draw(SIZES))
    share = draw(st.sampled_from([0.5, 0.9, 1.0]))
    rules = [0 if isinstance(r, int) and rng.random() < share else r for r in g.rules]
    return type(g)(rules, g.alphabet_size, g.start)


@st.composite
def grammars2(draw):
    family = draw(st.sampled_from(["gen", "slp", "comb", "stair", "mark", "ext", "tiled",
                                   "zero"]))
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
    elif family == "zero":
        g = _zero_heavy(draw, rng, draw(st.sampled_from([Horiz, Vert])))
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
    family = draw(st.sampled_from(["gen", "comb", "tiled", "zero"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if family == "gen":
        g = random_slg1(rng, draw(RULES), max_len=draw(SIZES))
    elif family == "zero":
        g = _zero_heavy(draw, rng, tuple)
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


@pytest.mark.parametrize("shape", ZERO_SHAPES)
def test_every_zero_shape_expands_as_the_fold(shape):
    """Each shape of ``_zero_shape`` at a size where its blocks take the
    path its docstring names, in 1D and along both 2D axes."""
    for kind in (tuple, Horiz, Vert):
        g = _zero_shape(random.Random(4), shape, kind, 100, 3)
        if kind is tuple:
            g = validate_slg1(g)
            assert expand1(g) == expand_all_1d(g)[g.start]
        else:
            g = validate_slg2(g)
            assert expand2(g) == expand_all_2d(g)[g.start]


def _painted(g):
    """expand2(g) and the (h, w, output width) of every ``_paint`` call it
    made, to build a block or to paint one into place."""
    seen = []

    def spy(out, w_out, off, src, h, w, real=slg._paint):
        seen.append((h, w, w_out))
        return real(out, w_out, off, src, h, w)

    with mock.patch.object(slg, "_paint", spy):
        return expand2(g), seen


def test_every_paint_branch_runs():
    """A block repeated down (full width), a one-column block repeated
    across (one strided slice), a block repeated across (a slice per row),
    and a tall block repeated across (a strided slice per column)."""
    rng = random.Random(3)
    cases = {"full": (_tiled2(rng, 32, 128, 2, 1), 128),
             "one column": (_tiled2(rng, BLOCK, 1, 1, 2), 2),
             "row": (_tiled2(rng, 64, 64, 1, 2), 128),
             "column": (_tiled2(rng, BLOCK // 4, 4, 1, 2), 8)}
    for branch, (g, width) in cases.items():
        g = validate_slg2(g)
        m, seen = _painted(g)
        seen = ["full" if w == w_out else "one column" if w == 1 else "row" if h <= w
                else "column" for h, w, w_out in seen]
        assert m.cols == width and m == expand_all_2d(g)[g.start]
        assert seen.count(branch) >= 2, (branch, seen)


def _wide(rng, kind, count, h):
    """A grammar whose start is a ``kind`` rule (a 2D rule class, or tuple
    in 1D) over ``count`` children plus five that occur once. The children
    are drawn, with repeats, from strips of ``h`` literals across kind's
    axis (one column under a Vert, one row under a Horiz): random ones, an
    all-zero one, one with a single 1, and three two strips wide."""
    strip = tuple if kind is tuple else Horiz if kind is Vert else Vert
    rules = [0, 1, 2]

    def add(rule):
        rules.append(rule)
        return len(rules) - 1

    pool = [add(strip(rng.randrange(3) for _ in range(h))) for _ in range(6)]
    pool += [add(strip([0] * h)), add(strip([0] * (h - 1) + [1]))]
    pool += [add(kind((rng.choice(pool), rng.choice(pool)))) for _ in range(3)]
    kids = [rng.choice(pool) for _ in range(count)]
    kids += [add(strip(rng.randrange(3) for _ in range(h))) for _ in range(5)]
    rng.shuffle(kids)
    rules.append(kind(kids))
    return (Slg1 if kind is tuple else Slg2)(rules, 3, len(rules) - 1)


@pytest.mark.parametrize("kind", [Vert, Horiz, tuple], ids=["vert", "horiz", "1d"])
@pytest.mark.parametrize("count, h", [(200, 1), (200, 16), (257, 17), (300, 40)])
def test_wide_rules_expand_as_the_fold(kind, count, h):
    """Wide rules over repeated, all-zero and mixed-width children, each
    child's offset read off the extents before it."""
    g = _wide(random.Random(count * h), kind, count, h)
    if kind is tuple:
        g = validate_slg1(g)
        assert expand1(g) == expand_all_1d(g)[g.start]
    else:
        g = validate_slg2(g)
        assert expand2(g) == expand_all_2d(g)[g.start]


@pytest.mark.parametrize("seed", range(6))
def test_ov_texts_expand_as_the_fold(seed):
    """The OV texts of reduce-chains' shape (8 vectors in 12 dimensions,
    made uniform): each column is painted by one strided slice."""
    vectors = random_matrix(seed, 8, 12, sigma=2).to_rows()
    g = ov_to_pm(uniform_ov(OvInstance(tuple(map(tuple, vectors))))).grammar
    m, seen = _painted(g)
    assert m == expand_all_2d(g)[g.start]
    assert seen and all(w == 1 for _, w, _ in seen)


def test_a_sparse_matrix_paints_only_its_nonzero_cells():
    """The ext-marking matrix, one 1 in each 1024-cell column, paints its
    512 ones and no zero (537,600 cells when its columns were built whole);
    the marking matrix's 4 x 1 columns are dense enough to stay built whole
    and painted as 38 blocks of 2,390 cells."""
    text = random_slp1(11, 60, sigma=4, max_len=512)
    reduced, amap = alphabet_reduce(text)
    for make, blocks, cells in ((ext_mark_grammar, 512, 512), (mark_grammar, 38, 2390)):
        g = make(reduced, len(amap))
        m, seen = _painted(g)
        assert m == expand_all_2d(g)[g.start]
        assert (len(seen), sum(h * w for h, w, _ in seen)) == (blocks, cells), make.__name__
        if make is ext_mark_grammar:
            assert sum(1 for v in m.cells if v) == cells


# -- the Codes store -------------------------------------------------------------

def _pair(dim, code):
    """A validated grammar of dimension ``dim`` expanding to the two codes
    ``code`` and 7, side by side."""
    if dim == 1:
        return validate_slg1(Slg1([(1, 2), code, 7], code + 1, 0))
    return validate_slg2(Slg2([Vert(1, 2), code, 7], code + 1, 0))


def _codes(dim, g):
    return expand1(g) if dim == 1 else expand2(g).cells


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("code, size", [(8, 1), (255, 1), (256, 2), (65535, 2), (65536, 4),
                                        ((1 << 32) - 1, 4), (1 << 32, 8), ((1 << 64) - 1, 8)])
def test_an_expansion_takes_the_narrowest_unsigned_width(dim, code, size):
    codes = _codes(dim, _pair(dim, code))
    assert type(codes) is Codes and codes.itemsize == size
    assert codes == [code, 7]


@pytest.mark.parametrize("dim", [1, 2])
def test_a_code_past_64_bits_is_a_range_error(dim):
    with pytest.raises(RangeError, match="64 bits"):
        _codes(dim, _pair(dim, 1 << 64))


def test_codes_compare_by_content_with_a_list_both_ways():
    text = expand1(_pair(1, 9))
    for other, equal in (([9, 7], True), ([9, 8], False), ([9], False), ([9, 7, 0], False)):
        assert (text == other) is equal and (other == text) is equal
        assert (text != other) is not equal and (other != text) is not equal
    assert text == array("q", [9, 7]) and text != array("B", [7, 9])
    assert text != (9, 7) and text != "97"
    with pytest.raises(TypeError):
        hash(text)
    assert type(text[0:2]) is array and type(text[::-1]) is array


def test_matrices_compare_equal_across_typecodes():
    """expand2 writes two bytes per cell for a code of 256; the constructor
    stores the same cells as signed 64-bit integers, and with a byte code
    one byte per cell."""
    m = expand2(_pair(2, 256))
    made = Matrix2D(1, 2, [256, 7])
    assert (m.cells.itemsize, made.cells.itemsize) == (2, 8)
    assert m == made and made == m
    byte = Matrix2D(1, 2, [255, 7])
    assert byte.cells.itemsize == 1 and byte == expand2(_pair(2, 255))
    assert m.row(1) == [256, 7] and type(m.row(1)) is list
    assert m.to_rows() == [[256, 7]] and type(byte.row(1)) is list


@pytest.mark.parametrize("cell", [1 << 63, -(1 << 63) - 1, 1 << 64])
def test_a_matrix_cell_outside_the_signed_64_bit_range_is_a_range_error(cell):
    with pytest.raises(RangeError):
        Matrix2D(1, 2, [0, cell])


def test_a_matrix_holds_negative_and_wide_cells():
    m = Matrix2D(1, 3, [-(1 << 63), (1 << 63) - 1, -1])
    assert m.row(1) == [-(1 << 63), (1 << 63) - 1, -1] and m.cells.itemsize == 8


def _widened(g, factor):
    """``g`` with every literal code multiplied by ``factor``: the same zeros,
    and a wider typecode for its nonzero codes."""
    rules = [r * factor if isinstance(r, int) else r for r in g.rules]
    return type(g)(rules, (g.alphabet_size - 1) * factor + 1, g.start)


@settings(max_examples=30, deadline=None)
@given(g1=grammars1(), g2=grammars2(), factor=st.sampled_from([257, 1 << 20, 1 << 40]))
def test_wide_codes_expand_as_the_fold(g1, g2, factor):
    """Painting, concatenating and zero-filling in a typecode wider than a
    byte: every family of both dimensions, its codes scaled past 255."""
    g1, g2 = validate_slg1(_widened(g1, factor)), validate_slg2(_widened(g2, factor))
    assert expand1(g1) == expand_all_1d(g1)[g1.start]
    assert expand2(g2) == expand_all_2d(g2)[g2.start]


# -- memory ---------------------------------------------------------------------

def _corpus():
    yield expand1, random_slp1(7, 200, 4, 1 << 20)
    yield expand2, random_slp2(7, 200, 4, 1 << 20)
    # 1536 x 640 cells of codes 2 and 3: no zero, so its small variables
    # are still built, memoised and painted
    yield expand2, random_slp2(16, 200, 4, 1 << 20)
    text = random_slp1(11, 60, sigma=4, max_len=512)
    reduced, amap = alphabet_reduce(text)
    yield expand2, ext_mark_grammar(reduced, len(amap))


def test_expansion_traces_little_beyond_its_output():
    """Peak traced memory stays within 1.25 x the output's own bytes, one
    ``itemsize`` per cell (one byte on this corpus): the output array, plus
    the small variables, and no second copy."""
    zero_free_2d = False
    for fn, g in _corpus():
        out, peak = _traced_peak(fn, g)
        codes = out if fn is expand1 else out.cells
        cells, size = len(codes), codes.itemsize
        assert cells >= 1 << 19
        assert peak <= 1.25 * size * cells, (fn.__name__, cells, peak / (size * cells))
        zero_free_2d |= fn is expand2 and 0 not in codes
    assert zero_free_2d   # some 2D case builds its blocks rather than leaving zeros
