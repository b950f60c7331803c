"""Naive query oracles: definitional examples, internal consistency, and
the row-scanning queries against their cell-by-cell restatements."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cell_equal_rect, cell_line_lce, cell_row_pattern, cell_square_lce
from gridgram import Matrix2D, expand2
from gridgram.errors import RangeError
from gridgram.gen import grammar_from_matrix, random_matrix, random_string
from gridgram.oracle import (
    all_zero,
    equal_rect,
    line_lce,
    line_sum,
    occurs,
    ov_brute,
    rank,
    row_pattern_occurs,
    square_all_zero,
    square_lce,
    sum_rect,
)


def test_rank_examples():
    assert rank([0, 1, 0], 3, 0) == 2
    assert rank([0, 1, 0], 0, 0) == 0
    assert rank([0, 1, 0], 3, 1) == 1
    with pytest.raises(RangeError):
        rank([0], 2, 0)


def test_occurs_examples():
    assert occurs([0, 1], 0, 1, 1) == 0
    assert occurs([0, 1], 0, 2, 1) == 1
    assert occurs([0, 1], 1, 1, 0) == 0
    assert occurs([0, 1], 2, 0, 0) == 0  # reversed range counts as empty


def test_occurs_equals_rank_difference():
    rng = random.Random(5)
    for _ in range(20):
        t = random_string(rng.randrange(2**32), rng.randint(1, 40), sigma=4)
        n = len(t)
        for b in range(n + 1):
            for e in range(b, n + 1):
                for a in range(4):
                    assert occurs(t, b, e, a) == (1 if rank(t, e, a) - rank(t, b, a) > 0 else 0)


def test_sum_examples():
    m = Matrix2D(2, 2, [1, 2, 3, 4])
    assert sum_rect(m, 0, 0, 2, 2) == 10
    assert line_sum(m, 2, 2, 2) == 7
    assert sum_rect(m, 1, 1, 1, 1) == 0  # empty range
    assert square_all_zero(m, 2, 2, 0) == 1  # empty square
    with pytest.raises(RangeError):
        sum_rect(m, 0, 0, 3, 2)


def test_line_sum_is_a_sum_special_case():
    rng = random.Random(6)
    for _ in range(15):
        m = random_matrix(rng.randrange(2**32), rng.randint(1, 8), rng.randint(1, 8), sigma=5)
        for e_r in range(1, m.rows + 1):
            for e_c in range(m.cols + 1):
                for l in range(e_c + 1):
                    assert line_sum(m, e_r, e_c, l) == sum_rect(m, e_r - 1, e_c - l, e_r, e_c)


@pytest.mark.parametrize("factor", [1, 257, 1 << 40])
@pytest.mark.parametrize("cols", [*range(1, 10), 255, 256, 257, 512, 513])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_sums_equal_the_cell_restatement(cols, factor, seed, data):
    """line_sum and sum_rect against a sum cell by cell, over one-byte
    cells (the constructor), two-byte ones (expand2 of the codes scaled by
    257) and eight-byte ones (the constructor, codes scaled by 2**40). One
    row holds only 255s: at width 257 it sums to 65,535, past what 1 plus a
    byte sum can reach below the Adler-32 modulus 65,521."""
    rng = random.Random(seed)
    rows = data.draw(st.integers(1, 3))
    grid = [[255] * cols] + [[rng.randrange(256) for _ in range(cols)] for _ in range(rows - 1)]
    rng.shuffle(grid)
    grid = [[v * factor for v in row] for row in grid]
    m = Matrix2D(rows, cols, [v for row in grid for v in row])
    if factor == 257:
        m = expand2(grammar_from_matrix(m))
    assert m.cells.typecode == {1: "B", 257: "H", 1 << 40: "q"}[factor]
    lines = [(e_r, cols, cols) for e_r in range(1, rows + 1)]
    rects = [(0, 0, rows, cols)]
    for _ in range(8):
        e_c = data.draw(st.integers(0, cols))
        lines.append((data.draw(st.integers(1, rows)), e_c, data.draw(st.integers(0, e_c))))
        rects.append((data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols)),
                      data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))))
    for e_r, e_c, l in lines:
        assert line_sum(m, e_r, e_c, l) == sum(grid[e_r - 1][k] for k in range(e_c - l, e_c))
    for b_r, b_c, e_r, e_c in rects:
        assert sum_rect(m, b_r, b_c, e_r, e_c) == \
            sum(grid[i][k] for i in range(b_r, e_r) for k in range(b_c, e_c))


def test_square_all_zero_is_an_all_zero_special_case():
    rng = random.Random(7)
    for _ in range(15):
        m = random_matrix(rng.randrange(2**32), rng.randint(1, 8), rng.randint(1, 8), sigma=2)
        for e_r in range(m.rows + 1):
            for e_c in range(m.cols + 1):
                for l in range(min(e_r, e_c) + 1):
                    assert square_all_zero(m, e_r, e_c, l) == \
                        all_zero(m, e_r - l, e_c - l, e_r, e_c)


def test_equality_and_lce_examples():
    m = Matrix2D(2, 2, [0, 1, 0, 1])  # [[a,b],[a,b]]
    assert square_lce(m, 1, 1, 2, 1) == 1
    assert equal_rect(m, 1, 1, 2, 1, 1, 2) == 1
    assert line_lce(m, 1, 1, 1, 1, 2) == 2  # identical origins, full width
    assert equal_rect(m, 1, 1, 1, 2, 2, 1) == 0
    with pytest.raises(RangeError):
        equal_rect(m, 1, 1, 2, 2, 2, 1)


def test_square_lce_is_maximal():
    rng = random.Random(8)
    for _ in range(10):
        m = random_matrix(rng.randrange(2**32), rng.randint(1, 9), rng.randint(1, 9), sigma=2)
        for b_r in range(1, m.rows + 1):
            for b_c in range(1, m.cols + 1):
                for b2_r in range(1, m.rows + 1):
                    for b2_c in range(1, m.cols + 1):
                        t = square_lce(m, b_r, b_c, b2_r, b2_c)
                        cap = min(m.rows - b_r + 1, m.rows - b2_r + 1,
                                  m.cols - b_c + 1, m.cols - b2_c + 1)
                        if t > 0:
                            assert equal_rect(m, b_r, b_c, b2_r, b2_c, t, t) == 1
                        # maximality: t+1 either leaves the matrix or mismatches
                        if t < cap:
                            assert equal_rect(m, b_r, b_c, b2_r, b2_c, t + 1, t + 1) == 0


def test_line_lce_matches_columnwise_scan():
    rng = random.Random(9)
    for _ in range(10):
        m = random_matrix(rng.randrange(2**32), rng.randint(1, 7), rng.randint(1, 9), sigma=2)
        for b_r in range(1, m.rows + 1):
            for b2_r in range(1, m.rows + 1):
                l = min(m.rows - b_r + 1, m.rows - b2_r + 1)
                for b_c in range(1, m.cols + 1):
                    for b2_c in range(1, m.cols + 1):
                        t = line_lce(m, b_r, b_c, b2_r, b2_c, l)
                        assert t == 0 or equal_rect(m, b_r, b_c, b2_r, b2_c, l, t) == 1
                        cap = min(m.cols - b_c + 1, m.cols - b2_c + 1)
                        if t < cap:
                            assert equal_rect(m, b_r, b_c, b2_r, b2_c, l, t + 1) == 0


def test_row_pattern_examples():
    zeros = Matrix2D(3, 4, [0] * 12)
    assert row_pattern_occurs(zeros, [1]) == 0
    assert row_pattern_occurs(zeros, [0, 0, 0, 0, 0]) == 0  # wider than the matrix
    m = Matrix2D(2, 4, [1, 0, 0, 1, 0, 0, 0, 0])
    assert row_pattern_occurs(m, [1, 0, 0, 1]) == 1
    assert row_pattern_occurs(m, Matrix2D(1, 2, [0, 1])) == 1


def test_ov_brute_examples(ov_figure_vectors):
    assert ov_brute(ov_figure_vectors) == 1
    assert ov_brute([(1, 1)]) == 0
    assert ov_brute([(0, 0)]) == 1  # self-orthogonal zero vector
    with pytest.raises(RangeError):
        ov_brute([(1, 0), (1,)])


@st.composite
def matrices(draw):
    """Up to 9 x 9, often a single row or column, over 1, 2, 3 or 300
    codes; half the time later rows repeat earlier ones, some with one cell
    changed, and sometimes one cell holds 256, outside a byte."""
    shape = draw(st.sampled_from(["grid", "row", "col"]))
    rows = 1 if shape == "row" else draw(st.integers(1, 9))
    cols = 1 if shape == "col" else draw(st.integers(1, 9))
    sigma = draw(st.sampled_from([1, 2, 3, 300]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    grid = [[rng.randrange(sigma) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        for i in range(1, rows):
            grid[i] = list(grid[rng.randrange(i)])
            if rng.random() < 0.5:
                grid[i][rng.randrange(cols)] = rng.randrange(sigma)
    if draw(st.integers(0, 3)) == 0:
        grid[rng.randrange(rows)][rng.randrange(cols)] = 256
    return Matrix2D(rows, cols, [x for row in grid for x in row])


def origins(draw, m):
    return (draw(st.integers(1, m.rows)), draw(st.integers(1, m.cols)),
            draw(st.integers(1, m.rows)), draw(st.integers(1, m.cols)))


@settings(max_examples=300, deadline=None)
@given(m=matrices(), data=st.data())
def test_lce_scans_equal_the_cell_restatement(m, data):
    for _ in range(8):
        o = origins(data.draw, m)
        assert square_lce(m, *o) == cell_square_lce(m, *o)
        l = data.draw(st.integers(1, m.rows - max(o[0], o[2]) + 1))
        assert line_lce(m, *o, l) == cell_line_lce(m, *o, l)


@settings(max_examples=300, deadline=None)
@given(m=matrices(), data=st.data())
def test_equal_rect_equals_the_cell_restatement(m, data):
    for _ in range(8):
        b_r, b_c, b2_r, b2_c = origins(data.draw, m)
        h = data.draw(st.integers(1, m.rows - max(b_r, b2_r) + 1))
        w = data.draw(st.integers(1, m.cols - max(b_c, b2_c) + 1))
        assert equal_rect(m, b_r, b_c, b2_r, b2_c, h, w) == \
            cell_equal_rect(m, b_r, b_c, b2_r, b2_c, h, w)


def test_blocks_that_agree_where_the_cells_between_their_rows_differ():
    """Origins one column apart in a 3 x 4 matrix whose first column alone
    differs between rows: the blocks right of it agree, but their strips
    also hold the first column of the next rows, so the rows decide."""
    m = Matrix2D.from_rows([[1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]])
    assert equal_rect(m, 1, 2, 1, 3, 3, 2) == 1
    assert line_lce(m, 1, 2, 1, 3, 3) == 2  # t
    assert square_lce(m, 1, 2, 1, 3) == 2  # cap


@pytest.mark.parametrize("big", [255, 256])
def test_strips_at_and_past_the_cap(big):
    """5 x 1,025 matrices compared against themselves one row down, so
    strips of h rows and t cells hold 1,025 * (h - 1) + t cells: t = 1,021
    gives exactly 4,096 (compared as a strip) and t = 1,022 gives 4,097 (row
    loop only). In the first matrix, rows alternate in their last three
    columns, so every strip of 4 rows differs between its rows while the
    blocks left of column 1,023 agree; in the second, rows 1-4 are equal and
    row 5 differs in its first cell, so only the last row of a block differs.
    One-byte cells, and eight-byte ones where ``big`` is 256."""
    alternating = Matrix2D.from_rows([[0] * 1022 + [big * (i % 2)] * 3 for i in range(5)])
    last_differs = Matrix2D.from_rows([[0] * 1024 + [big]] * 4 + [[1] + [0] * 1023 + [big]])
    for m in (alternating, last_differs):
        assert m.cells.typecode == ("B" if big < 256 else "q")
        for t in (1021, 1022, 1023):
            for b_c in (1, 2):
                want = cell_equal_rect(m, 1, b_c, 2, b_c, 4, t - b_c + 1)
                assert equal_rect(m, 1, b_c, 2, b_c, 4, t - b_c + 1) == want
        for b_c in (1, 4, 5):  # t = 1,025, 1,022 and 1,021
            assert line_lce(m, 1, b_c, 2, b_c, 4) == cell_line_lce(m, 1, b_c, 2, b_c, 4)
        assert square_lce(m, 1, 1, 2, 1) == cell_square_lce(m, 1, 1, 2, 1)
    assert [equal_rect(alternating, 1, 1, 2, 1, 4, t) for t in (1021, 1022, 1023)] == [1, 1, 0]
    assert line_lce(alternating, 1, 5, 2, 5, 4) == 1018
    assert square_lce(alternating, 1, 1, 2, 1) == 4
    assert equal_rect(last_differs, 1, 1, 2, 1, 4, 1021) == 0
    assert equal_rect(last_differs, 1, 1, 2, 1, 3, 1021) == 1
    assert line_lce(last_differs, 1, 1, 2, 1, 4) == 0
    assert line_lce(last_differs, 1, 5, 2, 5, 3) == 1021


@settings(max_examples=300, deadline=None)
@given(m=matrices(), data=st.data())
def test_row_pattern_scan_equals_the_cell_restatement(m, data):
    """Patterns taken from the flat text (within a row, or across the end
    of one row and the start of the next), random ones as wide as the text
    or up to two cells wider, and either with a 300 or a -1 put in, which no
    byte holds."""
    for _ in range(4):
        width = data.draw(st.sampled_from([m.cols, m.cols + 1, m.cols + 2])
                          | st.integers(1, m.cols))
        if width <= m.cols and data.draw(st.booleans()):
            start = data.draw(st.integers(0, len(m.cells) - width))
            pat = list(m.cells[start:start + width])
        else:
            pat = data.draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
        if data.draw(st.integers(0, 3)) == 0:
            pat[data.draw(st.integers(0, len(pat) - 1))] = data.draw(st.sampled_from([300, -1]))
        assert row_pattern_occurs(m, pat) == cell_row_pattern(m, pat)
        assert row_pattern_occurs(m, Matrix2D(1, len(pat), pat)) == cell_row_pattern(m, pat)



@settings(max_examples=150, deadline=None)
@given(m=matrices(), data=st.data(), factor=st.sampled_from([1, 257, 1 << 40]))
def test_row_pattern_scan_over_expanded_cells_of_every_width(m, data, factor):
    """The scan over expand2's cells, whose typecode is as narrow as the
    codes allow: one byte, two (codes from 256 up, scaled by 257) or eight.
    Patterns are taken from the flat text, some with one code changed."""
    scaled = Matrix2D(m.rows, m.cols, [v * factor for v in m.cells])
    m = expand2(grammar_from_matrix(scaled))
    assert m == scaled
    for _ in range(4):
        width = data.draw(st.integers(1, m.cols))
        start = data.draw(st.integers(0, len(m.cells) - width))
        pat = list(m.cells[start:start + width])
        if data.draw(st.booleans()):
            pat[data.draw(st.integers(0, width - 1))] = data.draw(st.integers(0, 3)) * factor
        assert row_pattern_occurs(m, pat) == cell_row_pattern(m, pat)


def test_row_pattern_reads_codes_not_the_bytes_of_wide_cells():
    """Row 256 0 2 does not hold 2 0, though the raw bytes of its two-byte
    (expand2) or eight-byte (constructor) cells hold 02 00 inside the row."""
    made = Matrix2D(1, 3, [256, 0, 2])
    for m in (made, expand2(grammar_from_matrix(made))):
        assert m.cells.itemsize > 1
        assert row_pattern_occurs(m, [2, 0]) == cell_row_pattern(m, [2, 0]) == 0
        assert row_pattern_occurs(m, [0, 2]) == row_pattern_occurs(m, [256]) == 1

_T = [0, 1, 0]
_M = Matrix2D(3, 3, [0, 1, 0, 1, 0, 1, 0, 0, 0])
_CALLS = [(rank, (_T, 2, 1)), (occurs, (_T, 0, 2, 1)), (sum_rect, (_M, 0, 0, 2, 2)),
          (line_sum, (_M, 2, 2, 1)), (all_zero, (_M, 0, 0, 2, 2)),
          (square_all_zero, (_M, 2, 2, 1)), (equal_rect, (_M, 1, 1, 2, 2, 1, 1)),
          (square_lce, (_M, 1, 1, 2, 2)), (line_lce, (_M, 1, 1, 1, 2, 2))]
_FLOATS = [pytest.param(fn, args[:i] + (float(args[i]),) + args[i + 1:],
                        id=f"{fn.__name__}-{i}")
           for fn, args in _CALLS for i in range(1, len(args))]
_FLOATS += [pytest.param(row_pattern_occurs, (_M, p), id=f"pattern-{k}") for k, p in
            enumerate([[1.0, 0], [1, 0.0], Matrix2D._adopt(1, 1, [1.0]), "01", [None]])]
_FLOATS += [pytest.param(ov_brute, (v,), id=f"ov_brute-{k}") for k, v in
            enumerate([[(1.0, 0), (0, 1)], [(1, 0), (0, 1.0)]])]


@pytest.mark.parametrize("fn, args", _FLOATS)
def test_oracles_refuse_a_non_integer_argument(fn, args):
    """A float equal to a valid integer, in any argument, pattern code or
    vector entry, and a pattern of strings or None, are RangeErrors, never
    a TypeError or a silent answer."""
    with pytest.raises(RangeError):
        fn(*args)


M3 = Matrix2D.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


@pytest.mark.parametrize("query, args, match", [
    (line_sum, (M3, 1, 3, -1), "line length"),
    (line_sum, (M3, 4, 3, 1), "row 4 outside"),
    (line_sum, (M3, 1, 1, 2), "column 1 outside"),
    (square_all_zero, (M3, 3, 3, -1), "square side"),
    (square_all_zero, (M3, 1, 3, 2), "row bound"),
    (square_all_zero, (M3, 3, 4, 2), "col bound"),
    (equal_rect, (M3, 1, 1, 2, 2, 0, 1), "at least 1x1"),
    (equal_rect, (M3, 1, 1, 4, 1, 1, 1), "origins outside"),
    (equal_rect, (M3, 1, 0, 1, 1, 1, 1), "origins outside"),
    (equal_rect, (M3, 1, 1, 2, 2, 3, 1), "extends past"),
    (square_lce, (M3, 0, 1, 1, 1), "origins outside"),
    (square_lce, (M3, 1, 1, 1, 4), "origins outside"),
    (line_lce, (M3, 1, 1, 2, 2, 0), "height must be"),
    (line_lce, (M3, 4, 1, 1, 1, 1), "origins outside"),
    (line_lce, (M3, 1, 0, 1, 1, 1), "origins outside"),
    (line_lce, (M3, 1, 1, 3, 1, 2), "extends past"),
    (occurs, ([0, 1, 2], 0, 4, 1), "occurs range"),
    (sum_rect, (M3, 0, 0, 3, 4), "col bounds"),
    (row_pattern_occurs, (M3, Matrix2D.from_rows([[0], [1]])), "exactly one row"),
    (row_pattern_occurs, (M3, []), "nonempty"),
    (ov_brute, ([],), "nonempty"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_out_of_range_arguments_raise_range_error(query, args, match):
    with pytest.raises(RangeError, match=match) as err:
        query(*args)
    assert type(err.value) is RangeError
