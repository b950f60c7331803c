"""2D grammar core: dimension checking, expansion, conversion, formats."""

import pytest

from gridgram import (
    ArithmeticOverflow,
    DimensionMismatch,
    DuplicateRule,
    EmptyLanguage,
    ExpansionTooLarge,
    Horiz,
    Matrix2D,
    ParseError,
    PositionOutOfRange,
    Slg2,
    Vert,
    dims,
    dump_matrix,
    dump_slg2,
    expand2,
    grammar_size2,
    parse_matrix,
    parse_slg2,
    slg2_to_slp2,
    validate_slg2,
    validate_slp2,
)
from gridgram.errors import RangeError
from gridgram.gen import random_slg2, random_slp2
from conftest import expand_all_2d, hconcat, vconcat


def test_validate_2x2(grid22):
    assert dims(grid22, grid22.start) == (2, 2)


def test_validate_rows_split_width_mismatch():
    # a 1x2 row stacked over a 1x1 literal
    g = Slg2([Horiz(1, 3), Vert(2, 3), 0, 1], 2, 0)
    with pytest.raises(DimensionMismatch):
        validate_slg2(g)


def test_validate_cols_split_height_mismatch():
    g = Slg2([Vert(1, 3), Horiz(2, 3), 0, 1], 2, 0)
    with pytest.raises(DimensionMismatch):
        validate_slg2(g)


def test_validate_single_child_inherits_dims():
    g = validate_slg2(Slg2([Vert(1), Horiz(2, 3), 0, 1], 2, 0))
    assert dims(g, 0) == (2, 1)


def test_dims_checks_the_variable_id():
    g = validate_slg2(Slg2([Vert(1, 2), 0, 1, Horiz(1, 1)], 2, 0))    # id 3 is unreachable
    for nid in (-1, 4):
        with pytest.raises(RangeError):
            dims(g, nid)


def test_dims_literal():
    g = validate_slg2(Slg2([5], 6, 0))
    assert dims(g, 0) == (1, 1)


def test_dims_cols_chain():
    k = 7
    g = validate_slg2(Slg2([Vert(*range(1, k + 1))] + [0] * k, 1, 0))
    assert dims(g, 0) == (1, k)


def test_concat_examples():
    a = Matrix2D(1, 1, [0])
    b = Matrix2D(1, 1, [1])
    assert hconcat(a, b).to_rows() == [[0, 1]]
    ab = Matrix2D(1, 2, [0, 1])
    cd = Matrix2D(1, 2, [2, 3])
    assert vconcat(ab, cd).to_rows() == [[0, 1], [2, 3]]
    with pytest.raises(DimensionMismatch):
        vconcat(ab, a)
    with pytest.raises(DimensionMismatch):
        hconcat(ab, vconcat(ab, cd))


def test_expand_2x2(grid22):
    assert expand2(grid22).to_rows() == [[0, 1], [2, 3]]


def test_expand_single_literal():
    g = validate_slg2(Slg2([2], 3, 0))
    m = expand2(g)
    assert (m.rows, m.cols, m.cells) == (1, 1, [2])


def test_expand_cap():
    g = random_slp2(3, 30, sigma=2, max_cells=1 << 12)
    r, c = dims(g, g.start)
    with pytest.raises(ExpansionTooLarge):
        expand2(g, cap=r * c - 1)


def test_expand_matches_structural_fold():
    for seed in range(25):
        g = random_slg2(seed, 18, max_arity=4, max_cells=900)
        m = expand2(g)
        exps = expand_all_2d(g)
        assert m == exps[g.start]
        for nid in range(len(g.rules)):
            assert (exps[nid].rows, exps[nid].cols) == dims(g, nid)


def test_empty_rules_refused():
    """A Horiz or Vert rule with no children is refused by validation, the
    SLP check and the SLP conversion, reachable or not."""
    for empty in (Horiz, Vert):
        for refuse in (validate_slg2, validate_slp2, slg2_to_slp2):
            with pytest.raises(EmptyLanguage, match="rule 1 has no children"):
                refuse(Slg2([Horiz(2, 2), empty(), 1], 2, 0))


def test_expand_empty_language():
    with pytest.raises(EmptyLanguage):
        expand2(validate_slg2(Slg2([Horiz()], 1, 0)))


def test_grammar_size_2x2(grid22):
    assert grammar_size2(grid22) == 4 + 2 + 2 + 2


def test_grammar_size_empty_rhs_contributes_one():
    assert grammar_size2(Slg2([Horiz(1, 2), Horiz(), 1], 2, 0)) == 2 + 1 + 1


def test_slg2_to_slp2_binarizes():
    g = Slg2([Horiz(1, 2, 3), Vert(4, 5), Vert(4, 5), Vert(4, 5), 0, 1], 2, 0)
    slp = slg2_to_slp2(g)
    assert slp.is_binary
    assert expand2(slp) == expand2(validate_slg2(g))
    assert grammar_size2(slp) <= 3 * grammar_size2(g)


def test_slg2_to_slp2_already_binary(grid22):
    slp = slg2_to_slp2(grid22)
    assert expand2(slp) == expand2(grid22)


def test_slg2_to_slp2_random_equality():
    for seed in range(30):
        g = random_slg2(seed * 3 + 2, 20, max_arity=5, max_cells=2048)
        slp = slg2_to_slp2(g)
        assert slp.is_binary
        assert expand2(slp) == expand2(g)
        assert grammar_size2(slp) <= 3 * grammar_size2(g)


def test_slp2_min_size_bound_on_random_grammars():
    # a binary grammar of size s cannot expand past 2**s on either axis
    for seed in range(30):
        g = random_slp2(seed, 25, max_cells=1 << 14)
        r, c = dims(g, g.start)
        assert max(r, c) <= 1 << grammar_size2(g)


def test_start_literal_allowed(grid22):
    g = validate_slg2(Slg2([1], 2, 0))
    assert expand2(g).cells == [1]


def test_1based_cell_access(grid22):
    """A position that is not an integer in range is a PositionOutOfRange,
    never an empty row, a row counted from the end, an IndexError or a
    TypeError."""
    m = expand2(grid22)
    assert m.get(2, 1) == 2
    m = Matrix2D(2, 3, [0, 1, 2, 3, 4, 5])
    assert m.row(2) == [3, 4, 5] and m.get(2, 3) == 5
    for i in (0, 3, -1, 1.0):
        with pytest.raises(PositionOutOfRange):
            m.row(i)
    for i, j in ((0, 1), (1, 0), (3, 1), (1, 4), (-1, 2), (1.0, 2), (1, "2")):
        with pytest.raises(PositionOutOfRange):
            m.get(i, j)


def test_grammar_format_roundtrip(grid22):
    text = dump_slg2(grid22)
    g = validate_slg2(parse_slg2(text))
    assert expand2(g) == expand2(grid22)
    assert dump_slg2(g) == text


def test_grammar_format_refuses_empty_rules():
    """An H or V line lists at least one child, as an N line does in 1D."""
    for letter in "HV":
        with pytest.raises(ParseError, match="sequence rule needs children"):
            parse_slg2(f"SLG2 2 2\n0: {letter} 1\n1: {letter}\nSTART 0\n")


def test_grammar_format_errors():
    with pytest.raises(DuplicateRule):
        parse_slg2("SLG2 2 2\n0: L 0\n0: L 1\nSTART 0\n")
    with pytest.raises(ParseError):
        parse_slg2("SLG2 1 2\n0: X 0\nSTART 0\n")


def test_matrix_format_roundtrip(grid22):
    m = expand2(grid22)
    assert parse_matrix(dump_matrix(m)) == m
    with pytest.raises(ParseError):
        parse_matrix("MAT 2 2\n0 1\n0\n")


def test_horiz_and_vert_equality_hash_and_repr():
    assert Horiz(1, 2) != Vert(1, 2) and Vert(1, 2) != Horiz(1, 2)
    assert Horiz(1, 2) == Horiz([1, 2]) and hash(Horiz(1, 2)) == hash(Horiz([1, 2]))
    assert Vert(3, 4) == Vert((3, 4)) and hash(Vert(3, 4)) == hash(Vert((3, 4)))
    assert Horiz(1, 2) != Horiz(2, 1) and Horiz(1, 2) != (1, 2)
    assert len({Horiz(1, 2), Horiz(1, 2), Vert(1, 2)}) == 2
    assert repr(Horiz(1, 2)) == "Horiz(1, 2)" and repr(Vert(3, 4)) == "Vert(3, 4)"
    assert repr(Horiz(5)) == "Horiz(5,)" and repr(Vert()) == "Vert()"


@pytest.mark.parametrize("rows", [None, [1, 2]], ids=["none", "flat-list"])
def test_from_rows_refuses_what_is_no_list_of_rows(rows):
    with pytest.raises(DimensionMismatch, match="iterable of rows"):
        Matrix2D.from_rows(rows)


@pytest.mark.parametrize("fn, args, error, match", [
    (Matrix2D.from_rows, ([],), DimensionMismatch, "at least one row"),
    (parse_matrix, ("",), ParseError, "empty matrix file"),
    # id v + 1 is Vert(v, v), so id 63 is 2**63 columns wide
    (validate_slg2, (Slg2([0] + [Vert(v, v) for v in range(63)], 1, 63),),
     ArithmeticOverflow, r"exceed 2\*\*62"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_malformed_2d_input_raises_its_error(fn, args, error, match):
    with pytest.raises(error, match=match) as err:
        fn(*args)
    assert type(err.value) is error
