"""Negative paths and constructor edge cases across modules."""

import pytest

from gridgram import (
    DanglingReference,
    DimensionMismatch,
    Horiz,
    Matrix2D,
    ParseError,
    Slg1,
    Slg2,
    parse_matrix,
    parse_slg1,
    parse_slg2,
    validate_slg1,
    validate_slg2,
)
from gridgram.errors import RangeError
from gridgram.reductions import (
    OvInstance,
    mark_all_chars,
    pad_with_zero_block,
    parse_ov,
)


def test_empty_rule_list_rejected():
    with pytest.raises(DanglingReference):
        validate_slg1(Slg1([], 2, 0))


def test_start_out_of_range_rejected():
    with pytest.raises(DanglingReference):
        validate_slg1(Slg1([0], 2, start=3))
    with pytest.raises(DanglingReference):
        validate_slg2(Slg2([0], 2, start=-1))


def test_bad_rule_object_rejected():
    with pytest.raises(TypeError):
        validate_slg2(Slg2([("H", (1,))], 2, 0))


def test_matrix_constructor_checks():
    with pytest.raises(DimensionMismatch):
        Matrix2D(0, 3, [])
    with pytest.raises(DimensionMismatch):
        Matrix2D(2, 2, [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        Matrix2D.from_rows([[1, 2], [3]])


def test_parser_header_errors():
    for text in ("", "SLGX 1 2\n0: T 0\nSTART 0\n", "SLG1 0 2\nSTART 0\n",
                 "SLG1 one 2\n0: T 0\nSTART 0\n"):
        with pytest.raises(ParseError):
            parse_slg1(text)
    for text in ("", "MAT 1 1\n0\n", "SLG2 1 0\n0: L 0\nSTART 0\n"):
        with pytest.raises(ParseError):
            parse_slg2(text)
    for text in ("MAT 2 x\n0\n0\n", "MAT 1 2\n0 y\n"):
        with pytest.raises(ParseError):
            parse_matrix(text)


def test_parser_double_start_and_bad_lines():
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n0: T 0\nSTART 0\nSTART 0\n")
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n0 T 0\nSTART 0\n")
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n0:\nSTART 0\n")
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n0: N\nSTART 0\n")  # 1D rules may not be empty
    assert parse_slg2("SLG2 2 2\n0: L 0\n1: H\nSTART 0\n").rules[1] == Horiz()
    # every integer field, not just the header and the rule id
    for text in ("SLG1 2 2\n0: N 1 x\n1: T 0\nSTART 0\n",
                 "SLG1 1 2\n0: T 0\nSTART x\n",
                 "SLG1 1 2\n0: T z\nSTART 0\n"):
        with pytest.raises(ParseError):
            parse_slg1(text)
    for text in ("SLG2 1 2\n0: L y\nSTART 0\n",
                 "SLG2 2 2\n0: V 1 y\n1: L 0\nSTART 0\n"):
        with pytest.raises(ParseError):
            parse_slg2(text)


def test_parse_ov_errors():
    with pytest.raises(ParseError):
        parse_ov("")
    with pytest.raises(ParseError):
        parse_ov("10x1\n")
    with pytest.raises(RangeError):
        parse_ov("10\n101\n")  # ragged dimensions


def test_ov_instance_validation():
    with pytest.raises(RangeError):
        OvInstance(())
    with pytest.raises(RangeError):
        OvInstance(((),))
    with pytest.raises(RangeError):
        OvInstance(((0, 2),))


def test_mark_all_chars_code_range():
    with pytest.raises(RangeError):
        mark_all_chars([0, 5], 2)
    with pytest.raises(RangeError):
        mark_all_chars([], 2)


def test_pad_rejects_empty_expansion():
    with pytest.raises(RangeError):
        pad_with_zero_block(Slg2([Horiz()], 1, 0))
