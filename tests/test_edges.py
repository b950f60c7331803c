"""Negative paths and constructor edge cases across modules."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from gridgram import (
    DanglingReference,
    DimensionMismatch,
    EmptyLanguage,
    GrammarError,
    Horiz,
    Matrix2D,
    ParseError,
    PositionOutOfRange,
    PreconditionViolated,
    Slg1,
    Slg2,
    Slp1,
    Slp2,
    Vert,
    access1,
    access1_traced,
    access2,
    access2_traced,
    build_index1,
    build_index2,
    descend1,
    descend2,
    dims,
    dump_matrix,
    dump_slg1,
    dump_slg2,
    exp_len,
    expand1,
    expand2,
    parse_matrix,
    parse_slg1,
    parse_slg2,
    hook_offset1,
    hook_offset2,
    slg2_to_slp2,
    slg_to_slp,
    validate_slg1,
    validate_slg2,
    validate_slp1,
    validate_slp2,
)
from gridgram.errors import RangeError, TerminalOutOfRange
from gridgram.gen import random_matrix, random_slg1, random_slg2
from gridgram.reductions import (
    OvInstance,
    alphabet_reduce,
    ext_mark_grammar,
    mark_all_chars,
    mark_grammar,
    pad_with_zero_block,
    parse_ov,
    square_all_zero_via_square_lce,
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
    with pytest.raises(TerminalOutOfRange, match="rule 0 is neither"):
        validate_slg2(Slg2([("H", (1,))], 2, 0))


def test_matrix_constructor_checks():
    with pytest.raises(DimensionMismatch):
        Matrix2D(0, 3, [])
    with pytest.raises(DimensionMismatch):
        Matrix2D(2, 2, [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        Matrix2D.from_rows([[1, 2], [3]])
    for rows, cols in ((1.0, 2), (1, 2.0), ("1", 2)):
        with pytest.raises(DimensionMismatch):
            Matrix2D(rows, cols, [0, 1])
    for cells in ([1.0, "a"], [0, 1.0], [None, 0], ["0", 1]):
        with pytest.raises(RangeError):
            Matrix2D(1, 2, cells)
        with pytest.raises(RangeError):
            Matrix2D.from_rows([cells[:1], cells[1:]])


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


def test_parser_rejects_a_header_count_beyond_the_file():
    # the count is checked against the lines before any per-id allocation
    for parse, text in ((parse_slg1, "SLG1 1000000000 2\n0: T 0\nSTART 0\n"),
                        (parse_slg2, "SLG2 1000000 2\n0: L 0\nSTART 0\n")):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert len(str(exc.value)) < 80


def test_child_ids_are_checked_before_the_start_moves_to_zero():
    # -1 would index the relabelling table from the end and turn into id 2
    with pytest.raises(DanglingReference):
        validate_slg1(parse_slg1("SLG1 3 2\n0: T 0\n1: N -1 0\n2: T 1\nSTART 1\n"))
    with pytest.raises(DanglingReference):
        validate_slg2(parse_slg2("SLG2 3 2\n0: L 0\n1: V 0 5\n2: L 1\nSTART 1\n"))


def _valid_text(kind, seed, size):
    if kind == "SLG1":
        return dump_slg1(random_slg1(seed, size, max_len=256))
    if kind == "SLG2":
        return dump_slg2(random_slg2(seed, size, max_cells=256))
    return dump_matrix(random_matrix(seed, size % 4 + 1, size % 5 + 1))


_PARSE_AND_VALIDATE = {
    "SLG1": lambda text: validate_slg1(parse_slg1(text)),
    "SLG2": lambda text: validate_slg2(parse_slg2(text)),
    "MAT": parse_matrix,
}
_MUTATION = st.tuples(st.sampled_from(["drop", "duplicate", "replace"]),
                      st.integers(0, 10 ** 6),
                      st.sampled_from(["0", "1", "-1", "3", "x", ":", "1:", "N", "T", "H",
                                       "V", "L", "START", "SLG1", "MAT", "\n",
                                       str(1 << 62), "1e3", "0x1"]))


@settings(max_examples=300, deadline=1000)
@given(kind=st.sampled_from(sorted(_PARSE_AND_VALIDATE)), seed=st.integers(0, 2 ** 16),
       size=st.integers(1, 12), scale=st.sampled_from([1, 0, 2, 10, 10 ** 6, 10 ** 9]),
       mutations=st.lists(_MUTATION, max_size=4))
def test_mutated_files_raise_only_grammar_errors(kind, seed, size, scale, mutations):
    """A dropped, duplicated or replaced token, or a scaled header count,
    gives a GrammarError or a parsed result, never another exception."""
    tokens = re.split(r"(\s+)", _valid_text(kind, seed, size))
    tokens[2] = str(int(tokens[2]) * scale)
    for op, at, token in mutations:
        i = at % len(tokens)
        if op == "drop":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = token
        if not tokens:
            tokens = [""]
    try:
        _PARSE_AND_VALIDATE[kind]("".join(tokens))
    except GrammarError:
        pass


def test_parser_double_start_and_bad_lines():
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n0: T 0\nSTART 0\nSTART 0\n")
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n0 T 0\nSTART 0\n")
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n0:\nSTART 0\n")
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n0: N\nSTART 0\n")  # rules may not be empty
    with pytest.raises(ParseError):
        parse_slg2("SLG2 2 2\n0: L 0\n1: H\nSTART 0\n")
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
    with pytest.raises(EmptyLanguage):
        pad_with_zero_block(Slg2([Horiz()], 1, 0))


# -- non-integer positions and ids -------------------------------------------

_G1 = validate_slp1(Slp1([(1, 1), (2, 3), 0, 1], 2, 0))
_G2 = validate_slp2(Slp2([Horiz(1, 2), Vert(3, 4), Vert(5, 6), 0, 1, 2, 3], 4, 0))
_IX1, _IX2 = build_index1(_G1, 2), build_index2(_G2, 2)
# a call that succeeds as given, and the error a non-integer argument must raise
_INT_CALLS = (
    (access1, (_IX1, 3), PositionOutOfRange),
    (access1_traced, (_IX1, 3), PositionOutOfRange),
    (access2, (_IX2, 2, 1), PositionOutOfRange),
    (access2_traced, (_IX2, 2, 1), PositionOutOfRange),
    (descend1, (_IX1, 0, 3, 1), PreconditionViolated),
    (descend2, (_IX2, 0, 2, 1, 3), PreconditionViolated),
    (hook_offset1, (_G1, 0, 1, 3), RangeError),
    (hook_offset2, (_G2, 0, 0, 1, 2, 2), RangeError),
)


@pytest.mark.parametrize("fn, args, error, at", [
    pytest.param(fn, args, error, at, id=f"{fn.__name__}-{at}")
    for fn, args, error in _INT_CALLS for at in range(1, len(args))])
def test_a_float_argument_raises_a_grammar_error(fn, args, error, at):
    """Each integer argument given as a float, whole or not, raises the
    function's own GrammarError subclass instead of answering or raising
    TypeError."""
    fn(*args)
    for x in (float(args[at]), args[at] + 0.5):
        with pytest.raises(error) as exc:
            fn(*args[:at], x, *args[at + 1:])
        assert isinstance(exc.value, GrammarError)


# per entry point: the dimension it takes, and a call on a grammar g
_DIMENSION_CALLS = {
    "validate_slg1": (1, validate_slg1),
    "validate_slp1": (1, validate_slp1),
    "slg_to_slp": (1, slg_to_slp),
    "expand1": (1, expand1),
    "exp_len": (1, lambda g: exp_len(g, 0)),
    "build_index1": (1, lambda g: build_index1(g, 2)),
    "hook_offset1": (1, lambda g: hook_offset1(g, 0, 0, 1)),
    "alphabet_reduce": (1, alphabet_reduce),
    "mark_grammar": (1, lambda g: mark_grammar(g, 2)),
    "ext_mark_grammar": (1, lambda g: ext_mark_grammar(g, 2)),
    "validate_slg2": (2, validate_slg2),
    "validate_slp2": (2, validate_slp2),
    "slg2_to_slp2": (2, slg2_to_slp2),
    "expand2": (2, expand2),
    "dims": (2, lambda g: dims(g, 0)),
    "build_index2": (2, lambda g: build_index2(g, 2)),
    "hook_offset2": (2, lambda g: hook_offset2(g, 0, 0, 0, 1, 1)),
    "pad_with_zero_block": (2, pad_with_zero_block),
    "square_all_zero_via_square_lce": (2, square_all_zero_via_square_lce),
}


@pytest.mark.parametrize("validated", [True, False], ids=["validated", "raw"])
@pytest.mark.parametrize("name", list(_DIMENSION_CALLS))
def test_a_grammar_of_the_other_dimension_is_refused(name, validated):
    """Each entry point given a grammar of the other dimension, validated or
    not, raises PreconditionViolated, not an AttributeError or TypeError."""
    dim, call = _DIMENSION_CALLS[name]
    grammars = {1: Slp1([(1, 2), 0, 1], 2, 0), 2: Slp2([Vert(1, 2), 0, 1], 2, 0)}
    call(validate_slp1(grammars[1]) if dim == 1 else validate_slp2(grammars[2]))
    other = grammars[3 - dim]
    if validated:
        (validate_slp1 if dim == 2 else validate_slp2)(other)
    with pytest.raises(PreconditionViolated, match="expected an Slg"):
        call(other)

