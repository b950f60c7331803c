"""Negative paths and constructor edge cases across modules."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from gridgram import (
    AccessIndex1,
    AccessIndex2,
    DanglingReference,
    DimensionMismatch,
    EmptyLanguage,
    GrammarError,
    Horiz,
    Matrix2D,
    NotAnSlp,
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
    check_index1,
    check_index2,
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
from gridgram import slg
from gridgram.gen import random_matrix, random_slg1, random_slg2, random_slp1, random_slp2
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



# every entry point above but validate_*, which pass a grammar through the gate
_GATED = [name for name in _DIMENSION_CALLS if not name.startswith("validate_")]
# the entry points above that need an SLP; each names itself in NotAnSlp
_SLP_CALLS = ["validate_slp1", "build_index1", "hook_offset1", "alphabet_reduce",
              "mark_grammar", "ext_mark_grammar", "validate_slp2", "build_index2",
              "hook_offset2"]


def _plain(value):
    """``value`` in a form that compares by value: a grammar as its dump, an
    index as its tables, a tuple item by item, and a callable as None."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    if isinstance(value, Slg1):
        return dump_slg1(value)
    if isinstance(value, Slg2):
        return dump_slg2(value)
    if isinstance(value, (AccessIndex1, AccessIndex2)):
        return value.first, value.states, value.keys, value.ids
    return None if callable(value) else value


def _outcome(call, g):
    """What ``call(g)`` gives: its value as ``_plain`` puts it, or the type
    and text of the GrammarError it raises."""
    try:
        return _plain(call(g))
    except GrammarError as e:
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_GATED), slp=st.booleans(), seed=st.integers(0, 2 ** 32),
       rules=st.integers(1, 12))
def test_a_raw_grammar_gets_what_a_validated_copy_gets(name, slp, seed, rules):
    """Each gated entry point answers a fresh raw copy of a grammar as it
    answers a fresh validated copy, or refuses both with one error and text:
    SLPs and grammars of mixed arity over two codes, so every call above
    can answer."""
    dim, call = _DIMENSION_CALLS[name]
    make = ((random_slg1, random_slp1), (random_slg2, random_slp2))[dim - 1][slp]
    text = (dump_slg1 if dim == 1 else dump_slg2)(make(seed, rules, 2))
    parse, validate = (parse_slg1, validate_slg1) if dim == 1 else (parse_slg2, validate_slg2)
    assert _outcome(call, parse(text)) == _outcome(call, validate(parse(text)))


@pytest.mark.parametrize("validated", [True, False], ids=["validated", "raw"])
@pytest.mark.parametrize("name", _SLP_CALLS)
def test_an_entry_that_needs_an_slp_names_itself(name, validated):
    """A grammar with a rule of arity 3 gets one NotAnSlp text from each entry
    point that needs an SLP, naming that entry point, raw or validated."""
    dim, call = _DIMENSION_CALLS[name]
    g = Slg1([(1, 2, 1), 0, 1], 2, 0) if dim == 1 else Slg2([Vert(1, 2, 1), 0, 1], 2, 0)
    if validated:
        (validate_slg1 if dim == 1 else validate_slg2)(g)
    with pytest.raises(NotAnSlp) as exc:
        call(g)
    assert str(exc.value) == f"rule 0 has arity 3, {name} requires 2"


def test_exp_len_validates_a_raw_grammar_once(monkeypatch):
    """A raw grammar is validated in place by the first call that needs it,
    and not again: exp_len then answers from the lengths it cached."""
    runs = []
    core = slg._validate_core
    monkeypatch.setattr(slg, "_validate_core", lambda g: runs.append(g) or core(g))
    g = Slg1([(1, 2, 1), 0, 1], 2, 0)
    assert [exp_len(g, nid) for nid in range(3)] == [3, 1, 1]
    assert runs == [g] and g.validated


# per entry point that takes an index: the index class it takes, and a call on an index ix
_INDEX_CALLS = {
    "check_index1": (AccessIndex1, check_index1),
    "access1_traced": (AccessIndex1, lambda ix: access1_traced(ix, 1)),
    "descend1": (AccessIndex1, lambda ix: descend1(ix, 0, 1, 0)),
    "check_index2": (AccessIndex2, check_index2),
    "access2_traced": (AccessIndex2, lambda ix: access2_traced(ix, 1, 1)),
    "descend2": (AccessIndex2, lambda ix: descend2(ix, 0, 1, 1, 0)),
}


@pytest.mark.parametrize("other", [True, False], ids=["other-index", "none"])
@pytest.mark.parametrize("name", list(_INDEX_CALLS))
def test_an_index_of_the_other_dimension_is_refused(name, other):
    """Each checked entry point given the other dimension's index, or None,
    raises PreconditionViolated naming both types, not an AttributeError."""
    cls, call = _INDEX_CALLS[name]
    own, wrong = (_IX1, _IX2) if cls is AccessIndex1 else (_IX2, _IX1)
    call(own)
    wrong = wrong if other else None
    with pytest.raises(PreconditionViolated) as exc:
        call(wrong)
    assert str(exc.value) == f"expected an {cls.__name__}, got {type(wrong).__name__}"
