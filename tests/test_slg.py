"""Grammar core: validation, lengths, expansion, SLP conversion, formats.

The checks that live in the shared core (cycles, dangling references,
ill-typed fields, keeping every id, the text format) run over both
dimensions.
"""

import random
import tracemalloc
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from gridgram import (
    ArithmeticOverflow,
    access1,
    access2,
    CyclicGrammar,
    DanglingReference,
    DuplicateRule,
    EmptyLanguage,
    ExpansionTooLarge,
    Horiz,
    NotAnSlp,
    ParseError,
    Slg1,
    Slg2,
    Slp1,
    Slp2,
    TerminalOutOfRange,
    Vert,
    build_index1,
    build_index2,
    dims,
    dump_slg1,
    dump_slg2,
    exp_len,
    expand1,
    expand2,
    grammar_size1,
    parse_slg1,
    parse_slg2,
    slg_to_slp,
    validate_slg1,
    validate_slg2,
    hook_offset1,
    hook_offset2,
    slg2_to_slp2,
    validate_slp1,
    validate_slp2,
)
from gridgram import slg, slg2d
from gridgram.errors import PreconditionViolated, RangeError
from gridgram.gen import random_slg1, random_slg2, random_slp1, random_slp2
from conftest import (comb1, comb2, expand_all_1d, expand_all_2d, reachable, staircase2, zigzag1,
                      zigzag2)

Dim = namedtuple("Dim", "cls rule validate parse dump cells")
DIMS = (
    Dim(Slg1, lambda *c: c, validate_slg1, parse_slg1, dump_slg1, expand1),
    Dim(Slg2, Horiz, validate_slg2, parse_slg2, dump_slg2, lambda g: expand2(g).cells),
)


def _fields(g):
    return type(g), g.rules, g.alphabet_size, g.start


def test_validate_two_leaf_chain():
    g = validate_slg1(Slg1([(1, 2), 0, 1], 2, 0))
    assert g.validated and g.start == 0


def test_validate_self_reference_cycles():
    for d in DIMS:
        with pytest.raises(CyclicGrammar):
            d.validate(d.cls([d.rule(0)], 1, 0))


def test_validate_longer_cycle():
    for d in DIMS:
        with pytest.raises(CyclicGrammar):
            d.validate(d.cls([d.rule(1), d.rule(2), d.rule(0)], 1, 0))


def test_validate_dangling_reference():
    for d in DIMS:
        with pytest.raises(DanglingReference):
            d.validate(d.cls([d.rule(1)], 1, 0))


def test_validate_terminal_out_of_range():
    with pytest.raises(TerminalOutOfRange):
        validate_slg1(Slg1([5], 3, 0))
    with pytest.raises(TerminalOutOfRange):
        validate_slg1(Slg1([-1], 3, 0))


def test_validate_rejects_empty_rules_by_default():
    """A rule with no children is refused by every path that validates: the
    grammar, the SLP check and the SLP conversion."""
    for refuse in (validate_slg1, validate_slp1, slg_to_slp):
        with pytest.raises(EmptyLanguage, match="rule 1 has no children"):
            refuse(Slg1([(1,), ()], 2, 0))


def test_an_slp_is_a_checked_grammar_not_a_type():
    """Slp1/Slp2 are other names for the grammar classes, and checking that a
    validated binary grammar is an SLP returns that same grammar."""
    assert Slp1 is Slg1 and Slp2 is Slg2
    binary = [(validate_slp1, validate_slg1(Slg1([0, (0, 2), 1], 2, 1))),
              (validate_slp2, validate_slg2(Slg2([0, Vert(0, 2), 1], 2, 1))),
              (validate_slp1, random_slp1(5, 30)), (validate_slp2, random_slp2(5, 30)),
              (validate_slp1, slg_to_slp(random_slg1(5, 30))),
              (validate_slp2, slg2_to_slp2(random_slg2(5, 30)))]
    for check, g in binary:
        assert type(g) in (Slg1, Slg2) and check(g) is g


def test_validate_keeps_a_nonzero_start():
    for d in DIMS:
        g = d.cls([0, d.rule(0, 0)], 2, start=1)
        assert d.validate(g) is g
        assert g.start == 1 and g.rules == [0, d.rule(0, 0)]
        assert d.cells(g) == [0, 0]
    g = Slg1([0, 1, (0, 1)], 2, 2)
    assert validate_slg1(g) is g and g.rules == [0, 1, (0, 1)]
    assert [exp_len(g, v) for v in range(3)] == [1, 1, 2]


@pytest.mark.parametrize("make, error, field", [
    (lambda: validate_slg1(Slg1([(1.5,), 0], 2, 0)), DanglingReference, r"rule 0 .* 1\.5"),
    (lambda: validate_slg1(Slg1([(1, 2), 0, 1.0], 2, 0)), TerminalOutOfRange, "rule 2"),
    (lambda: validate_slg1(Slg1([Horiz(1, 2), 0, 1], 2, 0)), TerminalOutOfRange, "rule 0"),
    (lambda: validate_slg1(Slg1([(1, 2), 0, 1], 2, "0")), DanglingReference, "start id '0'"),
    (lambda: validate_slg2(Slg2([Vert(1, 2), 0, 1], 2, 1.0)), DanglingReference, "start id 1.0"),
    (lambda: validate_slg2(Slg2([Horiz(None, 1), 0], 2, 0)), DanglingReference,
     "rule 0 .* None"),
    (lambda: validate_slg2(Slg2([Vert(1.5), 0], 2, 0)), DanglingReference, r"rule 0 .* 1\.5"),
    (lambda: validate_slg2(Slg2([(1, 2), 0, 1], 2, 0)), TerminalOutOfRange, "rule 0"),
    (lambda: validate_slg1(Slg1([(1, 2), 0, 1], 2.5, 0)), TerminalOutOfRange, "alphabet_size"),
    (lambda: validate_slg2(Slg2([Vert(1, 2), 0, 1], None, 0)), TerminalOutOfRange,
     "alphabet_size"),
], ids=["float-child", "float-literal", "horiz-in-1d", "str-start", "float-start",
        "none-child", "float-only-child", "tuple-in-2d", "float-sigma", "none-sigma"])
def test_validation_names_an_ill_typed_field(make, error, field):
    with pytest.raises(error, match=field):
        make()


def test_exp_len_literal_is_one():
    g = validate_slg1(Slg1([7], 10, 0))
    assert exp_len(g, 0) == 1


def test_exp_len_abab(abab):
    assert exp_len(abab, 0) == 4
    assert exp_len(abab, 1) == 2


def test_exp_len_balanced_depth_20():
    # X_i -> X_{i+1} X_{i+1} for 20 levels over one literal
    rules = [(i + 1, i + 1) for i in range(20)] + [0]
    g = validate_slp1(Slp1(rules, 1, 0))
    assert exp_len(g, 0) == 2 ** 20


def test_exp_len_checks_the_variable_id():
    g = validate_slp1(Slp1([(1, 2), 0, 1, (1, 1)], 2, 0))    # id 3 is unreachable
    for nid in (-1, 4):
        with pytest.raises(RangeError):
            exp_len(g, nid)


def test_exp_len_needs_a_validated_grammar():
    with pytest.raises(PreconditionViolated):
        exp_len(Slp1([0], 1, 0), 0)


def test_exp_len_overflow_rejected():
    rules = [(i + 1, i + 1) for i in range(63)] + [0]
    with pytest.raises(ArithmeticOverflow):
        validate_slg1(Slg1(rules, 1, 0))


def test_expand_two_leaf():
    g = validate_slg1(Slg1([(1, 2), 0, 1], 2, 0))
    assert expand1(g) == [0, 1]


def test_expand_abab(abab):
    assert expand1(abab) == [0, 1, 0, 1]


def test_expand_single_literal():
    g = validate_slg1(Slg1([3], 4, 0))
    assert expand1(g) == [3]


def test_expand_respects_cap():
    rules = [(i + 1, i + 1) for i in range(10)] + [0]
    g = validate_slg1(Slg1(rules, 1, 0))
    with pytest.raises(ExpansionTooLarge):
        expand1(g, cap=1000)
    assert len(expand1(g, cap=1024)) == 1024


def test_expand_matches_exp_len_on_random_grammars():
    from conftest import expand_all_1d

    for seed in range(30):
        g = random_slg1(seed, n_rules=random.Random(seed).randint(1, 25), max_len=512)
        text = expand1(g)
        assert len(text) == exp_len(g, g.start)
        exps = expand_all_1d(g)
        for nid in range(len(g.rules)):
            assert len(exps[nid]) == exp_len(g, nid)


def test_grammar_size_examples():
    assert grammar_size1(Slg1([(1, 2), 0, 1], 2, 0)) == 4
    assert grammar_size1(Slg1([(1, 2, 3), 0, 1, 2], 3, 0)) == 6
    # an empty right-hand side still contributes 1
    assert grammar_size1(Slg1([(1,), ()], 2, 0)) == 2


def test_slg_to_slp_binarizes_left_to_right():
    g = Slg1([(1, 2, 3), 0, 1, 2], 3, 0)
    slp = slg_to_slp(g)
    assert slp.is_binary
    assert expand1(slp) == [0, 1, 2]
    assert grammar_size1(slp) <= 3 * grammar_size1(g)
    # left-associative shape: the start pairs (A B) first, then appends C
    left, right = slp.rules[slp.start]
    assert isinstance(slp.rules[left], tuple)
    assert isinstance(slp.rules[right], int)
    a, b = slp.rules[left]
    assert [slp.rules[a], slp.rules[b], slp.rules[right]] == [0, 1, 2]


def test_slg_to_slp_on_binary_input_keeps_expansion(abab):
    slp = slg_to_slp(abab)
    assert expand1(slp) == expand1(abab)
    assert grammar_size1(slp) <= 3 * grammar_size1(abab)


def test_slg_to_slp_refuses_empty_rules():
    """S -> A D B with D -> E: an empty E is refused; a literal E is reached
    through the singleton chain, which collapses."""
    with pytest.raises(EmptyLanguage, match="rule 3 has no children"):
        slg_to_slp(Slg1([(1, 4, 2), 0, 1, (), (3,)], 2, 0))
    slp = slg_to_slp(Slg1([(1, 4, 2), 0, 1, (2,), (3,)], 2, 0))
    assert slp.is_binary
    assert expand1(slp) == [0, 1, 1]
    assert not any(isinstance(r, tuple) and len(r) != 2 for r in slp.rules)


def test_slg_to_slp_empty_language_rejected():
    with pytest.raises(EmptyLanguage):
        slg_to_slp(Slg1([()], 1, 0))


def test_slg_to_slp_random_equality():
    for seed in range(40):
        g = random_slg1(seed * 7 + 1, n_rules=20, max_arity=5, max_len=2048)
        slp = slg_to_slp(g)
        assert slp.is_binary
        assert expand1(slp) == expand1(g)
        assert grammar_size1(slp) <= 3 * grammar_size1(g)


def test_validate_slp_rejects_wide_rules():
    from gridgram import GrammarError

    with pytest.raises(GrammarError):
        validate_slp1(Slg1([(1, 2, 3), 0, 1, 2], 3, 0))


def test_random_slp_generator_is_binary_and_exact_count():
    g = random_slp1(11, 40, sigma=6, max_len=4096)
    assert len(g.rules) == 40
    assert g.is_binary


def test_format_roundtrip(abab, grid22):
    for d, orig in zip(DIMS, (abab, grid22)):
        text = d.dump(orig)
        g = d.validate(d.parse(text))
        assert d.cells(g) == d.cells(orig)
        assert d.dump(g) == text


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_rules=st.integers(1, 25))
def test_format_roundtrip_property(seed, n_rules):
    """parse(dump(g)) gives back g's rules, alphabet and start exactly."""
    g1 = random_slg1(seed, n_rules, max_len=512)
    assert _fields(parse_slg1(dump_slg1(g1))) == _fields(g1)
    g2 = random_slg2(seed, n_rules, max_cells=512)
    assert _fields(parse_slg2(dump_slg2(g2))) == _fields(g2)


def test_format_duplicate_id_rejected():
    with pytest.raises(DuplicateRule):
        parse_slg1("SLG1 2 2\n0: T 0\n0: T 1\nSTART 0\n")


def test_format_missing_start_rejected():
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n0: T 0\n")


def test_format_out_of_range_id_rejected():
    with pytest.raises(ParseError):
        parse_slg1("SLG1 1 2\n3: T 0\nSTART 0\n")


def test_format_missing_rule_rejected():
    with pytest.raises(ParseError):
        parse_slg1("SLG1 2 2\n0: T 0\nSTART 0\n")


# Every refusal of the text format, with its error class and whole message.
# In a text and its message, {M} is the dimension's magic word, {T} its
# literal letter, {N} a sequence letter of it, and {O} and {X} the other
# dimension's magic word and sequence letter.
REFUSALS = [
    ("empty-file", " \n\n", ParseError, "empty grammar file"),
    ("header-fields", "{M} 1\n0: {T} 0\nSTART 0", ParseError, "bad header: '{M} 1'"),
    ("header-magic", "{O} 1 2\n0: {T} 0\nSTART 0", ParseError, "bad header: '{O} 1 2'"),
    ("header-int", "{M} 1 b\n0: {T} 0\nSTART 0", ParseError, "bad integer 'b' in: '{M} 1 b'"),
    ("header-count", "{M} 0 2\nSTART 0", ParseError,
     "nonterminal count and alphabet size must be positive"),
    ("header-lines", "{M} 3 2\n0: {T} 0\nSTART 0", ParseError,
     "header declares 3 rules, but 2 lines follow"),
    ("no-colon", "{M} 1 2\n0 {T} 0\nSTART 0", ParseError, "bad rule line: '0 {T} 0'"),
    ("bad-id", "{M} 1 2\nx: {T} 0\nSTART 0", ParseError, "bad integer 'x' in: 'x: {T} 0'"),
    ("bad-child", "{M} 2 2\n0: {N} 1 y\n1: {T} 0\nSTART 0", ParseError,
     "bad integer 'y' in: '0: {N} 1 y'"),
    ("bad-literal", "{M} 1 2\n0: {T} 0.5\nSTART 0", ParseError,
     "bad integer '0.5' in: '0: {T} 0.5'"),
    ("bad-start", "{M} 1 2\n0: {T} 0\nSTART s", ParseError, "bad integer 's' in: 'START s'"),
    ("id-high", "{M} 1 2\n1: {T} 0\nSTART 0", ParseError, "rule id 1 out of range [0, 1)"),
    ("id-negative", "{M} 1 2\n-1: {T} 0\nSTART 0", ParseError,
     "rule id -1 out of range [0, 1)"),
    ("duplicate", "{M} 1 2\n0: {T} 0\n0: {T} 1\nSTART 0", DuplicateRule,
     "duplicate rule for id 0"),
    ("empty-body", "{M} 1 2\n0:  \nSTART 0", ParseError, "empty rule body: '0:'"),
    ("literal-none", "{M} 1 2\n0: {T}\nSTART 0", ParseError,
     "literal rule needs one terminal: '0: {T}'"),
    ("literal-two", "{M} 1 2\n0: {T} 0 1\nSTART 0", ParseError,
     "literal rule needs one terminal: '0: {T} 0 1'"),
    ("no-children", "{M} 2 2\n0: {N}\n1: {T} 0\nSTART 1", ParseError,
     "sequence rule needs children: '0: {N}'"),
    ("unknown-kind", "{M} 1 2\n0: Q 0\nSTART 0", ParseError, "unknown rule kind 'Q' in: '0: Q 0'"),
    ("other-kind", "{M} 2 2\n0: {X} 1 1\n1: {T} 0\nSTART 0", ParseError,
     "unknown rule kind '{X}' in: '0: {X} 1 1'"),
    ("start-alone", "{M} 1 2\n0: {T} 0\nSTART", ParseError, "bad START line: 'START'"),
    ("start-fields", "{M} 1 2\n0: {T} 0\nSTART 0 0", ParseError, "bad START line: 'START 0 0'"),
    ("start-twice", "{M} 1 2\n0: {T} 0\nSTART 0\nSTART 0", ParseError,
     "bad START line: 'START 0'"),
    ("start-missing", "{M} 1 2\n0: {T} 0", ParseError, "missing START line"),
    ("rule-missing", "{M} 2 2\n1: {T} 0\nSTART 1", ParseError, "no rule given for ids [0]"),
    ("start-prefix", "{M} 1 2\n0: {T} 0\nSTARTS", ParseError, "bad START line: 'STARTS'"),
    # a line with two faults, or a text with two: the first check to fail wins
    ("id-then-child", "{M} 2 2\nx: {N} y\n1: {T} 0\nSTART 0", ParseError,
     "bad integer 'x' in: 'x: {N} y'"),
    ("range-then-child", "{M} 2 2\n2: {N} y\n1: {T} 0\nSTART 0", ParseError,
     "rule id 2 out of range [0, 2)"),
    ("duplicate-then-child", "{M} 2 2\n0: {T} 0\n0: {N} y\nSTART 0", DuplicateRule,
     "duplicate rule for id 0"),
    ("range-then-body", "{M} 1 2\n3:\nSTART 0", ParseError, "rule id 3 out of range [0, 1)"),
    ("child-then-kind", "{M} 1 2\n0: Q y\nSTART 0", ParseError, "bad integer 'y' in: '0: Q y'"),
    ("child-then-arity", "{M} 1 2\n0: {T} 0 y\nSTART 0", ParseError,
     "bad integer 'y' in: '0: {T} 0 y'"),
    ("start-twice-then-int", "{M} 1 2\n0: {T} 0\nSTART 0\nSTART s", ParseError,
     "bad START line: 'START s'"),
    ("start-then-colon", "{M} 1 2\n0: {T} 0\nSTART: x", ParseError,
     "bad integer 'x' in: 'START: x'"),
    ("line-then-no-start", "{M} 2 2\n1: {T} 0\n0 {T} 0", ParseError,
     "bad rule line: '0 {T} 0'"),
]
_DIM_WORDS = ({"M": "SLG1", "T": "T", "N": "N", "O": "SLG2", "X": "H"},
              {"M": "SLG2", "T": "L", "N": "H", "O": "SLG1", "X": "N"})


@pytest.mark.parametrize("case, text, error, message", REFUSALS, ids=[r[0] for r in REFUSALS])
@pytest.mark.parametrize("dim", [0, 1], ids=["1d", "2d"])
def test_parse_refusals_keep_their_class_message_and_precedence(dim, case, text, error,
                                                               message):
    words = _DIM_WORDS[dim]
    with pytest.raises(error) as err:
        DIMS[dim].parse(text.format(**words))
    assert type(err.value) is error and str(err.value) == message.format(**words)


# -- the walk arrays validation caches ----------------------------------------

def _relabelled(rules, perm):
    """rules with rule id i moved to perm[i], children renamed to match."""
    out = [None] * len(rules)
    for old, rule in enumerate(rules):
        if isinstance(rule, int):
            out[perm[old]] = rule
        else:
            kids = rule if isinstance(rule, tuple) else rule.children
            out[perm[old]] = type(rule)(tuple(perm[c] for c in kids))
    return out


@st.composite
def raw_grammars(draw):
    """An unvalidated Slg1 or Slg2 of mixed arity, with rules nothing reaches
    (a literal, a one-child rule and a rule listing one child twice), and
    its ids shuffled, so the start is seldom id 0."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(1, 25))
    if draw(st.booleans()):
        g, kind = random_slg1(rng, n, max_arity=4, max_len=512), tuple
    else:
        g = random_slg2(rng, n, max_arity=4, max_cells=512)
        kind = draw(st.sampled_from([Horiz, Vert]))
    rules = list(g.rules)
    e = len(rules)
    rules += [rng.randrange(g.alphabet_size), kind((rng.randrange(e),)),
              kind((rng.randrange(e),) * 2)]
    perm = list(range(len(rules)))
    rng.shuffle(perm)
    return type(g)(_relabelled(rules, perm), g.alphabet_size, perm[g.start])


def _heights(g):
    """Per id, the height by its recursive definition: 0 for a literal, else
    one more than the highest child."""
    memo = {}

    def height(v):
        if v not in memo:
            rule = g.rules[v]
            if isinstance(rule, int):
                memo[v] = 0
            else:
                kids = rule if isinstance(rule, tuple) else rule.children
                memo[v] = 1 + max(map(height, kids))
        return memo[v]

    return [height(v) for v in range(len(g.rules))]


def assert_walk_arrays(g):
    """g's cached child lists, reachability and heights against its rules."""
    assert g._height == _heights(g)
    for v, rule in enumerate(g.rules):
        if isinstance(rule, int):
            assert g._kids[v] is None
        else:
            assert g._kids[v] == (rule if isinstance(rule, tuple) else rule.children)
    assert len(g._kids) == len(g._reach) == len(g.rules)
    assert [v for v, r in enumerate(g._reach) if r] == reachable(g)


@settings(max_examples=80, deadline=None)
@given(g=raw_grammars())
def test_validation_keeps_the_walk_arrays(g):
    """A raw grammar always holds rules its start does not reach, so the
    conversion renumbers it with the start last, exactly as _binarize does
    (an SLP that reaches every rule passes through, see below)."""
    if isinstance(g, Slg1):
        valid, slp = validate_slg1(g), slg_to_slp(g)
    else:
        valid, slp = validate_slg2(g), slg2_to_slp2(g)
    assert valid is g and not all(g._reach)
    assert slp is not g and slp.start == len(slp.rules) - 1
    again = slg._binarize(g)
    for name in ("rules", "start", "_topo", "_kids", "_reach", "_height", "_moves"):
        assert getattr(slp, name) == getattr(again, name), name
    assert_walk_arrays(valid)
    assert_walk_arrays(slp)


def assert_caches_of_a_fresh_validation(slp, same_order, binary=True):
    """The SLP conversion's cached arrays against validate_slp* of a fresh
    grammar with the same rules (validate_slg* unless ``binary``, as for a
    reduction's output); its order is parents first, and the fresh one when
    ``same_order``."""
    fresh = type(slp)(slp.rules, slp.alphabet_size, slp.start)
    if isinstance(slp, Slg1):
        (validate_slp1 if binary else validate_slg1)(fresh)
        sizes = ("_lens",)
    else:
        (validate_slp2 if binary else validate_slg2)(fresh)
        sizes = ("_rows", "_cols")
    for name in ("_kids", "_reach", "_height", "_moves") + sizes:
        assert getattr(slp, name) == getattr(fresh, name), name
    assert sorted(slp._topo) == list(range(len(slp.rules)))
    place = {v: i for i, v in enumerate(slp._topo)}
    assert all(place[v] < place[c] for v, kids in enumerate(slp._kids) for c in kids or ())
    assert slp._topo == fresh._topo or not same_order


@settings(max_examples=80, deadline=None)
@given(g=raw_grammars())
def test_conversion_caches_equal_a_fresh_validation(g):
    """The order is the fresh sort's whenever every rule the start reaches
    is binary (the output then is emitted in the sort's postorder)."""
    slp = slg_to_slp(g) if isinstance(g, Slg1) else slg2_to_slp2(g)
    binary = all(g._kids[v] is None or len(g._kids[v]) == 2 for v in reachable(g))
    assert_caches_of_a_fresh_validation(slp, binary)


def test_conversion_of_the_benchmark_shapes_keeps_every_array():
    """On the 2,000-rule comb, the 100-step staircase and gen SLPs, all
    binary, the conversion keeps one rule per reachable rule and caches what
    a fresh validation does, the order included."""
    rng = random.Random(1)
    for g in (comb1([rng.randrange(4) for _ in range(1997)], right=True),
              staircase2([rng.randrange(4) for _ in range(202)], 100),
              random_slp1(3, 200), random_slp2(3, 200)):
        convert, expand = (slg_to_slp, expand1) if isinstance(g, Slg1) else (slg2_to_slp2, expand2)
        slp = convert(g)
        assert len(slp.rules) == sum(g._reach) and expand(slp) == expand(g)
        assert_caches_of_a_fresh_validation(slp, True)


def test_conversion_validates_nothing_again(monkeypatch):
    """Given a validated grammar, slg_to_slp/slg2_to_slp2 neither validate
    nor sort, whether they pass it through (the comb, the staircase) or
    renumber it (the gen SLPs, whose starts leave rules unreached): the
    output's arrays come from the input's."""
    calls = []
    for mod, name in ((slg, "_validate_core"), (slg2d, "_validate_core"), (slg, "_toposort")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    rng = random.Random(1)
    comb = comb1([rng.randrange(4) for _ in range(1997)], right=True)
    stair = staircase2([rng.randrange(4) for _ in range(202)], 100)
    gens = random_slp1(3, 200), random_slp2(3, 200)
    del calls[:]
    for convert, g in ((slg_to_slp, comb), (slg2_to_slp2, stair), (slg_to_slp, gens[0]),
                       (slg2_to_slp2, gens[1])):
        assert len(g.rules) >= 200 and convert(g).validated
        assert (convert(g) is g) == all(g._reach)
    assert calls == []
    slg_to_slp(Slg1(comb.rules, comb.alphabet_size, comb.start))    # a raw input: one run
    assert calls == ["_validate_core", "_toposort"]


def _passing_inputs():
    """The conversion and a grammar of each benchmark shape that is an SLP
    whose start reaches every rule: the 2,000-rule comb (start 0) and the
    100-step staircase (start last), validated by validate_slg* alone, so
    no move record is cached yet."""
    rng = random.Random(1)
    comb = comb1([rng.randrange(4) for _ in range(1997)], right=True)
    stair = staircase2([rng.randrange(4) for _ in range(202)], 100)
    return [(slg_to_slp, validate_slg1(Slg1(comb.rules, 4, comb.start))),
            (slg2_to_slp2, validate_slg2(Slg2(stair.rules, 4, stair.start)))]


def _count_binarize(monkeypatch):
    """The list of grammars slg._binarize is called on from now on."""
    calls, binarize = [], slg._binarize
    monkeypatch.setattr(slg, "_binarize", lambda g: calls.append(g) or binarize(g))
    return calls


def test_conversion_passes_an_slp_that_reaches_every_rule_through(monkeypatch):
    """Such an SLP is returned as it is, ids and start kept, with no
    _binarize call, and caches what a fresh validate_slp* does."""
    calls = _count_binarize(monkeypatch)
    for convert, g in _passing_inputs():
        rules, start = list(g.rules), g.start
        assert all(g._reach) and g._moves is None
        assert convert(g) is g and g.rules == rules and g.start == start
        assert_caches_of_a_fresh_validation(g, True)
        assert convert(g) is g
    assert calls == []


def test_conversion_renumbers_an_unreachable_rule_or_a_longer_one(monkeypatch):
    """One unreachable literal, or a start of three children, sends the
    grammar through _binarize: the output is renumbered, the start last."""
    calls = _count_binarize(monkeypatch)
    for convert, g in _passing_inputs():
        n, s = len(g.rules), g.start
        triple = (s, s, s) if isinstance(g, Slg1) else Horiz(s, s, s)
        for rules, start in ((g.rules + [0], s), (g.rules + [triple], n)):
            h = validate_slg1(Slg1(rules, 4, start)) if isinstance(g, Slg1) else \
                validate_slg2(Slg2(rules, 4, start))
            del calls[:]
            out = convert(h)
            assert calls == [h] and out is not h and out.start == len(out.rules) - 1
            assert len(out.rules) == (n if start == s else n + 2)    # the triple: two pairs
            assert_caches_of_a_fresh_validation(out, start == s)
            cells = expand1 if isinstance(g, Slg1) else expand2
            assert cells(out) == cells(h)


@st.composite
def slps_reaching_every_rule(draw):
    """A validated SLP whose start reaches every rule, its ids shuffled:
    _binarize's output over a raw grammar, relabelled."""
    g = draw(raw_grammars())
    slp = slg._binarize(validate_slg1(g) if isinstance(g, Slg1) else validate_slg2(g))
    perm = list(range(len(slp.rules)))
    random.Random(draw(st.integers(0, 2 ** 32))).shuffle(perm)
    out = type(slp)(_relabelled(slp.rules, perm), slp.alphabet_size, perm[slp.start])
    return validate_slg1(out) if isinstance(out, Slg1) else validate_slg2(out)


def assert_one_index_over_either_numbering(g, tau):
    """The index over the SLP the conversion passes through and over
    _binarize's renumbered one keep as many states and slots and answer
    every position alike, as the expansion does."""
    if isinstance(g, Slg1):
        convert, build, access = slg_to_slp, build_index1, access1
        text = expand1(g)
        cells = [((i,), text[i - 1]) for i in range(1, len(text) + 1)]
    else:
        convert, build, access = slg2_to_slp2, build_index2, access2
        m = expand2(g)
        cells = [((i, j), m.get(i, j)) for i in range(1, m.rows + 1) for j in range(1, m.cols + 1)]
    assert convert(g) is g
    ours, renumbered = build(g, tau), build(slg._binarize(g), tau)
    assert ours.entry_count() == renumbered.entry_count()
    assert (len(ours.ids), len(ours.states)) == (len(renumbered.ids), len(renumbered.states))
    for pos, code in cells:
        assert access(ours, *pos) == access(renumbered, *pos) == code


@settings(max_examples=60, deadline=None)
@given(g=slps_reaching_every_rule(), tau=st.sampled_from([2, 8]))
def test_an_index_over_a_passed_slp_equals_one_over_the_renumbered(g, tau):
    assert_one_index_over_either_numbering(g, tau)


@pytest.mark.parametrize("tau", [2, 8])
def test_an_index_over_a_passed_benchmark_shape_equals_one_over_the_renumbered(tau):
    """The comb (start 0), the staircase and the zigzags (start last)."""
    rng = random.Random(2)
    codes = [rng.randrange(4) for _ in range(1000)]
    for g in (comb1(codes, right=True), comb1(codes, right=False), zigzag1(codes[:400]),
              staircase2(codes[:122], 60), zigzag2(codes[:83], 80)):
        assert all(g._reach)
        assert_one_index_over_either_numbering(g, tau)


@st.composite
def child_lists(draw):
    """Child lists over ids 0..n-1, None for a literal: a child may be any
    id, so cycles and self-references are common."""
    n = draw(st.integers(1, 10))
    kid = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(tuple)
    return draw(st.lists(st.none() | kid, min_size=n, max_size=n)), draw(st.integers(0, n - 1))


def _reference_toposort(kids, start):
    """_toposort's contract by plain recursion: children-first DFS over all
    ids, the start first, CyclicGrammar naming the first gray child met."""
    color, post, reach = [0] * len(kids), [], None

    def visit(v):
        color[v] = 1
        for c in kids[v] or ():
            if color[c] == 1:
                raise CyclicGrammar(f"cycle through nonterminal {c}")
            if color[c] == 0:
                visit(c)
        color[v] = 2
        post.append(v)

    for root in [start] + list(range(len(kids))):
        if color[root] == 0:
            visit(root)
        if reach is None:
            reach = [c == 2 for c in color]
    return post[::-1], reach


@settings(max_examples=300, deadline=None)
@given(case=child_lists())
def test_toposort_matches_a_recursive_dfs(case):
    kids, start = case
    try:
        want = _reference_toposort(kids, start)
    except CyclicGrammar as err:
        with pytest.raises(CyclicGrammar) as got:
            slg._toposort(kids, start)
        assert str(got.value) == str(err)
    else:
        assert slg._toposort(kids, start) == want


def test_hook_offset_allocates_no_per_variable_array():
    """One deep hook_offset call reads the grammar's cached arrays: on a
    20,000-variable comb its traced peak stays under 4 KiB."""
    rng = random.Random(0)
    codes = [rng.randrange(4) for _ in range(19997)]
    calls = ((comb1(codes, True), lambda g: hook_offset1(g, 0, 19994, 19995)),
             (comb2(codes, Vert, True), lambda g: hook_offset2(g, 0, 0, 19994, 1, 19995)))
    for g, call in calls:
        assert len(g.rules) == 20000
        tracemalloc.start()
        try:
            hook = call(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(g.rules[hook[0]], int) and not any(hook[1:])
        assert peak < 4096


@pytest.mark.parametrize("call", [
    lambda: hook_offset1(validate_slg1(Slg1([(1, 2, 3), 0, 1, 2], 3, 0)), 0, 0, 2),
    lambda: hook_offset2(validate_slg2(Slg2([Horiz(1, 2, 3), 0, 1, 2], 3, 0)), 0, 0, 0, 2, 1),
], ids=["1d", "2d"])
def test_hook_offset_names_a_rule_of_arity_other_than_two(call):
    """A walk that meets a rule not splitting in two raises NotAnSlp naming
    the rule and its arity, not an unpacking ValueError."""
    with pytest.raises(NotAnSlp, match="rule 0 has arity 3"):
        call()


@settings(max_examples=80, deadline=None)
@given(g=raw_grammars(), seed=st.integers(0, 2 ** 32))
def test_validation_returns_its_argument_with_every_id_kept(g, seed):
    """Validation checks and caches: it returns the grammar it is given, rules
    and start unchanged, and answers lengths, dims and the expansion under
    the caller's ids; validate_slp* and the index builds keep a shuffled SLP."""
    if isinstance(g, Slg1):
        validate, validate_slp, to_slp, fold, build = (
            validate_slg1, validate_slp1, slg_to_slp, expand_all_1d, build_index1)
    else:
        validate, validate_slp, to_slp, fold, build = (
            validate_slg2, validate_slp2, slg2_to_slp2, expand_all_2d, build_index2)
    rules, start = list(g.rules), g.start
    assert validate(g) is g and g.rules == rules and g.start == start
    folded = fold(g)
    for v in range(len(rules)):
        if isinstance(g, Slg1):
            assert exp_len(g, v) == len(folded[v])
        else:
            assert dims(g, v) == (folded[v].rows, folded[v].cols)
    want = expand1(g) if isinstance(g, Slg1) else expand2(g)
    assert want == folded[start]

    slp = to_slp(g)
    perm = list(range(len(slp.rules)))
    random.Random(seed).shuffle(perm)
    shuffled = type(slp)(_relabelled(slp.rules, perm), slp.alphabet_size, perm[slp.start])
    rules = list(shuffled.rules)
    assert validate_slp(shuffled) is shuffled
    assert shuffled.rules == rules and shuffled.start == perm[slp.start]
    assert build(shuffled, 2).grammar is shuffled
    assert (expand1(shuffled) if isinstance(g, Slg1) else expand2(shuffled)) == want
