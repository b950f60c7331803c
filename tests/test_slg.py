"""Grammar core: validation, lengths, expansion, SLP conversion, formats.

The checks that live in the shared core (cycles, dangling references,
moving the start to id 0, the text format) run over both dimensions.
"""

import random
import tracemalloc
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from gridgram import (
    ArithmeticOverflow,
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
    TerminalOutOfRange,
    Vert,
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
)
from gridgram.errors import PreconditionViolated, RangeError
from gridgram.gen import random_slg1, random_slg2, random_slp1
from conftest import comb1, comb2, reachable

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
    with pytest.raises(EmptyLanguage):
        validate_slg1(Slg1([(1,), ()], 2, 0))
    g = validate_slg1(Slg1([(1,), ()], 2, 0), allow_empty=True)
    assert g._eps[1] and g._eps[0]


def test_validate_reindexes_start_to_zero():
    for d in DIMS:
        g = d.validate(d.cls([0, d.rule(0, 0)], 2, start=1))
        assert g.start == 0
        assert d.cells(g) == [0, 0]


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


def test_slg_to_slp_eliminates_empty_rules():
    # S -> A E B with E empty; singleton chain collapses
    g = Slg1([(1, 4, 2), 0, 1, (), (3,)], 2, 0)
    slp = slg_to_slp(g)
    assert slp.is_binary
    assert expand1(slp) == [0, 1]
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
@given(seed=st.integers(0, 2 ** 32), n_rules=st.integers(1, 25),
       empty=st.sampled_from([None, Horiz, Vert]))
def test_format_roundtrip_property(seed, n_rules, empty):
    """parse(dump(g)) gives back g's rules, alphabet and start exactly."""
    g1 = random_slg1(seed, n_rules, max_len=512)
    assert _fields(parse_slg1(dump_slg1(g1))) == _fields(g1)
    g2 = random_slg2(seed, n_rules, max_cells=512)
    if empty is not None:
        # gen never emits an empty rule; add one that nothing references
        g2 = Slg2(g2.rules + [empty()], g2.alphabet_size, g2.start)
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
    """An unvalidated Slg1 or Slg2 of mixed arity, with an empty rule listed
    among the children of some rules, rules nothing reaches (a literal, a
    one-child rule and a rule of only empty children), and its ids
    shuffled, so the start is seldom id 0."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(1, 25))
    if draw(st.booleans()):
        g, empty = random_slg1(rng, n, max_arity=4, max_len=512), tuple
    else:
        g = random_slg2(rng, n, max_arity=4, max_cells=512)
        empty = draw(st.sampled_from([Horiz, Vert]))
    rules = list(g.rules)
    e = len(rules)
    rules.append(empty(()))
    for nid in range(e):
        if not isinstance(rules[nid], int) and rng.random() < 0.3:
            kids = list(rules[nid] if empty is tuple else rules[nid].children)
            kids.insert(rng.randint(0, len(kids)), e)
            rules[nid] = type(rules[nid])(tuple(kids))
    rules += [rng.randrange(g.alphabet_size), empty((rng.randrange(e),)), empty((e, e))]
    perm = list(range(len(rules)))
    rng.shuffle(perm)
    return type(g)(_relabelled(rules, perm), g.alphabet_size, perm[g.start])


def assert_walk_arrays(g):
    """g's cached child lists, Horiz flags and reachability against its rules."""
    for v, rule in enumerate(g.rules):
        if isinstance(rule, int):
            assert g._kids[v] is None
        else:
            assert g._kids[v] == (rule if isinstance(rule, tuple) else rule.children)
            if isinstance(g, Slg2):
                assert g._horiz[v] == isinstance(rule, Horiz)
    if isinstance(g, Slg2):
        assert len(g._horiz) == len(g.rules)
    assert len(g._kids) == len(g._reach) == len(g.rules)
    assert [v for v, r in enumerate(g._reach) if r] == reachable(g)


@settings(max_examples=80, deadline=None)
@given(g=raw_grammars())
def test_validation_caches_the_walk_arrays(g):
    if isinstance(g, Slg1):
        valid, slp = validate_slg1(g, allow_empty=True), slg_to_slp(g)
    else:
        valid, slp = validate_slg2(g), slg2_to_slp2(g)
    assert valid.start == slp.start == 0
    assert_walk_arrays(valid)
    assert_walk_arrays(slp)


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
