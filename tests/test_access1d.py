"""1D bookmark index: hook contract, index layout, query equivalence."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gridgram import (
    PositionOutOfRange,
    PreconditionViolated,
    Slp1,
    access1,
    access1_traced,
    build_index1,
    ceil_log,
    exp_len,
    expand1,
    hook_offset1,
    optimal_tau,
    validate_slp1,
)
from gridgram.access1d import caps, decode_finish1
from gridgram.access2d import optimal_tau2
from gridgram.errors import RangeError
from gridgram.gen import random_slp1
from conftest import expand_all_1d, levels_of


def test_ceil_log():
    assert ceil_log(1, 2) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(5, 2) == 3
    assert ceil_log(9, 3) == 2
    assert ceil_log(81, 3) == 4
    # a base below 2 never grows the power, and a non-int n is no length
    for n, base in ((5, 0), (5, 1), (5, True), (5, -2), (5, 2.0), (5, "2"), (5, None),
                    (2.5, 2), ("5", 2), (None, 2)):
        with pytest.raises(RangeError):
            ceil_log(n, base)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.one_of(st.integers(1, 2 ** 62), st.integers(1, 300)), max_size=8),
       tau=st.one_of(st.integers(2, 20), st.integers(2, 2 ** 64)))
def test_caps_by_bisection_keep_the_ceil_log_definition(sizes, tau):
    """Each level cap, by bisection in the powers of tau, is ceil_log(m + 1,
    tau) - 1, the largest p with tau**p <= m, for tau up to beyond every size."""
    assert caps(sizes, tau) == [ceil_log(m + 1, tau) - 1 for m in sizes]


def test_optimal_tau_clamps():
    assert optimal_tau(1) == 2
    assert optimal_tau(2 ** 16) == 16
    assert optimal_tau(2 ** 16, epsilon=0.5) == 4


def test_hook_full_window_straddles_split(abab):
    hook, offset = hook_offset1(abab, 0, 0, 4)
    assert (hook, offset) == (0, 0)


def test_hook_examples(abab):
    assert hook_offset1(abab, 0, 1, 3) == hook_offset1(abab, 0, 1, 3)
    hook, offset = hook_offset1(abab, 0, 1, 3)
    assert (hook, offset) == (0, 1)
    hook, offset = hook_offset1(abab, 0, 0, 1)
    assert (hook, offset) == (2, 0)


def test_hook_rejects_bad_window(abab):
    with pytest.raises(RangeError):
        hook_offset1(abab, 0, 2, 2)
    with pytest.raises(RangeError):
        hook_offset1(abab, 0, 0, 5)


def test_hook_checks_the_variable_id():
    g = validate_slp1(Slp1([(1, 2), 0, 1, (1, 1)], 2, 0))    # id 3 is unreachable
    for nid in (-1, 4):
        with pytest.raises(RangeError):
            hook_offset1(g, nid, 0, 1)


def _hook_by_definition(g, nid, b, e):
    """Direct recursive transcription of the hook/offset definitions; the
    independent route against the iterative implementation."""
    m = exp_len(g, nid)
    if m == 1:
        return (nid, 0)
    x, y = g.rules[nid]
    l = exp_len(g, x)
    if b < l < e:
        return (nid, b)
    if e <= l:
        return _hook_by_definition(g, x, b, e)
    return _hook_by_definition(g, y, b - l, e - l)


def test_hook_matches_recursive_definition():
    rng = random.Random(19)
    for seed in range(15):
        g = random_slp1(seed + 900, 14, sigma=3, max_len=128)
        for _ in range(250):
            nid = rng.randrange(len(g.rules))
            m = exp_len(g, nid)
            b = rng.randrange(m)
            e = rng.randint(b + 1, m)
            hook, offset = hook_offset1(g, nid, b, e)
            assert (hook, offset) == _hook_by_definition(g, nid, b, e)


def test_hook_window_equality_exhaustive_small():
    """Window relocation: w(b..e] reappears at the offset inside the hook,
    width-1 windows land on literals, wider ones straddle the hook's split."""
    for seed in range(12):
        g = random_slp1(seed + 100, 18, sigma=3, max_len=64)
        exps = expand_all_1d(g)
        for nid in range(len(g.rules)):
            w = exps[nid]
            m = len(w)
            for b in range(m):
                for e in range(b + 1, m + 1):
                    hook, offset = hook_offset1(g, nid, b, e)
                    h = exps[hook]
                    assert w[b:e] == h[offset:offset + (e - b)]
                    assert offset <= b
                    if e - b == 1:
                        assert exp_len(g, hook) == 1
                    else:
                        x, _ = g.rules[hook]
                        l = exp_len(g, x)
                        assert offset < l < offset + (e - b)


def test_index_single_literal():
    g = validate_slp1(Slp1([0], 1, 0))
    ix = build_index1(g, 2)
    assert ix.levels == 0 and levels_of(ix).cap == [0] and levels_of(ix).top == [-1]
    # a literal stores no level, so no walk reads and no state is kept: the
    # walk starts at the literal's finish code
    assert ix.states == [] and ix.ids == {} and decode_finish1(ix.first) == (0, 0, 0)
    assert ix.entry_count() == 0
    assert access1(ix, 1) == 0 and access1_traced(ix, 1) == (0, 1)


def test_index_abab_entry(abab):
    ix = build_index1(abab, 2)
    assert ix.grammar._height == [2, 1, 0, 0]
    # variable 0 (S -> A A, height 2) is at most FINISH * 1 = 2 high, so the
    # height rule stores level 0 only, though its cap is 2; its point paths
    # turn once, on heavy edges only, so its turn bound 1 is at most the one
    # read a walk has left at level 0, and it stores no level: below its
    # cap, so the walk descends from it at once and no state is built
    levels = levels_of(ix)
    assert levels.mark[0] == 1 and levels.cap[0] == 2 and levels.top[0] == -1
    assert ix.states == [] and ix.ids == {}
    # W -> A S (id 0, height 3 > 2) stores level 1, below its cap 2, so
    # nothing is built and the walk descends from W at once: position 3 is
    # B's, code 0
    ix = build_index1(validate_slp1(Slp1([(1, 4), (2, 3), 0, 1, (1, 1)], 2, 0)), 2)
    levels = levels_of(ix)
    assert ix.grammar._height[0] == 3 and (levels.top[0], levels.cap[0]) == (1, 2)
    assert ix.entry_count() == 0 and ix.first < 0 and access1_traced(ix, 3) == (0, 4)


def test_index_entry_count_bound():
    g = random_slp1(4, 10, sigma=2, max_len=16)
    ix = build_index1(g, 2)
    assert ix.entry_count() <= 2 * 10 * 2 * (ix.levels + 1)


def test_index_clamps_tau_to_the_longest_expansion(abab):
    ix = build_index1(abab, 10 ** 11)
    four = build_index1(abab, 4)
    assert ix.tau == 4 and (ix.first, ix.states, ix.ids) == (four.first, four.states, four.ids)
    assert [access1(ix, i) for i in range(1, 5)] == [0, 1, 0, 1]
    # U (id 3, 8 symbols) is unreachable: the clamp is the start's length 2
    g = validate_slp1(Slp1([(1, 2), 0, 1, (4, 4), (5, 5), (1, 2)], 2, 0))
    ix = build_index1(g, 10 ** 11)
    assert ix.tau == 2 and [access1(ix, i) for i in (1, 2)] == [0, 1]


def test_optimal_tau_refuses_epsilon_as_given():
    for call in (optimal_tau, optimal_tau2):
        with pytest.raises(RangeError, match=r"got -1$"):
            call(1000, -1)
        with pytest.raises(RangeError, match=r"got '1'$"):
            call(1000, "1")
    # positive, though half of it is 0.0
    assert optimal_tau(1000, 5e-324) == optimal_tau2(1000, 5e-324) == 2


@pytest.mark.parametrize("n", [float("nan"), "16", 2.5, 0, None])
def test_optimal_tau_refuses_an_n_that_is_not_a_positive_int(n):
    for call in (optimal_tau, optimal_tau2):
        with pytest.raises(RangeError, match="n must be an int >= 1"):
            call(n)


def test_optimal_tau_stops_at_n():
    assert optimal_tau(2 ** 20, epsilon=100) == 2 ** 20
    assert optimal_tau(2 ** 20, epsilon=1e300) == 2 ** 20
    assert optimal_tau(2 ** 20, epsilon=4.0) == 20 ** 4


def test_index_rejects_tau_below_two(abab):
    with pytest.raises(PreconditionViolated):
        build_index1(abab, 1)


def test_access_abab(abab):
    ix = build_index1(abab, 2)
    assert [access1(ix, i) for i in (1, 2, 3, 4)] == [0, 1, 0, 1]


def test_access_single_literal():
    g = validate_slp1(Slp1([0], 1, 0))
    ix = build_index1(g, 2)
    code, steps = access1_traced(ix, 1)
    assert code == 0 and steps == 1


def test_access_out_of_range(abab):
    ix = build_index1(abab, 2)
    with pytest.raises(PositionOutOfRange):
        access1(ix, 0)
    with pytest.raises(PositionOutOfRange):
        access1(ix, 5)


def test_access_random_30_rule_all_positions():
    g = random_slp1(77, 30, sigma=5, max_len=2048)
    text = expand1(g)
    for tau in (2, 3, 8):
        ix = build_index1(g, tau)
        want_steps = ix.levels + 1
        for i, want in enumerate(text, start=1):
            code, steps = access1_traced(ix, i)
            assert code == want
            assert steps == want_steps
