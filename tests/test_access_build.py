"""The walk-driven bookmark build and both query loops, in 1D and 2D.

The build stores the bookmarks a fast walk can read, resolved into the step
a query takes: it starts at the state the walk reads first and builds each
state (variable, side or corner, level or level pair) the walk's own
transitions reach, plus the states those copy from. Each index keeps only
the states the walk reaches, with one shared sentinel state at every other
id. ``check_index1``/``check_index2`` check its layout: every kept slot is
its block's plain step, and every code names the hook's child at a lower
level whose blocks hold what the step sends there. The tests here check,
against references written from ``hook_offset1``/``hook_offset2`` and the
rules (``step1``/``step2``, ``plain_hook1``/``plain_hook2``), the finish
rules and the expansions: the kept states against the walk's closure and
each code's exact level; the stored levels against the finish rule and the
turn bounds; the build's descents against the copy rule, block by block,
and on the benchmark's shapes; the builds' slot count against their cap;
that equal steps are stored as one object; the fast and the traced walks
against the expansion and the descents from every side or corner, and
against their bound in reads, moves and bisects; that the traced walks
read what the fast ones read and, like ``check_index*``, refuse the
corrupt slots they read; and the chains against their layout, laid out
only where a kept code finishes by runs. The inputs are random SLPs, left
and right combs, 2D combs along either axis, staircases, zigzags,
doublings and the benchmark's gen corpus.
"""

import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from functools import partial
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import gridgram
from gridgram import (
    DEFAULT_CAP,
    ExpansionTooLarge,
    Horiz,
    NotAnSlp,
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
    expand1,
    expand2,
    hook_offset1,
    hook_offset2,
    slg_to_slp,
    validate_slg1,
    validate_slg2,
    validate_slp1,
    validate_slp2,
)
from gridgram import access1d, access2d
from gridgram.access1d import (FINISH, _chains, _copied, _heavy, _hook_core, _turns,
                               check_index1, decode_finish1, decode_key1)
from gridgram.access2d import FINISH2, _hook_core2, check_index2, decode_finish2, decode_key2
from gridgram.gen import random_slg1, random_slg2, random_slp1, random_slp2
from conftest import (comb1, comb2, decode, decoded, expand_all_1d, expand_all_2d, kept,
                      levels_of, reachable, staircase2, submatrix, wrap_slots, zigzag1, zigzag2)

TAUS = st.sampled_from([2, 3, 8])
# tau past every 1D test length: the build clamps it to the start's length
# and must still store exactly the blocks of the tau asked for
TAUS1 = st.sampled_from([2, 3, 8, 10 ** 6])
FINISH_TAUS = st.sampled_from([2, 3, 4, 8, 16])


@st.composite
def comb_codes(draw, longest):
    """Literal codes for a comb, half the time up to 70 long and half the
    time up to ``longest``, so that a descent's runs along one chain get
    long."""
    n = draw(st.integers(2, min(70, longest)) | st.integers(2, longest))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return [rng.randrange(4) for _ in range(n)]


@st.composite
def grammars1(draw, longest=600):
    kind = draw(st.sampled_from(["gen", "right-comb", "left-comb", "zigzag"]))
    if kind == "gen":
        return random_slp1(draw(st.integers(0, 2 ** 32)), draw(st.integers(1, 30)),
                           sigma=3, max_len=draw(st.sampled_from([8, 100, 600])))
    if kind == "zigzag":
        return zigzag1(draw(comb_codes(longest)))
    return comb1(draw(comb_codes(longest)), kind == "right-comb")


@st.composite
def grammars2(draw, longest=150):
    kind = draw(st.sampled_from(["gen", "staircase", "horiz-comb", "vert-comb", "zigzag"]))
    if kind == "gen":
        return random_slp2(draw(st.integers(0, 2 ** 32)), draw(st.integers(1, 20)),
                           sigma=3, max_cells=draw(st.sampled_from([8, 64, 300])))
    if kind in ("horiz-comb", "vert-comb"):
        return comb2(draw(comb_codes(longest)), Horiz if kind == "horiz-comb" else Vert,
                     draw(st.booleans()))
    steps = draw(st.integers(1, 12 if kind == "staircase" else 24))
    codes = draw(st.lists(st.integers(0, 3), min_size=2 * steps + 3, max_size=2 * steps + 3))
    return staircase2(codes, steps) if kind == "staircase" else zigzag2(codes, steps)


def blocks(m, tp, tau):
    """(k, b, e) of each block of size tp along an axis of length m."""
    return [(k, k * tp, min(m, k * tp + tp)) for k in range(min(tau, -(-m // tp)))]


def step1(g, i, side, b, e):
    """The step stored for the window (b..e] of Exp(i) read from ``side``
    (0 = left, 1 = right): (split from that side, near child, far child), or
    (0, literal, None), resolved from the hook and offset of the window."""
    h, off = hook_offset1(g, i, b, e)
    rule = g.rules[h]
    if isinstance(rule, int):
        return (0, h, None)
    x, y = rule
    split = g._lens[x] - off            # from the window's left end
    return (e - b - split, y, x) if side else (split, x, y)


def step2(g, i, corner, b_r, b_c, e_r, e_c):
    """The step stored for a window of Exp(i) read from ``corner``:
    (axis, split from the corner, near child, far child, shift on the other
    axis), or (0, 0, literal, None, 0), resolved from the hook and offsets."""
    h, a_r, a_c = hook_offset2(g, i, b_r, b_c, e_r, e_c)
    rule = g.rules[h]
    if isinstance(rule, int):
        return (0, 0, h, None, 0)
    # the window's offsets inside the hook, from the corner's sides
    if corner & 2:
        a_r = g._rows[h] - a_r - (e_r - b_r)
    if corner & 1:
        a_c = g._cols[h] - a_c - (e_c - b_c)
    x, y = rule.children
    if isinstance(rule, Horiz):
        near, far = (y, x) if corner & 2 else (x, y)
        return (1, g._rows[near] - a_r, near, far, a_c)
    near, far = (y, x) if corner & 1 else (x, y)
    return (0, g._cols[near] - a_c, near, far, a_r)


def axis_blocks(m, top, tau):
    """The blocks along an axis of length m over the levels 0..top: tau at
    each level below top and the ones that exist at it; none for top -1."""
    return 0 if top < 0 else top * tau + min(tau, -(-m // tau ** top))


def heights(g):
    """Per variable: the longest path down to a literal (0 for a literal)."""
    h = [0] * len(g.rules)
    for i in reversed(g._topo):
        rule = g.rules[i]
        if not isinstance(rule, int):
            x, y = rule if isinstance(rule, tuple) else rule.children
            h[i] = 1 + max(h[x], h[y])
    return h


def turns_of(g):
    """The turn bound of every variable (``_turns``), over g's heavy paths."""
    return _turns(g._moves, g._topo, [_heavy(g._moves, g._topo, side) for side in (0, 1)])


_TURNS = {}


def turns2(g):
    """``turns_of(g)``, computed once per grammar."""
    got = _TURNS.get(id(g))
    if got is None or got[0] is not g:
        got = _TURNS[id(g)] = (g, turns_of(g))
    return got[1]


def mark2(g, c):
    """Variable c's mark, ceil(height / FINISH2): the level from which, on
    either axis, a walk descends from it by the height rule."""
    return -(-g._height[c] // FINISH2)


def stores2(ix, c, p_r, p_c):
    """Whether variable c of a 2D index stores the level pair: each level
    at most its cap and below its mark, and the reads a walk has left
    there, p_r + p_c + 1, below its turn bound."""
    mark, levels = mark2(ix.grammar, c), levels_of(ix)
    return (p_r <= min(levels.cap_r[c], mark - 1) and p_c <= min(levels.cap_c[c], mark - 1)
            and p_r + p_c + 1 < turns2(ix.grammar)[c])


def block_steps(ix, state):
    """The reference step (step1/step2) of each block of a state, in slot
    order, for the block's window read from the state's side or corner."""
    g, T = ix.grammar, ix.tau
    if len(state) == 3:
        i, side, p = state
        m = g._lens[i]
        return [step1(g, i, side, *((m - e, m - b) if side else (b, e)))
                for _, b, e in blocks(m, ix.pows[p], T)]
    i, corner, p_r, p_c = state
    m_r, m_c = g._rows[i], g._cols[i]
    out = []
    for (_, b_r, e_r), (_, b_c, e_c) in product(blocks(m_r, ix.pows[p_r], T),
                                                blocks(m_c, ix.pows[p_c], T)):
        rb, re = (m_r - e_r, m_r - b_r) if corner & 2 else (b_r, e_r)
        cb, ce = (m_c - e_c, m_c - b_c) if corner & 1 else (b_c, e_c)
        out.append(step2(g, i, corner, rb, cb, re, ce))
    return out


def reference_steps(ix):
    """``block_steps`` of every kept state, keyed as ``decoded`` keys the
    slots."""
    return {(*state, k): step for state in kept(ix)
            for k, step in enumerate(block_steps(ix, state))}


# the oracle walks from each slot's variable, so its cost grows with slots
# times depth: these two draw combs of at most 70 codes, and the deep combs
# reach the tables through test_index1/2_is_exactly_the_walks_closure, which
# check every kept slot against the reference step (``reference_steps``)
@settings(max_examples=60, deadline=None)
@given(g=grammars1(longest=70), tau=FINISH_TAUS)
def test_build1_stores_every_window_hook(g, tau):
    """Every kept slot holds its block's hook step, as the plain walk finds
    it, with the split measured from the state's side of the variable; a
    kept state lies at a level up to its variable's cap below ceil(height /
    FINISH) and below its turn bound less one, and has one slot per block
    of that level; one slot per block of every such level and side is the
    bound the kept slots stay within."""
    ix = build_index1(g, tau)
    assert ix.tau == min(tau, max(2, g._lens[g.start]))
    height = heights(g)
    assert ix.grammar._height == height
    turns = turns_of(g)
    T = ix.tau
    ids = reachable(g)
    levels = levels_of(ix)
    grid = 0
    for i, m in enumerate(g._lens):
        if i not in ids:
            continue
        cap, top = levels.cap[i], levels.top[i]
        assert T ** cap <= m < T ** (cap + 1)
        assert levels.mark[i] == -(-height[i] // FINISH)
        assert top == max(-1, min(cap, levels.mark[i] - 1, turns[i] - 2))
        grid += 2 * axis_blocks(m, top, T)
    assert all(i in ids and p <= levels.top[i] for i, _, p in kept(ix))
    assert decoded(ix) == reference_steps(ix)
    assert grid >= ix.entry_count() == len(stored(ix))


@settings(max_examples=40, deadline=None)
@given(g=grammars2(longest=70), tau=FINISH_TAUS)
def test_build2_stores_every_window_hook(g, tau):
    """Every kept slot holds its block's hook step, as the plain walk finds
    it, its codes decoded; a kept state lies at a level pair up to its
    variable's caps, each level below ceil(height / FINISH2) and their sum
    at most turns - 2, and has one slot per block of that pair, in
    row-major order; one slot per block of every such pair and corner is
    the bound the kept slots stay within."""
    ix = build_index2(g, tau)
    T = ix.tau
    assert T == min(tau, max(2, g._rows[g.start], g._cols[g.start]))
    height = heights(g)
    assert ix.grammar._height == height
    ids = reachable(g)
    levels = levels_of(ix)
    grid = 0
    for i, (m_r, m_c) in enumerate(zip(g._rows, g._cols)):
        if i not in ids:
            continue
        cap_r, cap_c, mark = levels.cap_r[i], levels.cap_c[i], -(-height[i] // FINISH2)
        assert T ** cap_r <= m_r < T ** (cap_r + 1) and T ** cap_c <= m_c < T ** (cap_c + 1)
        turn = turns2(g)[i]
        top_r, top_c = max(-1, min(cap_r, mark - 1, turn - 2)), max(-1, min(cap_c, mark - 1,
                                                                              turn - 2))
        # of the pairs up to the tops, those with p_r + p_c <= turns - 2 are stored
        pairs = [(p_r, p_c) for p_r, p_c in product(range(top_r + 1), range(top_c + 1))
                 if p_r + p_c + 2 <= turn]
        assert all(stores2(ix, i, p_r, p_c) for p_r, p_c in pairs)
        grid += 4 * sum(len(blocks(m_r, ix.pows[p_r], T)) * len(blocks(m_c, ix.pows[p_c], T))
                        for p_r, p_c in pairs)
    assert all(i in ids and stores2(ix, i, p_r, p_c) for i, _, p_r, p_c in kept(ix))
    view = decoded(ix)
    assert view == reference_steps(ix)
    assert grid >= ix.entry_count() == len(stored(ix)) == len(view)


# -- the walk's closure: the states a build builds --------------------------------

def copy_sources(ix, states):
    """``states`` closed under the copy rule: with each (variable, side or
    corner, level or level pair), the same side or corner and levels of the
    near child when a block along the split axis lies wholly inside it, and
    of the far child when a block lies wholly inside it at a multiple of
    the block size from its start, where that child stores the levels. In
    2D, sizes are taken on the split axis, the children in order from the
    corner, and a child stores a level pair when ``stores2`` says so."""
    g, one = ix.grammar, isinstance(ix, gridgram.AccessIndex1)
    top = levels_of(ix).top if one else None
    out, todo = set(), list(states)
    while todo:
        state = todo.pop()
        if state in out:
            continue
        out.add(state)
        i, where, *levels = state
        if one:
            near, far = g.rules[i][::-1] if where else g.rules[i]
            sizes, p, stores = g._lens, levels[0], lambda c: levels[0] <= top[c]
        else:
            horiz = isinstance(g.rules[i], Horiz)
            near, far = g.rules[i].children[::-1 if where & (2 if horiz else 1) else 1]
            sizes, p = (g._rows, levels[0]) if horiz else (g._cols, levels[1])
            stores = partial(stores2, ix, p_r=levels[0], p_c=levels[1])
        a, tp = sizes[near], ix.pows[p]
        for _, b, e in blocks(sizes[i], tp, ix.tau):
            if e <= a and stores(near):
                todo.append((near, where, *levels))
            elif a <= b and (b - a) % tp == 0 and stores(far):
                todo.append((far, where, *levels))
    return out


def closure1(ix):
    """The (variable, side, level) states access1 can enter from the start,
    each block's step taken from the plain walk (step1) and each state's
    every block followed."""
    g, levels = ix.grammar, levels_of(ix)
    top, cap = levels.top, levels.cap
    s = g.start
    todo = [(s, 0, top[s])] if top[s] == cap[s] else []
    walked = set(todo)
    while todo:
        i, side, p = todo.pop()
        for _, near, far in block_steps(ix, (i, side, p)):
            if far is None:
                continue
            for c, to in ((near, side ^ 1), (far, side)):
                q = p - 1
                if q > top[c]:
                    if top[c] < cap[c]:
                        continue            # the walk descends from c
                    q = top[c]
                if (c, to, q) not in walked:
                    walked.add((c, to, q))
                    todo.append((c, to, q))
    return walked


def closure2(ix):
    """``closure1`` in 2D, over (variable, corner, p_r, p_c): a row step
    lowers p_r, and a column step p_r where the new row delta, the block's
    shift inside the hook plus a row of the block, is at most tau**p_r and
    p_r > 0, and p_c where it is more or p_r is 0 (each of those a row of
    the block reaches is followed); each level is capped by the child's
    cap, and a pair the child does not store (``stores2``) ends the walk
    there."""
    g, T, levels = ix.grammar, ix.tau, levels_of(ix)
    rows, cols, cap_r, cap_c = g._rows, g._cols, levels.cap_r, levels.cap_c
    s = g.start
    todo = [(s, 0, cap_r[s], cap_c[s])] if stores2(ix, s, cap_r[s], cap_c[s]) else []
    walked = set(todo)
    while todo:
        i, corner, p_r, p_c = todo.pop()
        tpr, w = ix.pows[p_r], len(blocks(cols[i], ix.pows[p_c], T))
        for k, (axis, _, near, far, shift) in enumerate(block_steps(ix, (i, corner, p_r, p_c))):
            if far is None:
                continue
            if axis:
                levels, flip = [(p_r - 1, p_c)], corner ^ 2
            else:
                last = shift + min(rows[i] - k // w * tpr, tpr)     # the block's last row
                levels = [(p_r - 1, p_c)] * (p_r > 0 and shift + 1 <= tpr) + \
                    [(p_r, p_c - 1)] * (p_r == 0 or last > tpr)
                flip = corner ^ 1
            for c, to in ((near, flip), (far, corner)):
                for q_r, q_c in levels:
                    state = (c, to, min(q_r, cap_r[c]), min(q_c, cap_c[c]))
                    if stores2(ix, c, *state[2:]) and state not in walked:
                        walked.add(state)
                        todo.append(state)
    return walked


class Logged(list):
    """A list that calls ``log(k, item)`` on every read ``self[k]``."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, k):
        item = super().__getitem__(k)
        self.log(k, item)
        return item


def readers(ix, walk, queries):
    """{(*state, k): the queries whose walk reads slot k of that kept
    state (``kept``)}, in query order; ix's slot lists are left as they
    were."""
    saved, log, out = list(ix.states), set(), {}
    wrap_slots(ix, lambda slots, state: Logged(slots, lambda k, _: log.add(state + (k,))))
    for q in queries:
        log.clear()
        walk(ix, *q)
        for at in log:
            out.setdefault(at, []).append(q)
    ix.states[:] = saved
    return out


@settings(max_examples=60, deadline=None)
@given(g=grammars1(longest=70), tau=FINISH_TAUS)
def test_build1_builds_the_walks_closure(g, tau):
    """The index keeps exactly the states of the walk's closure, each with
    one slot per block (``check_index1``), not the copies they read; the
    fast walk answers every position, and every kept slot is one the build
    counts against its cap."""
    ix = build_index1(g, tau)
    check_index1(ix)
    assert set(kept(ix)) == closure1(ix) and ix.entry_count() <= ix.filled
    assert [access1(ix, i) for i in range(1, ix.n + 1)] == expand1(g)


def assert_state_machine1(ix):
    """The 1D index is exactly the walk's closure, read through its codes,
    and laid out as ``check_index1`` checks: each variable's top level is
    min(cap, ceil(height / FINISH) - 1, turns - 2), at least -1; every kept
    slot is the reference step (``reference_steps``); every kept state is
    reached from the first through the slots' codes; every code >= 0 names
    the state the walk enters in that child, one level down, capped by the
    child's top when that is its cap, the side flipped in the near child;
    every negative code is the finish code of a child whose level the walk
    does not store, with that side and the finish rule that descends from
    it; every other id holds one shared sentinel state
    (``assert_sentinel``). Returns (kept states, kept slots)."""
    check_index1(ix)
    levels = levels_of(ix)
    top, cap, mark = levels.top, levels.cap, levels.mark
    assert top == [max(-1, min(c, m - 1, b - 2))
                   for c, m, b in zip(cap, mark, turns_of(ix.grammar))]
    ref = reference_steps(ix)
    assert decoded(ix) == ref
    kept = assert_sentinel(ix)
    s = ix.grammar.start
    if top[s] < cap[s]:
        assert not kept and decode_finish1(ix.first) == (s, 0, cap[s] < mark[s])
    else:
        assert decode_key1(ix, ix.keys[ix.first]) == (s, 0, top[s])
    reached, todo = set(), [ix.first] if ix.first >= 0 else []
    while todo:
        j = todo.pop()
        if j in reached:
            continue
        reached.add(j)
        t, side, p = decode_key1(ix, ix.keys[j])
        q = p - 1
        for k, (_, near, far) in enumerate(ix.states[j][1]):
            _, x, y = ref[t, side, p, k]
            for code, c, to in ((near, x, side ^ 1), (far, y, side)) if far is not None else ():
                if code >= 0:
                    assert decode_key1(ix, ix.keys[code]) == (c, to, min(q, top[c]))
                    assert q <= top[c] or top[c] == cap[c]
                    todo.append(code)
                else:
                    assert q > top[c] and top[c] < cap[c]
                    assert decode_finish1(code) == (c, to, q < mark[c] or mark[c] > cap[c])
    assert reached == kept
    return len(kept), ix.entry_count()


def assert_sentinel(ix):
    """Every id that ``ids`` does not give holds one shared sentinel entry
    whose one slot steps back into a sentinel id without moving delta.
    Returns the kept ids."""
    kept = set(ix.ids.values())
    others = [j for j in range(len(ix.keys)) if j not in kept]
    assert len({id(ix.states[j]) for j in others}) <= 1
    if others:
        u, top = others[0], ix.pows[-1]
        assert ix.states[u] == ((top, [(0, u, u)]) if isinstance(ix, gridgram.AccessIndex1)
                                else (top, top, 1, [(1, 0, (u, u), (u, u), 0)]))
    return kept


@settings(max_examples=60, deadline=None)
@given(g=grammars1(), tau=st.integers(2, 9))
def test_index1_is_exactly_the_walks_closure(g, tau):
    assert_state_machine1(build_index1(g, tau))


def test_index1_keeps_the_walks_states_on_the_benchmark_shapes():
    """Pinned at tau 8: the kept states and slots of a 400-rule zigzag and
    of the benchmark's gen SLP (seed 7, 200 rules, 2**20 symbols)."""
    zig = zigzag1([random.Random(3).randrange(4) for _ in range(401)])
    assert len(zig.rules) == 404
    assert assert_state_machine1(build_index1(zig, 8)) == (64, 511)
    assert assert_state_machine1(build_index1(random_slp1(7, 200, 4, 2 ** 20), 8)) == (115, 805)


def assert_state_machine2(ix):
    """``assert_state_machine1`` in 2D: every kept slot is the reference
    step; every kept state is reached from the first through the slots'
    codes; each element of a real step's code pair is what the walk enters
    in that child, corner flipped on the split axis in the near child, when
    p_r drops or when p_c drops, each level capped by the child's cap, a
    finish code where the child does not store the pair (``stores2``): a
    row step, or a column step whose block's every row lands at most
    tau**p_r with p_r > 0, holds the p_r drop twice, one whose every row
    lands past it, or at p_r 0, the p_c drop twice, and any other column
    step both. Returns (kept states, kept slots)."""
    check_index2(ix)
    levels = levels_of(ix)
    cap_r, cap_c = levels.cap_r, levels.cap_c
    ref = reference_steps(ix)
    assert decoded(ix) == ref
    kept = assert_sentinel(ix)
    s = ix.grammar.start
    if stores2(ix, s, cap_r[s], cap_c[s]):
        assert decode_key2(ix, ix.keys[ix.first]) == (s, 0, cap_r[s], cap_c[s])
    else:
        plain = max(cap_r[s], cap_c[s]) >= mark2(ix.grammar, s)
        assert not kept and decode_finish2(ix.first) == (s, 0, not plain)
    reached, todo = set(), [ix.first] if ix.first >= 0 else []
    while todo:
        j = todo.pop()
        if j in reached:
            continue
        reached.add(j)
        t, corner, p_r, p_c = decode_key2(ix, ix.keys[j])
        tpr, _, w, slots = ix.states[j]
        for k, (axis, _, near, far, shift) in enumerate(slots):
            if far is None:
                continue
            x, y = ref[t, corner, p_r, p_c, k][2:4]
            rows = min(ix.rows[t] - k // w * tpr, tpr)          # the block's rows
            down_r = (p_r - 1, p_c) if p_r and (axis or shift + 1 <= tpr) else None
            down_c = (p_r, p_c - 1) if not axis and (p_r == 0 or shift + rows > tpr) else None
            for pair, c, to in ((near, x, corner ^ (2 if axis else 1)), (far, y, corner)):
                for code, (q_r, q_c) in zip(pair, (down_r or down_c, down_c or down_r)):
                    q_r, q_c = min(q_r, cap_r[c]), min(q_c, cap_c[c])
                    if stores2(ix, c, q_r, q_c):
                        assert code >= 0 and decode_key2(ix, ix.keys[code]) == (c, to, q_r, q_c)
                        todo.append(code)
                    else:
                        assert code < 0 and decode_finish2(code) == \
                            (c, to, max(q_r, q_c) < mark2(ix.grammar, c))
    assert reached == kept
    return len(kept), ix.entry_count()


@settings(max_examples=60, deadline=None)
@given(g=grammars2(), tau=st.integers(2, 9))
def test_index2_is_exactly_the_walks_closure(g, tau):
    assert_state_machine2(build_index2(g, tau))


def test_index2_keeps_the_walks_states_on_the_benchmark_shapes():
    """Pinned: the kept states and slots of the 200-step zigzag at tau 8
    and of the benchmark's gen SLP (seed 7, 200 rules, 480 x 2136) at tau
    16, where its walk reads."""
    zig = zigzag2([random.Random(3).randrange(4) for _ in range(203)], 200)
    assert assert_state_machine2(build_index2(zig, 8)) == (674, 14_178)
    assert assert_state_machine2(build_index2(random_slp2(7, 200, 4, 2 ** 20), 16)) == \
        (89, 11_636)


# about one 2D draw in five is deep enough for its walk to read a table
@settings(max_examples=100, deadline=None)
@given(g=grammars2(longest=70), tau=FINISH_TAUS)
def test_build2_builds_the_walks_closure(g, tau):
    """The 2D case: the index keeps exactly the closure's states, each with
    one slot per block, and the fast walk answers every cell; every kept
    slot is one the build counts against its cap."""
    ix = build_index2(g, tau)
    check_index2(ix)
    assert set(kept(ix)) == closure2(ix) and ix.entry_count() <= ix.filled
    m = expand2(g)
    assert all(access2(ix, i, j) == m.get(i, j)
               for i in range(1, m.rows + 1) for j in range(1, m.cols + 1))


def stored(ix):
    """Every slot an index keeps, as stored."""
    return [v for slots in kept(ix).values() for v in slots]


def distinct_objects_are_distinct_values(steps):
    return len({id(v) for v in steps}) == len(set(steps))


@settings(max_examples=40, deadline=None)
@given(g=grammars1(), tau=TAUS1)
def test_build1_stores_each_distinct_step_once(g, tau):
    assert distinct_objects_are_distinct_values(stored(build_index1(g, tau)))


@settings(max_examples=30, deadline=None)
@given(g=grammars2(), tau=TAUS)
def test_build2_stores_each_distinct_step_once(g, tau):
    assert distinct_objects_are_distinct_values(stored(build_index2(g, tau)))


def test_descents_refuse_arguments_out_of_contract():
    ix1 = build_index1(validate_slp1(Slp1([(1, 2), 0, 1], 2, 0)), 2)
    assert descend1(ix1, 0, 2, 0) == 1 == descend1(ix1, 0, 1, 1)
    for t, delta, side in ((3, 1, 0), (-1, 1, 0), (0, 0, 0), (0, 3, 0), (0, 1, 2)):
        with pytest.raises(PreconditionViolated):
            descend1(ix1, t, delta, side)
    ix2 = build_index2(validate_slp2(Slp2([Vert(1, 2), 0, 1], 2, 0)), 2)
    assert descend2(ix2, 0, 1, 2, 0) == 1 == descend2(ix2, 0, 1, 1, 1)
    for args in ((3, 1, 1, 0), (-1, 1, 1, 0), (0, 2, 1, 0), (0, 1, 3, 0), (0, 1, 0, 0),
                 (0, 1, 1, 4)):
        with pytest.raises(PreconditionViolated):
            descend2(ix2, *args)


def test_builds_refuse_a_float_tau_or_cap():
    g1, g2 = random_slp1(7, 30), random_slp2(7, 30)
    # longer than every tau below, so the clamp keeps the float
    assert g1._lens[g1.start] > 4 and max(g2._rows[g2.start], g2._cols[g2.start]) > 4
    for call, g in ((build_index1, g1), (build_index2, g2)):
        for tau in (2.0, 3.5):
            with pytest.raises(PreconditionViolated):
                call(g, tau)
        for cap in (1e9, None, "1000"):
            with pytest.raises(gridgram.errors.RangeError, match="cap must be an int"):
                call(g, 2, cap)


def test_builds_refuse_fast_past_the_cap():
    """A build counts the slots of each state as it plans it, before any
    descent or copy for it, so one past the cap is refused before it
    allocates much. Under DEFAULT_CAP: the k = 40 Fibonacci SLP at tau
    2**27, whose level-0 states hold up to 2**27 blocks each, and a 2D
    doubling grammar, 2**18 x 2**18, at tau 2**18, whose states at the
    level pair (0, 0) hold 2**36 blocks each. The gen corpus's 2D text at
    tau 2136 fills 4,004,224 slots, under DEFAULT_CAP, so it is given a cap
    below the second state it plans, 480 x 1944 slots at the level pair
    (0, 0)."""
    fib = validate_slp1(Slp1([0, 1] + [(i - 1, i - 2) for i in range(2, 41)], 2, 40))
    assert len(fib.rules) == 41 and fib._lens[fib.start] == 165_580_141
    square = doubling2(36)
    gen2 = random_slp2(7, 200, 4, 2**20)
    for build, g, tau, cap in ((build_index1, fib, 2**27, DEFAULT_CAP),
                               (build_index2, square, 2**18, DEFAULT_CAP),
                               (build_index2, gen2, 2136, 2**19)):
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(ExpansionTooLarge) as exc:
                build(g, tau, cap)
            took = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (f"an index at tau {tau} needs more table slots than the "
                                  f"expansion cap of {cap}")
        assert took < 1.0 and peak < 1 << 20


@pytest.mark.parametrize("tau", [8, 16])
def test_a_cap_of_the_slots_a_build_makes_is_exact(tau):
    """Capped at the slots the uncapped build fills, its ``filled`` count,
    a build gives an index equal to the uncapped one, field for field; one
    slot less refuses. The gen corpus's 2D text at
    tau 8 builds nothing, so its cap is 0 and -1 refuses."""
    rng = random.Random(1)
    zig1 = zigzag1([rng.randrange(4) for _ in range(1997)])
    zig2 = zigzag2([rng.randrange(4) for _ in range(203)], 200)
    gen1, gen2 = random_slp1(7, 200, 4, 2 ** 20), random_slp2(7, 200, 4, 2 ** 20)
    made = {}
    for name, build, g in (("zigzag1", build_index1, zig1), ("zigzag2", build_index2, zig2),
                           ("gen1", build_index1, gen1), ("gen2", build_index2, gen2)):
        ix = build(g, tau)
        made[name] = slots = ix.filled
        capped = build(g, tau, slots)
        assert all(getattr(capped, f) == getattr(ix, f) for f in type(ix).__slots__)
        with pytest.raises(ExpansionTooLarge, match=f"expansion cap of {slots - 1}$"):
            build(g, tau, slots - 1)
    # both fill their copy-only sources too: zigzag1 keeps 2,340 of its
    # 32,382 slots at tau 8, and 2,184 of 63,810 at tau 16; zigzag2 14,178
    # of 46,901 and 10,720 of 116,234
    assert made == {8: {"zigzag1": 32_382, "zigzag2": 46_901, "gen1": 1_417, "gen2": 0},
                    16: {"zigzag1": 63_810, "zigzag2": 116_234, "gen1": 2_418,
                         "gen2": 15_700}}[tau]


@settings(max_examples=60, deadline=None)
@given(g=grammars1(), tau=TAUS1)
def test_access1_matches_expansion(g, tau):
    ix = build_index1(g, tau)
    for i, want in enumerate(expand1(g), start=1):
        assert access1(ix, i) == want
        assert access1_traced(ix, i) == (want, ix.levels + 1)


@settings(max_examples=40, deadline=None)
@given(g=grammars2(), tau=TAUS)
def test_access2_matches_expansion(g, tau):
    ix = build_index2(g, tau)
    m = expand2(g)
    for i in range(1, m.rows + 1):
        for j in range(1, m.cols + 1):
            assert access2(ix, i, j) == m.get(i, j)
            assert access2_traced(ix, i, j)[0] == m.get(i, j)


@settings(max_examples=60, deadline=None)
@given(g=grammars1(), tau=TAUS1, data=st.data())
def test_access1_matches_descent(g, tau, data):
    ix = build_index1(g, tau)
    n = ix.n
    for i in data.draw(st.lists(st.integers(1, n), min_size=1, max_size=40)):
        assert access1(ix, i) == descend1(ix, g.start, i, 0) == descend1(ix, g.start, n + 1 - i, 1)


@settings(max_examples=40, deadline=None)
@given(g=grammars2(), tau=TAUS, data=st.data())
def test_access2_matches_descent(g, tau, data):
    ix = build_index2(g, tau)
    r, c = ix.n_rows, ix.n_cols
    cells = st.tuples(st.integers(1, r), st.integers(1, c))
    for i, j in data.draw(st.lists(cells, min_size=1, max_size=40)):
        assert access2(ix, i, j) == descend2(ix, g.start, i, j, 0) == \
            descend2(ix, g.start, i, c + 1 - j, 1) == descend2(ix, g.start, r + 1 - i, j, 2) == \
            descend2(ix, g.start, r + 1 - i, c + 1 - j, 3)


# -- chains: the heavy paths a turn-rule finish runs along ---------------------

def chains_of(g, keys, side):
    """The ``_chains`` of g's forest on ``side``, keyed by ``keys``."""
    return _chains(g._moves, g._topo, _heavy(g._moves, g._topo, side), keys, side)


def assert_chains(g, side, chains, keys):
    """Every node sits once on one heavy path of the forest v -> kids[v][side],
    stored root end first and contiguous, with its keys never decreasing
    along the path; ``down`` links each root end to the node below it, and
    a chain from any node crosses at most floor(log2 |V|) + 1 paths."""
    kids = g._kids
    order, at, top, down, *flat = chains
    n = len(kids)
    assert sorted(order) == list(range(n))
    assert all(at[v] == j for j, v in enumerate(order))
    assert [list(key) for key in flat] == [[key[v] for v in order] for key in keys]
    for j, v in enumerate(order):
        if j == top[j]:
            below = -1 if kids[v] is None else at[kids[v][side]]
            assert down[j] == below
        else:
            assert top[j] == top[j - 1] and kids[v][side] == order[j - 1]
            assert all(key[j - 1] <= key[j] for key in flat)
    bound = n.bit_length()          # floor(log2 n) + 1
    for v in range(n):
        i, paths = at[v], 1
        while down[top[i]] >= 0:
            i, paths = down[top[i]], paths + 1
        assert paths <= bound


def test_chains_pick_the_larger_subtree_as_heavy():
    """A caterpillar: s_i -> s_{i+1} t_i and t_i -> s_{i+1} a, so s_{i+1} is
    the left child of both s_i and the twig t_i. Only the choice by subtree
    size keeps the spine on one path; any other crosses a path per level."""
    k = 20
    s_, t_, a = range(k), range(k, 2 * k - 1), 2 * k - 1      # s_{k-1} is a literal
    rules = [(s_[i + 1], t_[i]) for i in range(k - 1)] + [0] + \
        [(s_[i + 1], a) for i in range(k - 1)] + [1]
    g = validate_slp1(Slp1(rules, 2, 0))
    chains = chains_of(g, (g._lens,), 0)
    assert_chains(g, 0, chains, (g._lens,))
    order, at, top, down, lens = chains
    assert top[at[0]] == top[at[k - 1]]         # the whole spine is one path


def window(data, m):
    """A window (b, e] of a length-m axis, often narrow so descents go deep."""
    b = data.draw(st.integers(0, m - 1))
    return b, b + data.draw(st.integers(1, min(4, m - b)) | st.integers(1, m - b))


def plain_hook1(g, t, b, e):
    """The hook and offset of (b..e] of Exp(t), walked over the rules and
    lengths, one child per level, without the grammar's move records."""
    while not isinstance(rule := g.rules[t], int):
        x, y = rule
        l = g._lens[x]
        if e <= l:
            t = x
        elif l <= b:
            t, b, e = y, b - l, e - l
        else:
            break
    return t, b


def plain_hook2(g, t, b_r, b_c, e_r, e_c):
    """The 2D ``plain_hook1``: a Horiz rule splits the rows, a Vert rule the
    columns."""
    while not isinstance(rule := g.rules[t], int):
        x, y = rule.children
        if isinstance(rule, Horiz):
            l = g._rows[x]
            if e_r <= l:
                t = x
            elif l <= b_r:
                t, b_r, e_r = y, b_r - l, e_r - l
            else:
                break
        else:
            l = g._cols[x]
            if e_c <= l:
                t = x
            elif l <= b_c:
                t, b_c, e_c = y, b_c - l, e_c - l
            else:
                break
    return t, b_r, b_c


@settings(max_examples=40, deadline=None)
@given(g=grammars1(), data=st.data())
def test_hook_core_runs_like_the_plain_walk(g, data):
    """The build's descent lands where the plain walk over the rules does,
    and the window there is the one it started from; the chains a
    turn-rule finish runs along keep their layout on both sides."""
    lens = g._lens
    for side in (0, 1):
        assert_chains(g, side, chains_of(g, (lens,), side), (lens,))
    exp = expand_all_1d(g)
    for _ in range(16):
        t = data.draw(st.integers(0, len(g.rules) - 1))
        b, e = window(data, lens[t])
        h, off = _hook_core(g._moves, t, b, e, None)
        assert (h, off) == plain_hook1(g, t, b, e)
        assert exp[h][off:off + e - b] == exp[t][b:e]
        for side in (0, 1):
            assert _hook_core(g._moves, t, b, e, side) == step1(g, t, side, b, e)


@settings(max_examples=40, deadline=None)
@given(g=grammars2(), data=st.data())
def test_hook_core2_runs_like_the_plain_walk(g, data):
    rows, cols = g._rows, g._cols
    for side in (0, 1):
        assert_chains(g, side, chains_of(g, (rows, cols), side), (rows, cols))
    exp = expand_all_2d(g)

    def cells(m, b_r, b_c, h, w):
        return [m.cells[(b_r + i) * m.cols + b_c + j] for i in range(h) for j in range(w)]

    for _ in range(16):
        t = data.draw(st.integers(0, len(g.rules) - 1))
        (b_r, e_r), (b_c, e_c) = window(data, rows[t]), window(data, cols[t])
        args = (g._moves, rows, cols, t, b_r, b_c, e_r, e_c)
        h, a_r, a_c = _hook_core2(*args, None)
        assert (h, a_r, a_c) == plain_hook2(g, t, b_r, b_c, e_r, e_c)
        assert cells(exp[h], a_r, a_c, e_r - b_r, e_c - b_c) == \
            cells(exp[t], b_r, b_c, e_r - b_r, e_c - b_c)
        for corner in range(4):
            assert _hook_core2(*args, corner) == step2(g, t, corner, b_r, b_c, e_r, e_c)


def deep_shapes():
    """The comb-deep workload's 2000-variable right comb and 100-step
    staircase, as the benchmark builds them, and the zigzags of the same
    sizes."""
    rng = random.Random(1)
    comb = comb1([rng.randrange(4) for _ in range(1997)], right=True)
    stair = staircase2([rng.randrange(4) for _ in range(202)], 100)
    rng = random.Random(1)
    return comb, stair, zigzag1([rng.randrange(4) for _ in range(1997)]), \
        zigzag2([rng.randrange(4) for _ in range(203)], 200)


def test_chains_are_laid_out_only_where_a_kept_code_finishes_by_runs():
    """A build lays out the chains after its walk, and only where ``first``
    or a kept slot's code finishes by the turn rule: comb-deep's comb and
    staircase at tau 8, whose starts do so at once, keep them; the gen
    corpus at tau 2 in 1D and 16 and 32 in 2D, and the zigzags at tau 8 and
    16 in 1D and 16 and 32 in 2D, keep none, and each still answers as its
    expansion on 500 random cells."""
    comb, stair, zig1, zig2 = deep_shapes()
    gen1, gen2 = random_slp1(7, 200, 4, 2 ** 20), random_slp2(7, 200, 4, 2 ** 20)
    rng = random.Random(4)
    for g, taus, chained in ((comb, (8,), True), (stair, (8,), True), (gen1, (2,), False),
                             (zig1, (8, 16), False), (zig2, (16, 32), False),
                             (gen2, (16, 32), False)):
        one = isinstance(g, Slg1)
        for tau in taus:
            ix = (build_index1 if one else build_index2)(g, tau)
            (check_index1 if one else check_index2)(ix)
            assert (ix.chains is not None) == chained
            if one:
                text = expand1(g)
                assert all(access1(ix, i) == text[i - 1]
                           for i in (rng.randint(1, ix.n) for _ in range(500)))
            else:
                m = expand2(g)
                assert all(access2(ix, i, j) == m.get(i, j) for i, j in (
                    (rng.randint(1, ix.n_rows), rng.randint(1, ix.n_cols)) for _ in range(500)))


# -- child copies: the blocks a build takes from a child instead of descending --

def uncovered1(ix, far_copies=True, built=False):
    """Per block that no child copy covers, its variable, side and window
    from the left, once. A block is copied when it lies wholly inside the
    near child, at the side, and that child stores the level, or wholly
    inside the far child at a multiple of the block size from the far
    child's start, and that child stores the level; without far_copies
    only the first. Over every state a variable stores, or with built only
    over the states ix built: those it keeps and the states their copies
    read (``copy_sources``)."""
    g, T, top = ix.grammar, ix.tau, levels_of(ix).top
    states = copy_sources(ix, kept(ix)) if built else None
    want = Counter()
    for i in reachable(g):
        rule = g.rules[i]
        if isinstance(rule, int):
            continue
        m = g._lens[i]
        for side in (0, 1):
            near, far = rule[::-1] if side else rule
            a = g._lens[near]
            for p in range(top[i] + 1):
                if built and (i, side, p) not in states:
                    continue
                tp = ix.pows[p]
                for _, b, e in blocks(m, tp, T):
                    if e <= a and p <= top[near] or far_copies and a <= b \
                            and (b - a) % tp == 0 and p <= top[far]:
                        continue
                    want[(i, side) + ((m - e, m - b) if side else (b, e))] += 1
    return want


def uncovered2(ix, far_copies=True, built=False):
    """``uncovered1`` in 2D: per block and corner, the near and far children
    are the split's children in order from the corner, sizes are taken on
    the split axis, and a child stores a level pair when each level is at
    most min(cap, mark - 1) on its axis and their sum plus one is below
    its turn bound (``stores2``). The window is from the NW; with built,
    over the states ix built: those it keeps and the states their copies
    read (``copy_sources``)."""
    g, T = ix.grammar, ix.tau
    rows, cols = g._rows, g._cols
    states = copy_sources(ix, kept(ix)) if built else None
    want = Counter()
    for i in reachable(g):
        rule = g.rules[i]
        if isinstance(rule, int):
            continue
        horiz = isinstance(rule, Horiz)
        m_r, m_c = rows[i], cols[i]
        for corner in range(4):
            near, far = rule.children[::-1] if corner & (2 if horiz else 1) else rule.children
            a = rows[near] if horiz else cols[near]
            for p_r, p_c in product(range(ix.levels + 1), repeat=2):
                if not stores2(ix, i, p_r, p_c) or built and (i, corner, p_r, p_c) not in states:
                    continue
                tp = ix.pows[p_r if horiz else p_c]
                stores = [stores2(ix, c, p_r, p_c) for c in (near, far)]
                for (_, b_r, e_r), (_, b_c, e_c) in product(blocks(m_r, ix.pows[p_r], T),
                                                            blocks(m_c, ix.pows[p_c], T)):
                    b, e = (b_r, e_r) if horiz else (b_c, e_c)    # from the corner
                    if e <= a and stores[0] or far_copies and a <= b \
                            and (b - a) % tp == 0 and stores[1]:
                        continue
                    rb, re = (m_r - e_r, m_r - b_r) if corner & 2 else (b_r, e_r)
                    cb, ce = (m_c - e_c, m_c - b_c) if corner & 1 else (b_c, e_c)
                    want[i, corner, rb, cb, re, ce] += 1
    return want


@contextmanager
def descents():
    """Counts every build descent made inside by its variable, side or
    corner and window, from the left or the NW."""
    log = Counter()
    core1, core2 = access1d._hook_core, access2d._hook_core2

    def one(moves, node, b, e, side):
        log[node, side, b, e] += 1
        return core1(moves, node, b, e, side)

    def two(moves, rows, cols, node, b_r, b_c, e_r, e_c, corner):
        log[node, corner, b_r, b_c, e_r, e_c] += 1
        return core2(moves, rows, cols, node, b_r, b_c, e_r, e_c, corner)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(access1d, "_hook_core", one)
        mp.setattr(access2d, "_hook_core2", two)
        yield log


@contextmanager
def copy_rule(rule):
    """Builds made inside copy the blocks ``rule`` gives, not ``_copied``'s."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(access1d, "_copied", rule)
        mp.setattr(access2d, "_copied", rule)
        yield


def no_copies(a, tp, blocks, near, far):
    return 0, blocks


def near_copies(a, tp, blocks, near, far):
    return _copied(a, tp, blocks, near, False)


def assert_descents(log, ix, uncovered):
    """The build descended once for each block of a state it built that no
    child copy covers, and for no other: a subset of the blocks the copy
    rule leaves to descent over every state a variable stores."""
    assert log == uncovered(ix, built=True)
    assert all(n == 1 for n in log.values()) and log.keys() <= uncovered(ix).keys()


@settings(max_examples=40, deadline=None)
@given(g=grammars1(), tau=FINISH_TAUS)
def test_build1_descends_once_per_block_no_child_holds(g, tau):
    with descents() as log:
        ix = build_index1(g, tau)
    assert_descents(log, ix, uncovered1)


@settings(max_examples=30, deadline=None)
@given(g=grammars2(), tau=FINISH_TAUS)
def test_build2_descends_once_per_block_no_child_holds(g, tau):
    with descents() as log:
        ix = build_index2(g, tau)
    assert_descents(log, ix, uncovered2)


def test_build_work_on_the_benchmark_shapes():
    """The descents and the slots kept of comb-deep's
    two shapes at tau 8, the 2,000-rule right comb and the 100-step
    staircase, and of deep shapes that keep their tables, pinned: a build that does more work than
    these fails here, not only in the benchmark's build time. The comb and
    the staircase turn at most twice on a point path, so their starts
    finish by the turn rule and nothing is built. The zigzags of the same
    sizes turn at every move, so their turn bounds cut only the levels of
    their pairs of literals; the doublings' every split is aligned, so
    most of their blocks are copied."""
    comb, stair, zig1, zig2 = deep_shapes()
    for build, g, tau, uncovered, work in (
            (build_index1, comb, 8, uncovered1, (0, 0)),
            (build_index2, stair, 8, uncovered2, (0, 0)),
            (build_index1, zig1, 8, uncovered1, (2_291, 2_340)),
            (build_index2, zig2, 8, uncovered2, (6_036, 14_178)),
            (build_index1, doubling1(20), 16, uncovered1, (25, 81)),
            (build_index2, doubling2(14), 16, uncovered2, (48, 320))):
        with descents() as log:
            ix = build(g, tau)
        assert (sum(log.values()), ix.entry_count()) == work
        assert_descents(log, ix, uncovered)


def doubling1(k):
    """X_k -> X_{k-1} X_{k-1}, down to X_1 -> a b: 2**k symbols, and every
    split at a power of two."""
    rules = [(j + 1, j + 1) for j in range(k - 1)] + [(k, k + 1), 0, 1]
    return validate_slp1(Slp1(rules, 2, 0))


def doubling2(k):
    """Z_k -> two copies of Z_{k-1}, side by side when k is even and one
    above the other when it is odd, down to Z_1 -> a above b: every split
    at a power of two on its axis."""
    rules = [(Vert if (k - j) % 2 == 0 else Horiz)(j + 1, j + 1) for j in range(k - 1)]
    return validate_slp2(Slp2(rules + [Horiz(k, k + 1), 0, 1], 2, 0))


@pytest.mark.parametrize("tau", [2, 4, 8, 16])
def test_aligned_splits_copy_the_far_childs_blocks(tau):
    """On grammars whose every split is aligned, builds with the copy rule,
    with near copies only and with no copies all build the walk's closure
    and hold each block's plain step (``check_index1``/``check_index2``), so
    agree on every slot two of them hold; each descends exactly for
    the blocks of its built states that its rule does not copy, and the far
    child's copies take over descents wherever the walk reads: at tau 8
    and 16 in 1D, and at 16 on the 128 x 128 2D doubling. Below those the
    start is low enough for its caps (the finish rule), so no walk reads a
    table and nothing is built."""
    for build, check, g, uncovered, closure, reads in (
            (build_index1, check_index1, doubling1(20), uncovered1, closure1, tau >= 8),
            (build_index2, check_index2, doubling2(14), uncovered2, closure2, tau >= 16)):
        with descents() as log:
            ix = build(g, tau)
        with copy_rule(near_copies), descents() as near_log:
            near = build(g, tau)
        with copy_rule(no_copies), descents() as every:
            plain = build(g, tau)
        for index in (ix, near, plain):
            check(index)
        walked = closure(ix)
        assert set(kept(plain)) == walked and walked <= set(kept(near)) & set(kept(ix))
        assert every == Counter(every.keys()) and sum(every.values()) == plain.entry_count()
        assert log == uncovered(ix, built=True)
        assert near_log == uncovered(near, far_copies=False, built=True)
        far_copied = sum(near_log.values()) - sum(log.values())
        assert (far_copied > 0) == (ix.entry_count() > 0) == reads


def short_far1():
    """A 16-symbol zigzag comb followed by a 12-symbol one, of height 11:
    each turns at every level, so its turn bound does not cut its levels."""
    rules = [0, 1]

    def comb(k):
        rules.append((0, 1))
        for j in range(k - 2):
            v = len(rules) - 1
            rules.append((v, j % 2) if j % 2 else (j % 2, v))
        return len(rules) - 1

    rules.append((comb(16), comb(12)))
    return validate_slp1(Slp1(rules, 2, len(rules) - 1))


def short_far2():
    """An 8 x 100 zigzag column comb above a 3 x 100 one, of height 101."""
    rules = [0, 1, Horiz(0, 1)]
    for rule in (Horiz(2, 2), Horiz(3, 3), Horiz(0, 2)):   # 4 x 1, 8 x 1, 3 x 1
        rules.append(rule)

    def comb(column, k):
        v = column
        for j in range(k - 1):
            rules.append(Vert(v, column) if j % 2 else Vert(column, v))
            v = len(rules) - 1
        return v

    rules.append(Horiz(comb(4, 100), comb(5, 100)))
    return validate_slp2(Slp2(rules, 2, len(rules) - 1))


def test_a_far_child_shorter_than_the_block_is_descended():
    """Each start splits at a multiple of its top block size, 16 symbols or
    8 rows, into a far child shorter than that block but tall enough that
    the finish rule alone would store the level: the far child has no such
    level, so the block it holds, read by the walk's first state, is found
    by descent."""
    g = short_far1()
    s, (x, y) = g.start, g.rules[g.start]
    with descents() as log:
        ix = build_index1(g, 2)
    levels = levels_of(ix)
    p = levels.top[s]
    assert p == levels.cap[s] and g._lens[x] % 2 ** p == 0
    assert levels.cap[y] < p < -(-g._height[y] // FINISH)
    with copy_rule(no_copies):
        assert decoded(build_index1(g, 2)) == decoded(ix)
    assert_descents(log, ix, uncovered1)
    assert (s, 0, g._lens[x], g._lens[s]) in log     # block 1 of level p, from the left

    g = short_far2()
    s, (x, y) = g.start, g.rules[g.start].children
    with descents() as log:
        ix = build_index2(g, 2)
    cap_r = levels_of(ix).cap_r
    p_r = min(cap_r[s], mark2(g, s) - 1)
    assert ix.first == 0 and decode_key2(ix, ix.keys[0])[2] == p_r and g._rows[x] % 2 ** p_r == 0
    assert cap_r[y] < p_r < mark2(g, y)
    with copy_rule(no_copies):
        assert decoded(build_index2(g, 2)) == decoded(ix)
    assert_descents(log, ix, uncovered2)
    assert any(v == s and (b_r, e_r) == (8, 11) for v, _, b_r, _, e_r, _ in log)


# -- validated input -------------------------------------------------------------

def test_builds_keep_a_validated_grammars_arrays():
    """A build checks a validated grammar's arity instead of validating it
    again, so the walk arrays it holds stay the grammar's own lists."""
    for g, build in ((random_slp1(5, 40, 3, 4096), build_index1),
                     (random_slp2(5, 40, 3, 4096), build_index2)):
        kids, topo, moves = g._kids, g._topo, g._moves
        ix = build(g, 2)
        assert g._kids is kids and g._topo is topo and g._moves is moves and ix.moves is moves


@pytest.mark.parametrize("build, g", [
    (build_index1, lambda: validate_slg1(Slg1([(1, 2, 3), 0, 1, 2], 3, 0))),
    (build_index2, lambda: validate_slg2(Slg2([Horiz(1, 2, 3), 0, 1, 2], 3, 0))),
], ids=["1d", "2d"])
def test_builds_refuse_a_validated_grammar_that_is_no_slp(build, g):
    with pytest.raises(NotAnSlp, match="rule 0 has arity 3, build_index"):
        build(g(), 2)


# -- move records and where the walks finish -----------------------------------

@settings(max_examples=40, deadline=None)
@given(g=grammars1() | grammars2(), tau=TAUS, data=st.data())
def test_move_records_drive_every_walk(g, tau, data):
    """One record per variable, equal to the grammar's own arrays; every
    walk that reads the records answers as the expansion. (The top levels
    and first codes the finish rules give are checked with the kept
    states, over grammars drawn the same way: ``assert_state_machine1/2``.)"""
    one = isinstance(g, Slg1)
    for v, (kid, move) in enumerate(zip(g._kids, g._moves, strict=True)):
        if kid is None:
            assert move is None
        elif one:
            assert move == (*kid, g._lens[kid[0]])
        else:
            horiz = isinstance(g.rules[v], Horiz)
            split = g._rows[kid[0]] if horiz else g._cols[kid[0]]
            assert move == (*kid, split, horiz)
    exp = expand_all_1d(g) if one else expand_all_2d(g)
    start = g.start
    if one:
        ix = build_index1(g, tau)
        assert ix.moves is g._moves
        n = g._lens[start]
        for i in data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6)):
            assert access1(ix, i) == descend1(ix, start, n + 1 - i, 1) == exp[start][i - 1]
        for _ in range(6):
            t = data.draw(st.integers(0, len(g.rules) - 1))
            m = g._lens[t]
            d, side = data.draw(st.integers(1, m)), data.draw(st.integers(0, 1))
            assert descend1(ix, t, d, side) == exp[t][m - d if side else d - 1]
            b, e = window(data, m)
            hook, off = hook_offset1(g, t, b, e)
            assert exp[hook][off:off + e - b] == exp[t][b:e]
        return
    ix = build_index2(g, tau)
    assert ix.moves is g._moves
    r0, c0 = g._rows[start], g._cols[start]
    for _ in range(6):
        i, j = data.draw(st.integers(1, r0)), data.draw(st.integers(1, c0))
        assert access2(ix, i, j) == descend2(ix, start, r0 + 1 - i, c0 + 1 - j, 3) == \
            exp[start].get(i, j)
        t = data.draw(st.integers(0, len(g.rules) - 1))
        m_r, m_c = g._rows[t], g._cols[t]
        d_r, d_c = data.draw(st.integers(1, m_r)), data.draw(st.integers(1, m_c))
        corner = data.draw(st.integers(0, 3))
        assert descend2(ix, t, d_r, d_c, corner) == exp[t].get(
            m_r + 1 - d_r if corner & 2 else d_r, m_c + 1 - d_c if corner & 1 else d_c)
        (b_r, e_r), (b_c, e_c) = window(data, m_r), window(data, m_c)
        hook, off_r, off_c = hook_offset2(g, t, b_r, b_c, e_r, e_c)
        assert submatrix(exp[hook], off_r, off_r + e_r - b_r, off_c, off_c + e_c - b_c) == \
            submatrix(exp[t], b_r, e_r, b_c, e_c)


@settings(max_examples=30, deadline=None)
@given(one=st.booleans(), seed=st.integers(0, 2 ** 32), rules=st.integers(1, 20))
def test_a_validated_slg_that_is_no_slp_is_refused_before_any_walk(one, seed, rules):
    """hook_offset* and build_index* refuse a validated grammar with a rule
    of arity other than 2 from its arity check, whatever the window: even a
    window of a literal, which no walk would take through that rule."""
    g = random_slg1(seed, rules, sigma=3) if one else random_slg2(seed, rules, sigma=3)
    assume(not g.is_binary)
    literal = next(v for v, rule in enumerate(g.rules) if isinstance(rule, int))
    hook, build = (hook_offset1, build_index1) if one else (hook_offset2, build_index2)
    for nid in (g.start, literal):
        with pytest.raises(NotAnSlp, match="requires 2"):
            hook(g, nid, 0, 1) if one else hook(g, nid, 0, 0, 1, 1)
    with pytest.raises(NotAnSlp, match="requires 2"):
        build(g, 2)
    assert g._moves is None


# -- traced walks against the descent -------------------------------------------

def swapped(step, far):
    """The step with its near and far children exchanged; ``far`` indexes
    the far child in the step tuple."""
    out = list(step)
    out[far - 1], out[far] = step[far], step[far - 1]
    return tuple(out)


def test_access1_traced_never_answers_wrong_on_a_swapped_step():
    """A step whose near and far children are exchanged still straddles its
    block, so the straddle check passes it; a delta outside the child's
    blocks or the comparison with the descent catches it: every position
    either answers right or raises."""
    g = random_slp1(0, 40, 3, 4096)
    ix = build_index1(g, 2)
    slots = ix.states[0][1]         # the first state: the start's left side at its cap, 11
    assert levels_of(ix).cap[g.start] == 11 and decode(ix, ix.keys[0]) == (g.start, 0, 11)
    assert decoded(ix)[g.start, 0, 11, 0] == (613, 11, 1) and slots[0][0] == 613
    slots[0] = swapped(slots[0], 2)
    raised = 0
    for i, want in enumerate(expand1(g), start=1):
        try:
            assert access1_traced(ix, i) == (want, ix.levels + 1)
        except PreconditionViolated:
            raised += 1
    assert raised > 1153            # 644 of them at the comparison with the descent


def test_access2_traced_never_answers_wrong_on_a_swapped_step():
    """The 2D case, on an 80-step zigzag, 41 x 41, deep enough at tau 2 that
    the start's own steps are read (its turn bound 80 is more than the 11
    reads left at its caps (5, 5)): the swapped one sends 52 of the 1681
    cells to a wrong code through every per-step check."""
    rng = random.Random(0)
    g = zigzag2([rng.randrange(4) for _ in range(83)], 80)
    ix = build_index2(g, 2)
    t = g.start
    # the first state: the start's NW corner at its caps (5, 5); its block (0, 0)
    slots = ix.states[0][3]
    assert decode(ix, ix.keys[0]) == (t, 0, 5, 5) and turns_of(g)[t] == 80
    assert decoded(ix)[t, 0, 5, 5, 0] == (0, 1, 161, 160, 0)
    slots[0] = swapped(slots[0], 3)
    m = expand2(g)
    raised = wrong = 0
    for i in range(1, m.rows + 1):
        for j in range(1, m.cols + 1):
            try:
                assert access2_traced(ix, i, j)[0] == m.get(i, j)
            except PreconditionViolated as e:
                raised += 1
                wrong += "descent reaches" in str(e)
    assert raised > 960 and wrong == 52     # the 52 wrong answers raise too


def answers_right_or_refuses(traced, ix, query, want):
    """Whether the traced walk to ``query`` answers ``want`` or raises
    PreconditionViolated."""
    try:
        return traced(ix, *query)[0] == want
    except PreconditionViolated:
        return True


def test_swapped_steps_are_refused_where_the_fast_walks_raise():
    """A real step with its near and far codes swapped still straddles its
    block, and can send the fast walk past the blocks of the state it
    enters, a bare IndexError: check_index1/2 refuses every such swap, and
    the traced walk never answers wrong on one. On the 40-rule gen SLP
    (seed 5, sigma 3, 200 symbols) at tau 2, block 0 of the state (13,
    left, 4) fails the fast walks to positions 53 and 155; on the 80-step
    zigzag2 at tau 2, deep enough that its start's own steps are read, the
    106 swaps of the real steps of its kept states with ids below 40, one
    at a time, fail 61 walks over a 14 x 14 grid of its cells."""
    g = slg_to_slp(random_slp1(5, 40, sigma=3, max_len=200))
    ix = build_index1(g, 2)
    key = next(key for key in ix.ids if decode(ix, key) == (13, 0, 4))
    slots = kept(ix)[13, 0, 4]
    slots[0] = swapped(slots[0], 2)
    failed = []
    for i, want in enumerate(expand1(g), start=1):
        assert answers_right_or_refuses(access1_traced, ix, (i,), want)
        try:
            access1(ix, i)
        except IndexError:
            failed.append(i)
    assert failed == [53, 155] and refuses(check_index1, ix, key)
    rng = random.Random(0)
    g = zigzag2([rng.randrange(4) for _ in range(83)], 80)
    ix, m = build_index2(g, 2), expand2(g)
    cells = list(product(range(1, 42, 3), repeat=2))
    swaps = failed = 0
    for key, u in ix.ids.items():
        slots = ix.states[u][3]
        for k, step in enumerate(slots if u < 40 else ()):
            if step[3] is None:
                continue
            slots[k] = swapped(step, 3)
            for cell in cells:
                assert answers_right_or_refuses(access2_traced, ix, cell, m.get(*cell))
                try:
                    access2(ix, *cell)
                except IndexError:
                    failed += 1
                except PreconditionViolated:
                    pass
            assert refuses(check_index2, ix, key)
            slots[k] = step
            swaps += 1
    assert (swaps, failed) == (106, 61)


# -- checked literal steps ---------------------------------------------------

def test_access1_traced_refuses_a_wrong_literal_step():
    # X0 -> a X1, X1 -> X2 b, X2 -> c X3, X3 -> X4 d, X4 -> a X5, X5 -> X6 b,
    # X6 -> c d, "acacdbdb": at tau 2 the fast and the traced walk to
    # position 4 read X5's level-0 block on X6's c, from the left, a state
    # the index keeps; X5 stores level 0, as its turn bound 2 is more than
    # the one read a walk has left there. The literal c stores no level
    g = zigzag1([0, 1, 2, 3, 0, 1, 2, 3])
    ix = build_index1(g, 2)
    levels = levels_of(ix)
    assert access1_traced(ix, 4) == (2, 4) and levels.top[9] == -1
    slots = kept(ix)[5, 0, 0]
    assert levels.top[5] == 0 and slots == [(0, 9, None), (1, 10, None)]
    # X5's block on c, from the left, claiming to be d
    slots[0] = (0, 10, None)
    with pytest.raises(PreconditionViolated, match="literal step"):
        access1_traced(ix, 4)


def test_access2_traced_refuses_a_wrong_literal_step():
    """On an 80-step zigzag, 41 x 41, at tau 2: every kept literal step
    that the walks to its cells read, from each corner, claiming to be
    another literal (ids 0..3 are the literals 0..3), is refused."""
    rng = random.Random(0)
    g = zigzag2([rng.randrange(4) for _ in range(83)], 80)
    ix = build_index2(g, 2)
    states, corners = kept(ix), set()
    for (t, corner, p_r, p_c, at), read in readers(ix, access2, every_query(ix)).items():
        slots = states[t, corner, p_r, p_c]
        step = slots[at]
        if step[3] is not None:
            continue
        assert step[2] < 4 and g.rules[step[2]] == step[2]     # a literal's id is its code
        slots[at] = (0, 0, step[2] ^ 1, None, 0)
        with pytest.raises(PreconditionViolated, match="literal step"):
            access2_traced(ix, *read[0])
        slots[at] = step
        corners.add(corner)
    assert corners == {0, 1, 2, 3}


# -- the finish: no slot where descent is cheaper than reading on ------------

def logged(ix):
    """Log every step read from ix's slot lists; returns the shared log."""
    log = []
    wrap_slots(ix, lambda slots, state: Logged(slots, lambda k, step: log.append(step)))
    return log


@st.composite
def low1(draw):
    """A 1D SLP of height at most 2: S -> A B, each child a literal or a
    pair of literals (ids 1..3)."""
    rules = [None, 0, 1, 2]

    def part():
        if draw(st.booleans()):
            return draw(st.integers(1, 3))
        rules.append((draw(st.integers(1, 3)), draw(st.integers(1, 3))))
        return len(rules) - 1

    rules[0] = (part(), part())
    return validate_slp1(Slp1(rules, 3, 0))


@st.composite
def low2(draw):
    """A 2D SLP of height at most 2 over the literal ids 1..3."""
    rules = [None, 0, 1, 2]
    horiz = draw(st.booleans())
    wide = draw(st.booleans())      # children 1x2 under a rows split, 2x1 under a columns split

    def part():
        if wide:
            kind = Vert if horiz else Horiz
        elif draw(st.booleans()):
            return draw(st.integers(1, 3))
        else:
            kind = Horiz if horiz else Vert
        rules.append(kind(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
        return len(rules) - 1

    rules[0] = (Horiz if horiz else Vert)(part(), part())
    return validate_slp2(Slp2(rules, 3, 0))


@settings(max_examples=60, deadline=None)
@given(g=grammars1(), tau=FINISH_TAUS)
def test_finish1_is_exact_and_only_literal_steps_lack_a_far_child(g, tau):
    """Both walks answer as the expansion at every tau of the finish sweep,
    and every slot is its block's plain step (``check_index1``), so one
    without a far child is a literal step: a finish is never stored."""
    ix = build_index1(g, tau)
    check_index1(ix)
    for i, want in enumerate(expand1(g), start=1):
        assert access1(ix, i) == want and access1_traced(ix, i) == (want, ix.levels + 1)


@settings(max_examples=30, deadline=None)
@given(g=low1(), tau=FINISH_TAUS)
def test_finish1_at_height_two_reads_no_slot(g, tau):
    """The start, at most 2 high and at least 2 long, is low enough for its
    own cap, so the walk descends from it at once, without a read."""
    ix = build_index1(g, tau)
    log = logged(ix)
    for i, want in enumerate(expand1(g), start=1):
        del log[:]
        assert access1(ix, i) == want and len(log) == 0


@settings(max_examples=40, deadline=None)
@given(g=grammars1(), tau=TAUS1)
def test_access1_reads_at_most_the_start_cap_plus_one_slots(g, tau):
    """The fast walk starts at the start's cap and caps each level by the
    new variable's, so it reads at most floor(log_tau n) + 1 slots; none
    when the start is low enough for its cap, height <= FINISH * cap, or
    its turn bound at most the cap + 1 reads it would have left."""
    ix = build_index1(g, tau)
    cap = levels_of(ix).cap[g.start]
    assert ix.tau ** cap <= ix.n < ix.tau ** (cap + 1)
    low = ix.grammar._height[g.start] <= FINISH * cap or turns_of(g)[g.start] <= cap + 1
    reads = (0, 0) if low else (1, cap + 1)
    log = logged(ix)
    for i, want in enumerate(expand1(g), start=1):
        del log[:]
        assert access1(ix, i) == want and reads[0] <= len(log) <= reads[1]


@settings(max_examples=40, deadline=None)
@given(g=grammars2(), tau=FINISH_TAUS)
def test_finish2_is_exact_and_stores_steps_only_below_the_mark(g, tau):
    """Both walks answer as the expansion at every tau of the finish sweep,
    every kept slot is its block's plain step (``check_index2``), so one
    without a far child is a literal step, and every kept state lies at a
    level pair whose two levels are both below its variable's mark: a
    finish is never stored."""
    ix = build_index2(g, tau)
    check_index2(ix)
    m = expand2(g)
    for i in range(1, m.rows + 1):
        for j in range(1, m.cols + 1):
            assert access2(ix, i, j) == access2_traced(ix, i, j)[0] == m.get(i, j)
    for t, _, p_r, p_c in kept(ix):
        assert p_r < mark2(g, t) > p_c


@settings(max_examples=40, deadline=None)
@given(g=grammars2(), tau=FINISH_TAUS)
def test_finish2_changes_the_tables_only_by_markers(g, tau):
    """Against a build with FINISH2 = FINISH = 2: both builds hold each
    block's plain step (``check_index2``), so every slot both keep is the
    same step, and every state only the low build keeps at a pair the
    FINISH2 rule does not store is at a level pair the FINISH2 rule
    finishes at: the indexes differ only by the slots the higher factor
    leaves out and by the states each walk reaches."""
    ix = build_index2(g, tau)
    with mock.patch.object(access2d, "FINISH2", 2):
        low = build_index2(g, tau)
    check_index2(ix)
    check_index2(low)
    assert ix.grammar._height == low.grammar._height
    assert ix.reads == low.reads and ix.pows == low.pows
    if ix.first >= 0 <= low.first:     # both start at the start's caps
        assert ix.states[ix.first][:2] == low.states[low.first][:2]
    for t, _, p_r, p_c in kept(low):
        if max(p_r, p_c) >= mark2(g, t):
            assert g._height[t] <= FINISH2 * max(p_r, p_c)


@settings(max_examples=30, deadline=None)
@given(g=low2(), tau=FINISH_TAUS)
def test_finish2_at_height_two_reads_no_slot(g, tau):
    """The start, at most 2 high and at least 2 cells, is low enough for
    its own caps, so the walk descends from it at once, without a read."""
    ix = build_index2(g, tau)
    log = logged(ix)
    m = expand2(g)
    for i in range(1, m.rows + 1):
        for j in range(1, m.cols + 1):
            del log[:]
            assert access2(ix, i, j) == m.get(i, j) and len(log) == 0


def distinct_codes(g):
    """g with every literal rule given its own code, so that an access that
    lands on the wrong literal answers wrong."""
    codes = {}
    rules = [codes.setdefault(i, len(codes)) if isinstance(r, int) else r
             for i, r in enumerate(g.rules)]
    if isinstance(g, Slg1):
        return validate_slp1(Slp1(rules, len(codes), g.start))
    return validate_slp2(Slp2(rules, len(codes), g.start))


def finishes():
    """(grammar, tau) pairs, per dimension, for the three ways a fast walk
    finishes: ``start``, the start is low enough to be descended from at
    once; ``read-then-descend``, every walk reads and then reaches a
    variable that stores no slot at its next levels, and descends from
    there; ``literal``, every walk ends at a literal step."""
    rng = random.Random(5)
    stair = staircase2([rng.randrange(4) for _ in range(22)], 10)
    rng = random.Random(5)
    zigzag = zigzag2([rng.randrange(4) for _ in range(28)], 25)
    return {
        "start": ((distinct_codes(random_slp1(11, 20, 3, 100)), 2), (stair, 2)),
        "read-then-descend": ((distinct_codes(random_slp1(34, 20, 3, 100)), 2), (zigzag, 3)),
        "literal": ((distinct_codes(random_slp1(133, 20, 3, 100)), 8),
                    (distinct_codes(random_slp2(209, 30, 3, 300)), 8)),
    }


def runs():
    """(grammar, tau) pairs whose every walk finishes by the turn rule, at
    the start: right and left combs, a 200 x 1 column comb and a 20-step
    staircase, each turning at most twice on a point path."""
    rng = random.Random(6)
    codes = [rng.randrange(4) for _ in range(200)]
    return [(comb1(codes, True), 8), (comb1(codes, False), 2),
            (comb2(codes, Horiz, True), 2), (staircase2(codes[:42], 20), 4)]


def walk_ends(log, far_at):
    """How the walk that filled ``log`` finished: 'start', with no read;
    'literal', at a literal step; 'read-then-descend', at a real step into a
    variable that stores no slot at the walk's next levels (a literal stores
    none), from which it descends. ``far_at`` indexes a step's far child."""
    if not log:
        return "start"
    return "literal" if log[-1][far_at] is None else "read-then-descend"


@pytest.mark.parametrize("kind", ["start", "read-then-descend", "literal"])
def test_access_equals_descent_however_the_walk_finishes(kind):
    (g1, tau1), (g2, tau2) = finishes()[kind]
    ix = build_index1(g1, tau1)
    n, log = ix.n, logged(ix)
    assert len(set(expand1(g1))) > 1
    for i in range(1, n + 1):
        del log[:]
        assert access1(ix, i) == descend1(ix, g1.start, i, 0) == \
            descend1(ix, g1.start, n + 1 - i, 1)
        assert walk_ends(log, 2) == kind
    ix = build_index2(g2, tau2)
    r, c, log = ix.n_rows, ix.n_cols, logged(ix)
    assert len(set(expand2(g2).cells)) > 1
    for i in range(1, r + 1):
        for j in range(1, c + 1):
            del log[:]
            assert access2(ix, i, j) == descend2(ix, g2.start, i, j, 0) == \
                descend2(ix, g2.start, i, c + 1 - j, 1) == \
                descend2(ix, g2.start, r + 1 - i, j, 2) == \
                descend2(ix, g2.start, r + 1 - i, c + 1 - j, 3)
            assert walk_ends(log, 3) == kind


def test_access_finishes_inline():
    """The fast walks descend over their own locals: with the public
    descents made to raise, every walk still answers, however it
    finishes."""
    def refuse(*args):
        raise AssertionError("the fast walk called a public descent")

    built = [(g, (build_index1 if isinstance(g, Slg1) else build_index2)(g, tau))
             for g, tau in [pair for pairs in finishes().values() for pair in pairs] + runs()]
    with mock.patch.object(access1d, "descend1", refuse), \
            mock.patch.object(access2d, "descend2", refuse):
        for g, ix in built:
            if isinstance(g, Slg1):
                assert [access1(ix, i) for i in range(1, ix.n + 1)] == expand1(g)
                continue
            m = expand2(g)
            assert all(access2(ix, i, j) == m.get(i, j)
                       for i in range(1, m.rows + 1) for j in range(1, m.cols + 1))


def tallied(ix):
    """Count the reads of ix's slot lists, move records and chain path heads
    in one Counter: "reads" counts table reads, "moves" move records read
    (the literal's own None included), "bisects" heavy paths a run searches
    (one bisect, or in 2D one on rows and one on columns, per path head
    read), and ("moves", "first") is the variable the walk descended from.
    Returns the Counter, to be cleared between walks."""
    tally = Counter()

    def count(kind):
        def log(k, _):
            tally[kind] += 1
            tally.setdefault((kind, "first"), k)
        return log

    wrap_slots(ix, lambda slots, state: Logged(slots, count("reads")))
    ix.moves = Logged(ix.moves, count("moves"))
    if ix.chains is not None:
        ix.chains = tuple((*chain[:2], Logged(chain[2], count("bisects")), *chain[3:])
                          for chain in ix.chains)
    return tally


def test_access_runs_along_the_chains_where_the_turn_rule_finishes():
    """On shapes whose point paths turn at most twice, the start finishes by
    the turn rule at once: no slot is built or read, the index keeps both
    chains, every walk answers as the descents from every side or corner,
    and the walks run along the chains, searching their heavy paths."""
    for g, tau in runs():
        one = isinstance(g, Slg1)
        ix = (build_index1 if one else build_index2)(g, tau)
        assert ix.entry_count() == 0 and ix.chains is not None
        assert ix.first < 0
        if one:
            assert levels_of(ix).top[g.start] < levels_of(ix).cap[g.start]
        tally = tallied(ix)
        if one:
            n = ix.n
            for i in range(1, n + 1):
                assert access1(ix, i) == descend1(ix, g.start, i, 0) == \
                    descend1(ix, g.start, n + 1 - i, 1)
        else:
            r, c = ix.n_rows, ix.n_cols
            for i in range(1, r + 1):
                for j in range(1, c + 1):
                    assert access2(ix, i, j) == descend2(ix, g.start, i, j, 0) == \
                        descend2(ix, g.start, r + 1 - i, c + 1 - j, 3)
        assert tally["reads"] == 0 and tally["bisects"] > 0


# -- the turn rule: turn bounds, zigzags and the walk's bound -------------------

def path_turns(g, heavy, v, i, j=1):
    """The moves of the plain walk from v to the cell (i, j) (a 1D position
    is i) that go to the other child than the move before, plus the light
    edges it takes, ``heavy`` the ``_heavy`` lists of both sides."""
    kids, one = g._kids, isinstance(g, Slg1)
    count, last = 0, None
    while kids[v] is not None:
        x, y = kids[v]
        if one or isinstance(g.rules[v], Horiz):
            split = g._lens[x] if one else g._rows[x]
            side, i = (0, i) if i <= split else (1, i - split)
        else:
            side, j = (0, j) if j <= g._cols[x] else (1, j - g._cols[x])
        c = kids[v][side]
        count += (last is not None and side != last) + (heavy[side][c] != v)
        v, last = c, side
    return count


@settings(max_examples=40, deadline=None)
@given(g=grammars1(longest=40) | grammars2(longest=40))
def test_turn_bounds_are_the_most_turns_on_a_point_path(g):
    """Every variable's turn bound is the largest count, over the plain
    walks to each of its cells, of moves to the other child than the move
    before plus light edges, walked here cell by cell."""
    heavy = [_heavy(g._moves, g._topo, side) for side in (0, 1)]
    turns = _turns(g._moves, g._topo, heavy)
    for v in range(len(g.rules)):
        if isinstance(g, Slg1):
            cells = [(i,) for i in range(1, g._lens[v] + 1)]
        else:
            cells = product(range(1, g._rows[v] + 1), range(1, g._cols[v] + 1))
        assert turns[v] == max(path_turns(g, heavy, v, *cell) for cell in cells)


@pytest.mark.parametrize("tau", [2, 3, 4, 8, 16])
def test_zigzags_keep_their_tables(tau):
    """Point walks on the zigzags go to the other child at every move, so a
    start's turn bound is its height, far above the reads a walk has: the
    turn rule finishes no walk at the start, the index keeps its tables and
    reads them, and every answer equals the descents'."""
    rng = random.Random(2)
    for g in (zigzag1([rng.randrange(4) for _ in range(1000)]),
              zigzag2([rng.randrange(4) for _ in range(123)], 120)):
        s = g.start
        assert turns_of(g)[s] == g._height[s]
        if isinstance(g, Slg1):
            ix = build_index1(g, tau)
            assert levels_of(ix).top[s] == levels_of(ix).cap[s] and g._height[s] > ix.levels + 1
            tally = tallied(ix)
            n = ix.n
            for i in range(1, n + 1):
                assert access1(ix, i) == descend1(ix, s, i, 0) == descend1(ix, s, n + 1 - i, 1)
        else:
            ix = build_index2(g, tau)
            cap_r, cap_c = levels_of(ix).cap_r[s], levels_of(ix).cap_c[s]
            assert ix.first == 0 and decode_key2(ix, ix.keys[0]) == (s, 0, cap_r, cap_c)
            assert g._height[s] > cap_r + cap_c + 1
            tally = tallied(ix)
            r, c = ix.n_rows, ix.n_cols
            for i in range(1, r + 1):
                for j in range(1, c + 1):
                    assert access2(ix, i, j) == descend2(ix, s, i, j, 0) == \
                        descend2(ix, s, r + 1 - i, c + 1 - j, 3)
        assert ix.entry_count() > 0 and tally["reads"] > 0


def assert_walk_bound(g, ix, queries):
    """Each walk of access1/access2 to the queried cells answers as the
    descent and makes at most L + 1 reads, L = floor(log_tau n) in 1D and
    floor(log_tau rows) + floor(log_tau cols) in 2D, then descends from a
    variable v by one of the two finish rules within its cost: by the
    height rule, height(v) at most FINISH (FINISH2) times the larger level
    a walk can still be at, with a plain descent of height(v) moves; by the
    turn rule, B(v) at most the L + 1 reads less those made, with
    3 * (B(v) + 1) moves and bisects. Moves count the move records read,
    one more than the moves made. Returns the mean reads, moves and
    bisects per walk."""
    one = isinstance(g, Slg1)
    s, turns, height = g.start, turns_of(g), g._height
    levels = levels_of(ix)
    if one:
        L = high = levels.cap[s]
        walk, descend, factor = partial(access1, ix), partial(descend1, ix, s), FINISH
    else:
        L, high = levels.cap_r[s] + levels.cap_c[s], max(levels.cap_r[s], levels.cap_c[s])
        walk, descend, factor = partial(access2, ix), partial(descend2, ix, s), FINISH2
    want = [descend(*q, 0) for q in queries]
    tally = tallied(ix)
    total = Counter()
    for q, code in zip(queries, want):
        tally.clear()
        assert walk(*q) == code
        reads, moves, bisects = tally["reads"], tally["moves"], tally["bisects"]
        assert reads <= L + 1
        if moves:
            v = tally["moves", "first"]
            plain = height[v] <= factor * (high - reads if one else high) \
                and moves <= height[v] + 1 and not bisects
            ran = turns[v] <= L + 1 - reads and moves + bisects <= 3 * (turns[v] + 1) + 1
            assert plain or ran, (q, reads, moves, bisects, v, height[v], turns[v])
        total.update(tally)
    return tuple(total[kind] / len(queries) for kind in ("reads", "moves", "bisects"))


def bound_inputs():
    """(name, grammar, tau) of the inputs the walk's bound is checked on:
    comb-deep's comb and staircase, the zigzags, the doublings, a 200 x 1
    column comb and the gen corpus."""
    comb, stair, zig1, zig2 = deep_shapes()
    column = comb2([random.Random(1).randrange(4) for _ in range(200)], Horiz, True)
    gen1, gen2 = random_slp1(7, 200, 4, 2 ** 20), random_slp2(7, 200, 4, 2 ** 20)
    return ([("comb", comb, 8), ("staircase", stair, 8), ("column comb", column, 2)]
            + [(name, g, tau) for name, g in (("zigzag1", zig1), ("zigzag2", zig2))
               for tau in (2, 8)]
            + [("doubling1", doubling1(20), 8), ("doubling1", doubling1(20), 16),
               ("doubling2", doubling2(14), 16)]
            + [(name, g, tau) for name, g in (("gen1", gen1), ("gen2", gen2))
               for tau in (2, 8, 16)])


@pytest.mark.parametrize("name, g, tau", bound_inputs(), ids=lambda v: str(v)[:12])
def test_access_stays_within_its_bound(name, g, tau):
    """The walk's bound on 500 random cells of each input. On comb-deep's
    comb and staircase and on the column comb every walk finishes by the
    turn rule at the start, without a read."""
    one = isinstance(g, Slg1)
    ix = (build_index1 if one else build_index2)(g, tau)
    rng = random.Random(tau)
    if one:
        queries = [(rng.randint(1, ix.n),) for _ in range(500)]
    else:
        queries = [(rng.randint(1, ix.n_rows), rng.randint(1, ix.n_cols)) for _ in range(500)]
    reads, moves, bisects = assert_walk_bound(g, ix, queries)
    if name in ("comb", "staircase", "column comb"):
        assert reads == 0 and bisects > 0


@settings(max_examples=60, deadline=None)
@given(g=grammars1() | grammars2(), tau=FINISH_TAUS, data=st.data())
def test_access_stays_within_its_bound_on_random_grammars(g, tau, data):
    """The walk's bound, and its answers against the descent, at every tau
    of the finish sweep."""
    one = isinstance(g, Slg1)
    ix = (build_index1 if one else build_index2)(g, tau)
    if one:
        cells = st.tuples(st.integers(1, ix.n))
    else:
        cells = st.tuples(st.integers(1, ix.n_rows), st.integers(1, ix.n_cols))
    assert_walk_bound(g, ix, data.draw(st.lists(cells, min_size=1, max_size=40)))


def every_query(ix):
    """Every position, as a 1-tuple, or every cell of an index's text."""
    if isinstance(ix, gridgram.AccessIndex1):
        return [(i,) for i in range(1, ix.n + 1)]
    return list(product(range(1, ix.n_rows + 1), range(1, ix.n_cols + 1)))


def edge_splits(ix, state, k, axis=0):
    """The splits of slot k of a kept state at its block's near and far
    edge on the split axis ``axis`` (2D), each as a slot measures it: from
    the state's side, the block's offset included, in 1D, inside the block
    in 2D."""
    if len(state) == 3:
        t, _, p = state
        b = k * ix.pows[p]
        return b, b + min(ix.lens[t] - b, ix.pows[p])
    t, _, p_r, p_c = state
    k_r, k_c = divmod(k, min(ix.tau, -(-ix.cols[t] // ix.pows[p_c])))
    return 0, min((ix.rows[t] - k_r * ix.pows[p_r], ix.pows[p_r]) if axis else
                  (ix.cols[t] - k_c * ix.pows[p_c], ix.pows[p_c]))


def real_reads(ix, walk, queries, far_at):
    """``readers`` of the real steps, whose far child, at ``far_at`` in the
    step, is not None."""
    states = kept(ix)
    return {at: read for at, read in readers(ix, walk, queries).items()
            if states[at[:-1]][at[-1]][far_at] is not None}


@settings(max_examples=60, deadline=None)
@given(g=grammars1(), tau=FINISH_TAUS, data=st.data())
def test_access1_traced_refuses_a_real_step_in_literal_shape(g, tau, data):
    """A real step a walk reads, overwritten with a literal step's shape
    (k * tau**p, v, None), for the slot's own variable, any other or no
    variable, is refused on that walk: a stored step of that shape must be
    the literal step the plain descent gives, and a block of two or more
    positions has none."""
    ix = build_index1(g, tau)
    read = real_reads(ix, access1, every_query(ix), 2)
    if not read:
        return
    t, side, p, k = at = data.draw(st.sampled_from(sorted(read)))
    kept(ix)[t, side, p][k] = data.draw(st.builds(
        lambda v: (k * ix.pows[p], v, None), st.integers(-1, len(g.rules))))
    with pytest.raises(PreconditionViolated, match="literal step"):
        access1_traced(ix, *read[at][0])


@settings(max_examples=40, deadline=None)
@given(g=grammars2(), tau=FINISH_TAUS, data=st.data())
def test_access2_traced_refuses_a_real_step_in_literal_shape(g, tau, data):
    """The 2D case: a real step a walk reads, overwritten with (0, 0, v,
    None, 0), is refused on that walk."""
    ix = build_index2(g, tau)
    read = real_reads(ix, access2, every_query(ix), 3)
    if not read:
        return
    *state, at = cell = data.draw(st.sampled_from(sorted(read)))
    kept(ix)[tuple(state)][at] = data.draw(st.builds(
        lambda v: (0, 0, v, None, 0), st.integers(-1, len(g.rules))))
    with pytest.raises(PreconditionViolated, match="literal step"):
        access2_traced(ix, *read[cell][0])


@pytest.mark.parametrize("split", ["0", "w"])
def test_access1_traced_refuses_a_step_that_does_not_straddle(split):
    """A real step whose split is moved to the block's near or far edge is
    refused, for every such step the walks to the positions read; at tau
    3, where those reach hundreds."""
    ix = build_index1(random_slp1(3, 40, 3, 4096), 3)
    states = kept(ix)
    read = real_reads(ix, access1, every_query(ix), 2)
    for (*state, k), (i, *_) in read.items():
        slots = states[tuple(state)]
        step = slots[k]
        slots[k] = (edge_splits(ix, tuple(state), k)[split == "w"],) + step[1:]
        with pytest.raises(PreconditionViolated, match="does not straddle"):
            access1_traced(ix, *i)
        slots[k] = step
    assert len(read) > 100


@pytest.mark.parametrize("axis", [0, 1], ids=["cols", "rows"])
@pytest.mark.parametrize("split", ["0", "w"])
def test_access2_traced_refuses_a_step_that_does_not_straddle(axis, split):
    """The 2D straddle guard, on steps that split columns and on steps that
    split rows; on an 80-step zigzag, 41 x 41, at tau 4, deep enough that
    its walks read hundreds of each."""
    rng = random.Random(0)
    ix = build_index2(zigzag2([rng.randrange(4) for _ in range(83)], 80), 4)
    states = kept(ix)
    seen = 0
    for (*state, at), (cell, *_) in real_reads(ix, access2, every_query(ix), 3).items():
        slots = states[tuple(state)]
        step = slots[at]
        if step[0] != axis:
            continue
        slots[at] = (axis, edge_splits(ix, tuple(state), at, axis)[split == "w"]) + step[2:]
        with pytest.raises(PreconditionViolated, match="does not straddle"):
            access2_traced(ix, *cell)
        slots[at] = step
        seen += 1
    assert seen > 100


_CORRUPT = """
from gridgram import (PreconditionViolated, Horiz, Slp1, Slp2, access1_traced,
                      access2_traced, build_index1, build_index2, validate_slp1,
                      validate_slp2)
from gridgram.access1d import decode_key1
from gridgram.access2d import decode_key2

if __debug__:
    raise SystemExit("run this under python -O")

# a zigzag comb of 16 symbols, 15 high and turning at every level, so it
# stores its cap, level 4; tau 2. The walk to position 7 reads first the
# start's left side at level 4, whose one block is the text
g1 = validate_slp1(Slp1([(15, i + 1) if i % 2 == 0 else (i + 1, 15) for i in range(14)]
                        + [(15, 16), 0, 1], 2, 0))
ix1 = build_index1(g1, 2)
# (assert is off under -O)
if not (ix1.first == 0 and decode_key1(ix1, ix1.keys[0]) == (0, 0, 4)):
    raise SystemExit("the 1D walk starts elsewhere")
# a split at the far edge of the block, not inside it
slots = ix1.states[0][1]
slots[0] = (16,) + slots[0][1:]
try:
    access1_traced(ix1, 7)
except PreconditionViolated:
    print("1D raised")

# a zigzag comb of 128 rows, 127 high and turning at every level, so it
# stores its caps, levels (7, 0); tau 2. The walk to (3, 1) reads first the
# start's NW corner at (7, 0), whose one block is the text
g2 = validate_slp2(Slp2([Horiz(127, i + 1) if i % 2 == 0 else Horiz(i + 1, 127)
                         for i in range(126)] + [Horiz(127, 128), 0, 1], 2, 0))
ix2 = build_index2(g2, 2)
if not (ix2.first == 0 and decode_key2(ix2, ix2.keys[0]) == (0, 0, 7, 0)):
    raise SystemExit("the 2D walk starts elsewhere")
ix2.states[0][3][0] = (1, 128, (0, 0), (0, 0), 0)
try:
    access2_traced(ix2, 3, 1)
except PreconditionViolated:
    print("2D raised")
"""


def test_traced_walk_raises_on_corrupt_bookmark_under_O():
    """The traced walks' contract checks are explicit raises, so they hold
    under ``python -O``, which strips ``assert``."""
    src = str(Path(gridgram.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _CORRUPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == ["1D raised", "2D raised", ""]


def test_access2_raises_on_a_step_that_lowers_no_level():
    """Every read of the fast 2D walk lowers p_r or p_c, so it makes at
    most the start's two caps plus one reads; a corrupt step that keeps the
    walk at its first state with the same deltas, lowering neither level,
    leaves it off a literal with no read left, which raises. The reads are
    counted, so the walk runs in-process: it cannot hang."""
    # an 80-step zigzag, 41 x 41, read at its caps (5, 5) at tau 2; the cell
    # (40, 40) lies in block (1, 1), 8 rows and columns in, whose step now
    # goes on to the far child 32 rows up and 32 columns left, the first
    # state again
    g = zigzag2([0, 1] * 42, 80)
    ix = build_index2(g, 2)
    assert ix.first == 0 and decode_key2(ix, ix.keys[0]) == (g.start, 0, 5, 5)
    ix.states[0][3][1 * 2 + 1] = (1, -32, (0, 0), (0, 0), 32)
    assert len(ix.reads) == 5 + 5 + 1
    with pytest.raises(PreconditionViolated, match=r"walk to \(40,40\) ended off a literal"):
        access2(ix, 40, 40)


def test_traced_walks_refuse_a_step_that_keeps_the_level_or_grows_a_delta():
    """A real step whose codes both name the first state again passes its
    own read's checks, and the traced walk refuses the next read, whose
    block size does not fall; in 2D a step whose shift moves the other
    axis's delta past where it was breaks the per-step contract. On the
    16-symbol zigzag comb and the 80-step zigzag2, both at tau 2, whose
    walks start at the start's own state."""
    g = validate_slp1(Slp1([(15, i + 1) if i % 2 == 0 else (i + 1, 15) for i in range(14)]
                           + [(15, 16), 0, 1], 2, 0))
    ix = build_index1(g, 2)
    S, near, far = ix.states[0][1][0]
    assert ix.first == 0 and ix.states[0][0] == ix.n == 16
    ix.states[0][1][0] = (S, 0, 0)
    with pytest.raises(PreconditionViolated, match="at no lower level"):
        access1_traced(ix, 5)
    ix = build_index2(zigzag2([0, 1] * 42, 80), 2)
    step = ix.states[0][3][0]
    assert ix.first == 0 and step[:2] == (0, 1) and step[4] == 0     # columns split 1 in
    ix.states[0][3][0] = step[:2] + ((0, 0), (0, 0), 0)
    with pytest.raises(PreconditionViolated, match="at no lower levels"):
        access2_traced(ix, 1, 1)
    ix.states[0][3][0] = step[:4] + (64,)
    with pytest.raises(PreconditionViolated, match="per-step contract"):
        access2_traced(ix, 1, 1)


def copy_only_ids(ix):
    """The ids that only states the index does not keep name."""
    return sorted(set(range(len(ix.keys))) - set(ix.ids.values()))


def test_access1_refuses_a_code_the_index_does_not_keep():
    """A code naming an id that only a copy-only source names enters the
    sentinel state, whose slot sends the walk back into it: the walk ends
    in the read-count refusal, not in a bare TypeError. On the gen SLP
    (seed 7, 200 rules, 2**20 symbols) at tau 8, with the first state's
    slot that position 1 reads pointed at such an id on both sides."""
    ix = build_index1(random_slp1(7, 200, 4, 2 ** 20), 8)
    unkept = copy_only_ids(ix)
    assert ix.first == 0 and unkept
    S, near, far = ix.states[0][1][0]
    ix.states[0][1][0] = (S, unkept[-1], unkept[-1])
    with pytest.raises(PreconditionViolated, match="walk to position 1 ended off a literal"):
        access1(ix, 1)


def test_access2_refuses_a_code_the_index_does_not_keep():
    """The 2D case, on an 80-step zigzag, 41 x 41, at tau 2: the first
    state's slot that the cell (1, 1) reads, pointed at a copy-only id for
    either level that can drop, leads into the sentinel and the read-count
    refusal."""
    rng = random.Random(0)
    ix = build_index2(zigzag2([rng.randrange(4) for _ in range(83)], 80), 2)
    unkept = copy_only_ids(ix)
    assert ix.first == 0 and unkept
    axis, split, near, far, shift = ix.states[0][3][0]
    u = unkept[-1]
    ix.states[0][3][0] = (axis, split, (u, u), (u, u), shift)
    with pytest.raises(PreconditionViolated, match=r"walk to \(1,1\) ended off a literal"):
        access2(ix, 1, 1)


def walk_inputs():
    """(index, fast walk, traced walk, 1,000 random positions) of the gen
    SLP (seed 7, 200 rules, 2**20 symbols, codes 0, 1 and 3) and of a
    200-step zigzag2 over all four codes, both at tau 8, where their walks
    read hundreds and thousands of slots."""
    rng = random.Random(9)
    ix1 = build_index1(random_slp1(7, 200, 4, 2 ** 20), 8)
    ix2 = build_index2(zigzag2([rng.randrange(4) for _ in range(203)], 200), 8)
    return [(ix1, access1, access1_traced, [(rng.randint(1, ix1.n),) for _ in range(1000)]),
            (ix2, access2, access2_traced,
             [(rng.randint(1, ix2.n_rows), rng.randint(1, ix2.n_cols)) for _ in range(1000)])]


def test_traced_walks_read_what_the_fast_walks_read():
    """On both inputs each slot the fast walk reads is read by the traced
    walk to the same positions, and no other: the traced walk follows the
    same codes, and answers as the fast one."""
    for ix, fast, traced, queries in walk_inputs():
        read = readers(ix, fast, queries)
        assert len(read) > 400 and readers(ix, traced, queries) == read
        assert [traced(ix, *q)[0] for q in queries] == [fast(ix, *q) for q in queries]


def corruptions(ix, state, k):
    """Slot k of a kept state, corrupted each way: near and far swapped, the
    split moved to either edge of the block, and both codes pointed past
    ``states`` and at the sentinel, the first copy-only id."""
    step = kept(ix)[state][k]
    past, sentinel = len(ix.states), copy_only_ids(ix)[0]
    if len(state) == 3:             # 1D: (S, near, far)
        S, near, far = step
        return [(S, far, near), *((e, near, far) for e in edge_splits(ix, state, k)),
                (S, past, past), (S, sentinel, sentinel)]
    axis, s, near, far, shift = step
    return [(axis, s, far, near, shift),
            *((axis, e, near, far, shift) for e in edge_splits(ix, state, k, axis)),
            (axis, s, (past, past), (past, past), shift),
            (axis, s, (sentinel, sentinel), (sentinel, sentinel), shift)]


def refuses(check, ix, key):
    """Whether ``check`` refuses ix, the state with ``key`` checked first:
    a corrupt slot there is refused without a pass over the others."""
    ids = ix.ids
    ix.ids = {key: ids[key], **ids}
    try:
        check(ix)
    except PreconditionViolated:
        return True
    finally:
        ix.ids = ids
    return False


def test_traced_walks_answer_right_or_refuse_on_a_corrupt_slot():
    """On both inputs, each slot the fast walk reads, corrupted each way
    ``corruptions`` gives, one at a time: the traced walk to every position
    whose walk reads it answers right or raises PreconditionViolated,
    never a wrong code and never another exception; and check_index1/2
    refuses every corruption that changes the slot (an edge split of a
    literal step leaves it as it was)."""
    for ix, fast, traced, queries in walk_inputs():
        check = check_index1 if fast is access1 else check_index2
        want = {q: fast(ix, *q) for q in queries}
        states, raised = kept(ix), 0
        key_of = {decode(ix, key): key for key in ix.ids}
        for (*state, k), read in readers(ix, fast, queries).items():
            slots = states[tuple(state)]
            step = slots[k]
            for bad in corruptions(ix, tuple(state), k):
                slots[k] = bad
                for q in read:
                    try:
                        code = traced(ix, *q)[0]
                    except PreconditionViolated:
                        raised += 1
                        continue
                    assert code == want[q], (state, k, bad, q)
                assert bad == step or refuses(check, ix, key_of[tuple(state)]), (state, k, bad)
            slots[k] = step
        assert raised > 10 * len(queries)


def test_checks_refuse_hand_changed_fields_and_chains():
    """check_index1/2 refuse, by PreconditionViolated and not a bare
    TypeError, an index whose ``first`` is None or a float, whose first key
    is a str, whose first state's block size is a float, whose reads cannot
    cover the start's levels, or whose chains have their last key list
    zeroed; on the gen SLP (seed 7, 200 rules, 2**20 symbols) at tau 8 and
    the 80-step zigzag2 at tau 4, both of which keep states and chains."""
    rng = random.Random(0)
    for ix, check in ((build_index1(random_slp1(7, 200, 4, 2 ** 20), 8), check_index1),
                      (build_index2(zigzag2([rng.randrange(4) for _ in range(83)], 80), 4),
                       check_index2)):
        check(ix)
        chains, states = ix.chains, ix.states
        for field, bad in (("first", None), ("first", 0.0), ("keys", ["0", *ix.keys[1:]]),
                           ("states", [(float(states[0][0]), *states[0][1:]), *states[1:]]),
                           ("reads", range(1)),
                           ("chains", (chains[0], (*chains[1][:-1], [0] * len(chains[1][-1]))))):
            good = getattr(ix, field)
            setattr(ix, field, bad)
            with pytest.raises(PreconditionViolated):
                check(ix)
            setattr(ix, field, good)


def test_access1_refuses_a_walk_that_ends_off_a_literal():
    """Every read of the fast 1D walk lowers the level, so it makes at most
    levels + 1 reads; a corrupt level-0 step that sends it on to a state,
    here its own, leaves it off a literal with no read left, which raises.
    The reads are counted, so the walk runs in-process: it cannot hang."""
    # a zigzag comb of 16 symbols, 15 high; the walk to position 5 reads
    # variable 7's left level-0 slot 0, the literal step to 15 (code 0)
    g = validate_slp1(Slp1([(15, i + 1) if i % 2 == 0 else (i + 1, 15) for i in range(14)]
                           + [(15, 16), 0, 1], 2, 0))
    ix = build_index1(g, 2)
    j = {decode_key1(ix, key): j for key, j in ix.ids.items()}[7, 0, 0]
    assert access1(ix, 5) == 0 and ix.states[j][1][0] == (0, 15, None)
    ix.states[j][1][0] = (0, 15, j)     # on to its own state, as though 15 were a pair
    with pytest.raises(PreconditionViolated, match="walk to position 5 ended off a literal"):
        access1(ix, 5)
