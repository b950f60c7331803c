"""The children-first bookmark build and both query loops, in 1D and 2D.

The build stores every bookmark resolved into the step a query takes, for
the variables reachable from the start, and copies a child's step wherever
a block lies wholly inside the child on its aligned side, descending only
for the other blocks. These properties check every stored step against one
resolved here from the reference ``hook_offset1``/``hook_offset2`` of its
window, the kept entry count against the number of defined windows, the 2D
lists against the per-variable level caps, that equal steps are stored as
one object, and the fast and the traced access against the expansion and
against a plain root-to-leaf descent, on random SLPs, left and right combs
(deep, mostly copied on one side and descended on the other) and
staircases.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gridgram
from gridgram import (
    Horiz,
    PreconditionViolated,
    Slp1,
    Slp2,
    Vert,
    access1,
    access1_traced,
    access2,
    access2_traced,
    build_index1,
    build_index2,
    corner_map,
    expand1,
    expand2,
    hook_offset1,
    hook_offset2,
    side_map,
    validate_slp1,
    validate_slp2,
)
from gridgram.access1d import table_slots1
from gridgram.access2d import table_slots2
from gridgram.gen import random_slp1, random_slp2
from conftest import reachable

TAUS = st.sampled_from([2, 3, 8])
# tau past every 1D test length: the build clamps it to the start's length
# and must still store exactly the blocks of the tau asked for
TAUS1 = st.sampled_from([2, 3, 8, 10 ** 6])


def comb1(codes, right):
    """X_i -> lit(codes[i]) X_{i+1} (a right comb) or X_i -> X_{i+1} lit(codes[i])."""
    pairs = len(codes) - 1
    rules = []
    for i in range(pairs):
        nxt = i + 1 if i + 1 < pairs else pairs + codes[pairs]
        rules.append((pairs + codes[i], nxt) if right else (nxt, pairs + codes[i]))
    rules.extend(range(4))
    return validate_slp1(Slp1(rules, 4, 0))


def staircase2(codes, steps):
    """X_{k+1} = Horiz(Vert(X_k, col_k), row_{k+1}) from the literal X_0."""
    rules = list(range(4))

    def add(rule):
        rules.append(rule)
        return len(rules) - 1

    take = iter(codes)
    x, col = next(take), next(take)
    row = add(Vert(next(take), next(take)))
    for k in range(steps):
        x = add(Horiz(add(Vert(x, col)), row))
        if k + 1 < steps:
            col = add(Horiz(col, next(take)))
            row = add(Vert(row, next(take)))
    return validate_slp2(Slp2(rules, 4, x))


@st.composite
def grammars1(draw):
    kind = draw(st.sampled_from(["gen", "right-comb", "left-comb"]))
    if kind == "gen":
        return random_slp1(draw(st.integers(0, 2 ** 32)), draw(st.integers(1, 30)),
                           sigma=3, max_len=draw(st.sampled_from([8, 100, 600])))
    codes = draw(st.lists(st.integers(0, 3), min_size=2, max_size=70))
    return comb1(codes, kind == "right-comb")


@st.composite
def grammars2(draw):
    if draw(st.booleans()):
        return random_slp2(draw(st.integers(0, 2 ** 32)), draw(st.integers(1, 20)),
                           sigma=3, max_cells=draw(st.sampled_from([8, 64, 300])))
    steps = draw(st.integers(1, 12))
    return staircase2(draw(st.lists(st.integers(0, 3), min_size=2 * steps + 2,
                                    max_size=2 * steps + 2)), steps)


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


def descend1(g, i):
    """Exp(S)[i] by root-to-leaf descent."""
    t = g.start
    while not isinstance(g.rules[t], int):
        x, y = g.rules[t]
        if i <= g._lens[x]:
            t = x
        else:
            t, i = y, i - g._lens[x]
    return g.rules[t]


def descend2(g, i, j):
    """Exp(S)[i, j] by root-to-leaf descent."""
    t = g.start
    while not isinstance(g.rules[t], int):
        rule = g.rules[t]
        x, y = rule.children
        if isinstance(rule, Horiz):
            if i <= g._rows[x]:
                t = x
            else:
                t, i = y, i - g._rows[x]
        elif j <= g._cols[x]:
            t = x
        else:
            t, j = y, j - g._cols[x]
    return g.rules[t]


@settings(max_examples=60, deadline=None)
@given(g=grammars1(), tau=TAUS1)
def test_build1_stores_every_window_hook(g, tau):
    ix = build_index1(g, tau)
    assert ix.tau == min(tau, max(2, g._lens[g.start]))
    left, right = ix.tables
    defined = 0
    for i in reachable(g):
        m = g._lens[i]
        for p in range(ix.levels + 1):
            for k, b, e in blocks(m, ix.pows[p], tau):
                defined += 2
                assert left[p][i * ix.tau + k] == step1(g, i, 0, b, e)
                assert right[p][i * ix.tau + k] == step1(g, i, 1, m - e, m - b)
    assert ix.entry_count() == defined
    assert sum(v is not None for table in ix.tables for level in table for v in level) == defined


@settings(max_examples=40, deadline=None)
@given(g=grammars2(), tau=TAUS)
def test_build2_stores_every_window_hook(g, tau):
    ix = build_index2(g, tau)
    T = ix.tau
    assert T == min(tau, max(2, g._rows[g.start], g._cols[g.start]))
    ids = reachable(g)
    defined = 0
    for i, (m_r, m_c) in enumerate(zip(g._rows, g._cols)):
        if i not in ids:
            assert all(ix.tables[corner][i] is None for corner in range(4))
            continue
        cap_r, cap_c = ix.cap_r[i], ix.cap_c[i]
        assert T ** cap_r <= m_r < T ** (cap_r + 1) and T ** cap_c <= m_c < T ** (cap_c + 1)
        for corner in range(4):     # no slot above the caps exists
            assert len(ix.tables[corner][i]) == (cap_r + 1) * (cap_c + 1) * T ** 2
        for p_r in range(cap_r + 1):
            for p_c in range(cap_c + 1):
                for k_r, b_r, e_r in blocks(m_r, ix.pows[p_r], tau):
                    for k_c, b_c, e_c in blocks(m_c, ix.pows[p_c], tau):
                        slot = ((p_r * (cap_c + 1) + p_c) * T + k_r) * T + k_c
                        for corner, (rb, re) in enumerate(((b_r, e_r), (b_r, e_r),
                                                           (m_r - e_r, m_r - b_r),
                                                           (m_r - e_r, m_r - b_r))):
                            cb, ce = (m_c - e_c, m_c - b_c) if corner & 1 else (b_c, e_c)
                            defined += 1
                            assert ix.tables[corner][i][slot] == \
                                step2(g, i, corner, rb, cb, re, ce)
    lists = [table for corner in ix.tables for table in corner if table is not None]
    assert table_slots2(g, tau) == sum(len(table) for table in lists)
    assert ix.entry_count() == defined
    assert sum(v is not None for table in lists for v in table) == defined


def distinct_objects_are_distinct_values(steps):
    steps = [v for v in steps if v is not None]
    return len({id(v) for v in steps}) == len(set(steps))


@settings(max_examples=40, deadline=None)
@given(g=grammars1(), tau=TAUS1)
def test_build1_stores_each_distinct_step_once(g, tau):
    ix = build_index1(g, tau)
    assert distinct_objects_are_distinct_values(
        v for table in ix.tables for level in table for v in level)


@settings(max_examples=30, deadline=None)
@given(g=grammars2(), tau=TAUS)
def test_build2_stores_each_distinct_step_once(g, tau):
    ix = build_index2(g, tau)
    assert distinct_objects_are_distinct_values(
        v for corner in ix.tables for table in corner if table is not None for v in table)


@settings(max_examples=40, deadline=None)
@given(g=grammars2(), tau=TAUS, data=st.data())
def test_corner_map_above_the_caps_answers_as_at_the_caps(g, tau, data):
    ix = build_index2(g, tau)
    t = data.draw(st.sampled_from(reachable(g)))
    p_r, p_c = data.draw(st.integers(0, ix.levels)), data.draw(st.integers(0, ix.levels))
    d_r = data.draw(st.integers(1, min(ix.rows[t], ix.pows[p_r + 1])))
    d_c = data.draw(st.integers(1, min(ix.cols[t], ix.pows[p_c + 1])))
    for corner in range(4):
        assert corner_map(ix, corner, t, p_r, p_c, d_r, d_c) == \
            corner_map(ix, corner, t, min(p_r, ix.cap_r[t]), min(p_c, ix.cap_c[t]), d_r, d_c)


def test_maps_refuse_a_side_or_corner_out_of_range():
    ix1 = build_index1(validate_slp1(Slp1([(1, 2), 0, 1], 2, 0)), 2)
    assert side_map(ix1, 1, 0, 0, 1) == (2, 1, 0)
    for side in (-1, 2, "L"):
        with pytest.raises(PreconditionViolated):
            side_map(ix1, side, 0, 0, 1)
    ix2 = build_index2(validate_slp2(Slp2([Vert(1, 2), 0, 1], 2, 0)), 2)
    assert corner_map(ix2, 3, 0, 0, 0, 1, 1) == (2, 1, 1, 0)
    for corner in (-1, 4, "NW"):
        with pytest.raises(PreconditionViolated):
            corner_map(ix2, corner, 0, 0, 0, 1, 1)


def test_builds_and_slot_counts_refuse_a_float_tau():
    g1, g2 = random_slp1(7, 30), random_slp2(7, 30)
    # longer than every tau below, so the clamp keeps the float
    assert g1._lens[g1.start] > 4 and max(g2._rows[g2.start], g2._cols[g2.start]) > 4
    for tau in (2.0, 3.5):
        for call, g in ((build_index1, g1), (table_slots1, g1),
                        (build_index2, g2), (table_slots2, g2)):
            with pytest.raises(PreconditionViolated):
                call(g, tau)


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
    for i in data.draw(st.lists(st.integers(1, ix.n), min_size=1, max_size=40)):
        assert access1(ix, i) == descend1(g, i)


@settings(max_examples=40, deadline=None)
@given(g=grammars2(), tau=TAUS, data=st.data())
def test_access2_matches_descent(g, tau, data):
    ix = build_index2(g, tau)
    cells = st.tuples(st.integers(1, ix.n_rows), st.integers(1, ix.n_cols))
    for i, j in data.draw(st.lists(cells, min_size=1, max_size=40)):
        assert access2(ix, i, j) == descend2(g, i, j)


_CORRUPT = """
from gridgram import (PreconditionViolated, Horiz, Slp1, Slp2, Vert, access1_traced,
                      access2_traced, build_index1, build_index2, validate_slp1,
                      validate_slp2)
from gridgram import access1d, access2d

if __debug__:
    raise SystemExit("run this under python -O")

def last_step(module, name, query):
    # the arguments after the index of the last mapping step the traced walk makes
    calls, saved = [], getattr(module, name)
    setattr(module, name, lambda *a: calls.append(a[1:]) or saved(*a))
    query()
    setattr(module, name, saved)
    return calls[-1]

# 16 symbols, balanced; tau 2
g1 = validate_slp1(Slp1([(1, 1), (2, 2), (3, 3), (4, 5), 0, 1], 2, 0))
ix1 = build_index1(g1, 2)
side, t, p, delta = last_step(access1d, "side_map", lambda: access1_traced(ix1, 7))
# a split at the far edge of the block, not inside it
ix1.tables[side][p][t * 2 + (delta - 1) // ix1.pows[p]] = (ix1.pows[p], 1, 1)
try:
    access1_traced(ix1, 7)
except PreconditionViolated:
    print("1D raised")

# 4 x 8, balanced; tau 2
g2 = validate_slp2(Slp2([Vert(1, 1), Horiz(2, 2), Horiz(3, 3), Vert(4, 4),
                         Vert(5, 6), 0, 1], 2, 0))
ix2 = build_index2(g2, 2)
corner, t, p_r, p_c, d_r, d_c = last_step(access2d, "corner_map",
                                          lambda: access2_traced(ix2, 3, 6))
k_r, k_c = (d_r - 1) // ix2.pows[p_r], (d_c - 1) // ix2.pows[p_c]
ix2.tables[corner][t][((p_r * (ix2.cap_c[t] + 1) + p_c) * 2 + k_r) * 2 + k_c] = \
    (1, ix2.pows[p_r], 1, 1, 0)
try:
    access2_traced(ix2, 3, 6)
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
