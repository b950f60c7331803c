"""2D corner index: hook contract, index layout, query equivalence."""

import random

import pytest

from gridgram import (
    Horiz,
    PositionOutOfRange,
    PreconditionViolated,
    Slp2,
    Vert,
    access2,
    access2_traced,
    build_index2,
    ceil_log,
    dims,
    expand2,
    hook_offset2,
    optimal_tau2,
    validate_slp2,
)
from gridgram.access2d import FINISH2
from gridgram.errors import RangeError
from gridgram.gen import random_slp2
from gridgram.access1d import _heavy, _turns
from conftest import expand_all_2d, submatrix


def _turns_of(g):
    """The turn bound of every variable (``access1d._turns``)."""
    return _turns(g._moves, g._topo, [_heavy(g._moves, g._topo, side) for side in (0, 1)])


def test_optimal_tau2_clamps():
    assert optimal_tau2(1) == 2
    assert optimal_tau2(2 ** 16, epsilon=2.0) == 16


def test_hook_full_window(grid22):
    hook, offset_r, offset_c = hook_offset2(grid22, 0, 0, 0, 2, 2)
    assert (hook, offset_r, offset_c) == (0, 0, 0)


def test_hook_examples(grid22):
    hook, offset_r, offset_c = hook_offset2(grid22, 0, 1, 0, 2, 1)
    assert (hook, offset_r, offset_c) == (5, 0, 0)
    hook, offset_r, offset_c = hook_offset2(grid22, 0, 0, 0, 1, 2)
    assert (hook, offset_r, offset_c) == (1, 0, 0)


def test_hook_rejects_bad_windows(grid22):
    with pytest.raises(RangeError):
        hook_offset2(grid22, 0, 0, 0, 3, 1)
    with pytest.raises(RangeError):
        hook_offset2(grid22, 0, 1, 1, 1, 2)


def test_hook_checks_the_variable_id():
    g = validate_slp2(Slp2([Vert(1, 2), 0, 1, Horiz(1, 1)], 2, 0))    # id 3 is unreachable
    for nid in (-1, 4):
        with pytest.raises(RangeError):
            hook_offset2(g, nid, 0, 0, 1, 1)


def _hook2_by_definition(g, nid, b_r, b_c, e_r, e_c):
    """Direct recursive transcription of the 2D hook/offset definitions."""
    rule = g.rules[nid]
    if isinstance(rule, int):
        return (nid, 0, 0)
    x, y = rule.children
    if isinstance(rule, Horiz):
        l = dims(g, x)[0]
        if b_r < l < e_r:
            return (nid, b_r, b_c)
        if e_r <= l:
            return _hook2_by_definition(g, x, b_r, b_c, e_r, e_c)
        return _hook2_by_definition(g, y, b_r - l, b_c, e_r - l, e_c)
    l = dims(g, x)[1]
    if b_c < l < e_c:
        return (nid, b_r, b_c)
    if e_c <= l:
        return _hook2_by_definition(g, x, b_r, b_c, e_r, e_c)
    return _hook2_by_definition(g, y, b_r, b_c - l, e_r, e_c - l)


def test_hook2_matches_recursive_definition():
    rng = random.Random(21)
    for seed in range(12):
        g = random_slp2(seed + 950, 14, sigma=3, max_cells=256)
        for _ in range(250):
            nid = rng.randrange(len(g.rules))
            r, c = dims(g, nid)
            b_r = rng.randrange(r)
            e_r = rng.randint(b_r + 1, r)
            b_c = rng.randrange(c)
            e_c = rng.randint(b_c + 1, c)
            hook, offset_r, offset_c = hook_offset2(g, nid, b_r, b_c, e_r, e_c)
            assert (hook, offset_r, offset_c) == \
                _hook2_by_definition(g, nid, b_r, b_c, e_r, e_c)


def test_hook_window_equality_exhaustive_small():
    """The relocated window equals the original submatrix; offsets never
    grow; 1x1 windows land on literals, larger ones straddle the split."""
    for seed in range(10):
        g = random_slp2(seed + 500, 16, sigma=3, max_cells=200)
        exps = expand_all_2d(g)
        for nid in range(len(g.rules)):
            w = exps[nid]
            for b_r in range(w.rows):
                for e_r in range(b_r + 1, w.rows + 1):
                    for b_c in range(w.cols):
                        for e_c in range(b_c + 1, w.cols + 1):
                            hook, offset_r, offset_c = hook_offset2(g, nid, b_r, b_c, e_r, e_c)
                            h = exps[hook]
                            assert submatrix(w, b_r, e_r, b_c, e_c) == submatrix(
                                h, offset_r, offset_r + (e_r - b_r),
                                offset_c, offset_c + (e_c - b_c))
                            assert offset_r <= b_r and offset_c <= b_c
                            rule = g.rules[hook]
                            if e_r - b_r == 1 and e_c - b_c == 1:
                                assert isinstance(rule, int)
                            else:
                                assert not isinstance(rule, int)
                                x = rule.children[0]
                                if isinstance(rule, Horiz):
                                    l = dims(g, x)[0]
                                    assert offset_r < l < offset_r + (e_r - b_r)
                                else:
                                    l = dims(g, x)[1]
                                    assert offset_c < l < offset_c + (e_c - b_c)


def test_index_1x1_text():
    g = validate_slp2(Slp2([4], 5, 0))
    ix = build_index2(g, 2)
    # a literal stores no level pair: the walk descends from it at once,
    # plainly, from the NW corner, the traced walk's one step, with no read
    assert ix.states == [] and ix.ids == {} and ix.first == ~(0 * 8 + 0 * 2 + 0)
    assert ix.entry_count() == 0
    assert access2(ix, 1, 1) == 4 and access2_traced(ix, 1, 1) == (4, 1)


def test_index_2x2_nw_entry(grid22):
    ix = build_index2(grid22, 2)
    assert ix.grammar._height == [2, 1, 1, 0, 0, 0, 0]
    # S is at most FINISH2 * 1 high, so the height rule stores levels (0, 0)
    # only, not (1, 0) or (0, 1); its point paths turn once, on heavy edges
    # only, so its turn bound 1 is at most the one read a walk has left at
    # (0, 0), and it stores no level pair, not its caps (1, 1): the walk
    # descends from S at once, plainly, with no read, and no state is built
    assert -(-ix.grammar._height[0] // FINISH2) == 1 and _turns_of(grid22)[0] == 1
    assert ix.first == ~(0 * 8 + 0) and ix.states == []
    assert access2_traced(ix, 2, 1) == (2, 1)
    # T_11, with T_k -> Vert(S, T_k-1) and T_0 = S (id 11, 2x2): id 0, 2x24,
    # height 13, so its mark is 2 and it stores level pairs up to (1, 1);
    # its column cap 4 reaches the mark, so again nothing is built and
    # every walk descends at once
    n = 11
    g = validate_slp2(Slp2([Vert(n, k + 1) for k in range(n - 1)]
                           + [Vert(n, n), Horiz(n + 1, n + 2), Vert(n + 3, n + 4),
                              Vert(n + 5, n + 6), 0, 1, 2, 3], 4, 0))
    ix = build_index2(g, 2)
    assert ix.grammar._height[0] == 13 and FINISH2 * 1 < 13 <= FINISH2 * 2
    assert ix.first < 0 and ix.entry_count() == 0
    m = expand2(g)
    assert all(access2_traced(ix, i, j) == (m.get(i, j), 1)
               for i in range(1, m.rows + 1) for j in range(1, m.cols + 1))


def test_index_entry_count_bound_random():
    for seed in range(25):
        g = random_slp2(seed + 600, 20, sigma=2, max_cells=4096)
        for tau in (2, 3):
            ix = build_index2(g, tau)
            assert ix.entry_count() <= 4 * len(g.rules) * tau * tau * (ix.levels + 1) ** 2


def test_index_clamps_tau_to_the_longest_side(grid22):
    ix = build_index2(grid22, 10 ** 11)
    two = build_index2(grid22, 2)
    assert ix.tau == 2 and (ix.first, ix.states, ix.keys, ix.ids) == \
        (two.first, two.states, two.keys, two.ids)
    assert optimal_tau2(2 ** 20, epsilon=50) == 2 ** 20
    # id 3 (1x8) is unreachable: the clamp is the start's longest side 2
    g = validate_slp2(Slp2([Vert(1, 2), 0, 1, Vert(4, 4), Vert(5, 5), Vert(1, 2)], 2, 0))
    ix = build_index2(g, 10 ** 11)
    assert ix.tau == 2 and [access2(ix, 1, j) for j in (1, 2)] == [0, 1]


def test_index_rejects_tau_below_two(grid22):
    with pytest.raises(PreconditionViolated):
        build_index2(grid22, 1)


def test_access_2x2(grid22):
    ix = build_index2(grid22, 2)
    assert access2(ix, 2, 1) == 2
    assert access2(ix, 1, 2) == 1


def test_access_1x1():
    g = validate_slp2(Slp2([3], 4, 0))
    ix = build_index2(g, 2)
    code, steps = access2_traced(ix, 1, 1)
    assert code == 3 and steps == 1


def test_access_out_of_range(grid22):
    ix = build_index2(grid22, 2)
    for (i, j) in ((0, 1), (3, 1), (1, 0), (1, 3)):
        with pytest.raises(PositionOutOfRange):
            access2(ix, i, j)


def test_access_random_equivalence_and_bound():
    for seed in range(12):
        g = random_slp2(seed + 800, 30, sigma=4, max_cells=4096)
        m = expand2(g)
        for tau in (2, 3, 8):
            ix = build_index2(g, tau)
            bound = ceil_log(m.rows, tau) + ceil_log(m.cols, tau) + 2
            for i in range(1, m.rows + 1):
                for j in range(1, m.cols + 1):
                    code, steps = access2_traced(ix, i, j)
                    assert code == m.get(i, j)
                    assert steps <= bound


def test_access_on_wide_arity_instance(ov_figure_vectors):
    """Point queries on the converted worked-example grammar hit the figure's
    cell values inside and outside a highlighted zero block."""
    from gridgram import slg2_to_slp2
    from gridgram.reductions import OvInstance, ov_to_pm

    pm = ov_to_pm(OvInstance(ov_figure_vectors))
    slp = slg2_to_slp2(pm.grammar)
    m = expand2(slp)
    ix = build_index2(slp, 2)
    assert access2(ix, 4, 6) == 0
    assert access2(ix, 4, 9) == 1
    for i in range(1, m.rows + 1):
        for j in range(1, m.cols + 1):
            assert access2(ix, i, j) == m.get(i, j)


def _comb_grammar(height):
    """Row comb: each level splits off one single-cell row from the top."""
    rules = []
    for i in range(height - 1):
        lit_id = (height - 1) + i
        nxt = i + 1 if i < height - 2 else (height - 1) + (height - 1)
        rules.append(Horiz(lit_id, nxt))
    rules.extend(j % 2 for j in range(height))
    return validate_slp2(Slp2(rules, 2, 0))


def test_access_comb_stays_within_iteration_bound():
    """Maximally unbalanced grammars must still finish in logarithmic steps."""
    for height, tau in ((64, 2), (100, 2), (81, 3)):
        g = _comb_grammar(height)
        m = expand2(g)
        ix = build_index2(g, tau)
        bound = ceil_log(height, tau) + ceil_log(1, tau) + 2
        for i in range(1, height + 1):
            code, steps = access2_traced(ix, i, 1)
            assert code == m.get(i, 1)
            assert steps <= bound


def _column_comb(width):
    """Column comb: each level splits off one single-cell column at the left."""
    rules = []
    for i in range(width - 1):
        lit_id = (width - 1) + i
        nxt = i + 1 if i < width - 2 else (width - 1) + (width - 1)
        rules.append(Vert(lit_id, nxt))
    rules.extend(j % 2 for j in range(width))
    return validate_slp2(Slp2(rules, 2, 0))


def _cross_comb(side):
    """Alternating comb: peel a row, then a column, then a row, ...

    Expansions shrink from side x side down to 1x1 one line at a time, the
    worst case for level bookkeeping on both axes at once.
    """
    rules = []
    strips = []  # (kind, id) of the strip rules, filled after sizing pass
    # plan sizes first: level k has dims (r_k, c_k)
    dims_plan = []
    r = c = side
    while r > 1 or c > 1:
        dims_plan.append((r, c))
        if (len(dims_plan) % 2 == 1 and r > 1) or c == 1:
            r -= 1
        else:
            c -= 1
    # core chain ids: 0..len(dims_plan)-1, then strip rules, then literals 0/1
    n_core = len(dims_plan)
    strip_rules = []
    core_rules = []
    lit0 = None  # assigned after strips are known

    def strip_of(kind, length, base_id, lits):
        # a 1 x length (Vert) or length x 1 (Horiz) strip as a chain
        ids = []
        prev = lits[0]
        for k in range(length - 1):
            strip_rules.append(kind(lits[(k + 1) % 2], prev))
            prev = base_id + len(strip_rules) - 1
        return prev

    base_id = n_core
    # literals appended at the very end; reserve their ids now
    # (count of strip rules is side-dependent, compute on the fly)
    tmp = []
    r = c = side
    step = 0
    for (r, c) in dims_plan:
        step += 1
        peel_row = (step % 2 == 1 and r > 1) or c == 1
        tmp.append(("H" if peel_row else "V", r, c))
    # build: strips sized c (rows peeled) or r (cols peeled)
    # literals ids come after core + strips; compute total strips first
    total_strip_rules = 0
    for kind, r, c in tmp:
        length = c if kind == "H" else r
        total_strip_rules += max(0, length - 1)
    lit_base = n_core + total_strip_rules
    lits = (lit_base, lit_base + 1)

    strip_rules.clear()
    strip_ids = []
    for kind, r, c in tmp:
        length = c if kind == "H" else r
        if length == 1:
            strip_ids.append(lits[0])
        else:
            strip_ids.append(strip_of(Vert if kind == "H" else Horiz,
                                      length, n_core, lits))
    for i, (kind, r, c) in enumerate(tmp):
        nxt = i + 1 if i + 1 < n_core else lits[1]
        if kind == "H":
            core_rules.append(Horiz(strip_ids[i], nxt))
        else:
            core_rules.append(Vert(strip_ids[i], nxt))
    rules = core_rules + strip_rules + [0, 1]
    return validate_slp2(Slp2(rules, 2, 0))


def test_access_column_comb_bound():
    for width, tau in ((64, 2), (100, 3)):
        g = _column_comb(width)
        m = expand2(g)
        ix = build_index2(g, tau)
        bound = ceil_log(1, tau) + ceil_log(width, tau) + 2
        for j in range(1, width + 1):
            code, steps = access2_traced(ix, 1, j)
            assert code == m.get(1, j)
            assert steps <= bound


def test_access_cross_comb_bound():
    """Rows and columns peeled alternately: both levels must keep dropping."""
    for side, tau in ((24, 2), (20, 3), (16, 8)):
        g = _cross_comb(side)
        m = expand2(g)
        assert (m.rows, m.cols) == (side, side)
        ix = build_index2(g, tau)
        bound = ceil_log(side, tau) * 2 + 2
        worst = 0
        for i in range(1, side + 1):
            for j in range(1, side + 1):
                code, steps = access2_traced(ix, i, j)
                assert code == m.get(i, j)
                worst = max(worst, steps)
        assert worst <= bound


def test_access_single_row_and_column():
    row = validate_slp2(Slp2([Vert(1, 2), Vert(3, 3), Vert(3, 4), 0, 1], 2, 0))
    m = expand2(row)
    assert m.rows == 1
    ix = build_index2(row, 2)
    for j in range(1, m.cols + 1):
        assert access2(ix, 1, j) == m.get(1, j)
    col = validate_slp2(Slp2([Horiz(1, 2), Horiz(3, 3), Horiz(4, 3), 0, 1], 2, 0))
    m = expand2(col)
    assert m.cols == 1
    ix = build_index2(col, 2)
    for i in range(1, m.rows + 1):
        assert access2(ix, i, 1) == m.get(i, 1)
