"""Corner-bookmark random access over 2D SLPs.

The 2D analogue of the 1D bookmark index. For every variable and level pair
(p_r, p_c), the index stores bookmarks for the tau x tau grid of blocks of
size tau**p_r x tau**p_c growing out of each of the four corners of the
variable's expansion (NW, NE, SW, SE). A bookmark is the 2D hook of the block
(the deepest variable whose expansion still contains the block strictly
straddling a child split on the splitting axis) together with the block's
row/column offset inside that hook.

A query keeps a state (variable, delta_r, delta_c, row side, column side)
addressing the target cell from one corner, and repeatedly applies the corner
mapping matching the current sides. Each mapping relocates the cell into a
child of the stored hook, contracting the distance on the hook's splitting
axis to at most tau**p while never growing the other axis. The level of the
contracted axis then drops by one, and levels also shrink whenever they
exceed the new variable's dimensions, which bounds the loop by
ceil(log_tau r) + ceil(log_tau c) + 2 iterations.

Only the top-left mapping is written out; the other three corners reuse the
same body through entry/exit coordinate mirrors, which keeps the four cases
from drifting apart. Tables are sparse dicts as in the 1D index; the stored
bookmark count is at most 4 * |V| * tau**2 * (ceil(log_tau n) + 1)**2 where
n = max(rows, cols).

Immutable after build; queries are safe under concurrent readers.
"""

from __future__ import annotations

import math

from .errors import PositionOutOfRange, PreconditionViolated, RangeError
from .access1d import ceil_log
from .slg2d import Horiz, validate_slp2


def optimal_tau2(n, epsilon=1.0):
    """The 2D preset floor(log2(n) ** (epsilon / 2)), clamped to >= 2.

    The optimal-time analysis sets tau = log**(epsilon/2) n, which drops
    below 2 for small n; the clamp keeps the structure well-defined there.
    """
    if n < 4:
        return 2
    return max(2, int(math.log2(n) ** (epsilon / 2.0)))


def _hook_core2(lit, kids, horiz, rows, cols, node, b_r, b_c, e_r, e_c):
    """Iterative 2D descent: rows-splitting variables compare the row window,
    columns-splitting variables the column window."""
    while lit[node] is None:
        x, y = kids[node]
        if horiz[node]:
            l = rows[x]
            if e_r <= l:
                node = x
            elif l <= b_r:
                node, b_r, e_r = y, b_r - l, e_r - l
            else:
                break
        else:
            l = cols[x]
            if e_c <= l:
                node = x
            elif l <= b_c:
                node, b_c, e_c = y, b_c - l, e_c - l
            else:
                break
    return node, b_r, b_c


def _grammar_arrays(g):
    lit = [r if isinstance(r, int) else None for r in g.rules]
    kids = [None if isinstance(r, int) else r.children for r in g.rules]
    horiz = [isinstance(r, Horiz) for r in g.rules]
    return lit, kids, horiz


def hook_offset2(g, nid, b_r, b_c, e_r, e_c):
    """2D hook and offsets of the window (b_r..e_r] x (b_c..e_c] of Exp(nid),
    as a (hook, offset_r, offset_c) triple.

    The window reappears inside the hook's expansion shifted to
    (offset_r..offset_r+(e_r-b_r)] x (offset_c..offset_c+(e_c-b_c)], with
    offsets never exceeding the original window start on either axis. A 1x1
    window lands on a literal; otherwise the hook's child split falls
    strictly inside the relocated window on the hook's splitting axis.
    """
    g.require_validated()
    m_r, m_c = g._rows[nid], g._cols[nid]
    if not (0 <= b_r < e_r <= m_r):
        raise RangeError(f"row window {b_r}..{e_r} invalid for {m_r} rows")
    if not (0 <= b_c < e_c <= m_c):
        raise RangeError(f"col window {b_c}..{e_c} invalid for {m_c} cols")
    lit, kids, horiz = _grammar_arrays(g)
    return _hook_core2(lit, kids, horiz, g._rows, g._cols, nid, b_r, b_c, e_r, e_c)


_CORNER_MIRROR = {
    "NW": (False, False),
    "NE": (False, True),
    "SW": (True, False),
    "SE": (True, True),
}

_SIDES_TO_CORNER = {
    ("T", "L"): "NW",
    ("T", "R"): "NE",
    ("B", "L"): "SW",
    ("B", "R"): "SE",
}


class AccessIndex2:
    """Four corner bookmark tables plus per-variable dimension/rule arrays."""

    __slots__ = ("grammar", "tau", "levels", "pows", "rows", "cols",
                 "lit", "kids", "horiz", "tables", "n_rows", "n_cols")

    def __init__(self, grammar, tau, levels, pows, rows, cols, lit, kids,
                 horiz, tables):
        self.grammar = grammar
        self.tau = tau
        self.levels = levels
        self.pows = pows
        self.rows = rows
        self.cols = cols
        self.lit = lit
        self.kids = kids
        self.horiz = horiz          # True iff the variable splits on rows
        self.tables = tables        # corner name -> {(i,p_r,p_c,k_r,k_c): (h,a_r,a_c)}
        self.n_rows = rows[grammar.start]
        self.n_cols = cols[grammar.start]

    def entry_count(self):
        """Stored bookmarks across all four corner tables."""
        return sum(len(t) for t in self.tables.values())

    def __repr__(self):
        return (f"AccessIndex2({self.n_rows}x{self.n_cols}, tau={self.tau}, "
                f"levels={self.levels}, entries={self.entry_count()})")


def build_index2(g, tau):
    """Populate every defined corner bookmark of all four tables."""
    if tau < 2:
        raise PreconditionViolated(f"tau must be >= 2, got {tau}")
    g = validate_slp2(g)
    rows, cols = g._rows, g._cols
    n = max(rows[g.start], cols[g.start])
    levels = ceil_log(n, tau)
    pows = [tau ** p for p in range(levels + 2)]
    lit, kids, horiz = _grammar_arrays(g)

    nw, ne, sw, se = {}, {}, {}, {}
    for i in range(len(g.rules)):
        m_r, m_c = rows[i], cols[i]
        for p_r in range(levels + 1):
            tpr = pows[p_r]
            blocks_r = min(tau, -(-m_r // tpr))
            for p_c in range(levels + 1):
                tpc = pows[p_c]
                blocks_c = min(tau, -(-m_c // tpc))
                for k_r in range(blocks_r):
                    b_r = k_r * tpr
                    e_r = min(m_r, b_r + tpr)
                    for k_c in range(blocks_c):
                        b_c = k_c * tpc
                        e_c = min(m_c, b_c + tpc)
                        key = (i, p_r, p_c, k_r, k_c)
                        nw[key] = _hook_core2(lit, kids, horiz, rows, cols,
                                              i, b_r, b_c, e_r, e_c)
                        ne[key] = _hook_core2(lit, kids, horiz, rows, cols,
                                              i, b_r, m_c - e_c, e_r, m_c - b_c)
                        sw[key] = _hook_core2(lit, kids, horiz, rows, cols,
                                              i, m_r - e_r, b_c, m_r - b_r, e_c)
                        se[key] = _hook_core2(lit, kids, horiz, rows, cols,
                                              i, m_r - e_r, m_c - e_c,
                                              m_r - b_r, m_c - b_c)
    tables = {"NW": nw, "NE": ne, "SW": sw, "SE": se}
    return AccessIndex2(g, tau, levels, pows, rows, cols, lit, kids, horiz, tables)


def corner_map(ix, corner, t, p_r, p_c, delta_r, delta_c):
    """One query step: relocate the cell addressed from ``corner`` of Exp(N_t).

    Returns (t', delta_r', delta_c', row_side, col_side) such that reading
    (delta_r, delta_c) from the given corner of Exp(N_t) equals reading
    (delta_r', delta_c') from the returned sides of Exp(N_t'), and either
    delta_r' <= tau**p_r with delta_c' not grown, or the column mirror of
    that statement.

    The body is the top-left mapping; the other corners enter through
    coordinate mirrors (offsets and child order flipped on the mirrored
    axis) and leave by flipping the returned side flags back.
    """
    row_mir, col_mir = _CORNER_MIRROR[corner]
    m_r, m_c = ix.rows[t], ix.cols[t]
    if not (0 <= p_r <= ix.levels) or not (0 <= p_c <= ix.levels) \
            or not (1 <= delta_r <= m_r) or not (1 <= delta_c <= m_c) \
            or delta_r > ix.pows[p_r + 1] or delta_c > ix.pows[p_c + 1]:
        raise PreconditionViolated(
            f"corner_map({corner}, t={t}, p=({p_r},{p_c}), delta=({delta_r},{delta_c}))"
            " out of contract")
    tpr = ix.pows[p_r]
    tpc = ix.pows[p_c]
    k_r = (delta_r - 1) // tpr
    b_r = k_r * tpr
    e_r = min(m_r, b_r + tpr)
    k_c = (delta_c - 1) // tpc
    b_c = k_c * tpc
    e_c = min(m_c, b_c + tpc)
    h, a_r, a_c = ix.tables[corner][(t, p_r, p_c, k_r, k_c)]
    if e_r - b_r == 1 and e_c - b_c == 1:
        return (h, 1, 1, "T", "L")

    la_r = a_r if not row_mir else ix.rows[h] - (a_r + (e_r - b_r))
    la_c = a_c if not col_mir else ix.cols[h] - (a_c + (e_c - b_c))
    x, y = ix.kids[h]
    if ix.horiz[h]:
        fx, fy = ((x, y) if not row_mir else (y, x))
        l = ix.rows[fx]
        if delta_r - b_r <= l - la_r:
            node, d_r, d_c = fx, (l - la_r) - (delta_r - b_r) + 1, la_c + (delta_c - b_c)
            r_side, c_side = "B", "L"
        else:
            node, d_r, d_c = fy, (delta_r - b_r) - (l - la_r), la_c + (delta_c - b_c)
            r_side, c_side = "T", "L"
    else:
        fx, fy = ((x, y) if not col_mir else (y, x))
        l = ix.cols[fx]
        if delta_c - b_c <= l - la_c:
            node, d_r, d_c = fx, la_r + (delta_r - b_r), (l - la_c) - (delta_c - b_c) + 1
            r_side, c_side = "T", "R"
        else:
            node, d_r, d_c = fy, la_r + (delta_r - b_r), (delta_c - b_c) - (l - la_c)
            r_side, c_side = "T", "L"
    if row_mir:
        r_side = "B" if r_side == "T" else "T"
    if col_mir:
        c_side = "R" if c_side == "L" else "L"
    return (node, d_r, d_c, r_side, c_side)


def access2_traced(ix, i, j):
    """Random access returning (code, loop_iterations).

    State starts at (start, i, j, T, L) with levels ceil(log_tau rows) and
    ceil(log_tau cols). Each iteration dispatches the corner mapping matching
    the current sides, then lowers the level of the contracted axis by one
    and additionally shrinks each level while tau**p exceeds the new
    variable's dimension on that axis. The loop ends when the state reaches a
    literal; the iteration count is at most
    ceil(log_tau rows) + ceil(log_tau cols) + 2.

    In test builds each iteration asserts the per-step contract: the
    contracted axis's distance drops to at most tau**p while the other axis's
    distance does not grow.
    """
    r0, c0 = ix.n_rows, ix.n_cols
    if not (1 <= i <= r0 and 1 <= j <= c0):
        raise PositionOutOfRange(f"({i},{j}) outside [1,{r0}] x [1,{c0}]")
    t, d_r, d_c = ix.grammar.start, i, j
    r_side, c_side = "T", "L"
    p_r = ceil_log(r0, ix.tau)
    p_c = ceil_log(c0, ix.tau)
    pows = ix.pows
    steps = 0
    lit = ix.lit
    while lit[t] is None:
        prev_r, prev_c = d_r, d_c
        t, d_r, d_c, r_side, c_side = corner_map(
            ix, _SIDES_TO_CORNER[(r_side, c_side)], t, p_r, p_c, d_r, d_c)
        steps += 1
        assert (d_r <= pows[p_r] and d_c <= prev_c) or \
               (d_c <= pows[p_c] and d_r <= prev_r), "per-step contract violated"
        if lit[t] is not None:
            break
        if d_r <= pows[p_r] and p_r > 0:
            p_r -= 1
        elif d_c <= pows[p_c] and p_c > 0:
            p_c -= 1
        while p_r > 0 and pows[p_r] > ix.rows[t]:
            p_r -= 1
        while p_c > 0 and pows[p_c] > ix.cols[t]:
            p_c -= 1
    assert d_r == 1 and d_c == 1
    return lit[t], steps


def access2(ix, i, j):
    """The symbol Exp(S)[i, j] (1-based)."""
    return access2_traced(ix, i, j)[0]
