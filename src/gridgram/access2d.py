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
from drifting apart. Corners are numbered 0..3 (NW, NE, SW, SE): bit 1 set
means measured from the bottom, bit 0 set means measured from the right.

Tables are flat: ``tables[corner][p_r][p_c]`` is one list per corner and
level pair, holding the bookmark of block (k_r, k_c) of variable i at
``(i * tau + k_r) * tau + k_c``; slots outside the variable's expansion hold
None. The stored bookmark count is at most
4 * |V| * tau**2 * (ceil(log_tau n) + 1)**2 where n = max(rows, cols).

The build fills the tables children first. On the axis a variable splits,
a block aligned to the top or left lies wholly inside the child x when its
far edge is within x, and then it is x's own block with the same key: the
descent enters x with the window unchanged, and the other axis is shared.
So is a block aligned to the bottom or right that lies wholly inside y.
Those bookmarks are copied from the child, a slice at a time; only blocks
that straddle the split or sit unaligned in the other child descend.

Immutable after build; queries are safe under concurrent readers.
"""

from __future__ import annotations

from .errors import PositionOutOfRange, PreconditionViolated, RangeError
from .access1d import ceil_log, optimal_tau
from .slg2d import Horiz, validate_slp2


def optimal_tau2(n, epsilon=1.0):
    """The 2D preset floor(log2(n) ** (epsilon / 2)), clamped to >= 2.

    The optimal-time analysis sets tau = log**(epsilon/2) n, which drops
    below 2 for small n; the clamp keeps the structure well-defined there.
    """
    return optimal_tau(n, epsilon / 2)


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


_CORNERS = ("NW", "NE", "SW", "SE")
_CORNER_ID = {name: c for c, name in enumerate(_CORNERS)}


class AccessIndex2:
    """Four corner bookmark tables plus per-variable dimension/rule arrays."""

    __slots__ = ("grammar", "tau", "levels", "pows", "rows", "cols", "lit", "kids",
                 "horiz", "tables", "entries", "n_rows", "n_cols", "top_r", "top_c")

    def __init__(self, grammar, tau, levels, pows, rows, cols, lit, kids,
                 horiz, tables, entries):
        self.grammar = grammar
        self.tau = tau
        self.levels = levels
        self.pows = pows
        self.rows = rows
        self.cols = cols
        self.lit = lit
        self.kids = kids
        self.horiz = horiz          # True iff the variable splits on rows
        self.tables = tables        # [corner][p_r][p_c][(i*tau+k_r)*tau+k_c] -> (h,a_r,a_c)
        self.entries = entries      # defined slots, counted by the build
        self.n_rows = rows[grammar.start]
        self.n_cols = cols[grammar.start]
        self.top_r = ceil_log(self.n_rows, tau)   # the walk's starting levels
        self.top_c = ceil_log(self.n_cols, tau)

    def entry_count(self):
        """Stored bookmarks across all four corner tables."""
        return self.entries

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

    span = tau * tau                # slots per variable in one table
    size = len(g.rules) * span
    tables = [[[[None] * size for _ in range(levels + 1)] for _ in range(levels + 1)]
              for _ in _CORNERS]
    entries = 0
    for i in reversed(g._topo):
        m_r, m_c = rows[i], cols[i]
        base = i * span
        if lit[i] is not None:
            hook = (i, 0, 0)
            for corner_tables in tables:
                for row_level in corner_tables:
                    for table in row_level:
                        table[base] = hook
            entries += 4 * (levels + 1) ** 2
            continue
        x, y = kids[i]
        for p_r in range(levels + 1):
            tpr = pows[p_r]
            blocks_r = min(tau, -(-m_r // tpr))
            for p_c in range(levels + 1):
                tpc = pows[p_c]
                blocks_c = min(tau, -(-m_c // tpc))
                entries += 4 * blocks_r * blocks_c
                for corner in range(4):
                    table = tables[corner][p_r][p_c]
                    # the child on the split axis that shares this corner's side
                    if horiz[i]:
                        src = y if corner & 2 else x
                        cut_r, cut_c = min(blocks_r, rows[src] // tpr), 0
                        start = src * span
                        table[base:base + cut_r * tau] = table[start:start + cut_r * tau]
                    else:
                        src = y if corner & 1 else x
                        cut_r, cut_c = 0, min(blocks_c, cols[src] // tpc)
                        for k_r in range(blocks_r):
                            at, start = base + k_r * tau, src * span + k_r * tau
                            table[at:at + cut_c] = table[start:start + cut_c]
                    for k_r in range(cut_r, blocks_r):
                        b_r = k_r * tpr
                        e_r = min(m_r, b_r + tpr)
                        if corner & 2:
                            b_r, e_r = m_r - e_r, m_r - b_r
                        at = base + k_r * tau
                        for k_c in range(cut_c, blocks_c):
                            b_c = k_c * tpc
                            e_c = min(m_c, b_c + tpc)
                            if corner & 1:
                                b_c, e_c = m_c - e_c, m_c - b_c
                            table[at + k_c] = _hook_core2(lit, kids, horiz, rows, cols,
                                                          i, b_r, b_c, e_r, e_c)
    return AccessIndex2(g, tau, levels, pows, rows, cols, lit, kids, horiz, tables, entries)


def _bad_bookmark(t, p_r, p_c, k_r, k_c, what):
    return PreconditionViolated(
        f"bookmark of variable {t}, levels ({p_r},{p_c}), block ({k_r},{k_c}) {what}")


def corner_map(ix, corner, t, p_r, p_c, delta_r, delta_c):
    """One query step: relocate the cell addressed from ``corner`` of Exp(N_t).

    Returns (t', delta_r', delta_c', row_side, col_side) such that reading
    (delta_r, delta_c) from the given corner of Exp(N_t) equals reading
    (delta_r', delta_c') from the returned sides of Exp(N_t'), and either
    delta_r' <= tau**p_r with delta_c' not grown, or the column mirror of
    that statement.

    The body is the top-left mapping; the other corners enter through
    coordinate mirrors (offsets and child order flipped on the mirrored
    axis). Landing in the child nearer the corner on the split axis flips
    that axis's side; the farther child keeps both sides.
    """
    c = _CORNER_ID[corner]
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
    k_c = (delta_c - 1) // tpc
    b_c = k_c * tpc
    w_r, w_c = min(m_r - b_r, tpr), min(m_c - b_c, tpc)
    h, a_r, a_c = ix.tables[c][p_r][p_c][(t * ix.tau + k_r) * ix.tau + k_c]
    if ix.lit[h] is not None:
        if w_r != 1 or w_c != 1:
            raise _bad_bookmark(t, p_r, p_c, k_r, k_c,
                                f"is the literal {h} for a {w_r}x{w_c} block")
        return (h, 1, 1, "T", "L")
    # offsets of the block inside the hook, measured from the corner's sides
    if c & 2:
        a_r = ix.rows[h] - (a_r + w_r)
    if c & 1:
        a_c = ix.cols[h] - (a_c + w_c)
    d_r, d_c = delta_r - b_r, delta_c - b_c    # the cell inside the block
    x, y = ix.kids[h]
    if ix.horiz[h]:
        near, far = (y, x) if c & 2 else (x, y)
        s = ix.rows[near] - a_r                 # the split, inside the block
        if not 0 < s < w_r:
            raise _bad_bookmark(t, p_r, p_c, k_r, k_c, "does not straddle its hook's split")
        if d_r <= s:
            t, d_r, c = near, s - d_r + 1, c ^ 2
        else:
            t, d_r = far, d_r - s
        d_c += a_c
    else:
        near, far = (y, x) if c & 1 else (x, y)
        s = ix.cols[near] - a_c
        if not 0 < s < w_c:
            raise _bad_bookmark(t, p_r, p_c, k_r, k_c, "does not straddle its hook's split")
        if d_c <= s:
            t, d_c, c = near, s - d_c + 1, c ^ 1
        else:
            t, d_c = far, d_c - s
        d_r += a_r
    return (t, d_r, d_c, "B" if c & 2 else "T", "R" if c & 1 else "L")


def access2_traced(ix, i, j):
    """Random access returning (code, loop_iterations).

    State starts at (start, i, j, T, L) with levels ceil(log_tau rows) and
    ceil(log_tau cols). Each iteration dispatches the checked corner mapping
    matching the current sides, then lowers the level of the contracted axis
    by one and additionally shrinks each level while tau**p exceeds the new
    variable's dimension on that axis. The loop ends when the state reaches a
    literal; the iteration count is at most
    ceil(log_tau rows) + ceil(log_tau cols) + 2.

    Each iteration checks the per-step contract: the contracted axis's
    distance drops to at most tau**p while the other axis's distance does
    not grow; a breach, or a walk that ends off (1, 1), raises
    PreconditionViolated.
    """
    r0, c0 = ix.n_rows, ix.n_cols
    if not (1 <= i <= r0 and 1 <= j <= c0):
        raise PositionOutOfRange(f"({i},{j}) outside [1,{r0}] x [1,{c0}]")
    t, d_r, d_c = ix.grammar.start, i, j
    corner = "NW"
    p_r, p_c = ix.top_r, ix.top_c
    pows = ix.pows
    steps = 0
    lit = ix.lit
    while lit[t] is None:
        prev_r, prev_c = d_r, d_c
        t, d_r, d_c, r_side, c_side = corner_map(ix, corner, t, p_r, p_c, d_r, d_c)
        corner = ("N" if r_side == "T" else "S") + ("W" if c_side == "L" else "E")
        steps += 1
        if not ((d_r <= pows[p_r] and d_c <= prev_c) or (d_c <= pows[p_c] and d_r <= prev_r)):
            raise PreconditionViolated(
                f"per-step contract violated at levels ({p_r},{p_c}): "
                f"({prev_r},{prev_c}) -> ({d_r},{d_c})")
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
    if d_r != 1 or d_c != 1:
        raise PreconditionViolated(f"walk ended at variable {t}, delta ({d_r},{d_c}), not (1,1)")
    return lit[t], steps


def access2(ix, i, j):
    """The symbol Exp(S)[i, j] (1-based).

    The same walk as access2_traced in one loop with integer corners and no
    per-step checks; it stops as soon as a bookmark's hook is a literal.
    """
    r0, c0 = ix.n_rows, ix.n_cols
    if not (1 <= i <= r0 and 1 <= j <= c0):
        raise PositionOutOfRange(f"({i},{j}) outside [1,{r0}] x [1,{c0}]")
    tau, pows, rows, cols = ix.tau, ix.pows, ix.rows, ix.cols
    lit, kids, horiz, tables = ix.lit, ix.kids, ix.horiz, ix.tables
    t, d_r, d_c, c = ix.grammar.start, i, j, 0
    p_r, p_c = ix.top_r, ix.top_c
    while lit[t] is None:
        tpr, tpc = pows[p_r], pows[p_c]
        k_r = (d_r - 1) // tpr
        k_c = (d_c - 1) // tpc
        h, a_r, a_c = tables[c][p_r][p_c][(t * tau + k_r) * tau + k_c]
        code = lit[h]
        if code is not None:
            return code
        b_r = k_r * tpr
        b_c = k_c * tpc
        if c & 2:
            a_r = rows[h] - (a_r + min(rows[t] - b_r, tpr))
        if c & 1:
            a_c = cols[h] - (a_c + min(cols[t] - b_c, tpc))
        d_r -= b_r
        d_c -= b_c
        x, y = kids[h]
        if horiz[h]:
            near, far = (y, x) if c & 2 else (x, y)
            s = rows[near] - a_r
            if d_r <= s:
                t, d_r, c = near, s - d_r + 1, c ^ 2
            else:
                t, d_r = far, d_r - s
            d_c += a_c
        else:
            near, far = (y, x) if c & 1 else (x, y)
            s = cols[near] - a_c
            if d_c <= s:
                t, d_c, c = near, s - d_c + 1, c ^ 1
            else:
                t, d_c = far, d_c - s
            d_r += a_r
        if d_r <= tpr and p_r > 0:
            p_r -= 1
        elif d_c <= tpc and p_c > 0:
            p_c -= 1
        while p_r > 0 and pows[p_r] > rows[t]:
            p_r -= 1
        while p_c > 0 and pows[p_c] > cols[t]:
            p_c -= 1
    return lit[t]
