"""Corner-bookmark random access over 2D SLPs.

The 2D analogue of the 1D bookmark index. For every variable reachable from
the start and every level pair (p_r, p_c) within the variable's level caps
(below), the index stores bookmarks for the tau x tau grid of blocks of
size tau**p_r x tau**p_c growing out of each of the four corners of the
variable's expansion (NW, NE, SW, SE). A bookmark is found through the 2D
hook of the block (the deepest variable whose expansion still contains the
block strictly straddling a child split on the splitting axis), but it is
stored resolved, as the step a query takes there:
``(axis, s, near, far, shift)``. axis is 1 when the hook splits rows and 0
when it splits columns; s is the hook's split inside the block on that axis,
measured from the corner; near and far are the hook's children in that order
from the corner; shift is the block's offset inside the hook on the other
axis, measured from the corner's side. A 1x1 block of a literal variable v
is stored as ``(0, 0, v, None, 0)``.

A query keeps a state (variable, delta_r, delta_c, row side, column side)
addressing the target cell from one corner, and repeatedly applies the
stored step for the current corner. Each step relocates the cell into a
child of the hook, contracting the distance on the hook's splitting axis to
at most tau**p while never growing the other axis. The level of the
contracted axis then drops by one, and levels are also capped by the new
variable's dimensions: cap_r and cap_c, the largest p with tau**p within its
rows and columns, computed per variable by the build. The walk starts at the
start's caps, which is exact because delta <= rows < tau**(cap_r + 1) (and
the same for columns). Each step but the last lowers p_r + p_c by at least
one, and at levels (0, 0) every block is one cell, so the traced walk makes
at most floor(log_tau r) + floor(log_tau c) + 1 steps. Corners are numbered
0..3 (NW, NE, SW, SE), in the tables and in corner_map, the checked single
step: bit 1 set means measured from the bottom, bit 0 set means from the
right.

Where descending is cheaper than reading on, a slot holds a finish marker
instead: every block slot of a variable i at a level pair (p_r, p_c) with
height(i) <= 2 (p_r + p_c) (a literal has height 0, a pair one more than its
higher child) is ``(0, 0, i, None, 0)``, the literal step's shape, and for a
literal the literal step itself. The fast walk reads tables until it meets a
marker and then finishes by a root-to-leaf descent from the marker's
variable, so it makes at most L + 1 reads plus 2L moves,
L = floor(log_tau r) + floor(log_tau c). corner_map checks a marker against
its variable's height and the block's place, then resolves the real step by
descent, so the traced walk's steps do not change.

Tables are flat and per variable: ``tables[corner][t]`` is one list per
corner and variable reachable from the start (None for the others). It
holds only the level pairs a walk can read, p_r <= cap_r[t] and
p_c <= cap_c[t], with the step of block (k_r, k_c) at level pair
(p_r, p_c) at ``((p_r * (cap_c[t] + 1) + p_c) * tau + k_r) * tau + k_c``;
slots outside the variable's expansion hold None. A list has
(cap_r[t] + 1) * (cap_c[t] + 1) * tau**2 slots, so the stored bookmark count
is at most 4 * |V| * tau**2 * (ceil(log_tau n) + 1)**2 where
n = max(rows, cols). As in 1D, the build clamps tau to the longest side of
the start's expansion (and to at least 2), which changes neither levels
nor blocks, and it stores equal steps as one tuple.

The build fills the tables children first. On the axis a variable splits,
a block aligned to the top or left lies wholly inside the child x when its
far edge is within x, and then it is x's own block with the same key: the
descent enters x with the window unchanged, and the other axis is shared,
so it reaches the same hook at the same place. So is a block aligned to the
bottom or right that lies wholly inside y. Those steps are copied from the
child's own list, a slice at a time, markers included, since the block sits
at the same offset from the same corner of the child; only blocks that
straddle the split or sit unaligned in the other child descend. The child
has the level pair whenever a block fits inside it, and on a rows split it
has the parent's columns, hence the parent's column cap and stride.

A descent jumps along long runs of moves as in 1D, with the same RUN and
the same ``_jumps`` tables over the x and the y children, whatever axis
each variable splits: it may move on to a node v of the x chain while the
window's far corner fits in v (e_r <= rows[v] and e_c <= cols[v]), and to
a node v of the y chain while v's offsets inside the node are at most the
window's start on both axes. Both tests are monotone along a chain, since
rows and columns shrink down it. A run may switch axes and still jump: on
the staircase X_{k+1} = Horiz(Vert(X_k, col_k), row_{k+1}) reaches X_k by
two x moves, one on each axis. The tables cost what they cost in 1D and
are dropped when the build returns. A descent given NO_JUMPS is the plain
walk; hook_offset2 and corner_map use it.

Immutable after build; queries are safe under concurrent readers.
"""

from __future__ import annotations

from .errors import PositionOutOfRange, PreconditionViolated, RangeError
from .access1d import NO_JUMPS, RUN, _jumps, _preset, ceil_log, clamp_tau
from .slg import _check_binary
from .slg2d import validate_slp2


def optimal_tau2(n, epsilon=1.0):
    """The 2D preset floor(log2(n) ** (epsilon / 2)), clamped to [2, max(2, n)].

    The optimal-time analysis sets tau = log**(epsilon/2) n, which drops
    below 2 for small n; the clamp keeps the structure well-defined there.
    epsilon is checked as given, before it is halved.
    """
    return _preset(n, epsilon, 0.5)


def _layout2(g, tau):
    """The clamped tau and per-variable level caps of an index at ``tau``
    over the validated 2D SLP g."""
    rows, cols = g._rows, g._cols
    tau = clamp_tau(tau, max(rows[g.start], cols[g.start]))
    cap_r = [ceil_log(r + 1, tau) - 1 for r in rows]
    cap_c = [ceil_log(c + 1, tau) - 1 for c in cols]
    return tau, cap_r, cap_c


def table_slots2(g, tau):
    """Slots, defined or not, that build_index2(g, tau) allocates for the validated 2D SLP g."""
    tau, cap_r, cap_c = _layout2(g, tau)
    return 4 * tau * tau * sum((cr + 1) * (cc + 1)
                               for cr, cc, r in zip(cap_r, cap_c, g._reach) if r)


def _jump2(table, rows, cols, node, need_r, need_c):
    """The last node on ``table``'s chain from node with at least need_r rows
    and need_c columns, found by doubling then halving the jump, as
    ``_jump1`` does with lengths."""
    j = 0
    while j < len(table):
        v = table[j][node]
        if v < 0 or rows[v] < need_r or cols[v] < need_c:
            break
        node = v
        j += 1
    while j:
        j -= 1
        v = table[j][node]
        if v >= 0 and rows[v] >= need_r and cols[v] >= need_c:
            node = v
    return node


def _hook_core2(kids, horiz, rows, cols, node, b_r, b_c, e_r, e_c, corner, jumps):
    """Iterative 2D descent: rows-splitting variables compare the row window,
    columns-splitting variables the column window.

    Returns the step a query takes from ``corner`` at the hook:
    (axis, split from the corner, near child, far child, shift on the other
    axis from the corner's side), or (0, 0, literal, None, 0). With corner
    None it returns the (hook, offset_r, offset_c) triple instead.

    ``jumps`` is the pair of ``_jumps`` tables for the x and the y children;
    after RUN moves in a row to one child the descent jumps along its chain
    (see the module docstring). With NO_JUMPS it is the plain walk.
    """
    jx, jy = jumps
    xs = ys = 0                     # the current run of x / y moves
    while (kid := kids[node]) is not None:
        x, y = kid
        if horiz[node]:
            l = rows[x]
            if e_r <= l:
                node = x
                xs += 1
                ys = 0
                if xs == RUN and jx:
                    node = _jump2(jx, rows, cols, node, e_r, e_c)
                    xs = 0
                continue
            if l <= b_r:
                node, b_r, e_r = y, b_r - l, e_r - l
            elif corner is None:
                break
            else:
                shift = cols[node] - e_c if corner & 1 else b_c
                return (1, e_r - l, y, x, shift) if corner & 2 else (1, l - b_r, x, y, shift)
        else:
            l = cols[x]
            if e_c <= l:
                node = x
                xs += 1
                ys = 0
                if xs == RUN and jx:
                    node = _jump2(jx, rows, cols, node, e_r, e_c)
                    xs = 0
                continue
            if l <= b_c:
                node, b_c, e_c = y, b_c - l, e_c - l
            elif corner is None:
                break
            else:
                shift = rows[node] - e_r if corner & 2 else b_r
                return (0, e_c - l, y, x, shift) if corner & 1 else (0, l - b_c, x, y, shift)
        ys += 1                     # the move went to y
        xs = 0
        if ys == RUN and jy:
            top_r, top_c = rows[node], cols[node]
            node = _jump2(jy, rows, cols, node, top_r - b_r, top_c - b_c)
            s_r, s_c = top_r - rows[node], top_c - cols[node]
            b_r, e_r, b_c, e_c, ys = b_r - s_r, e_r - s_r, b_c - s_c, e_c - s_c, 0
    return (node, b_r, b_c) if corner is None else (0, 0, node, None, 0)


def hook_offset2(g, nid, b_r, b_c, e_r, e_c):
    """2D hook and offsets of the window (b_r..e_r] x (b_c..e_c] of Exp(nid),
    as a (hook, offset_r, offset_c) triple.

    The reference: the plain walk, one move per grammar level, with no jump
    tables. The window reappears inside the hook's expansion shifted to
    (offset_r..offset_r+(e_r-b_r)] x (offset_c..offset_c+(e_c-b_c)], with
    offsets never exceeding the original window start on either axis. A 1x1
    window lands on a literal; otherwise the hook's child split falls
    strictly inside the relocated window on the hook's splitting axis. A walk
    that meets a rule of arity other than 2 raises NotAnSlp.
    """
    nid = g._checked_id(nid)
    m_r, m_c = g._rows[nid], g._cols[nid]
    if not (isinstance(b_r, int) and isinstance(e_r, int) and 0 <= b_r < e_r <= m_r):
        raise RangeError(f"row window {b_r!r}..{e_r!r} invalid for {m_r} rows")
    if not (isinstance(b_c, int) and isinstance(e_c, int) and 0 <= b_c < e_c <= m_c):
        raise RangeError(f"col window {b_c!r}..{e_c!r} invalid for {m_c} cols")
    try:
        return _hook_core2(g._kids, g._horiz, g._rows, g._cols, nid, b_r, b_c, e_r, e_c,
                           None, NO_JUMPS)
    except ValueError:          # a child tuple did not unpack into two
        _check_binary(g, "hook_offset2")
        raise


class AccessIndex2:
    """Four corner bookmark tables and per-variable level caps, plus
    references to the grammar's walk arrays."""

    __slots__ = ("grammar", "tau", "levels", "pows", "rows", "cols", "kids", "horiz",
                 "height", "cap_r", "cap_c", "tables", "entries", "n_rows", "n_cols")

    def __init__(self, grammar, tau, levels, pows, height, cap_r, cap_c, tables, entries):
        self.grammar = grammar      # the validated 2D SLP; a literal's code is its rule
        self.tau = tau              # clamped to the start's longest side (at least 2)
        self.levels = levels
        self.pows = pows
        self.rows = grammar._rows   # the grammar's row and column counts
        self.cols = grammar._cols
        self.kids = grammar._kids   # the grammar's (x, y) child ids, None for literals
        self.horiz = grammar._horiz  # the grammar's flags: True when a variable splits rows
        self.height = height        # longest path down to a literal, 0 for a literal
        self.cap_r = cap_r          # per variable: the largest p with tau**p <= rows
        self.cap_c = cap_c          # per variable: the largest p with tau**p <= cols
        self.tables = tables        # [corner][t][((p_r*(cap_c[t]+1)+p_c)*tau+k_r)*tau+k_c]
                                    #   -> (axis, s, near, far, shift); [corner][t] is
                                    #   None for a variable unreachable from the start
        self.entries = entries      # defined slots, counted by the build
        self.n_rows = self.rows[grammar.start]
        self.n_cols = self.cols[grammar.start]

    def entry_count(self):
        """Stored bookmarks across all four corner tables."""
        return self.entries

    def __repr__(self):
        return (f"AccessIndex2({self.n_rows}x{self.n_cols}, tau={self.tau}, "
                f"levels={self.levels}, entries={self.entry_count()})")


def _windows(m, pows, tau):
    """Per level: the block windows (b, e] along an axis of length m, as the
    pair (measured from the start, measured from the end)."""
    out = []
    for tp in pows[:-1]:
        stop = m if m < tau * tp else tau * tp
        fwd = [(b, b + tp if b + tp < m else m) for b in range(0, stop, tp)]
        out.append((fwd, [(m - e, m - b) for b, e in fwd]))
    return out


def build_index2(g, tau):
    """Populate every defined corner step of the variables reachable from the
    start; every block of a variable i at a level pair (p_r, p_c) with
    height(i) <= 2 (p_r + p_c) gets the finish marker (0, 0, i, None, 0)."""
    g = validate_slp2(g)
    rows, cols, kids, horiz, reach = g._rows, g._cols, g._kids, g._horiz, g._reach
    tau, cap_r, cap_c = _layout2(g, tau)
    levels = ceil_log(max(rows[g.start], cols[g.start]), tau)
    pows = [tau ** p for p in range(levels + 2)]
    share = {}.setdefault           # step -> its one stored copy
    jumps = (_jumps(kids, 0), _jumps(kids, 1))

    span = tau * tau                # slots per level pair in one list
    tables = [[None] * len(kids) for _ in range(4)]
    height = [0] * len(kids)
    entries = 0
    for i in reversed(g._topo):
        if kids[i] is not None:
            x, y = kids[i]
            height[i] = 1 + max(height[x], height[y])
        if not reach[i]:
            continue
        if kids[i] is None:         # a literal, caps (0, 0): one level pair, one cell
            step = (0, 0, i, None, 0)
            step = share(step, step)
            for corner_tables in tables:
                corner_tables[i] = [step] + [None] * (span - 1)
            entries += 4
            continue
        x, y = kids[i]
        cr, cc = cap_r[i], cap_c[i]
        win_r = _windows(rows[i], pows[:cr + 2], tau)
        win_c = _windows(cols[i], pows[:cc + 2], tau)
        size = (cr + 1) * (cc + 1) * span
        own = [[None] * size for _ in range(4)]
        for corner in range(4):
            tables[corner][i] = own[corner]
        for p_r in range(cr + 1):
            tpr = pows[p_r]
            blocks_r = len(win_r[p_r][0])
            for p_c in range(cc + 1):
                tpc = pows[p_c]
                blocks_c = len(win_c[p_c][0])
                entries += 4 * blocks_r * blocks_c
                base = (p_r * (cc + 1) + p_c) * span
                if height[i] <= 2 * (p_r + p_c):   # descending from i is cheaper
                    marker = (0, 0, i, None, 0)
                    marks = [share(marker, marker)] * blocks_c
                    for table in own:
                        for at in range(base, base + blocks_r * tau, tau):
                            table[at:at + blocks_c] = marks
                    continue
                for corner in range(4):
                    table = own[corner]
                    # the child on the split axis that shares this corner's side
                    if horiz[i]:
                        src = y if corner & 2 else x
                        cut_r, cut_c = rows[src] // tpr, 0
                        if cut_r > blocks_r:
                            cut_r = blocks_r
                        if cut_r:           # same columns, so the same stride
                            table[base:base + cut_r * tau] = \
                                tables[corner][src][base:base + cut_r * tau]
                    else:
                        src = y if corner & 1 else x
                        cut_r, cut_c = 0, cols[src] // tpc
                        if cut_c > blocks_c:
                            cut_c = blocks_c
                        if cut_c:
                            child = tables[corner][src]
                            start = (p_r * (cap_c[src] + 1) + p_c) * span
                            for at in range(base, base + blocks_r * tau, tau):
                                table[at:at + cut_c] = child[start:start + cut_c]
                                start += tau
                    col_wins = win_c[p_c][corner & 1][cut_c:]
                    for k_r, (b_r, e_r) in enumerate(win_r[p_r][corner >> 1][cut_r:], cut_r):
                        at = base + k_r * tau
                        for k_c, (b_c, e_c) in enumerate(col_wins, at + cut_c):
                            step = _hook_core2(kids, horiz, rows, cols,
                                               i, b_r, b_c, e_r, e_c, corner, jumps)
                            table[k_c] = share(step, step)
    return AccessIndex2(g, tau, levels, pows, height, cap_r, cap_c, tables, entries)


def _bad_bookmark(t, p_r, p_c, k_r, k_c, what):
    return PreconditionViolated(
        f"bookmark of variable {t}, levels ({p_r},{p_c}), block ({k_r},{k_c}) {what}")


def corner_map(ix, corner, t, p_r, p_c, delta_r, delta_c):
    """One checked query step: relocate the cell addressed from ``corner``
    (0..3, bit 1 = from the bottom, bit 0 = from the right) of Exp(N_t).

    Returns (t', delta_r', delta_c', corner') such that reading
    (delta_r, delta_c) from the given corner of Exp(N_t) equals reading
    (delta_r', delta_c') from corner' of Exp(N_t'), and either
    delta_r' <= tau**p_r with delta_c' not grown, or the column mirror of
    that statement.

    The stored step is already seen from the corner: landing in the child
    nearer the corner on the split axis flips that axis's side, the farther
    child keeps both sides, and the other axis moves by the stored shift.
    A level above the variable's cap on its axis reads at the cap, whose
    blocks are no larger, so the step still contracts within tau**p. A
    finish marker ``(0, 0, v, None, 0)`` for a pair v is checked (v is t or
    on t's spine of children on the corner's sides with the block inside
    it, and height(v) <= 2 (p_r + p_c) at the capped levels) and then
    resolved into the real step by descent; a literal step must equal the
    step the same descent gives.
    """
    m_r, m_c = (ix.rows[t], ix.cols[t]) if isinstance(t, int) and 0 <= t < len(ix.rows) \
        else (0, 0)
    if not (isinstance(corner, int) and 0 <= corner <= 3) \
            or not (isinstance(p_r, int) and 0 <= p_r <= ix.levels) \
            or not (isinstance(p_c, int) and 0 <= p_c <= ix.levels) \
            or not (isinstance(delta_r, int) and 1 <= delta_r <= m_r) \
            or not (isinstance(delta_c, int) and 1 <= delta_c <= m_c) \
            or delta_r > ix.pows[p_r + 1] or delta_c > ix.pows[p_c + 1]:
        raise PreconditionViolated(
            f"corner_map(corner={corner!r}, t={t}, p=({p_r},{p_c}), "
            f"delta=({delta_r},{delta_c})) out of contract")
    table = ix.tables[corner][t]
    if table is None:
        raise PreconditionViolated(f"variable {t} is not reachable from the start "
                                   f"and has no bookmarks")
    p_r, p_c = min(p_r, ix.cap_r[t]), min(p_c, ix.cap_c[t])
    tpr = ix.pows[p_r]
    tpc = ix.pows[p_c]
    k_r = (delta_r - 1) // tpr
    b_r = k_r * tpr
    k_c = (delta_c - 1) // tpc
    b_c = k_c * tpc
    w_r, w_c = min(m_r - b_r, tpr), min(m_c - b_c, tpc)
    tau = ix.tau
    step = table[((p_r * (ix.cap_c[t] + 1) + p_c) * tau + k_r) * tau + k_c]
    axis, s, near, far, shift = step
    if far is None:
        literal = 0 <= near < len(ix.kids) and ix.kids[near] is None
        if not literal and (not _on_spine2(ix, corner, t, near, b_r + w_r, b_c + w_c)
                            or ix.height[near] > 2 * (p_r + p_c)):
            raise _bad_bookmark(t, p_r, p_c, k_r, k_c,
                                f"is a finish marker for {near}, off the block's spine "
                                f"or above height {2 * (p_r + p_c)}")
        e_r = m_r - b_r if corner & 2 else b_r + w_r    # the block's window, from the NW
        e_c = m_c - b_c if corner & 1 else b_c + w_c
        axis, s, near, far, shift = real = _hook_core2(
            ix.kids, ix.horiz, ix.rows, ix.cols,
            t, e_r - w_r, e_c - w_c, e_r, e_c, corner, NO_JUMPS)
        if literal and real != step:
            raise _bad_bookmark(t, p_r, p_c, k_r, k_c,
                                f"is the literal step {step}, descent gives {real}")
    if far is None:
        return near, 1, 1, 0
    if not 0 < s < (w_r if axis else w_c):    # s: the hook's split, inside the block
        raise _bad_bookmark(t, p_r, p_c, k_r, k_c, "does not straddle its hook's split")
    d_r, d_c = delta_r - b_r, delta_c - b_c    # the cell inside the block
    if axis:
        if d_r <= s:
            return near, s - d_r + 1, d_c + shift, corner ^ 2
        return far, d_r - s, d_c + shift, corner
    if d_c <= s:
        return near, d_r + shift, s - d_c + 1, corner ^ 1
    return far, d_r + shift, d_c - s, corner


def _on_spine2(ix, corner, t, v, e_r, e_c):
    """Whether v is t or a descendant reached through the children on
    ``corner``'s side of each split, each holding the first e_r rows and
    e_c columns from that corner."""
    kids, horiz, rows, cols = ix.kids, ix.horiz, ix.rows, ix.cols
    while t != v:
        if kids[t] is None:
            return False
        t = kids[t][corner >> 1 if horiz[t] else corner & 1]
        if e_r > rows[t] or e_c > cols[t]:
            return False
    return True


def access2_traced(ix, i, j):
    """Random access returning (code, loop_iterations).

    State starts at (start, i, j, corner 0) at the start's level caps
    floor(log_tau rows) and floor(log_tau cols). Each iteration makes one
    checked corner_map from the current corner, then lowers the
    level of the contracted axis by one and caps each level by the new
    variable's dimension on that axis (the largest p with tau**p within it).
    The loop ends when the state reaches a literal; the iteration count is
    at most floor(log_tau rows) + floor(log_tau cols) + 1.

    Each iteration checks the per-step contract: the contracted axis's
    distance drops to at most tau**p while the other axis's distance does
    not grow; a breach, or a walk that ends off (1, 1), raises
    PreconditionViolated.
    """
    r0, c0 = ix.n_rows, ix.n_cols
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i <= r0 and 1 <= j <= c0):
        raise PositionOutOfRange(f"({i!r},{j!r}) outside [1,{r0}] x [1,{c0}]")
    t, d_r, d_c, corner = ix.grammar.start, i, j, 0
    p_r, p_c = ix.cap_r[t], ix.cap_c[t]
    pows = ix.pows
    steps = 0
    kids = ix.kids
    while kids[t] is not None:
        prev_r, prev_c = d_r, d_c
        t, d_r, d_c, corner = corner_map(ix, corner, t, p_r, p_c, d_r, d_c)
        steps += 1
        if not ((d_r <= pows[p_r] and d_c <= prev_c) or (d_c <= pows[p_c] and d_r <= prev_r)):
            raise PreconditionViolated(
                f"per-step contract violated at levels ({p_r},{p_c}): "
                f"({prev_r},{prev_c}) -> ({d_r},{d_c})")
        if kids[t] is None:
            break
        if d_r <= pows[p_r] and p_r > 0:
            p_r -= 1
        elif d_c <= pows[p_c] and p_c > 0:
            p_c -= 1
        p_r = min(p_r, ix.cap_r[t])
        p_c = min(p_c, ix.cap_c[t])
    if d_r != 1 or d_c != 1:
        raise PreconditionViolated(f"walk ended at variable {t}, delta ({d_r},{d_c}), not (1,1)")
    return ix.grammar.rules[t], steps


def access2(ix, i, j):
    """The symbol Exp(S)[i, j] (1-based).

    The same walk as access2_traced in one loop with no per-step checks,
    one table read per step, until the first step shaped (0, 0, v, None, 0):
    a literal step, which returns v's code, or a finish marker, which
    descends from v with the full deltas. With L = floor(log_tau rows) +
    floor(log_tau cols), it makes at most L + 1 reads plus 2L moves.
    """
    r0, c0 = ix.n_rows, ix.n_cols
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i <= r0 and 1 <= j <= c0):
        raise PositionOutOfRange(f"({i!r},{j!r}) outside [1,{r0}] x [1,{c0}]")
    tau, pows, tables, cap_r, cap_c = ix.tau, ix.pows, ix.tables, ix.cap_r, ix.cap_c
    t, d_r, d_c, c = ix.grammar.start, i, j, 0
    p_r, p_c = cap_r[t], cap_c[t]
    stride = p_c + 1                # level pairs per row level in t's lists
    for _ in range(p_r + p_c + 1):
        tpr, tpc = pows[p_r], pows[p_c]
        k_r = (d_r - 1) // tpr
        k_c = (d_c - 1) // tpc
        axis, s, near, far, shift = \
            tables[c][t][((p_r * stride + p_c) * tau + k_r) * tau + k_c]
        d_r -= k_r * tpr
        d_c -= k_c * tpc
        if axis:
            if d_r <= s:
                t, d_r, c = near, s - d_r + 1, c ^ 2
            else:
                t, d_r = far, d_r - s
            d_c += shift
        elif d_c <= s:
            t, d_c, c = near, s - d_c + 1, c ^ 1
            d_r += shift
        elif far is None:
            if ix.kids[near] is None:
                return ix.grammar.rules[near]
            return descend2(ix, near, d_r + k_r * tpr, d_c + k_c * tpc, c)
        else:
            t, d_c = far, d_c - s
            d_r += shift
        if d_r <= tpr and p_r > 0:
            p_r -= 1
        elif d_c <= tpc and p_c > 0:
            p_c -= 1
        if p_r > cap_r[t]:
            p_r = cap_r[t]
        stride = cap_c[t] + 1
        if p_c >= stride:
            p_c = stride - 1
    raise PreconditionViolated(f"walk to ({i},{j}) ended off a literal")


def descend2(ix, t, d_r, d_c, corner):
    """The cell (d_r, d_c) measured from ``corner`` (0..3, bit 1 = from the
    bottom, bit 0 = from the right) of Exp(N_t), by root-to-leaf descent
    over the grammar's arrays.

    Costs one move per grammar level below t, height(t) at most.
    """
    rows, cols, kids, horiz = ix.rows, ix.cols, ix.kids, ix.horiz
    if not (isinstance(t, int) and 0 <= t < len(rows) and isinstance(corner, int)
            and 0 <= corner <= 3 and isinstance(d_r, int) and 1 <= d_r <= rows[t]
            and isinstance(d_c, int) and 1 <= d_c <= cols[t]):
        raise PreconditionViolated(f"descend2(t={t!r}, delta=({d_r!r},{d_c!r}), "
                                   f"corner={corner!r}) out of contract")
    i = rows[t] + 1 - d_r if corner & 2 else d_r
    j = cols[t] + 1 - d_c if corner & 1 else d_c
    while kids[t] is not None:
        x, y = kids[t]
        if horiz[t]:
            l = rows[x]
            if i <= l:
                t = x
            else:
                t, i = y, i - l
        else:
            l = cols[x]
            if j <= l:
                t = x
            else:
                t, j = y, j - l
    return ix.grammar.rules[t]
