"""Random access over 2D SLPs through the corner bookmark states of the walk.

README, "How the index works", describes the build, the walk and their
costs. The index has the 1D index's layout and rules (``access1d``): per
state the walk reaches, one slot list whose codes name what the walk
enters next, a sentinel at every other id, the walk, copy and cap rules,
plain build descents and the turn-rule finish's chain runs. What 2D adds
to those contracts:

- A state is one corner of a variable at one level pair, keyed ``t * K +
  (p_r * H + p_c) * 4 + corner`` with H = levels + 1 and K = 4 * H * H.
  Corners are integers 0..3 (NW, NE, SW, SE): bit 1 set means from the
  bottom, bit 0 set from the right. A kept state is held as
  ``states[id] = (tau**p_r, tau**p_c, w, slots)``, its blocks in row-major
  order from the corner, w to a block row: block (k_r, k_c) at
  ``k_r * w + k_c``.
- A slot holds the step a query takes at its block's hook:
  ``(axis, s, near, far, shift)``. axis is 1 when the hook splits rows and
  0 when it splits columns; s is the hook's split inside the block on that
  axis, measured from the corner; near and far are the codes of the hook's
  children in that order from the corner; shift is the block's offset
  inside the hook on the other axis, measured from the corner's side. A
  code is a pair: what the walk enters in that child when p_r drops and
  when p_c drops. A row step lowers p_r; a column step lowers p_r when the
  new row delta is at most tau**p_r and p_r > 0, and p_c otherwise, so
  both elements of a row step's pair, of one at p_r 0 and of one whose
  block's rows all land on one side of tau**p_r are one. Each element is
  the id of the child's state at the lowered pair, each level capped by
  the child's cap, or, where the child does not store that pair, a finish
  code ``~(t * 8 + corner * 2 + runs)``: descend from t, plainly by the
  height rule or with chain runs by the turn rule. A 1x1 block of a
  literal v holds ``(0, 0, v, None, 0)``, the one such shape.
- Finish rule: a walk at levels with either of p_r, p_c at least ``mark[v]
  = ceil(height(v) / FINISH2)`` (the height rule), or whose p_r + p_c + 1
  reads left are at least v's turn bound B(v) (the turn rule, ``_turns``),
  descends from v instead of reading on, so v stores the level pairs up to
  ``min(cap, mark[v] - 1, B(v) - 2)`` on each axis whose sum is at most
  B(v) - 2 (none for a literal). The walk starts at the start's NW corner
  at its caps when it stores them.
- The copy rule (``_copied``) applies along the split axis, near and far
  taken in order from the corner: a block index it gives a child there is
  copied at every block of the other axis, on which the child has the
  variable's size, so the two grids line up: the copy is one slice on a
  row split and one per block row on a column split. A child stores a
  level pair by the finish rule, each level at most its cap, so a far
  child shorter than tau**p on the split axis stores no level p, whatever
  its mark.
- The chain runs of a turn-rule finish (``access2``) are keyed by rows
  and columns: a node v of the x chain holds the cell (i, j) while i <=
  rows[v] and j <= cols[v], one of the y chain while v's offsets inside
  the node are below the cell on both axes. Rows and columns never grow
  down a chain, so both tests are monotone along it, and a run lands
  where the plain walk would.
- Every descent move reads one record, the grammar's ``_moves[t]``:
  ``(x, y, split, horiz)``, split the rows of x when horiz and its columns
  otherwise; None for a literal (``slg``).
- One walk, as in 1D: ``access2_traced`` follows the codes ``access2``
  follows and checks each read; its level check is that neither block
  size grows and one falls.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import PositionOutOfRange, PreconditionViolated, RangeError
from .access1d import (_chains, _check_slot_cap, _copied, _finish, _kept, _over_cap, _preset,
                       _walk_build, caps, ceil_log, clamp_tau)
from .slg import DEFAULT_CAP, _check_binary
from .slg2d import Slg2, validate_slp2

FINISH2 = 12    # a walk descends from a variable with height <= FINISH2 * max(p_r, p_c)


def optimal_tau2(n, epsilon=1.0):
    """The 2D preset floor(log2(n) ** (epsilon / 2)), clamped to [2, max(2, n)].

    The optimal-time analysis sets tau = log**(epsilon/2) n, which drops
    below 2 for small n; the clamp keeps the structure well-defined there.
    epsilon is checked as given, before it is halved.
    """
    return _preset(n, epsilon, 0.5)


def _hook_core2(moves, rows, cols, node, b_r, b_c, e_r, e_c, corner):
    """The plain 2D walk, one move per grammar level: rows-splitting
    variables compare the row window, columns-splitting variables the
    column window.

    Returns the step a query takes from ``corner`` at the hook:
    (axis, split from the corner, near child, far child, shift on the other
    axis from the corner's side), or (0, 0, literal, None, 0). With corner
    None it returns the (hook, offset_r, offset_c) triple instead. The
    moves read ``moves`` only; rows and cols give the hook's shift.
    """
    while (move := moves[node]) is not None:
        x, y, l, horiz = move
        if horiz:
            if e_r <= l:
                node = x
            elif b_r < l:
                break
            else:
                node, b_r, e_r = y, b_r - l, e_r - l
        elif e_c <= l:
            node = x
        elif b_c < l:
            break
        else:
            node, b_c, e_c = y, b_c - l, e_c - l
    else:                           # a literal
        return (node, b_r, b_c) if corner is None else (0, 0, node, None, 0)
    if corner is None:              # the window straddles node's split
        return node, b_r, b_c
    if horiz:
        shift = cols[node] - e_c if corner & 1 else b_c
        return (1, e_r - l, y, x, shift) if corner & 2 else (1, l - b_r, x, y, shift)
    shift = rows[node] - e_r if corner & 2 else b_r
    return (0, e_c - l, y, x, shift) if corner & 1 else (0, l - b_c, x, y, shift)


def hook_offset2(g, nid, b_r, b_c, e_r, e_c):
    """2D hook and offsets of the window (b_r..e_r] x (b_c..e_c] of Exp(nid),
    as a (hook, offset_r, offset_c) triple.

    The reference: the plain walk, one move per grammar level. The window
    reappears inside the hook's expansion shifted to
    (offset_r..offset_r+(e_r-b_r)] x (offset_c..offset_c+(e_c-b_c)], with
    offsets never exceeding the original window start on either axis. A 1x1
    window lands on a literal; otherwise the hook's child split falls
    strictly inside the relocated window on the hook's splitting axis. A
    grammar with a rule of arity other than 2 raises NotAnSlp.
    """
    nid = Slg2._checked_id(g, nid)
    m_r, m_c = g._rows[nid], g._cols[nid]
    if not (isinstance(b_r, int) and isinstance(e_r, int) and 0 <= b_r < e_r <= m_r):
        raise RangeError(f"row window {b_r!r}..{e_r!r} invalid for {m_r} rows")
    if not (isinstance(b_c, int) and isinstance(e_c, int) and 0 <= b_c < e_c <= m_c):
        raise RangeError(f"col window {b_c!r}..{e_c!r} invalid for {m_c} cols")
    return _hook_core2(_check_binary(g, "hook_offset2")._moves, g._rows, g._cols,
                       nid, b_r, b_c, e_r, e_c, None)


class AccessIndex2:
    """The walk's state machine, as in 1D: per kept state its block sizes,
    blocks per row and slots, the code of the walk's first state, the
    chains of a run finish, plus references to the grammar's walk
    arrays."""

    __slots__ = ("grammar", "tau", "levels", "pows", "rows", "cols", "moves", "first",
                 "states", "keys", "ids", "reads", "chains", "n_rows", "n_cols")

    def __init__(self, grammar, tau, levels, pows, reads, first, states, keys, ids, chains):
        self.grammar = grammar      # the validated 2D SLP; a literal's code is its rule
        self.tau = tau              # clamped to the start's longest side (at least 2)
        self.levels = levels        # ceil(log_tau) of the start's longest side
        self.pows = pows            # pows[p] = tau**p, up to levels + 1
        self.rows = grammar._rows   # the grammar's row and column counts
        self.cols = grammar._cols
        self.moves = grammar._moves  # the grammar's move records (x, y, split, horiz),
                                    #   None for a literal
        self.first = first          # the code of the walk's first state: 0, or the start's
                                    #   finish code when it does not store its caps
        self.states = states        # id -> (tau**p_r, tau**p_c, w, slots) of a kept state,
                                    #   the sentinel (_kept) for an id only copy-only
                                    #   sources name
        self.keys = keys            # id -> state key t * K + (p_r * H + p_c) * 4 + corner,
                                    #   H = levels + 1, K = 4 * H * H
        self.ids = ids              # state key -> id, of the kept states
        self.n_rows = self.rows[grammar.start]
        self.n_cols = self.cols[grammar.start]
        self.reads = reads          # range(cap_r + cap_c + 1) of the start: a read lowers
                                    #   a level
        self.chains = chains        # the _chains of both sides, for a run finish; None
                                    #   when no walk finishes by runs

    def entry_count(self):
        """Stored bookmarks (the size-bound quantity): the slots of the
        kept states."""
        return sum(len(self.states[j][3]) for j in self.ids.values())

    def __repr__(self):
        return (f"AccessIndex2({self.n_rows}x{self.n_cols}, tau={self.tau}, "
                f"levels={self.levels}, entries={self.entry_count()})")


def build_index2(g, tau, cap=DEFAULT_CAP):
    """Build the (variable, corner, level pair) states that a fast walk can
    enter from the start, and those their copies read: a block that
    ``_copied`` gives a child on the split axis copies that child's slot,
    the child's state built first, and every other block's step is found
    by descent and stored with the codes of the states it leads to
    (``code``). The walk's first state, id 0, is the start's NW corner at
    its caps, when it stores them; otherwise no walk reads and nothing is
    built. The index keeps the states the walk reaches from there, not the
    copy-only sources. Every descent is the plain walk; the chains
    (``_chains``) are laid out, and kept on the index, only when a walk can
    finish by the turn rule. The build counts the slots of every state it fills, kept
    or not, and raises ExpansionTooLarge as soon as they would pass the int
    ``cap``: as it plans a state, before any descent or copy for it."""
    g = _check_binary(g, "build_index2") if Slg2._own(g).validated else validate_slp2(g)
    rows, cols, moves = g._rows, g._cols, g._moves
    tau = clamp_tau(tau, max(rows[g.start], cols[g.start]))
    _check_slot_cap(cap, tau)
    cap_r, cap_c = caps(rows, tau), caps(cols, tau)
    mark = [-(-h // FINISH2) for h in g._height]
    heavy, turns, (top_r, top_c) = _finish(g, [cap_r, cap_c], mark)
    levels = ceil_log(max(rows[g.start], cols[g.start]), tau)
    pows = [tau ** p for p in range(levels + 2)]
    H = levels + 1
    K = 4 * H * H                   # state key i * K + (p_r * H + p_c) * 4 + corner

    def stores(c, p_r, p_c):        # the finish rule, for levels at most c's caps
        return p_r <= top_r[c] and p_c <= top_c[c] and p_r + p_c + 1 < turns[c]

    s = g.start
    first = s * K + (cap_r[s] * H + cap_c[s]) * 4 if stores(s, cap_r[s], cap_c[s]) else None
    if first is None:       # a start low enough for its caps finishes by runs or plainly
        runs = max(cap_r[s], cap_c[s]) < mark[s]
    else:                   # some variable the turn bound cuts below the height rule
        runs = any(r and m and min(c_r, m - 1) + min(c_c, m - 1) + 1 >= b
                   for c_r, c_c, m, b, r in zip(cap_r, cap_c, mark, turns, g._reach))
    chains = tuple(_chains(moves, g._topo, heavy[side], (rows, cols), side)
                   for side in (0, 1)) if runs else None
    share = {}.setdefault           # slot -> its one stored copy
    # state key -> id, in the order the build names the states, and back
    keys, ids = ([], {}) if first is None else ([first], {first: 0})
    held = {}                       # state key -> (tau**p_r, tau**p_c, w, slots), once built
    pairs = {}                      # (child, corner, level pair, kind) -> its codes

    def code(c, q_r, q_c, corner):
        # access2's rule at the level pair (q_r, q_c): each level capped by
        # c's cap; a pair c does not store finishes the walk
        if q_r > cap_r[c]:
            q_r = cap_r[c]
        if q_c > cap_c[c]:
            q_c = cap_c[c]
        key = c * K + (q_r * H + q_c) * 4 + corner
        j = ids.get(key)
        if j is None:
            if not stores(c, q_r, q_c):
                return ~(c * 8 + corner * 2 + (q_r < mark[c] > q_c))
            j = ids[key] = len(keys)
            keys.append(key)
        return j

    def pair(c, rest, kind):
        # the codes of a step into c's corner and level pair ``rest``: kind
        # 1 when p_r drops (p_c at p_r 0), 2 when p_c does, 0 when the new
        # row delta decides
        p_r, p_c = divmod(rest >> 2, H)
        down_r = code(c, p_r - 1, p_c, rest & 3) if p_r and kind != 2 else None
        down_c = down_r if kind == 1 and p_r else code(c, p_r, p_c - 1, rest & 3)
        both = pairs[(c * K + rest) * 4 + kind] = (down_c if down_r is None else down_r, down_c)
        return both

    room = cap                      # the slots the build may still allocate

    def plan(state):
        nonlocal room
        i, rest = divmod(state, K)
        p_r, p_c = divmod(rest >> 2, H)
        tpr, tpc = pows[p_r], pows[p_c]
        h, w = -(-rows[i] // tpr), -(-cols[i] // tpc)    # blocks per column and per row
        if h > tau:
            h = tau
        if w > tau:
            w = tau
        room -= h * w                           # every planned state is filled
        if room < 0:
            raise _over_cap(tau, cap)
        x, y, _, horiz = moves[i]
        # the children in order from the corner on the split axis
        near, far = (y, x) if rest & (2 if horiz else 1) else (x, y)
        a, tp, blocks = (rows[near], tpr, h) if horiz else (cols[near], tpc, w)
        lo, hi = _copied(a, tp, blocks, stores(near, p_r, p_c), stores(far, p_r, p_c))
        return lo, hi, blocks, near * K + rest, far * K + rest

    def fill(state, cut):
        i, rest = divmod(state, K)
        p_r, p_c = divmod(rest >> 2, H)
        corner = rest & 3
        lo, hi, blocks, near, far = cut
        tpr, tpc = pows[p_r], pows[p_c]
        m_r, m_c = rows[i], cols[i]
        h, w = -(-m_r // tpr), -(-m_c // tpc)
        if h > tau:
            h = tau
        if w > tau:
            w = tau
        # the split axis's blocks lo..hi of each band, copied from the near
        # child, descended and copied from the far child: one band of all the
        # block rows on a row split, one per block row on a column split,
        # ``unit`` slots to a block of the split axis
        if moves[i][3]:
            bands, unit, spans = (0,), w, (range(lo, hi), range(w))
        else:
            bands, unit, spans = range(h), 1, None
        slots = []
        for band in bands:
            if lo:
                _, _, stride, source = held[near]
                slots += source[band * stride:band * stride + lo * unit]
            down, across = spans or ((band,), range(lo, hi))
            for k_r in down:
                b_r = k_r * tpr         # the block's window, from the corner's sides
                e_r = b_r + tpr if b_r + tpr < m_r else m_r
                if corner & 2:
                    b_r, e_r = m_r - e_r, m_r - b_r
                for k_c in across:
                    b_c = k_c * tpc
                    e_c = b_c + tpc if b_c + tpc < m_c else m_c
                    if corner & 1:
                        b_c, e_c = m_c - e_c, m_c - b_c
                    axis, split, x, y, shift = slot = _hook_core2(
                        moves, rows, cols, i, b_r, b_c, e_r, e_c, corner)
                    if y is not None:
                        # the levels the step can lower: p_r on a row step; on a
                        # column step p_r where the new row delta, shift plus
                        # the cell's row in the block, is at most tau**p_r
                        kind = 1 if axis or shift + e_r - b_r <= tpr else 2 if shift >= tpr else 0
                        # the pairs looked up inline: a call per step costs ~5% at tau 2
                        flip = rest ^ (2 if axis else 1)
                        slot = (axis, split,
                                pairs.get((x * K + flip) * 4 + kind) or pair(x, flip, kind),
                                pairs.get((y * K + rest) * 4 + kind) or pair(y, rest, kind),
                                shift)
                    slots.append(share(slot, slot))
            if hi < blocks:
                _, _, stride, source = held[far]
                slots += source[band * stride:band * stride + (blocks - hi) * unit]
        held[state] = tpr, tpc, w, slots
        return slots

    def successors(state, k0, k1):
        # every block: a range copied from a walked source names what it names
        named = set()               # the code pairs, each one shared object
        for _, _, x, y, _ in held[state][3]:
            if y is not None:
                named.add(x)
                named.add(y)
        return {keys[c] for both in named for c in both if c >= 0}

    walked = _walk_build(first, plan, fill, successors)
    top = pows[-1]                  # past every delta
    states, kept = _kept(keys, ids, walked, held,
                         lambda u: (top, top, 1, [(1, 0, (u, u), (u, u), 0)]))
    return AccessIndex2(g, tau, levels, pows, range(cap_r[s] + cap_c[s] + 1),
                        0 if first is not None else ~(s * 8 + runs), states, keys, kept, chains)


def access2_traced(ix, i, j):
    """access2's walk with every read checked, returning (code, steps): the
    reads made, plus one for a finish by descent, so at least 1 and at most
    floor(log_tau rows) + floor(log_tau cols) + 2.

    The checks are access1_traced's, with both levels: neither block size
    may grow and one must fall, and after the step the split axis's delta
    is at most its block size while the other axis's does not grow, or the
    column mirror of that (a corrupt shift can break it). A finish code
    descends by descend2.
    """
    r0, c0 = ix.n_rows, ix.n_cols
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i <= r0 and 1 <= j <= c0):
        raise PositionOutOfRange(f"({i!r},{j!r}) outside [1,{r0}] x [1,{c0}]")
    states, keys, rows, cols, K = ix.states, ix.keys, ix.rows, ix.cols, 4 * (ix.levels + 1) ** 2
    st, d_r, d_c, reads = ix.first, i, j, 0
    size_r = size_c = ix.pows[-1]
    while (u := st) >= 0:
        if not (u < len(states) and keys[u] in ix.ids):
            raise PreconditionViolated(f"walk to ({i},{j}) reaches code {u}, no kept state")
        tpr, tpc, w, slots = states[u]
        if not (tpr <= size_r and tpc <= size_c and (tpr < size_r or tpc < size_c)):
            raise PreconditionViolated(f"walk to ({i},{j}) enters state {u} at no lower levels")
        reads, size_r, size_c = reads + 1, tpr, tpc
        t, corner = keys[u] // K, keys[u] & 3
        m_r, m_c, k_r, k_c = rows[t], cols[t], (d_r - 1) // tpr, (d_c - 1) // tpc
        if d_r > m_r or d_c > m_c or k_c >= w or k_r * w + k_c >= len(slots):
            raise PreconditionViolated(f"walk to ({i},{j}) leaves the blocks of state {u}")
        axis, s, near, far, shift = step = slots[k_r * w + k_c]
        b_r, b_c = k_r * tpr, k_c * tpc
        w_r, w_c = min(m_r - b_r, tpr), min(m_c - b_c, tpc)
        if far is None:
            e_r = m_r - b_r if corner & 2 else b_r + w_r    # the block's window, from the NW
            e_c = m_c - b_c if corner & 1 else b_c + w_c
            real = _hook_core2(ix.moves, rows, cols, t, e_r - w_r, e_c - w_c, e_r, e_c, corner)
            if real != step:
                raise PreconditionViolated(f"state {u}, block ({k_r},{k_c}) holds {step}; a "
                                           f"stored literal step must be the step descent "
                                           f"gives, {real}")
            code = ix.grammar.rules[near]
            break
        if not 0 < s < (w_r if axis else w_c):
            raise PreconditionViolated(f"state {u}, block ({k_r},{k_c}) does not straddle its "
                                       f"hook's split")
        prev_r, prev_c = d_r, d_c
        d_r, d_c = d_r - b_r, d_c - b_c     # the cell inside the block
        if axis:
            st, d_r = (near, s - d_r + 1) if d_r <= s else (far, d_r - s)
            d_c += shift
        else:
            st, d_c = (near, s - d_c + 1) if d_c <= s else (far, d_c - s)
            d_r += shift
        if not (d_r >= 1 and d_c >= 1
                and (d_r <= tpr and d_c <= prev_c or d_c <= tpc and d_r <= prev_r)):
            raise PreconditionViolated(f"per-step contract violated at state {u}: "
                                       f"({prev_r},{prev_c}) -> ({d_r},{d_c})")
        st = st[d_r > tpr]
    else:
        code = descend2(ix, ~st >> 3, d_r, d_c, ~st >> 1 & 3)
    if code != (want := descend2(ix, ix.grammar.start, i, j, 0)):
        raise PreconditionViolated(f"walk to ({i},{j}) ended at code {code}, descent reaches "
                                   f"{want}")
    return code, reads + (st < 0)


def access2(ix, i, j):
    """The symbol Exp(S)[i, j] (1-based).

    The same walk as access2_traced in one loop with no per-step checks:
    from the first state, one read per step, ``tpr, tpc, w, slots =
    states[st]``, the slot of the block holding the cell, one compare with
    its split, the other axis moved by its shift, and on to the code of the
    child the cell falls in, the first of its pair unless the new row delta
    passes tau**p_r, until a literal slot, which returns its code, or a
    finish code, from which the walk descends with the full deltas, inline
    (a start that does not store its caps is descended from at once,
    without a read). Each read lowers p_r or p_c, so a walk making more
    than the start's two caps plus one reads is refused. With L =
    floor(log_tau rows) + floor(log_tau cols), it makes at most L + 1
    reads, over the index's states, plus a descent over the grammar's move
    records. Where the height rule finishes the walk the descent is the
    plain one, FINISH2 times the larger of L's two terms in moves at most;
    where only the turn rule does, at a variable v, it runs along the
    index's chains from its second move in a row toward one child, at most
    3 * (B(v) + 1) moves and bisects (``_turns``; a bisect on rows and one
    on columns per heavy path), with B(v) at most L + 1 less the reads
    made.
    """
    r0, c0 = ix.n_rows, ix.n_cols
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i <= r0 and 1 <= j <= c0):
        raise PositionOutOfRange(f"({i!r},{j!r}) outside [1,{r0}] x [1,{c0}]")
    moves, chains = ix.moves, ix.chains
    st = ix.first
    if st >= 0:
        states, d_r, d_c = ix.states, i, j
        for _ in ix.reads:
            tpr, tpc, w, slots = states[st]
            k_r = (d_r - 1) // tpr
            k_c = (d_c - 1) // tpc
            axis, s, near, far, shift = slots[k_r * w + k_c]
            d_r -= k_r * tpr
            d_c -= k_c * tpc
            if axis:
                if d_r <= s:
                    st, d_r = near, s - d_r + 1
                else:
                    st, d_r = far, d_r - s
                d_c += shift
            else:
                if d_c <= s:
                    st, d_c = near, s - d_c + 1
                elif far is None:
                    return ix.grammar.rules[near]
                else:
                    st, d_c = far, d_c - s
                d_r += shift
            st = st[d_r > tpr]
            if st < 0:
                break
        else:
            raise PreconditionViolated(f"walk to ({i},{j}) ended off a literal")
        st = ~st
        t = st >> 3
        i = ix.rows[t] + 1 - d_r if st & 4 else d_r     # t is low enough: the full
        j = ix.cols[t] + 1 - d_c if st & 2 else d_c     #   deltas, from the NW
        if not st & 1:
            chains = None           # by the height rule: the plain descent
    else:                           # a start low enough for its caps: the index keeps
        t = ix.grammar.start        #   chains exactly when it finishes by the turn rule
    if chains is not None:          # by the turn rule: a descent with chain runs
        last = -1                   # the child the last move went to, 0 = x, 1 = y
        while (move := moves[t]) is not None:
            x, y, l, horiz = move
            if i <= l if horiz else j <= l:
                t = x
                if not last:        # on to the last node of t's x chain holding (i, j)
                    order, at, head, down, rows, cols = chains[0]
                    k = at[t]
                    while True:
                        lo = head[k]
                        q = bisect_left(cols, j, bisect_left(rows, i, lo, k + 1), k + 1)
                        if q > lo or (k := down[lo]) < 0 or rows[k] < i or cols[k] < j:
                            break
                    t = order[q]
                last = 0
                continue
            if horiz:
                t, i = y, i - l
            else:
                t, j = y, j - l
            if last > 0:            # the same on the y chain, with the r rows below and
                order, at, head, down, rows, cols = chains[1]   # the s columns right of (i, j)
                k = at[t]
                r, s = rows[k] - i, cols[k] - j
                while True:
                    lo = head[k]
                    q = bisect_right(cols, s, bisect_right(rows, r, lo, k + 1), k + 1)
                    if q > lo or (k := down[lo]) < 0 or rows[k] <= r or cols[k] <= s:
                        break
                t, i, j = order[q], rows[q] - r, cols[q] - s
            last = 1
        return ix.grammar.rules[t]
    while (move := moves[t]) is not None:
        x, y, l, horiz = move
        if horiz:
            if i <= l:
                t = x
            else:
                t, i = y, i - l
        elif j <= l:
            t = x
        else:
            t, j = y, j - l
    return ix.grammar.rules[t]


def descend2(ix, t, d_r, d_c, corner):
    """The cell (d_r, d_c) measured from ``corner`` (0..3, bit 1 = from the
    bottom, bit 0 = from the right) of Exp(N_t), by root-to-leaf descent
    over the grammar's move records.

    Costs one move per grammar level below t, height(t) at most.
    """
    rows, cols, moves = ix.rows, ix.cols, ix.moves
    if not (isinstance(t, int) and 0 <= t < len(rows) and isinstance(corner, int)
            and 0 <= corner <= 3 and isinstance(d_r, int) and 1 <= d_r <= rows[t]
            and isinstance(d_c, int) and 1 <= d_c <= cols[t]):
        raise PreconditionViolated(f"descend2(t={t!r}, delta=({d_r!r},{d_c!r}), "
                                   f"corner={corner!r}) out of contract")
    i = rows[t] + 1 - d_r if corner & 2 else d_r
    j = cols[t] + 1 - d_c if corner & 1 else d_c
    while (move := moves[t]) is not None:
        x, y, l, horiz = move
        if horiz:
            if i <= l:
                t = x
            else:
                t, i = y, i - l
        elif j <= l:
            t = x
        else:
            t, j = y, j - l
    return ix.grammar.rules[t]
