"""Random access over 1D SLPs through bookmark tables.

For every variable, level p, and block index k < tau, the index stores the
bookmark of the block of size tau**p starting at k * tau**p from the left
boundary of the variable's expansion, and mirrored from the right boundary.
The bookmark is found through the block's hook (the deepest variable whose
expansion still contains the block strictly straddling a child split), but
it is stored resolved, as the step a query takes there: ``(s, near, far)``,
where s is the hook's split inside the block measured from the boundary the
table addresses, and near and far are the hook's children in that order
from that boundary. A block of one literal is stored as ``(0, v, None)``
for the literal variable v. The checked single step is side_map, which
takes and returns the side the position is measured from as the tables
number it: 0 = left, 1 = right. The traced walk makes one side_map per
level, top-down, each relocating the position into a smaller variable, so
it costs exactly ceil(log_tau n) + 1 mapping steps.

Where descending is cheaper than reading on, a slot holds a finish marker
instead: every block slot of a variable i at a level p with
height(i) <= 2p (a literal has height 0, a pair one more than its higher
child) is ``(0, i, None)``, the literal step's shape, and for a literal the
literal step itself. The fast walk reads tables until it meets a marker and
then finishes by a root-to-leaf descent from the marker's variable, at most
2p moves from a level it reached with one read per level above; so it makes
at most L + 1 reads plus 2L moves, L = ceil(log_tau n). side_map checks a
marker against its variable's height and the block's place, then resolves
the real step by descent, so the traced walk's steps do not change.

Tables are flat: ``tables[side][p]`` is one list per side (0 = left,
1 = right) and level, holding the step of block k of variable i at
``i * tau + k``. Only variables reachable from the start get steps, and
only where k * tau**p is inside the variable's expansion, which is also what
makes the stored-entry count at most 2 * |V| * tau * (ceil(log_tau n) + 1);
the other slots hold None. Every tau at least as long as the start's
expansion gives the same levels and blocks, so the build clamps tau to n
(and to at least 2).

Equal steps are stored as one tuple: the build keeps a dict of the steps it
has made and stores each new step through it, so every slot holding a given
``(s, near, far)`` refers to the same object. On a comb most of the steps
repeat: on a 2000-variable right comb at tau 8 the build makes 55,373 steps
by descent, holding 5,968 distinct values. The dict is dropped when the
build returns.

The build fills the tables children first. A block that lies wholly inside
the child on its aligned side (the left child for left blocks, the right
child for right blocks) is that child's block with the same (p, k), since
the descent enters the child with the window unchanged and reaches the same
hook at the same place, so its step is copied: one slice per (variable,
level). A copied marker stays right for the same reason: the block sits at
the same offset from the same side of the child. Only blocks that straddle
the split or sit unaligned in the other child descend from the variable.

A descent moves one grammar level at a time and counts its moves in a row
toward the same child; once RUN (4) of them went the same way, it jumps
along that chain instead. The build makes jump tables for both children,
``_jumps(kids, side)[j][v]``, the node reached from v by 2**j moves toward
that child, or -1 past a literal: O(|V| log h) ids per side for a grammar
of height h, made once per build in that much time and dropped on return,
like the share dict, so the index holds nothing more. Whether the
plain walk would move on to a node v of the chain is monotone along it, as
lengths shrink down a chain: on the left chain while the window's far edge
fits in v, e <= lens[v]; on the right chain while v's offset inside the
node is at most the window's start, lens[node] - lens[v] <= b, the window
then shifting by that offset. So the jump doubles while the test holds,
then halves back down, and lands where the plain walk would. On the
2000-variable right comb at tau 8 the unaligned left blocks no longer walk
down the comb k * tau**p moves each: the build's 5.98 M moves become 37 k
jumps of about 0.38 M table reads. The gen corpus's runs are mostly 1 to 3
moves, so it seldom jumps but pays for the counting. A descent given empty
tables (NO_JUMPS) is the plain walk; hook_offset1 and side_map use it.

The index is immutable after build_index1; queries are safe under any number
of concurrent readers. Builds are single-threaded.
"""

from __future__ import annotations

import math

from .errors import PositionOutOfRange, PreconditionViolated, RangeError
from .slg import _check_binary, validate_slp1


def ceil_log(n, base):
    """Smallest p >= 0 with base**p >= n."""
    p, v = 0, 1
    while v < n:
        v *= base
        p += 1
    return p


def optimal_tau(n, epsilon=1.0):
    """The block-count preset floor(log2(n) ** epsilon), clamped to [2, max(2, n)].

    A preset past n returns n, where it would only add empty slots, and is
    never computed as a power that overflows.
    """
    return _preset(n, epsilon, 1)


def _preset(n, epsilon, share):
    """floor(log2(n) ** (epsilon * share)), clamped to [2, max(2, n)].

    epsilon is checked as given, so a share that rounds it to 0.0 is
    still a preset, and an error names the value the caller passed.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise RangeError(f"epsilon must be finite and > 0, got {epsilon!r}")
    exponent = epsilon * share
    if n < 4:
        return 2
    lg = math.log2(n)
    if exponent * math.log2(lg) >= lg:     # log2(n) ** exponent >= n, which may overflow
        return n
    return max(2, min(n, int(lg ** exponent)))


def clamp_tau(tau, longest):
    """The tau an index uses: tau, at most max(2, longest).

    ``longest`` is the longest side of the start's expansion, which bounds
    the sides of every variable the index stores. The clamp is exact:
    at every tau >= longest each variable's blocks are its cells at level 0
    and its whole expansion at level 1, the top level.
    """
    if not isinstance(tau, int) or tau < 2:
        raise PreconditionViolated(f"tau must be an int >= 2, got {tau!r}")
    return min(tau, max(2, longest))


def table_slots1(g, tau):
    """Slots, defined or not, that build_index1(g, tau) allocates for the validated SLP g."""
    n = g._lens[g.start]
    tau = clamp_tau(tau, n)
    return 2 * (ceil_log(n, tau) + 1) * len(g.rules) * tau


RUN = 4               # moves in a row toward one child before a descent jumps
NO_JUMPS = ((), ())   # jump tables that make _hook_core the plain walk


def _jumps(kids, side):
    """Jump tables along the children on ``side`` (0 = x, the left or top
    child; 1 = y).

    ``out[j][v]`` is the node reached from v by 2**j moves, each to the
    child on ``side``, or -1 where the chain meets a literal sooner. There
    is one list of |V| ids per j while some node still has 2**j moves, at
    most floor(log2 h) + 1 lists for a grammar of height h.
    """
    step = [-1 if kid is None else kid[side] for kid in kids]
    out = []
    while max(step) >= 0:
        out.append(step)
        step = [-1 if v < 0 else step[v] for v in step]
    return out


def _jump1(table, lens, node, need):
    """The last node on ``table``'s chain from node whose length is at least
    need, found by doubling then halving the jump. Lengths shrink down a
    chain, so the nodes that qualify are a prefix of it."""
    j = 0
    while j < len(table):
        v = table[j][node]
        if v < 0 or lens[v] < need:
            break
        node = v
        j += 1
    while j:
        j -= 1
        v = table[j][node]
        if v >= 0 and lens[v] >= need:
            node = v
    return node


def _hook_core(kids, lens, node, b, e, side, jumps):
    """Iterative descent shared by the standalone op and the index builder.

    Descends while the window (b..e] fits strictly inside one child, shifting
    coordinates when moving right. It stops at a literal (``kids`` entry
    None) or at the variable whose child split the window straddles, and
    returns the step a query takes there from ``side`` (0 = left, 1 =
    right): (split from that side, near child, far child), or (0, literal,
    None). With side None it returns the (hook, offset) pair instead.

    ``jumps`` is the pair of ``_jumps`` tables for the left and the right
    children; after RUN moves in a row to one child the descent jumps along
    its chain (see the module docstring). With NO_JUMPS it is the plain
    walk, one move per grammar level.
    """
    jx, jy = jumps
    xs = ys = 0                     # the current run of left / right moves
    while True:
        kid = kids[node]
        if kid is None:
            return (node, b) if side is None else (0, node, None)
        x, y = kid
        l = lens[x]
        if e <= l:
            node = x
            xs += 1
            ys = 0
            if xs == RUN and jx:
                node = _jump1(jx, lens, node, e)
                xs = 0
        elif l <= b:
            node, b, e = y, b - l, e - l
            ys += 1
            xs = 0
            if ys == RUN and jy:
                top = lens[node]
                node = _jump1(jy, lens, node, top - b)
                shift = top - lens[node]
                b, e, ys = b - shift, e - shift, 0
        elif side is None:
            return node, b
        elif side:
            return e - l, y, x
        else:
            return l - b, x, y


def hook_offset1(g, nid, b, e):
    """Hook and offset of the window (b..e] of Exp(nid), as a (hook, offset) pair.

    The reference: the plain walk, one move per grammar level, with no jump
    tables. The result satisfies Exp(nid)(b..e] = Exp(hook)(offset..offset+(e-b)];
    a width-1 window lands on a literal, otherwise the hook's child split
    falls strictly inside the relocated window. A walk that meets a rule of
    arity other than 2 raises NotAnSlp.
    """
    m = g._lens[g._checked_id(nid)]
    if not (isinstance(b, int) and isinstance(e, int) and 0 <= b < e <= m):
        raise RangeError(f"window {b!r}..{e!r} invalid for expansion length {m}")
    try:
        return _hook_core(g._kids, g._lens, nid, b, e, None, NO_JUMPS)
    except ValueError:          # a child tuple did not unpack into two
        _check_binary(g, "hook_offset1")
        raise


class AccessIndex1:
    """Leveled bookmark tables plus references to the grammar's walk arrays."""

    __slots__ = ("grammar", "tau", "levels", "pows", "lens", "kids", "height", "tables",
                 "entries", "n")

    def __init__(self, grammar, tau, levels, pows, height, tables, entries):
        self.grammar = grammar        # the validated SLP; a literal's code is its rule
        self.tau = tau                # clamped to max(2, n)
        self.levels = levels          # top level index; p ranges over [0..levels]
        self.pows = pows              # pows[p] = tau**p, up to levels + 1
        self.lens = grammar._lens     # the grammar's expansion lengths
        self.kids = grammar._kids     # the grammar's (left, right) child ids, None for literals
        self.height = height          # longest path down to a literal, 0 for a literal
        self.tables = tables          # [side][p][i * tau + k] -> (s, near, far) or None
        self.entries = entries        # defined slots, counted by the build
        self.n = self.lens[grammar.start]

    def entry_count(self):
        """Stored bookmarks across both tables (the size-bound quantity)."""
        return self.entries

    def __repr__(self):
        return (f"AccessIndex1(n={self.n}, tau={self.tau}, "
                f"levels={self.levels}, entries={self.entry_count()})")


def build_index1(g, tau):
    """Populate every defined (variable, level, block) step of both tables
    for the variables reachable from the start; every block of a variable
    i at a level p with height(i) <= 2p gets the finish marker (0, i, None)."""
    g = validate_slp1(g)
    lens, kids, reach = g._lens, g._kids, g._reach
    n = lens[g.start]
    tau = clamp_tau(tau, n)
    levels = ceil_log(n, tau)
    pows = [tau ** p for p in range(levels + 2)]
    share = {}.setdefault           # step -> its one stored copy
    jumps = (_jumps(kids, 0), _jumps(kids, 1))

    size = len(kids) * tau
    left = [[None] * size for _ in range(levels + 1)]
    right = [[None] * size for _ in range(levels + 1)]
    height = [0] * len(kids)
    entries = 0
    for i in reversed(g._topo):
        if kids[i] is not None:
            x, y = kids[i]
            height[i] = 1 + max(height[x], height[y])
        if not reach[i]:
            continue
        m = lens[i]
        base = i * tau
        if kids[i] is None:
            step = (0, i, None)
            step = share(step, step)
            for p in range(levels + 1):
                left[p][base] = right[p][base] = step
            entries += 2 * (levels + 1)
            continue
        x, y = kids[i]
        lx, ly = lens[x], lens[y]
        for p in range(levels + 1):
            tp = pows[p]
            blocks = -(-m // tp)            # k with k * tau**p < m
            if blocks > tau:
                blocks = tau
            entries += 2 * blocks
            if height[i] <= 2 * p:          # descending from i is cheaper than reading on
                marker = (0, i, None)
                left[p][base:base + blocks] = right[p][base:base + blocks] = \
                    [share(marker, marker)] * blocks
                continue
            # block k's window from either boundary: (k * tp, its end clipped to m)
            ends = [b + tp if b + tp < m else m for b in range(0, blocks * tp, tp)]
            # left blocks inside x, right blocks inside y: the child's own step
            lt, rt = left[p], right[p]
            cx = lx // tp if lx // tp < blocks else blocks
            lt[base:base + cx] = lt[x * tau:x * tau + cx]
            for k in range(cx, blocks):
                step = _hook_core(kids, lens, i, k * tp, ends[k], 0, jumps)
                lt[base + k] = share(step, step)
            cy = ly // tp if ly // tp < blocks else blocks
            rt[base:base + cy] = rt[y * tau:y * tau + cy]
            for k in range(cy, blocks):
                step = _hook_core(kids, lens, i, m - ends[k], m - k * tp, 1, jumps)
                rt[base + k] = share(step, step)
    return AccessIndex1(g, tau, levels, pows, height, (left, right), entries)


def side_map(ix, side, t, p, delta):
    """One checked mapping step: relocate position delta, measured from
    ``side`` (0 = left, 1 = right) of Exp(N_t), one level down.

    Returns (t', delta', side') with delta' <= tau**p and
    Access(N_t, delta, side) = Access(N_t', delta', side'). The stored step
    splits the block into the part in the child nearer the addressed
    boundary and the part in the farther one; landing in the nearer child
    flips the side. A finish marker ``(0, v, None)`` for a pair v is checked
    (v is t or on t's spine of children on ``side`` with the block inside
    it, and height(v) <= 2p) and then resolved into the real step by descent;
    a literal step must equal the step the same descent gives.
    """
    m = ix.lens[t] if isinstance(t, int) and 0 <= t < len(ix.lens) else 0
    if not (isinstance(side, int) and 0 <= side <= 1) \
            or not (isinstance(p, int) and 0 <= p <= ix.levels) \
            or not (isinstance(delta, int) and 1 <= delta <= m) or delta > ix.pows[p + 1]:
        raise PreconditionViolated(
            f"side_map(side={side!r}, t={t}, p={p}, delta={delta}) out of contract")
    tp = ix.pows[p]
    k = (delta - 1) // tp
    b = k * tp
    w = min(m - b, tp)
    step = ix.tables[side][p][t * ix.tau + k]
    if step is None:
        raise PreconditionViolated(f"variable {t} is not reachable from the start "
                                   f"and has no bookmarks")
    s, near, far = step
    if far is None:
        literal = 0 <= near < len(ix.kids) and ix.kids[near] is None
        if not literal and (not _on_spine1(ix, side, t, near, b + w)
                            or ix.height[near] > 2 * p):
            raise PreconditionViolated(
                f"bookmark of variable {t}, level {p}, block {k} is a finish marker for "
                f"{near}, off the block's spine or above height {2 * p}")
        e = m - b if side else b + w       # the block's window, from the left
        s, near, far = real = _hook_core(ix.kids, ix.lens, t, e - w, e, side, NO_JUMPS)
        if literal and real != step:
            raise PreconditionViolated(f"bookmark of variable {t}, level {p}, block {k} "
                                       f"is the literal step {step}, descent gives {real}")
    if far is None:
        return near, 1, 0
    if not 0 < s < w:   # s: the hook's split, as a position inside the block
        raise PreconditionViolated(f"bookmark of variable {t}, level {p}, block {k} "
                                   f"does not straddle its hook's split")
    d = delta - b
    if d <= s:
        return near, s - d + 1, side ^ 1
    return far, d - s, side


def _on_spine1(ix, side, t, v, e):
    """Whether v is t or a descendant reached through children on ``side``,
    each holding the first e positions from that side."""
    kids, lens = ix.kids, ix.lens
    while t != v:
        if kids[t] is None:
            return False
        t = kids[t][side]
        if e > lens[t]:
            return False
    return True


def access1_traced(ix, i):
    """Random access returning (code, mapping_steps).

    Runs the level loop from ceil(log_tau n) down to 0, one checked side_map
    per level, so the step count is always levels + 1 (a finish marker is
    resolved, not followed). Each step checks the
    contraction contract 1 <= delta' <= tau**p, and the walk must end on a
    literal at delta 1; a breach raises PreconditionViolated.
    """
    if not (isinstance(i, int) and 1 <= i <= ix.n):
        raise PositionOutOfRange(f"position {i!r} outside [1, {ix.n}]")
    t, delta, side = ix.grammar.start, i, 0
    for p in range(ix.levels, -1, -1):
        t, delta, side = side_map(ix, side, t, p, delta)
        if not (1 <= delta <= ix.pows[p]):
            raise PreconditionViolated(
                f"per-step contraction violated at level {p}: delta {delta} "
                f"outside [1, {ix.pows[p]}]")
    if ix.lens[t] != 1 or delta != 1:
        raise PreconditionViolated(f"walk ended at variable {t}, delta {delta}, not a literal")
    return ix.grammar.rules[t], ix.levels + 1


def access1(ix, i):
    """The symbol Exp(S)[i] (1-based).

    The same walk as access1_traced in one loop with no per-step checks,
    one table read per step, until the first step shaped (0, v, None): a
    literal step, which returns v's code, or a finish marker, which descends
    from v with the full delta; the walk meets one by level 0 at the latest.
    So it makes at most ceil(log_tau n) + 1 reads plus 2 * ceil(log_tau n)
    moves.
    """
    if not (isinstance(i, int) and 1 <= i <= ix.n):
        raise PositionOutOfRange(f"position {i!r} outside [1, {ix.n}]")
    tau, pows, tables = ix.tau, ix.pows, ix.tables
    t, delta, side = ix.grammar.start, i, 0
    for p in range(ix.levels, -1, -1):
        tp = pows[p]
        k = (delta - 1) // tp
        s, near, far = tables[side][p][t * tau + k]
        d = delta - k * tp
        if d <= s:
            t, delta, side = near, s - d + 1, side ^ 1
        elif far is None:
            if ix.kids[near] is None:
                return ix.grammar.rules[near]
            return descend1(ix, near, delta, side)
        else:
            t, delta = far, d - s
    raise PreconditionViolated(f"walk to position {i} ended off a literal")


def descend1(ix, t, delta, side):
    """The symbol at position delta measured from ``side`` (0 = left,
    1 = right) of Exp(N_t), by root-to-leaf descent over the grammar's arrays.

    Costs one move per grammar level below t, height(t) at most.
    """
    lens, kids = ix.lens, ix.kids
    if not (isinstance(t, int) and 0 <= t < len(lens) and isinstance(side, int)
            and 0 <= side <= 1 and isinstance(delta, int) and 1 <= delta <= lens[t]):
        raise PreconditionViolated(f"descend1(t={t!r}, delta={delta!r}, side={side!r}) "
                                   f"out of contract")
    i = lens[t] + 1 - delta if side else delta
    while kids[t] is not None:
        x, y = kids[t]
        l = lens[x]
        if i <= l:
            t = x
        else:
            t, i = y, i - l
    return ix.grammar.rules[t]
