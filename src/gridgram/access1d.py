"""Random access over 1D SLPs through bookmark tables.

For every variable, level p, and block index k < tau, the index stores the
hook (deepest variable whose expansion still contains the block strictly
straddling a child split) and the block's offset inside that hook, for the
block of size tau**p starting at k * tau**p from the left boundary of the
variable's expansion, and mirrored from the right boundary. A query walks
levels top-down, each step relocating the position into a smaller variable
via one stored bookmark, so access costs exactly ceil(log_tau n) + 1 mapping
steps.

Tables are flat: ``tables[side][p]`` is one list per side (0 = left,
1 = right) and level, holding the bookmark of block k of variable i at
``i * tau + k``. Slots exist only where k * tau**p is inside the variable's
expansion, which is also what makes the stored-entry count at most
2 * |V| * tau * (ceil(log_tau n) + 1); the other slots hold None.

The build fills the tables children first. A block that lies wholly inside
the child on its aligned side (the left child for left blocks, the right
child for right blocks) is that child's block with the same (p, k), since
the descent enters the child with the window unchanged, so its bookmark is
copied: one slice per (variable, level). Only blocks that straddle the
split or sit unaligned in the other child descend from the variable.

The index is immutable after build_index1; queries are safe under any number
of concurrent readers. Builds are single-threaded.
"""

from __future__ import annotations

import math

from .errors import PositionOutOfRange, PreconditionViolated, RangeError
from .slg import validate_slp1


def ceil_log(n, base):
    """Smallest p >= 0 with base**p >= n."""
    p, v = 0, 1
    while v < n:
        v *= base
        p += 1
    return p


def optimal_tau(n, epsilon=1.0):
    """The block-count preset floor(log2(n) ** epsilon), clamped to >= 2."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise RangeError(f"epsilon must be finite and > 0, got {epsilon!r}")
    if n < 4:
        return 2
    return max(2, int(math.log2(n) ** epsilon))


def _hook_core(kids, lens, node, b, e):
    """Iterative descent shared by the standalone op and the index builder.

    Descends while the window (b..e] fits strictly inside one child, shifting
    coordinates when moving right. Stops at a literal (``kids`` entry None)
    or at the variable whose child split the window straddles.
    """
    while True:
        kid = kids[node]
        if kid is None:
            break
        x, y = kid
        l = lens[x]
        if e <= l:
            node = x
        elif l <= b:
            node, b, e = y, b - l, e - l
        else:
            break
    return node, b


def _kids(rules):
    return [None if isinstance(r, int) else r for r in rules]


def hook_offset1(g, nid, b, e):
    """Hook and offset of the window (b..e] of Exp(nid), as a (hook, offset) pair.

    The result satisfies Exp(nid)(b..e] = Exp(hook)(offset..offset+(e-b)];
    a width-1 window lands on a literal, otherwise the hook's child split
    falls strictly inside the relocated window.
    """
    g.require_validated()
    m = g._lens[nid]
    if not (0 <= b < e <= m):
        raise RangeError(f"window {b}..{e} invalid for expansion length {m}")
    return _hook_core(_kids(g.rules), g._lens, nid, b, e)


class AccessIndex1:
    """Leveled bookmark tables plus per-variable length/rule shortcuts."""

    __slots__ = ("grammar", "tau", "levels", "pows", "lens", "lit", "kids",
                 "tables", "entries", "n")

    def __init__(self, grammar, tau, levels, pows, lens, lit, kids, tables, entries):
        self.grammar = grammar
        self.tau = tau
        self.levels = levels          # top level index; p ranges over [0..levels]
        self.pows = pows              # pows[p] = tau**p, up to levels + 1
        self.lens = lens
        self.lit = lit                # literal code per variable, None for pairs
        self.kids = kids              # (x, y) per variable, None for literals
        self.tables = tables          # [side][p][i * tau + k] -> (hook, offset) or None
        self.entries = entries        # defined slots, counted by the build
        self.n = lens[grammar.start]

    def entry_count(self):
        """Stored bookmarks across both tables (the size-bound quantity)."""
        return self.entries

    def __repr__(self):
        return (f"AccessIndex1(n={self.n}, tau={self.tau}, "
                f"levels={self.levels}, entries={self.entry_count()})")


def build_index1(g, tau):
    """Populate every defined (variable, level, block) bookmark of both tables."""
    if tau < 2:
        raise PreconditionViolated(f"tau must be >= 2, got {tau}")
    g = validate_slp1(g)
    lens = g._lens
    rules = g.rules
    n = lens[g.start]
    levels = ceil_log(n, tau)
    pows = [tau ** p for p in range(levels + 2)]

    lit = [r if isinstance(r, int) else None for r in rules]
    kids = _kids(rules)

    size = len(rules) * tau
    left = [[None] * size for _ in range(levels + 1)]
    right = [[None] * size for _ in range(levels + 1)]
    entries = 0
    for i in reversed(g._topo):
        m = lens[i]
        base = i * tau
        if kids[i] is None:
            hook = (i, 0)
            for p in range(levels + 1):
                left[p][base] = right[p][base] = hook
            entries += 2 * (levels + 1)
            continue
        x, y = kids[i]
        for p in range(levels + 1):
            tp = pows[p]
            blocks = min(tau, -(-m // tp))  # k with k * tau**p < m
            entries += 2 * blocks
            # left blocks inside x, right blocks inside y: the child's own entry
            lt, rt = left[p], right[p]
            cx = min(blocks, lens[x] // tp)
            lt[base:base + cx] = lt[x * tau:x * tau + cx]
            for k in range(cx, blocks):
                b = k * tp
                lt[base + k] = _hook_core(kids, lens, i, b, min(m, b + tp))
            cy = min(blocks, lens[y] // tp)
            rt[base:base + cy] = rt[y * tau:y * tau + cy]
            for k in range(cy, blocks):
                b = k * tp
                rt[base + k] = _hook_core(kids, lens, i, max(0, m - b - tp), m - b)
    return AccessIndex1(g, tau, levels, pows, lens, lit, kids, (left, right), entries)


def _map1(ix, side, t, p, delta):
    """One checked mapping step from ``side`` (0 = left, 1 = right) of Exp(N_t).

    The block's hook splits into the child nearer the addressed boundary and
    the farther one; landing in the nearer child flips the side.
    """
    m = ix.lens[t]
    if p < 0 or p > ix.levels or not (1 <= delta <= m) or delta > ix.pows[p + 1]:
        name = ("left_map", "right_map")[side]
        raise PreconditionViolated(f"{name}(t={t}, p={p}, delta={delta}) out of contract")
    tp = ix.pows[p]
    k = (delta - 1) // tp
    b = k * tp
    w = min(m - b, tp)
    h, off = ix.tables[side][p][t * ix.tau + k]
    if ix.kids[h] is None:
        if w != 1:
            raise PreconditionViolated(f"bookmark of variable {t}, level {p}, block {k} "
                                       f"is the literal {h} for a block of width {w}")
        return h, 1, 0
    x, y = ix.kids[h]
    if side:
        near, far, s = y, x, off + w - ix.lens[x]
    else:
        near, far, s = x, y, ix.lens[x] - off
    if not 0 < s < w:   # s: the hook's split, as a position inside the block
        raise PreconditionViolated(f"bookmark of variable {t}, level {p}, block {k} "
                                   f"does not straddle its hook's split")
    d = delta - b
    if d <= s:
        return near, s - d + 1, side ^ 1
    return far, d - s, side


_SIDES = ("L", "R")


def left_map(ix, t, p, delta):
    """Relocate position delta (from the left) of Exp(N_t) one level down.

    Returns (t', delta', side) with delta' <= tau**p and
    Access(N_t, delta, L) = Access(N_t', delta', side).
    """
    t, delta, side = _map1(ix, 0, t, p, delta)
    return t, delta, _SIDES[side]


def right_map(ix, t, p, delta):
    """Mirror of left_map for positions measured from the right boundary."""
    t, delta, side = _map1(ix, 1, t, p, delta)
    return t, delta, _SIDES[side]


def access1_traced(ix, i):
    """Random access returning (code, mapping_steps).

    Runs the level loop from ceil(log_tau n) down to 0 through the checked
    left_map and right_map, picking one by the current side; the step count
    is always levels + 1. Each step checks the contraction contract
    1 <= delta' <= tau**p, and the walk must end on a literal at delta 1;
    a breach raises PreconditionViolated.
    """
    if not (1 <= i <= ix.n):
        raise PositionOutOfRange(f"position {i} outside [1, {ix.n}]")
    t, delta, side = ix.grammar.start, i, "L"
    steps = 0
    for p in range(ix.levels, -1, -1):
        if side == "L":
            t, delta, side = left_map(ix, t, p, delta)
        else:
            t, delta, side = right_map(ix, t, p, delta)
        steps += 1
        if not (1 <= delta <= ix.pows[p]):
            raise PreconditionViolated(
                f"per-step contraction violated at level {p}: delta {delta} "
                f"outside [1, {ix.pows[p]}]")
    if ix.lens[t] != 1 or delta != 1:
        raise PreconditionViolated(f"walk ended at variable {t}, delta {delta}, not a literal")
    return ix.lit[t], steps


def access1(ix, i):
    """The symbol Exp(S)[i] (1-based).

    The same walk as access1_traced in one loop with integer sides and no
    per-step checks; it stops as soon as a bookmark's hook is a literal.
    """
    if not (1 <= i <= ix.n):
        raise PositionOutOfRange(f"position {i} outside [1, {ix.n}]")
    tau, pows, lens, kids, tables = ix.tau, ix.pows, ix.lens, ix.kids, ix.tables
    t, delta, side = ix.grammar.start, i, 0
    for p in range(ix.levels, -1, -1):
        tp = pows[p]
        k = (delta - 1) // tp
        h, off = tables[side][p][t * tau + k]
        kid = kids[h]
        if kid is None:
            return ix.lit[h]
        x, y = kid
        b = k * tp
        d = delta - b
        if side:
            s = off + min(lens[t] - b, tp) - lens[x]
            if d <= s:
                t, delta, side = y, s - d + 1, 0
            else:
                t, delta = x, d - s
        else:
            s = lens[x] - off
            if d <= s:
                t, delta, side = x, s - d + 1, 1
            else:
                t, delta = y, d - s
    raise PreconditionViolated(f"walk to position {i} ended off a literal")
