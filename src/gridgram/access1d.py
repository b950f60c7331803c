"""Random access over 1D SLPs through bookmark tables.

For every variable, level p, and block index k < tau, the index stores the
hook (deepest variable whose expansion still contains the block strictly
straddling a child split) and the block's offset inside that hook, for the
block of size tau**p starting at k * tau**p from the left boundary of the
variable's expansion, and mirrored from the right boundary. A query walks
levels top-down, each step relocating the position into a smaller variable
via one stored bookmark, so access costs exactly ceil(log_tau n) + 1 mapping
steps.

Tables are sparse dicts keyed by (variable, level, block): entries exist only
where k * tau**p is inside the variable's expansion, which is also what makes
the stored-entry count at most 2 * |V| * tau * (ceil(log_tau n) + 1).

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
    if n < 4:
        return 2
    return max(2, int(math.log2(n) ** epsilon))


def _hook_core(rules, lens, node, b, e):
    """Iterative descent shared by the standalone op and the index builder.

    Descends while the window (b..e] fits strictly inside one child, shifting
    coordinates when moving right. Stops at a literal or at the variable
    whose child split the window straddles.
    """
    while True:
        rule = rules[node]
        if isinstance(rule, int):
            break
        x, y = rule
        l = lens[x]
        if e <= l:
            node = x
        elif l <= b:
            node, b, e = y, b - l, e - l
        else:
            break
    return node, b


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
    return _hook_core(g.rules, g._lens, nid, b, e)


class AccessIndex1:
    """Leveled bookmark tables plus per-variable length/rule shortcuts."""

    __slots__ = ("grammar", "tau", "levels", "pows", "lens", "lit", "kids",
                 "left", "right", "n")

    def __init__(self, grammar, tau, levels, pows, lens, lit, kids, left, right):
        self.grammar = grammar
        self.tau = tau
        self.levels = levels          # top level index; p ranges over [0..levels]
        self.pows = pows              # pows[p] = tau**p, up to levels + 1
        self.lens = lens
        self.lit = lit                # literal code per variable, None for pairs
        self.kids = kids              # (x, y) per variable, None for literals
        self.left = left              # (i, p, k) -> (hook, offset)
        self.right = right
        self.n = lens[grammar.start]

    def entry_count(self):
        """Stored bookmarks across both tables (the size-bound quantity)."""
        return len(self.left) + len(self.right)

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
    kids = [None if isinstance(r, int) else r for r in rules]

    left = {}
    right = {}
    for i in range(len(rules)):
        m = lens[i]
        for p in range(levels + 1):
            tp = pows[p]
            blocks = min(tau, -(-m // tp))  # k with k * tau**p < m
            for k in range(blocks):
                b = k * tp
                e = min(m, b + tp)
                left[(i, p, k)] = _hook_core(rules, lens, i, b, e)
                right[(i, p, k)] = _hook_core(rules, lens, i, m - e, m - b)
    return AccessIndex1(g, tau, levels, pows, lens, lit, kids, left, right)


def left_map(ix, t, p, delta):
    """Relocate position delta (from the left) of Exp(N_t) one level down.

    Returns (t', delta', side) with delta' <= tau**p and
    Access(N_t, delta, L) = Access(N_t', delta', side).
    """
    m = ix.lens[t]
    if p < 0 or p > ix.levels or not (1 <= delta <= m) or delta > ix.pows[p + 1]:
        raise PreconditionViolated(f"left_map(t={t}, p={p}, delta={delta}) out of contract")
    tp = ix.pows[p]
    k = (delta - 1) // tp
    b = k * tp
    e = min(m, b + tp)
    h, alpha = ix.left[(t, p, k)]
    if e - b == 1:
        return (h, 1, "L")
    x, y = ix.kids[h]
    l = ix.lens[x]
    if delta - b <= l - alpha:
        return (x, (l - alpha) - (delta - b) + 1, "R")
    return (y, (delta - b) - (l - alpha), "L")


def right_map(ix, t, p, delta):
    """Mirror of left_map for positions measured from the right boundary."""
    m = ix.lens[t]
    if p < 0 or p > ix.levels or not (1 <= delta <= m) or delta > ix.pows[p + 1]:
        raise PreconditionViolated(f"right_map(t={t}, p={p}, delta={delta}) out of contract")
    tp = ix.pows[p]
    k = (delta - 1) // tp
    b = k * tp
    e = min(m, b + tp)
    h, off = ix.right[(t, p, k)]
    if e - b == 1:
        return (h, 1, "L")
    beta = ix.lens[h] - (off + (e - b))
    x, y = ix.kids[h]
    l = ix.lens[y]
    if delta - b <= l - beta:
        return (y, (l - beta) - (delta - b) + 1, "L")
    return (x, (delta - b) - (l - beta), "R")


def access1_traced(ix, i):
    """Random access returning (code, mapping_steps).

    Runs the level loop from ceil(log_tau n) down to 0, picking left_map or
    right_map by the current side; the step count is always levels + 1. In
    test builds each step asserts the contraction contract delta' <= tau**p.
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
        assert delta <= ix.pows[p], "per-step contraction violated"
    assert ix.lens[t] == 1 and delta == 1
    return ix.lit[t], steps


def access1(ix, i):
    """The symbol Exp(S)[i] (1-based)."""
    return access1_traced(ix, i)[0]
