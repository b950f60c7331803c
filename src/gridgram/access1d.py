"""Random access over 1D SLPs through the bookmark states of the walk.

README, "How the index works", describes the build, the walk and their
costs. The contracts that the functions below share:

- A state is one side of a variable at one level, keyed ``t * K + p * 2 +
  side`` with K = 2 * levels + 2; sides are integers, 0 = left, 1 = right.
  A kept state's slots, one per block k, hold the step a query takes at
  the block's hook: ``(S, near, far)``, S the hook's split measured from
  the state's side of the variable (so it includes ``k * tau**p``), then
  the codes of what the walk enters in the hook's near and far child. A
  code is the id of that child's state, one level down and capped by its
  top when that is its cap, or, where the child stores less, a finish
  code ``~(t * 4 + side * 2 + runs)``: descend from t, plainly by the
  height rule or with chain runs by the turn rule. A one-symbol block of
  a literal v holds ``(k * tau**p, v, None)``, the one such shape.
- Walk rule: the build starts at the state the fast walk reads first, the
  start's side 0 at its top level when that is its cap (none otherwise),
  and builds each state whose id a built state's slots name, plus the
  states their copies read (``_walk_build``). The index keeps, as
  ``states[id] = (tau**p, slots)``, only the states the walk reaches from
  the first; an id that only a copy-only source names holds a sentinel
  state that leads the walk to its read-count refusal (``_kept``).
- Finish rule: a walk at a level p descends from v instead of reading on
  when height(v) <= FINISH * p (the height rule) or when v's turn bound
  B(v) (``_turns``) is at most the p + 1 reads it has left (the turn rule),
  so v stores only the levels up to ``top[v] = min(cap[v], ceil(height(v)
  / FINISH) - 1, B(v) - 2)``, none for a literal (top -1). A height-rule
  finish descends plainly, a turn-rule finish with chain runs (access1).
- Copy rule: the build fills a state after the children's states it reads
  and copies, without descending, the blocks that ``_copied`` gives a
  child: those lying wholly inside the near child, and, where the split
  falls at a multiple of the block size, those inside the far child,
  wherever the child stores the level: the near child's slots as they
  are, the far child's with S raised by the near child's length.
- The point descent of a turn-rule finish (``access1``) runs along a
  chain of the index's ``chains`` (``_chains``) at its second move in a row
  toward one child. Whether the plain walk would move on to a node v of the
  chain is monotone along it, as lengths shrink down a chain: on the left
  chain while the point fits in v, i <= lens[v]; on the right chain while
  v's offset inside the node is below the point, lens[node] - lens[v] < i.
  So a run lands where the plain walk would. Every other descent, the
  build's included, is the plain walk (``_hook_core``).
- Every descent move reads one record, the grammar's ``_moves[t]``:
  ``(x, y, lens[x])``, None for a literal (``slg``).
- Cap rule: the build counts the slots of each state it fills, one per
  block, kept or copy-only, as it plans the state, before it fills that
  state or the states it copies from, and raises ExpansionTooLarge
  (``_over_cap``) there when the count would pass its cap. No other code
  counts an index's slots.
- One walk: ``access1_traced`` follows the same codes as ``access1``, so
  it reads the same slots, and checks each read, down to a literal step
  against the plain descent; it descends from a finish code by
  ``descend1``. It reads no state the index does not keep.
- One layout: ``decode_key1`` and ``decode_finish1`` read a state key and a
  finish code back; the builds encode them inline, in their hot loops.
  ``check_index1`` checks every kept slot against the build's contract in
  one pass, so an index changed by hand can be refused before any walk.
- An index is immutable after build_index1 (build_index2), so any number
  of threads may query it. Builds are single-threaded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .errors import ExpansionTooLarge, PositionOutOfRange, PreconditionViolated, RangeError
from .slg import DEFAULT_CAP, Slg1, _expect


def ceil_log(n, base):
    """Smallest p >= 0 with base**p >= n; ``n`` an int and ``base`` an int >= 2."""
    if not (isinstance(n, int) and isinstance(base, int) and base >= 2):
        raise RangeError(f"ceil_log needs an int n and an int base >= 2, got {n!r} and {base!r}")
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
    if not (isinstance(n, int) and n >= 1):
        raise RangeError(f"n must be an int >= 1, got {n!r}")
    if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon) and epsilon > 0):
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


def caps(sizes, tau):
    """Per variable: its level cap, the largest p with tau**p <= its size
    along an axis (its length in 1D, its rows or columns in 2D), found by
    bisection in the powers of tau up to the largest size."""
    pows, top = [1], max(sizes, default=0)
    while pows[-1] * tau <= top:
        pows.append(pows[-1] * tau)
    return [bisect_right(pows, m) - 1 for m in sizes]


def _check_slot_cap(cap, tau):
    """Refuse a build's cap that is not an int, as expand1 does, and one
    below the 0 slots of an index that builds nothing."""
    if not isinstance(cap, int):
        raise RangeError(f"cap must be an int, got {cap!r}")
    if cap < 0:
        raise _over_cap(tau, cap)


def _over_cap(tau, cap):
    """The refusal of a build whose slots would pass the cap."""
    return ExpansionTooLarge(f"an index at tau {tau} needs more table slots than the "
                             f"expansion cap of {cap}")


FINISH = 2            # a walk descends from a variable with height <= FINISH * level


def _heavy(moves, topo, side):
    """The heavy-path decomposition of the forest v -> moves[v][side] (side
    0 = x, the left or top child; 1 = y): per node its heavy tree child, -1
    for none.

    A node's tree parent is its child on ``side``, so each tree's root is
    a literal. Sizes are taken over ``topo``, the grammar's parents-first
    order, in which a node comes after every node whose child it is, so
    its size is final when it passes its size on; its heavy tree child is
    the first of the largest. The edge from v to its child c on ``side`` is
    heavy when heavy[c] == v and light otherwise.
    """
    n = len(moves)
    size = [1] * n
    heavy = [-1] * n
    best = [0] * n
    for v in topo:
        kid = moves[v]
        if kid is not None:
            c, s = kid[side], size[v]
            size[c] += s
            if s > best[c]:
                best[c], heavy[c] = s, v
    return heavy


def _turns(moves, topo, heavy):
    """The turn bound B(v) of every node: the largest count, over the point
    paths from v down to a literal, of the moves that go to the other child
    than the move before (direction changes) plus the light edges the path
    takes (``heavy``, the ``_heavy`` lists of both sides); 0 for a literal.

    One pass over ``topo``, children first, keeping per node the bound of
    the paths that reach it by an x move and by a y move. The point descent
    of a turn-rule finish (``access1``, ``access2``) runs along a chain at its
    second move in a row toward one child, to the last node of the chain
    that holds the point, so it makes at most two moves and one bisect per
    stretch of moves toward one child, plus one bisect per light edge it
    runs over: at most 3 * (B(v) + 1) moves and bisects from v.
    """
    hx, hy = heavy
    n = len(moves)
    after_x = [0] * n               # the bound at v, reached by an x move
    after_y = [0] * n
    turns = [0] * n
    for v in reversed(topo):
        move = moves[v]
        if move is not None:
            x, y = move[0], move[1]
            a = after_x[x] + (hx[x] != v)
            b = after_y[y] + (hy[y] != v)
            turns[v] = a if a > b else b
            after_x[v] = a if a > b else b + 1
            after_y[v] = b if b > a else a + 1
    return turns


def _chains(moves, topo, heavy, keys, side):
    """The heavy paths of the forest v -> moves[v][side] (``heavy``, its
    ``_heavy``), laid out for the turn-rule finishes of ``access1`` and
    ``access2``, which run along them.

    Every heavy path is stored root end first, contiguous in flat lists, so
    a chain of children from any node crosses at most floor(log2 |V|) + 1
    paths: its size at least doubles at each step onto another path.
    ``keys`` is a tuple of per-node key lists (lengths, or rows and
    columns), none of which grows down a chain.

    Returns (order, at, top, down, *flat keys): order[j] the node at flat
    index j, at[v] the flat index of node v, top[j] the flat index of the
    root end of j's path, down[j] the flat index of the node below that
    root end on the chain, or -1 past a literal, and each key list in flat
    order, so never decreasing along a path.
    """
    order, top, down = [], [], []
    at = [0] * len(moves)
    for v in reversed(topo):        # the path below a root end is laid out before it
        kid = moves[v]
        if kid is not None and heavy[kid[side]] == v:
            continue                # not the root end of its path
        root = len(order)
        below = -1 if kid is None else at[kid[side]]
        while v >= 0:
            at[v] = len(order)
            order.append(v)
            top.append(root)
            down.append(below)
            v = heavy[v]
    return (order, at, top, down, *([key[v] for v in order] for key in keys))


def _finish(g, cap, mark):
    """The stored region's data shared by both dimensions' index builds:
    the heavy children of both sides (``_heavy``), the turn bound of every
    variable (``_turns``) and its top level on each axis of ``cap``,
    min(cap, mark - 1, turns - 2) for ``mark``, the height rule's level, and
    -1 when it stores none. A walk reads at a variable while the reads it
    has left (level + 1 in 1D) are fewer than its turn bound."""
    heavy = tuple(_heavy(g._moves, g._topo, side) for side in (0, 1))
    turns = _turns(g._moves, g._topo, heavy)
    bound = [min(m, t - 1) if t else 0 for m, t in zip(mark, turns)]
    return heavy, turns, [[c if c < b else b - 1 for c, b in zip(axis, bound)] for axis in cap]


def _hook_core(moves, node, b, e, side):
    """The plain walk, one move per grammar level, shared by the reference
    ``hook_offset1``, the index build and the traced walk's check.

    Descends while the window (b..e] fits strictly inside one child, shifting
    coordinates when moving right. It stops at a literal (``moves`` entry
    None) or at the variable whose child split the window straddles, and
    returns the step a query takes there from ``side`` (0 = left, 1 =
    right): (split from that side, near child, far child), or (0, literal,
    None). With side None it returns the (hook, offset) pair instead.
    """
    while (move := moves[node]) is not None:
        x, y, l = move
        if e <= l:
            node = x
        elif l <= b:
            node, b, e = y, b - l, e - l
        elif side is None:
            return node, b
        elif side:
            return e - l, y, x
        else:
            return l - b, x, y
    return (node, b) if side is None else (0, node, None)


def hook_offset1(g, nid, b, e):
    """Hook and offset of the window (b..e] of Exp(nid), as a (hook, offset) pair.

    The reference: the plain walk, one move per grammar level. The result
    satisfies Exp(nid)(b..e] = Exp(hook)(offset..offset+(e-b)]; a width-1
    window lands on a literal, otherwise the hook's child split falls
    strictly inside the relocated window. A grammar with a rule of arity
    other than 2 raises NotAnSlp.
    """
    nid = Slg1._checked_id(g, nid, "hook_offset1")
    m = g._lens[nid]
    if not (isinstance(b, int) and isinstance(e, int) and 0 <= b < e <= m):
        raise RangeError(f"window {b!r}..{e!r} invalid for expansion length {m}")
    return _hook_core(g._moves, nid, b, e, None)


class AccessIndex1:
    """The walk's state machine: per kept state its block size and slots,
    the code of the walk's first state, the chains of a run finish, plus
    references to the grammar's walk arrays."""

    __slots__ = ("grammar", "tau", "levels", "pows", "lens", "moves", "first", "states",
                 "keys", "ids", "reads", "chains", "n", "filled")

    def __init__(self, grammar, tau, levels, pows, first, states, keys, ids, chains, filled):
        self.grammar = grammar        # the validated SLP; a literal's code is its rule
        self.tau = tau                # clamped to max(2, n)
        self.levels = levels          # ceil(log_tau n)
        self.pows = pows              # pows[p] = tau**p, up to levels + 1
        self.lens = grammar._lens     # the grammar's expansion lengths
        self.moves = grammar._moves   # the grammar's move records (x, y, lens[x]), None
                                      #   for a literal
        self.first = first            # the code of the walk's first state: 0, or the start's
                                      #   finish code when it is low enough for its cap
        self.states = states          # id -> (tau**p, slots) of a kept state, the sentinel
                                      #   (_kept) for an id only copy-only sources name
        self.keys = keys              # id -> state key t * K + p * 2 + side, K = 2 * levels + 2
        self.ids = ids                # state key -> id, of the kept states
        self.reads = range(levels + 1)  # one read per level at most
        self.chains = chains          # the _chains of both sides, for a run finish; None
                                      #   when no walk finishes by runs
        self.n = self.lens[grammar.start]
        self.filled = filled          # the slots the build filled, kept or copy-only: what
                                      #   its cap counts

    def entry_count(self):
        """Stored bookmarks (the size-bound quantity): the slots of the
        kept states."""
        return sum(len(self.states[j][1]) for j in self.ids.values())

    def __repr__(self):
        return (f"AccessIndex1(n={self.n}, tau={self.tau}, "
                f"levels={self.levels}, entries={self.entry_count()})")


def decode_key1(ix, key):
    """The state a 1D index's key names (``ix.keys``): (t, side, p), the
    variable, its side (0 = left, 1 = right) and the level."""
    K = 2 * ix.levels + 2
    return key // K, key & 1, key % K >> 1


def decode_finish1(code):
    """The finish a 1D code below 0 names: (t, side, runs), the variable and
    side a walk descends from, and 1 when it descends by chain runs (the
    turn rule), 0 when plainly (the height rule)."""
    code = ~code
    return code >> 2, code >> 1 & 1, code & 1


def _plain_slot1(ix, t, side, tp, k):
    """The slot the build stores at block k of the state (t, side) with
    blocks of tp symbols: the plain descent's step for the block's window,
    its split counted from the side, (k * tp + split, near child, far
    child), or (k * tp, literal, None)."""
    m, b = ix.lens[t], k * tp
    e = b + tp if b + tp < m else m
    split, x, y = _hook_core(ix.moves, t, m - e if side else b, m - b if side else e, side)
    return b + split, x, y


def _copied(a, tp, blocks, near, far):
    """The copy rule: which of a variable's blocks along its split axis, at
    a level of tp cells with ``blocks`` blocks counted from one end, its
    children hold. The near child, a cells long, sits at that end; near
    and far say whether each child stores the level (level pair).

    Returns (lo, hi): blocks below lo lie wholly inside the near child and
    are its blocks with the same index; when tp divides a, the far child's
    grid lines up with the variable's, so blocks from hi = a // tp on are
    the far child's blocks k - hi. The build copies those and descends for
    the blocks from lo to hi: one straddling the split, or all of an
    unaligned or unstored child's.
    """
    n = a // tp
    if n > blocks:
        n = blocks
    return (n if near else 0), (n if far and a % tp == 0 else blocks)


def _walk_build(first, plan, fill, successors):
    """Build the bookmark states a fast walk can enter from ``first``, and
    the states their copies read, each once; none when ``first`` is None.

    A state is one side or corner of a variable at one level (level pair),
    coded as an int ``i * K + rest``, i the variable and rest its side and
    level (corner and level pair), so the same side and level of a child c
    is ``c * K + rest``. ``plan(state)`` gives the state's copy rule along
    the split axis, ``(lo, hi, blocks, near, far)``: blocks below lo are
    copied from the state ``near``, those from hi on from ``far``, the rest
    descended (``_copied``). Before ``fill(state, cut)`` builds a state,
    the states it copies from are built, children first, through an
    explicit stack. Each state is planned once, before any of its sources
    still unbuilt, and filled once, ``fill`` returning its slots: the
    builds count slots in ``plan``.
    ``successors(state, k0, k1)`` gives the states the walk enters from the
    steps of the state's blocks k0..k1 on the split axis (2D: of all its
    blocks, a superset within the closure); a copied range whose source
    state is walked is left out of that scan, since its successors are the
    source's, and a state with nothing left to scan is not scanned.
    """
    if first is None:
        return set()
    built = {}                      # state -> its cut
    walked = {first}
    work = [first]
    waiting = {}                    # state -> its cut, while its sources are built
    while work:
        state = work.pop()
        stack = [state]
        while stack:
            s = stack[-1]
            if s in built:
                stack.pop()
                continue
            cut = lo, hi, blocks, near, far = waiting.pop(s, None) or plan(s)
            depth = len(stack)
            if lo and near not in built:
                stack.append(near)
            if hi < blocks and far not in built:
                stack.append(far)
            if len(stack) > depth:
                waiting[s] = cut
                continue
            stack.pop()
            fill(s, cut)
            built[s] = cut
        lo, hi, blocks, near, far = built[state]
        k0 = lo if lo and near in walked else 0
        k1 = hi if hi < blocks and far in walked else blocks
        if k0 < k1:
            new = successors(state, k0, k1) - walked
            walked |= new
            work += new
    return walked


def _kept(keys, ids, walked, held, sentinel):
    """The index's directory of the ``walked`` states, (states, ids):
    ``states[id]`` the held entry of each walked state, and ``ids`` the
    walked keys' ids. Every other id, one that only a copy-only source
    names, holds one shared ``sentinel(u)``, u the first such id, whose one
    slot sends any delta back to u unchanged: a walk that enters it makes
    reads until the read-count refusal."""
    states = [None] * len(keys)
    for key in walked:
        states[ids[key]] = held[key]
    if None in states:
        filler = sentinel(states.index(None))
        states = [filler if state is None else state for state in states]
    return states, {key: ids[key] for key in walked}


def build_index1(g, tau, cap=DEFAULT_CAP):
    """Build the (variable, side, level) states that a fast walk can enter
    from the start, and those their copies read: a block that ``_copied``
    gives a child copies that child's slot, the child's state built first,
    and every other block's step is found by descent and stored with the
    codes of the states it leads to (``code``). The walk's first state, id
    0, is the start's left side at its top level, when that is its cap;
    otherwise no walk reads and nothing is built. The index keeps the
    states the walk reaches from there, not the copy-only sources. Every
    descent is the plain walk; the chains (``_chains``) are laid out, and
    kept on the index, only when a kept slot's code or the start's finish
    code finishes by the turn rule. The build counts the slots of every
    state it fills, kept or not, keeps that count as ``filled``, and raises
    ExpansionTooLarge as soon as they would pass the int ``cap``: as it
    plans a state, before any descent or copy for it."""
    g = Slg1._ready(g, "build_index1")
    lens, moves = g._lens, g._moves
    n = lens[g.start]
    tau = clamp_tau(tau, n)
    _check_slot_cap(cap, tau)
    levels = ceil_log(n, tau)
    pows = [tau ** p for p in range(levels + 2)]
    K = 2 * levels + 2              # state key i * K + p * 2 + side
    level_cap = caps(lens, tau)
    mark = [-(-h // FINISH) for h in g._height]
    heavy, _, (top,) = _finish(g, [level_cap], mark)
    s = g.start
    first = s * K + top[s] * 2 if top[s] == level_cap[s] else None
    # the index's first code: a start low enough for its cap finishes by
    # runs or plainly
    first_code = 0 if first is not None else ~(s * 4 + (level_cap[s] < mark[s]))
    ends = {first_code} if first is None else set()     # and the kept slots' finish codes
    share = {}.setdefault           # slot -> its one stored copy
    # state key -> id, in the order the build names the states, and back
    keys, ids = ([], {}) if first is None else ([first], {first: 0})
    held = {}                       # state key -> (tau**p, its slots), once built
    named = {}                      # (near, far, level and side) -> their codes

    def code(c, q, side):
        # access1's rule, one level down to q: capped by c's top when that
        # is its cap; a c that stores less finishes the walk
        t = top[c]
        if q > t:
            if t < level_cap[c]:
                return ~(c * 4 + side * 2 + (q < mark[c] or mark[c] > level_cap[c]))
            q = t
        key = c * K + q * 2 + side
        j = ids.get(key)
        if j is None:
            j = ids[key] = len(keys)
            keys.append(key)
        return j

    room = cap                      # the slots the build may still allocate

    def plan(state):
        nonlocal room
        i, rest = divmod(state, K)
        p = rest >> 1
        x, y, _ = moves[i]
        near, far = (y, x) if rest & 1 else (x, y)
        tp = pows[p]
        blocks = _blocks(lens[i], tp, tau)      # k with k * tau**p < m
        room -= blocks                          # every planned state is filled
        if room < 0:
            raise _over_cap(tau, cap)
        lo, hi = _copied(lens[near], tp, blocks, p <= top[near], p <= top[far])
        return lo, hi, blocks, near * K + rest, far * K + rest

    def fill(state, cut):
        i, rest = divmod(state, K)
        p, side = rest >> 1, rest & 1
        lo, hi, blocks, near, far = cut
        m, tp, q = lens[i], pows[p], p - 1
        slots = held[near][1][:lo] if lo else []
        for k in range(lo, hi):
            b = k * tp                  # block k's window from the side, clipped to m
            e = b + tp if b + tp < m else m
            split, x, y = _hook_core(moves, i, m - e if side else b, m - b if side else e, side)
            if y is None:
                slot = (b, x, None)
            else:
                near_far = named.get((x, y, rest))
                if near_far is None:
                    near_far = named[x, y, rest] = code(x, q, side ^ 1), code(y, q, side)
                slot = (b + split, near_far[0], near_far[1])
            slots.append(share(slot, slot))
        if hi < blocks:
            a = hi * tp                 # the near child's length, a multiple of tp
            for S, x, y in held[far][1][:blocks - hi]:
                slot = (S + a, x, y)
                slots.append(share(slot, slot))
        held[state] = tp, slots
        return slots

    def successors(state, k0, k1):
        out = set()
        for _, x, y in held[state][1][k0:k1]:
            if y is not None:
                if x >= 0:
                    out.add(keys[x])
                else:
                    ends.add(x)
                if y >= 0:
                    out.add(keys[y])
                else:
                    ends.add(y)
        return out

    walked = _walk_build(first, plan, fill, successors)
    states, kept = _kept(keys, ids, walked, held, lambda u: (pows[-1], [(0, u, u)]))
    # chains only where a kept slot or the start finishes by runs
    chains = tuple(_chains(moves, g._topo, heavy[side], (lens,), side) for side in (0, 1)) \
        if any(~c & 1 for c in ends) else None
    return AccessIndex1(g, tau, levels, pows, first_code, states, keys, kept, chains,
                        cap - room)


def _blocks(m, tp, tau):
    """The blocks of tp cells along an axis of m cells at most tau of which
    a state holds."""
    n = -(-m // tp)
    return n if n < tau else tau


def _check_index(ix, decode, finish, sizes, slot_codes):
    """The pass check_index1 and check_index2 share, ``sizes`` the grammar's
    per-variable sizes on each axis. ``slot_codes(j, t, where, levels,
    entry)`` checks kept state j's entry and slots and yields (code, child,
    where, reach, k) per code of the real step in its slot k: the child the
    code must name, from the side or corner ``where``, and the furthest
    cell on each axis that the step sends through it, None for none."""
    g, keys, ids, states, pows, tau = ix.grammar, ix.keys, ix.ids, ix.states, ix.pows, ix.tau
    s = g.start
    n = max(size[s] for size in sizes)
    if not (clamp_tau(tau, n) == tau and type(ix.levels) is int and ix.levels == ceil_log(n, tau)
            and pows == [tau ** p for p in range(ix.levels + 2)] and type(ix.first) is int
            and type(keys) is list and type(states) is list and type(ids) is dict
            and len(states) == len(keys) and all(type(key) is int for key in keys)):
        raise PreconditionViolated("the index's tau, levels, pows, first, keys, ids or states "
                                   "are not of the form its build gives")
    top = (s, 0, *(bisect_right(pows, size[s]) - 1 for size in sizes))
    if not (type(ix.reads) is range and ix.reads == range(len(ix.reads))
            and len(ix.reads) > sum(top[2:])):
        raise PreconditionViolated(f"reads {ix.reads!r} cannot cover the start's levels "
                                   f"{top[2:]}")
    if ix.first >= 0:
        if not (ix.first == 0 and keys and ids.get(keys[0]) == 0 and decode(ix, keys[0]) == top):
            raise PreconditionViolated(f"first code {ix.first} is not id 0 on {top}")
        runs = 0
    else:
        t, where, runs = finish(ix.first)
        if (t, where) != top[:2]:
            raise PreconditionViolated(f"first code {ix.first} finishes from {(t, where)}, not "
                                       f"{top[:2]}")
    for key, j in ids.items():
        if not (type(key) is type(j) is int and 0 <= j < len(keys) and keys[j] == key):
            raise PreconditionViolated(f"ids map key {key!r} to {j!r}, no state of the index")
        t, where, *levels = decode(ix, key)
        if not 0 <= t < len(sizes[0]):
            raise PreconditionViolated(f"key {key} names no variable of the grammar")
        for code, c, to, reach, k in slot_codes(j, t, where, levels, states[j]):
            if type(code) is not int or code >= 0 and not (code < len(keys)
                                                           and ids.get(keys[code]) == code):
                raise PreconditionViolated(f"state {j}, slot {k} holds {code!r}, no kept id or "
                                           f"finish code")
            u, w, *lower = decode(ix, keys[code]) if code >= 0 else finish(code)
            if (u, w) != (c, to):
                raise PreconditionViolated(f"state {j}, slot {k} names ({u}, {w}), not its "
                                           f"hook's child ({c}, {to})")
            if code < 0:
                runs |= lower[0]
            elif not (lower != levels and all(q <= p for q, p in zip(lower, levels))) or \
                    reach and any((r - 1) // pows[q] >= _blocks(size[u], pows[q], tau)
                                  for r, q, size in zip(reach, lower, sizes)):
                raise PreconditionViolated(f"state {j}, slot {k} enters state {code} at levels "
                                           f"{lower}, not below {levels} with blocks to {reach}")
    # the chains of both sides, as the build lays them out, where a finish runs
    moves, topo = g._moves, g._topo
    chains = tuple(_chains(moves, topo, _heavy(moves, topo, side), sizes, side)
                   for side in (0, 1)) if runs else None
    if ix.chains != chains:
        raise PreconditionViolated("the index keeps chains that no finish runs along"
                                   if chains is None else
                                   "the chains are not the heavy paths a finish by runs takes")


def check_index1(ix):
    """Raise PreconditionViolated unless ix is an AccessIndex1 that holds
    what build_index1 lays out over its grammar, ``ix.grammar``, taken as
    given, in one pass over its kept states: its arrays are the grammar's,
    and tau, levels, pows and reads those the build derives, ``reads``
    covering the start's cap; ``first`` is id 0 on the start's left side at
    its cap, or its left finish code; ``ids`` and ``keys`` agree, ints; a
    state's entry is (tau**p, slots), one slot per block; each slot is its
    block's plain step (``_plain_slot1``); each code of a real step names
    the hook's near child from the other side or its far child from the
    same side, by a finish code or a kept id at a lower level whose blocks
    hold every delta the step sends there; and ``chains`` is None, or the
    heavy paths of both sides (``_chains``) exactly when ``first`` or a
    kept code finishes by runs. On an index that passes, access1 reads kept
    slots only, at most ``len(reads)`` of them, and answers as the descent
    does."""
    g = _expect(AccessIndex1, ix).grammar
    if not (ix.lens is g._lens and ix.moves is g._moves and ix.n == g._lens[g.start]):
        raise PreconditionViolated("the index's lens, moves or n are not its grammar's")

    def slot_codes(j, t, side, levels, entry):
        m, tp = ix.lens[t], ix.pows[levels[0]]
        if not (type(entry) is tuple and len(entry) == 2 and type(entry[0]) is int
                and entry[0] == tp and type(entry[1]) is list
                and len(entry[1]) == _blocks(m, tp, ix.tau)):
            raise PreconditionViolated(f"state {j} does not hold one slot per block of {tp}")
        for k, slot in enumerate(entry[1]):
            S, x, y = want = _plain_slot1(ix, t, side, tp, k)
            if not (slot == want if y is None else type(slot) is tuple and len(slot) == 3
                    and type(slot[0]) is int and slot[0] == S):
                raise PreconditionViolated(f"state {j}, slot {k} holds {slot}, not the plain "
                                           f"step {want}")
            if y is not None:           # deltas up to the split and from it to the block's end
                yield slot[1], x, side ^ 1, (S - k * tp,), k
                yield slot[2], y, side, (min(m, k * tp + tp) - S,), k

    _check_index(ix, decode_key1, decode_finish1, (ix.lens,), slot_codes)


def access1_traced(ix, i):
    """access1's walk with every read checked, returning (code, levels + 1),
    levels + 1 = ceil(log_tau n) + 1 the bound on its reads.

    At each read the code must name a kept state, the block size fall and
    delta lie in one of the state's blocks; a real step's split must
    straddle its block, and a literal step be the step the plain descent
    gives for its block. A finish code descends by descend1, and the answer
    must be the one descent from the start gives. A breach raises
    PreconditionViolated. The other contracts follow: a kept state's level
    is at most the start's cap, so a falling level allows at most
    ``len(reads)`` reads, and a straddling split leaves delta in [1, tp).
    """
    _expect(AccessIndex1, ix)
    if not (isinstance(i, int) and 1 <= i <= ix.n):
        raise PositionOutOfRange(f"position {i!r} outside [1, {ix.n}]")
    # each read decodes its key inline (decode_key1), keeping a function
    # call out of the read loop
    states, keys, K = ix.states, ix.keys, 2 * ix.levels + 2
    st, delta, size = ix.first, i, ix.pows[-1]
    while (j := st) >= 0:
        if not (j < len(states) and keys[j] in ix.ids):
            raise PreconditionViolated(f"walk to position {i} reaches code {j}, no kept state")
        tp, slots = states[j]
        if tp >= size:
            raise PreconditionViolated(f"walk to position {i} enters state {j} at no lower level")
        size = tp
        t, side = keys[j] // K, keys[j] & 1
        m, k = ix.lens[t], (delta - 1) // tp
        if delta > m or k >= len(slots):
            raise PreconditionViolated(f"walk to position {i} leaves the blocks of state {j}")
        S, near, far = slots[k]
        b = k * tp
        if far is None:
            if (real := _plain_slot1(ix, t, side, tp, k)) != slots[k]:
                raise PreconditionViolated(f"state {j}, block {k} holds {slots[k]}; a stored "
                                           f"literal step must be the step descent gives, {real}")
            code = ix.grammar.rules[near]
            break
        if not 0 < S - b < min(m - b, tp):
            raise PreconditionViolated(f"state {j}, block {k} does not straddle its hook's split")
        st, delta = (near, S - delta + 1) if delta <= S else (far, delta - S)
    else:
        t, side, _ = decode_finish1(st)
        code = descend1(ix, t, delta, side)
    if code != (want := descend1(ix, ix.grammar.start, i, 0)):
        raise PreconditionViolated(f"walk to position {i} ended at code {code}, descent "
                                   f"reaches {want}")
    return code, ix.levels + 1


def access1(ix, i):
    """The symbol Exp(S)[i] (1-based).

    The same walk as access1_traced in one loop with no per-step checks:
    from the first state, one read per step, ``tp, slots = states[st]``,
    the slot of the block holding delta, one compare with its split, and
    on to the code of the child delta falls in, until a literal slot,
    which returns its code, or a finish code, from which the walk descends
    with the full delta, inline (a start low enough for its cap is
    descended from at once, without a read). Each read lowers the level,
    so a walk making more than levels + 1 reads is refused. Where the
    height rule finishes the walk, the descent is the plain one, at most
    FINISH times the level in moves; where only the turn rule does, at a
    variable v whose turn bound B(v) is at most the reads left, the
    descent runs along the index's chains from its second move in a row
    toward one child, at most 3 * (B(v) + 1) moves and bisects
    (``_turns``). So with L = floor(log_tau n) it makes at most L + 1
    reads plus FINISH * L moves, or plus O(B) moves and bisects with B at
    most L + 1 less the reads made, over the index's states, the grammar's
    move records and the chains. The loop checks no slot or code: an index
    changed by hand must pass ``check_index1`` first, or the walk may raise
    a bare IndexError or TypeError, or answer wrong.
    """
    if not (isinstance(i, int) and 1 <= i <= ix.n):
        raise PositionOutOfRange(f"position {i!r} outside [1, {ix.n}]")
    st = ix.first
    if st >= 0:
        states, delta = ix.states, i
        for _ in ix.reads:
            tp, slots = states[st]
            S, near, far = slots[(delta - 1) // tp]
            if delta <= S:
                st, delta = near, S - delta + 1
            elif far is None:
                return ix.grammar.rules[near]
            else:
                st, delta = far, delta - S
            if st < 0:
                break
        else:
            raise PreconditionViolated(f"walk to position {i} ended off a literal")
        st = ~st
        t = st >> 2
        i = ix.lens[t] + 1 - delta if st & 2 else delta
    else:
        st = ~st
        t = st >> 2
    moves = ix.moves
    if st & 1:                          # by the turn rule: a descent with chain runs
        chains = ix.chains
        last = -1                       # the child the last move went to, 0 = x, 1 = y
        while (move := moves[t]) is not None:
            x, y, l = move
            if i <= l:
                t = x
                if not last:            # on to the last node of t's x chain holding i
                    order, at, head, down, lens = chains[0]
                    k = at[t]
                    while True:
                        lo = head[k]
                        j = bisect_left(lens, i, lo, k + 1)
                        if j > lo or (k := down[lo]) < 0 or lens[k] < i:
                            break
                    t = order[j]
                last = 0
            else:
                t, i = y, i - l
                if last > 0:            # the same on the y chain, r positions right of i
                    order, at, head, down, lens = chains[1]
                    k = at[t]
                    r = lens[k] - i
                    while True:
                        lo = head[k]
                        j = bisect_right(lens, r, lo, k + 1)
                        if j > lo or (k := down[lo]) < 0 or lens[k] <= r:
                            break
                    t, i = order[j], lens[j] - r
                last = 1
        return ix.grammar.rules[t]
    while (move := moves[t]) is not None:
        x, y, l = move
        if i <= l:
            t = x
        else:
            t, i = y, i - l
    return ix.grammar.rules[t]


def descend1(ix, t, delta, side):
    """The symbol at position delta measured from ``side`` (0 = left,
    1 = right) of Exp(N_t), by root-to-leaf descent over the grammar's move
    records.

    Costs one move per grammar level below t, height(t) at most.
    """
    lens, moves = _expect(AccessIndex1, ix).lens, ix.moves
    if not (isinstance(t, int) and 0 <= t < len(lens) and isinstance(side, int)
            and 0 <= side <= 1 and isinstance(delta, int) and 1 <= delta <= lens[t]):
        raise PreconditionViolated(f"descend1(t={t!r}, delta={delta!r}, side={side!r}) "
                                   f"out of contract")
    i = lens[t] + 1 - delta if side else delta
    while (move := moves[t]) is not None:
        x, y, l = move
        if i <= l:
            t = x
        else:
            t, i = y, i - l
    return ix.grammar.rules[t]
