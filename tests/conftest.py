"""Shared grammars, naive helpers, and the acceptance-line reporter.

``hconcat``/``vconcat`` and the ``expand_all_*`` folds are the independent
references the expansion tests check ``expand1``/``expand2`` against; the
``cell_*`` queries restate the row-scanning oracles cell by cell.
"""

from __future__ import annotations

import pytest

# filled by the acceptance module; echoed after the run so the per-criterion
# lines survive output capturing
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from types import SimpleNamespace
from unittest import mock

from gridgram import (
    AccessIndex1,
    DimensionMismatch,
    Horiz,
    Matrix2D,
    Slp1,
    Slp2,
    Vert,
    access1d,
    access2d,
    build_index1,
    build_index2,
    validate_slp1,
    validate_slp2,
)


@pytest.fixture
def abab():
    """S -> A A, A -> B C, B -> 'a'(0), C -> 'b'(1); expands to 0 1 0 1."""
    return validate_slp1(Slp1([(1, 1), (2, 3), 0, 1], 2, 0))


@pytest.fixture
def grid22():
    """2x2 text [[a,b],[c,d]] as codes [[0,1],[2,3]].

    id 0: S rows-split of the two 1x2 rows; ids 1, 2 the rows; 3..6 literals.
    """
    return validate_slp2(Slp2([Horiz(1, 2), Vert(3, 4), Vert(5, 6), 0, 1, 2, 3], 4, 0))


@pytest.fixture
def ov_figure_vectors():
    return ((1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 1, 0))


def hconcat(a, b):
    """Place b to the right of a (column counts add); rows must match."""
    if a.rows != b.rows:
        raise DimensionMismatch(f"hconcat needs equal rows, got {a.rows} and {b.rows}")
    cells = []
    for i in range(a.rows):
        cells.extend(a.cells[i * a.cols:(i + 1) * a.cols])
        cells.extend(b.cells[i * b.cols:(i + 1) * b.cols])
    return Matrix2D(a.rows, a.cols + b.cols, cells)


def vconcat(a, b):
    """Place b below a (row counts add); columns must match."""
    if a.cols != b.cols:
        raise DimensionMismatch(f"vconcat needs equal cols, got {a.cols} and {b.cols}")
    return Matrix2D(a.rows + b.rows, a.cols, [*a.cells, *b.cells])


def expand_all_2d(g):
    """Matrix2D expansion of every variable, assembled structurally.

    Deliberately independent of expand2: builds each variable by folding its
    children with hconcat/vconcat, which is the definitional induction.
    """
    out = {}
    for nid in reversed(g._topo):
        rule = g.rules[nid]
        if isinstance(rule, int):
            out[nid] = Matrix2D(1, 1, [rule])
            continue
        parts = [out[c] for c in rule.children]
        acc = parts[0]
        for m in parts[1:]:
            acc = vconcat(acc, m) if isinstance(rule, Horiz) else hconcat(acc, m)
        out[nid] = acc
    return out


def expand_all_1d(g):
    """List expansion of every variable, by definitional induction."""
    out = {}
    for nid in reversed(g._topo):
        rule = g.rules[nid]
        if isinstance(rule, int):
            out[nid] = [rule]
            continue
        acc = []
        for c in rule if isinstance(rule, tuple) else rule.children:
            acc.extend(out[c])
        out[nid] = acc
    return out


def comb1(codes, right):
    """X_i -> lit(codes[i]) X_{i+1} (a right comb) or X_i -> X_{i+1} lit(codes[i])."""
    pairs = len(codes) - 1
    rules = []
    for i in range(pairs):
        nxt = i + 1 if i + 1 < pairs else pairs + codes[pairs]
        rules.append((pairs + codes[i], nxt) if right else (nxt, pairs + codes[i]))
    rules.extend(range(4))
    return validate_slp1(Slp1(rules, 4, 0))


def comb2(codes, kind, right):
    """comb1 in 2D over one axis: X_i -> kind(lit(codes[i]), X_{i+1}), the
    chain on the bottom or right, or X_i -> kind(X_{i+1}, lit(codes[i]))."""
    pairs = len(codes) - 1
    rules = []
    for i in range(pairs):
        nxt = i + 1 if i + 1 < pairs else pairs + codes[pairs]
        rules.append(kind(pairs + codes[i], nxt) if right else kind(nxt, pairs + codes[i]))
    rules.extend(range(4))
    return validate_slp2(Slp2(rules, 4, 0))


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


def zigzag1(codes):
    """comb1 with the chain on alternate sides, X_i -> lit(codes[i]) X_{i+1}
    for even i and X_i -> X_{i+1} lit(codes[i]) for odd i: every point walk
    goes to the other child at every move."""
    pairs = len(codes) - 1
    rules = []
    for i in range(pairs):
        nxt = i + 1 if i + 1 < pairs else pairs + codes[pairs]
        rules.append((nxt, pairs + codes[i]) if i % 2 else (pairs + codes[i], nxt))
    rules.extend(range(4))
    return validate_slp1(Slp1(rules, 4, 0))


def zigzag2(codes, steps):
    """Z_{k+1} = Horiz(Z_k, row) for even k and Vert(col, Z_k) for odd k,
    from the literal Z_0, each row (col) a 1 x w (h x 1) strip as wide
    (tall) as Z_k, itself a zigzag1 along its axis: every point walk goes
    to the other child at every move, but where it leaves the spine for a
    strip. Takes steps + 3 codes at most."""
    rules = list(range(4))

    def add(rule):
        rules.append(rule)
        return len(rules) - 1

    take = iter(codes)
    z, rows, cols = next(take), 1, 1
    strips = {Vert: [next(take)], Horiz: [next(take)]}    # the 1 x w rows, the h x 1 cols

    def strip(kind, size):
        made = strips[kind]
        while len(made) < size:
            c = next(take)
            made.append(add(kind(made[-1], c) if len(made) % 2 else kind(c, made[-1])))
        return made[size - 1]

    for k in range(steps):
        if k % 2 == 0:
            z, rows = add(Horiz(z, strip(Vert, cols))), rows + 1
        else:
            z, cols = add(Vert(strip(Horiz, rows), z)), cols + 1
    return validate_slp2(Slp2(rules, 4, z))


def reachable(g):
    """Ids reachable from the start, ascending: the variables an index stores."""
    seen, stack = {g.start}, [g.start]
    while stack:
        rule = g.rules[stack.pop()]
        if isinstance(rule, int):
            continue
        for c in rule if isinstance(rule, tuple) else rule.children:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return sorted(seen)


def submatrix(m, b_r, e_r, b_c, e_c):
    """Rows (b_r..e_r], cols (b_c..e_c] as a list of row lists."""
    return [[m.get(i, j) for j in range(b_c + 1, e_c + 1)]
            for i in range(b_r + 1, e_r + 1)]


def cell_line_lce(m, b_r, b_c, b2_r, b2_c, l):
    """oracle.line_lce by definition: widen while both l-row strips exist
    and agree on the next column, one cell at a time."""
    t = 0
    while (max(b_c, b2_c) + t <= m.cols
           and all(m.get(b_r + d, b_c + t) == m.get(b2_r + d, b2_c + t) for d in range(l))):
        t += 1
    return t


def cell_square_lce(m, b_r, b_c, b2_r, b2_c):
    """oracle.square_lce by definition: grow the square while both blocks
    exist and agree on every cell."""
    t = 0
    while (max(b_r, b2_r) + t <= m.rows and max(b_c, b2_c) + t <= m.cols
           and all(m.get(b_r + i, b_c + j) == m.get(b2_r + i, b2_c + j)
                   for i in range(t + 1) for j in range(t + 1))):
        t += 1
    return t


def cell_row_pattern(m, pat):
    """oracle.row_pattern_occurs by definition: 1 iff some row holds the
    codes pat at some column, compared one cell at a time."""
    k = len(pat)
    return int(any(all(m.get(i, j + q) == pat[q] for q in range(k))
                   for i in range(1, m.rows + 1) for j in range(1, m.cols - k + 2)))


class CountingProvider:
    """Wrap a provider callable and count invocations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


# -- an index's states, read back ------------------------------------------------

def state_key1(ix, t, side, p):
    """The key of a 1D index's state (t, side, level p)."""
    return t * (2 * ix.levels + 2) + p * 2 + side


def state_key2(ix, t, corner, p_r, p_c):
    """The key of a 2D index's state (t, corner, level pair (p_r, p_c))."""
    H = ix.levels + 1
    return t * 4 * H * H + (p_r * H + p_c) * 4 + corner


def state_of(ix, key):
    """The state a key names: (t, side, p) in 1D, (t, corner, p_r, p_c) in 2D."""
    if isinstance(ix, AccessIndex1):
        K = 2 * ix.levels + 2
        return key // K, key % 2, key % K >> 1
    H = ix.levels + 1
    t, rest = divmod(key, 4 * H * H)
    return (t, rest & 3, *divmod(rest >> 2, H))


_LEVELS = [None, None]          # the last index levels_of read, and its levels


def levels_of(ix):
    """The per-variable levels an index's build works from, computed from
    its grammar and tau with ``caps``/``_finish`` as the build computes
    them: in 1D ``cap``, the largest p with tau**p <= the length, ``mark``,
    ceil(height / FINISH), and ``top``, the highest level the variable
    stores, -1 for none; in 2D ``cap_r`` and ``cap_c``, the caps on rows
    and columns. The last index's are kept, for callers that ask per
    variable."""
    if _LEVELS[0] is not ix:
        g, tau = ix.grammar, ix.tau
        if isinstance(ix, AccessIndex1):
            cap = access1d.caps(g._lens, tau)
            mark = [-(-h // access1d.FINISH) for h in g._height]
            top = access1d._finish(g, [cap], mark)[2][0]
            levels = SimpleNamespace(cap=cap, mark=mark, top=top)
        else:
            levels = SimpleNamespace(cap_r=access1d.caps(g._rows, tau),
                                     cap_c=access1d.caps(g._cols, tau))
        _LEVELS[:] = ix, levels
    return _LEVELS[1]


def kept(ix):
    """{state: slots} of the states an index keeps (``state_of``)."""
    return {state_of(ix, key): ix.states[j][-1] for key, j in ix.ids.items()}


def variable(ix, code):
    """The variable a slot's code names: that of the state with that id,
    or the one a finish code descends from. A 2D code is a pair, both of
    whose elements name one variable."""
    if isinstance(code, tuple):
        code = code[0]
    if code >= 0:
        return state_of(ix, ix.keys[code])[0]
    return ~code >> (2 if isinstance(ix, AccessIndex1) else 3)


def decoded(ix):
    """{address: step} of every kept slot, its codes decoded into variables,
    in the form the plain descent gives a block's step: in 1D at (side, t,
    p * tau + k), (split inside the block, near child, far child) or (0,
    literal, None); in 2D at (corner, t, p_r, p_c, k_r * w + k_c), the
    slot itself, (axis, split, near child, far child, shift) or (0, 0,
    literal, None, 0)."""
    out = {}
    for state, slots in kept(ix).items():
        if len(state) == 3:
            t, side, p = state
            tp = ix.pows[p]
            for k, (S, near, far) in enumerate(slots):
                out[side, t, p * ix.tau + k] = (S - k * tp, near, None) if far is None else \
                    (S - k * tp, variable(ix, near), variable(ix, far))
            continue
        t, corner, p_r, p_c = state
        for at, (axis, s, near, far, shift) in enumerate(slots):
            out[corner, t, p_r, p_c, at] = (axis, s, near, None, shift) if far is None else \
                (axis, s, variable(ix, near), variable(ix, far), shift)
    return out


def wrap_slots(ix, wrap):
    """Replace each kept state's slot list by ``wrap(slots, state)``."""
    for key, j in ix.ids.items():
        entry = ix.states[j]
        ix.states[j] = (*entry[:-1], wrap(entry[-1], state_of(ix, key)))


# -- the slots a build makes ------------------------------------------------------

def made_slots(g, tau, dim):
    """(index, slots) of the uncapped build of ``g`` at ``tau``, the slots
    counted outside the build: one per block of every state the build
    fills, kept or copy-only (the slot lists ``_walk_build``'s fill
    returns)."""
    module, build = (access1d, build_index1) if dim == 1 else (access2d, build_index2)
    made = []
    walk = module._walk_build

    def counted(first, plan, fill, successors):
        return walk(first, plan, lambda state, cut: made.append(len(fill(state, cut))),
                    successors)

    with mock.patch.object(module, "_walk_build", counted):
        ix = build(g, tau)
    return ix, sum(made)
