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

from gridgram import (
    DimensionMismatch,
    Horiz,
    Matrix2D,
    Slp1,
    Slp2,
    Vert,
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
    return Matrix2D(a.rows + b.rows, a.cols, a.cells + b.cells)


def expand_all_2d(g):
    """Matrix2D expansion of every non-empty variable, assembled structurally.

    Deliberately independent of expand2: builds each variable by folding its
    children with hconcat/vconcat, which is the definitional induction.
    """
    out = {}
    for nid in reversed(g._topo):
        rule = g.rules[nid]
        if isinstance(rule, int):
            out[nid] = Matrix2D(1, 1, [rule])
            continue
        parts = [out[c] for c in rule.children if c in out]
        if not parts:
            continue
        acc = parts[0]
        for m in parts[1:]:
            acc = vconcat(acc, m) if isinstance(rule, Horiz) else hconcat(acc, m)
        out[nid] = acc
    return out


def expand_all_1d(g):
    """List expansion of every non-empty variable, by definitional induction."""
    out = {}
    for nid in reversed(g._topo):
        rule = g.rules[nid]
        if isinstance(rule, int):
            out[nid] = [rule]
            continue
        acc = []
        for c in rule if isinstance(rule, tuple) else rule.children:
            acc.extend(out.get(c, []))
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
