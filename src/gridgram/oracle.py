"""Brute-force reference implementations of every query in the toolkit.

These are deliberately naive scans over explicit strings (lists of codes) and
Matrix2D values. Every range argument follows the exclusive-begin /
inclusive-end convention ``(b..e]`` with 1-based cell positions, exactly as
the query definitions state it, so the adapters in the reductions module can
be compared against these without any index translation.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from .errors import RangeError
from .slg2d import Matrix2D


def _check_rect(rows, cols, b_r, e_r, b_c, e_c):
    """Reject a rectangle (b_r..e_r] x (b_c..e_c] with a bound outside the matrix."""
    if not (0 <= b_r <= rows and 0 <= e_r <= rows):
        raise RangeError(f"row bounds {b_r}..{e_r} outside [0, {rows}]")
    if not (0 <= b_c <= cols and 0 <= e_c <= cols):
        raise RangeError(f"col bounds {b_c}..{e_c} outside [0, {cols}]")


# -- 1D queries ---------------------------------------------------------------

def rank(t, j, a):
    """Number of positions i in (0..j] with t[i] = a."""
    if not (0 <= j <= len(t)):
        raise RangeError(f"rank prefix {j} outside [0, {len(t)}]")
    return t[:j].count(a)


def occurs(t, b, e, a):
    """1 iff some position in (b..e] holds a; empty ranges (b >= e) give 0."""
    n = len(t)
    if not (0 <= b <= n and 0 <= e <= n):
        raise RangeError(f"occurs range {b}..{e} outside [0, {n}]")
    if b >= e:
        return 0
    return 1 if a in t[b:e] else 0


# -- 2D integer-alphabet queries ----------------------------------------------

def sum_rect(m, b_r, b_c, e_r, e_c):
    """Sum of all cells in (b_r..e_r] x (b_c..e_c]; empty ranges sum to 0."""
    _check_rect(m.rows, m.cols, b_r, e_r, b_c, e_c)
    if b_r >= e_r or b_c >= e_c:
        return 0
    total = 0
    cells, w = m.cells, m.cols
    for i in range(b_r, e_r):
        total += sum(cells[i * w + b_c:i * w + e_c])
    return total


def line_sum(m, e_r, e_c, l):
    """Sum of the l cells of row e_r ending at column e_c."""
    if l < 0:
        raise RangeError(f"line length {l} must be >= 0")
    if not (1 <= e_r <= m.rows):
        raise RangeError(f"row {e_r} outside [1, {m.rows}]")
    if not (0 <= e_c <= m.cols) or e_c < l:
        raise RangeError(f"column {e_c} outside [{l}, {m.cols}]")
    return sum_rect(m, e_r - 1, e_c - l, e_r, e_c)


def all_zero(m, b_r, b_c, e_r, e_c):
    """1 iff every cell in (b_r..e_r] x (b_c..e_c] is 0; empty ranges give 1."""
    _check_rect(m.rows, m.cols, b_r, e_r, b_c, e_c)
    cells, w = m.cells, m.cols
    for i in range(b_r, e_r):
        if any(cells[i * w + b_c:i * w + e_c]):
            return 0
    return 1


def square_all_zero(m, e_r, e_c, l):
    """1 iff the l x l block with bottom-right corner (e_r, e_c) is all zero."""
    if l < 0:
        raise RangeError(f"square side {l} must be >= 0")
    if not (0 <= e_r <= m.rows) or e_r < l:
        raise RangeError(f"row bound {e_r} outside [{l}, {m.rows}]")
    if not (0 <= e_c <= m.cols) or e_c < l:
        raise RangeError(f"col bound {e_c} outside [{l}, {m.cols}]")
    return all_zero(m, e_r - l, e_c - l, e_r, e_c)


# -- 2D general-alphabet queries ----------------------------------------------

def equal_rect(m, b_r, b_c, b2_r, b2_c, h, w):
    """1 iff the h x w blocks anchored (top-left) at the two origins match."""
    if h < 1 or w < 1:
        raise RangeError("equality blocks must be at least 1x1")
    if not (1 <= b_r <= m.rows and 1 <= b2_r <= m.rows):
        raise RangeError("equality origins outside the matrix")
    if not (1 <= b_c <= m.cols and 1 <= b2_c <= m.cols):
        raise RangeError("equality origins outside the matrix")
    if max(b_r, b2_r) + h > m.rows + 1 or max(b_c, b2_c) + w > m.cols + 1:
        raise RangeError("equality block extends past the matrix")
    cells, cw = m.cells, m.cols
    for d in range(h):
        a0 = (b_r - 1 + d) * cw + (b_c - 1)
        b0 = (b2_r - 1 + d) * cw + (b2_c - 1)
        if cells[a0:a0 + w] != cells[b0:b0 + w]:
            return 0
    return 1


def square_lce(m, b_r, b_c, b2_r, b2_c):
    """Largest t with equal t x t blocks at the two origins.

    t is additionally bounded by the matrix edges from both origins: the
    query definition implicitly requires both blocks to exist.
    """
    if not (1 <= b_r <= m.rows and 1 <= b2_r <= m.rows):
        raise RangeError("LCE origins outside the matrix")
    if not (1 <= b_c <= m.cols and 1 <= b2_c <= m.cols):
        raise RangeError("LCE origins outside the matrix")
    t_max = min(m.rows - b_r + 1, m.rows - b2_r + 1,
                m.cols - b_c + 1, m.cols - b2_c + 1)
    t = 0
    while t < t_max:
        # grow by one: compare the new right column and bottom row of the square
        side = t + 1
        if not equal_rect(m, b_r, b_c + t, b2_r, b2_c + t, side, 1):
            break
        if not equal_rect(m, b_r + t, b_c, b2_r + t, b2_c, 1, side):
            break
        t = side
    return t


def line_lce(m, b_r, b_c, b2_r, b2_c, l):
    """Largest t with equal l x t blocks at the two origins."""
    if l < 1:
        raise RangeError("line LCE height must be >= 1")
    if not (1 <= b_r <= m.rows and 1 <= b2_r <= m.rows):
        raise RangeError("LCE origins outside the matrix")
    if not (1 <= b_c <= m.cols and 1 <= b2_c <= m.cols):
        raise RangeError("LCE origins outside the matrix")
    if b_r + l > m.rows + 1 or b2_r + l > m.rows + 1:
        raise RangeError("line LCE strip extends past the matrix")
    t_max = min(m.cols - b_c + 1, m.cols - b2_c + 1)
    t = 0
    while t < t_max:
        if not equal_rect(m, b_r, b_c + t, b2_r, b2_c + t, l, 1):
            break
        t += 1
    return t


# -- pattern matching and orthogonal vectors ----------------------------------

def row_pattern_occurs(m, p):
    """1 iff the single-row pattern p occurs somewhere in the matrix.

    ``p`` may be a 1-row Matrix2D or a plain sequence of codes.
    """
    if isinstance(p, Matrix2D):
        if p.rows != 1:
            raise RangeError("pattern must have exactly one row")
        pat = p.cells
    else:
        pat = list(p)
    if not pat:
        raise RangeError("pattern must be nonempty")
    k = len(pat)
    if k > m.cols:
        return 0
    cells, w = m.cells, m.cols
    for i in range(m.rows):
        row = cells[i * w:(i + 1) * w]
        for j in range(w - k + 1):
            if row[j:j + k] == pat:
                return 1
    return 0


def ov_brute(vectors):
    """1 iff some pair x, y (x = y allowed) of vectors has dot product 0."""
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        raise RangeError("orthogonal-vectors instance must be nonempty")
    d = len(vecs[0])
    if any(len(v) != d for v in vecs):
        raise RangeError("vectors must share one dimension")
    for x in vecs:
        for y in vecs:
            if all(a * b == 0 for a, b in zip(x, y)):
                return 1
    return 0
