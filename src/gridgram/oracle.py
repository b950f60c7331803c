"""Brute-force reference implementations of every query in the toolkit.

Each query scans the explicit string (a list of codes) or Matrix2D row by
row with slice operations and builds no index. Every range argument follows
the exclusive-begin / inclusive-end convention ``(b..e]`` with 1-based cell
positions, exactly as the query definitions state it, so the adapters in the
reductions module can be compared against these without any index
translation.

Every argument other than the text, the matrix and the pattern container is
an integer; a float, a string or None raises RangeError, as an integer out of
range does. All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne

from .errors import RangeError
from .slg2d import Matrix2D


def _not_ints(*args):
    """The error for a call whose arguments are not all integers. Callers
    test with inline isinstance checks, which cost a fraction of a call."""
    return RangeError(f"query arguments must be integers, got {', '.join(map(repr, args))}")


def _check_rect(rows, cols, b_r, e_r, b_c, e_c):
    """Reject a rectangle (b_r..e_r] x (b_c..e_c] with a bound outside the matrix."""
    if not (isinstance(b_r, int) and isinstance(e_r, int)
            and isinstance(b_c, int) and isinstance(e_c, int)):
        raise _not_ints(b_r, b_c, e_r, e_c)
    if not (0 <= b_r <= rows and 0 <= e_r <= rows):
        raise RangeError(f"row bounds {b_r}..{e_r} outside [0, {rows}]")
    if not (0 <= b_c <= cols and 0 <= e_c <= cols):
        raise RangeError(f"col bounds {b_c}..{e_c} outside [0, {cols}]")


def _row_lce(cells, a0, b0, t):
    """Length of the common prefix of the t-cell slices of ``cells`` at a0
    and b0, for t >= 1. Unless the first cells already differ: one slice
    comparison, then, on a mismatch, a lazy scan for the first differing cell."""
    if cells[a0] != cells[b0]:
        return 0
    a, b = cells[a0:a0 + t], cells[b0:b0 + t]
    if a == b:
        return t
    return next(compress(count(), map(ne, a, b)))


# -- 1D queries ---------------------------------------------------------------

def rank(t, j, a):
    """Number of positions i in (0..j] with t[i] = a."""
    if not (isinstance(j, int) and isinstance(a, int)):
        raise _not_ints(j, a)
    if not (0 <= j <= len(t)):
        raise RangeError(f"rank prefix {j} outside [0, {len(t)}]")
    return t[:j].count(a)


def occurs(t, b, e, a):
    """1 iff some position in (b..e] holds a; empty ranges (b >= e) give 0."""
    if not (isinstance(b, int) and isinstance(e, int) and isinstance(a, int)):
        raise _not_ints(b, e, a)
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
    if not (isinstance(e_r, int) and isinstance(e_c, int) and isinstance(l, int)):
        raise _not_ints(e_r, e_c, l)
    if l < 0:
        raise RangeError(f"line length {l} must be >= 0")
    if not (1 <= e_r <= m.rows):
        raise RangeError(f"row {e_r} outside [1, {m.rows}]")
    if not (0 <= e_c <= m.cols) or e_c < l:
        raise RangeError(f"column {e_c} outside [{l}, {m.cols}]")
    base = (e_r - 1) * m.cols
    return sum(m.cells[base + e_c - l:base + e_c])


def all_zero(m, b_r, b_c, e_r, e_c):
    """1 iff every cell in (b_r..e_r] x (b_c..e_c] is 0; empty ranges give 1."""
    _check_rect(m.rows, m.cols, b_r, e_r, b_c, e_c)
    return _all_zero(m.cells, m.cols, b_r, b_c, e_r, e_c)


def _all_zero(cells, w, b_r, b_c, e_r, e_c):
    """all_zero on row-major cells of width w, unchecked."""
    for i in range(b_r, e_r):
        if any(cells[i * w + b_c:i * w + e_c]):
            return 0
    return 1


def square_all_zero(m, e_r, e_c, l):
    """1 iff the l x l block with bottom-right corner (e_r, e_c) is all zero."""
    if not (isinstance(e_r, int) and isinstance(e_c, int) and isinstance(l, int)):
        raise _not_ints(e_r, e_c, l)
    if l < 0:
        raise RangeError(f"square side {l} must be >= 0")
    if not (0 <= e_r <= m.rows) or e_r < l:
        raise RangeError(f"row bound {e_r} outside [{l}, {m.rows}]")
    if not (0 <= e_c <= m.cols) or e_c < l:
        raise RangeError(f"col bound {e_c} outside [{l}, {m.cols}]")
    return _all_zero(m.cells, m.cols, e_r - l, e_c - l, e_r, e_c)


# -- 2D general-alphabet queries ----------------------------------------------

def equal_rect(m, b_r, b_c, b2_r, b2_c, h, w):
    """1 iff the h x w blocks anchored (top-left) at the two origins match."""
    if not (isinstance(b_r, int) and isinstance(b_c, int) and isinstance(b2_r, int)
            and isinstance(b2_c, int) and isinstance(h, int) and isinstance(w, int)):
        raise _not_ints(b_r, b_c, b2_r, b2_c, h, w)
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
    if not (isinstance(b_r, int) and isinstance(b_c, int)
            and isinstance(b2_r, int) and isinstance(b2_c, int)):
        raise _not_ints(b_r, b_c, b2_r, b2_c)
    if not (1 <= b_r <= m.rows and 1 <= b2_r <= m.rows):
        raise RangeError("LCE origins outside the matrix")
    if not (1 <= b_c <= m.cols and 1 <= b2_c <= m.cols):
        raise RangeError("LCE origins outside the matrix")
    cells, w = m.cells, m.cols
    a0, b0 = (b_r - 1) * w + b_c - 1, (b2_r - 1) * w + b2_c - 1
    # cap: the longest square the rows read so far still allow; a (d+1)-square
    # needs row d to agree on its first d+1 cells
    cap = min(m.rows - b_r + 1, m.rows - b2_r + 1, m.cols - b_c + 1, m.cols - b2_c + 1)
    d = 0
    while d < cap:
        cap = _row_lce(cells, a0 + d * w, b0 + d * w, cap)
        if cap <= d:
            return d
        d += 1
    return d


def line_lce(m, b_r, b_c, b2_r, b2_c, l):
    """Largest t with equal l x t blocks at the two origins."""
    if not (isinstance(b_r, int) and isinstance(b_c, int) and isinstance(b2_r, int)
            and isinstance(b2_c, int) and isinstance(l, int)):
        raise _not_ints(b_r, b_c, b2_r, b2_c, l)
    if l < 1:
        raise RangeError("line LCE height must be >= 1")
    if not (1 <= b_r <= m.rows and 1 <= b2_r <= m.rows):
        raise RangeError("LCE origins outside the matrix")
    if not (1 <= b_c <= m.cols and 1 <= b2_c <= m.cols):
        raise RangeError("LCE origins outside the matrix")
    if b_r + l > m.rows + 1 or b2_r + l > m.rows + 1:
        raise RangeError("line LCE strip extends past the matrix")
    cells, w = m.cells, m.cols
    a0, b0 = (b_r - 1) * w + b_c - 1, (b2_r - 1) * w + b2_c - 1
    t = min(m.cols - b_c + 1, m.cols - b2_c + 1)
    for d in range(l):
        t = _row_lce(cells, a0 + d * w, b0 + d * w, t)
        if not t:
            break
    return t


# -- pattern matching and orthogonal vectors ----------------------------------

def row_pattern_occurs(m, p):
    """1 iff the single-row pattern p occurs somewhere in the matrix.

    ``p`` may be a 1-row Matrix2D or a plain sequence of integer codes.
    """
    if isinstance(p, Matrix2D):
        if p.rows != 1:
            raise RangeError("pattern must have exactly one row")
        pat = p.cells
    else:
        pat = list(p)
    if not pat:
        raise RangeError("pattern must be nonempty")
    if not all(isinstance(c, int) for c in pat):
        raise RangeError(f"pattern codes must be integers, got {pat!r}")
    k, w = len(pat), m.cols
    if k > w:
        return 0
    cells = m.cells
    try:
        hay, needle = bytes(cells), bytes(pat)
    except (ValueError, TypeError):
        # a code outside 0..255, or a text cell that is no integer: compare
        # the pattern at every offset of every row
        for i in range(0, len(cells), w):
            row = cells[i:i + w]
            for j in range(w - k + 1):
                if row[j:j + k] == pat:
                    return 1
        return 0
    # the end bound keeps a match inside one row
    for i in range(0, len(hay), w):
        if hay.find(needle, i, i + w) >= 0:
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
    if not all(isinstance(a, int) for v in vecs for a in v):
        raise RangeError("vector entries must be integers")
    for x in vecs:
        for y in vecs:
            if all(a * b == 0 for a, b in zip(x, y)):
                return 1
    return 0
