"""2D straight-line grammars and explicit matrices.

A 2D grammar rule is one of

  * an ``int``        -- a literal rule expanding to a 1x1 matrix,
  * ``Horiz(ids...)`` -- children share a column count, expansions are
                         stacked vertically (row counts add),
  * ``Vert(ids...)``  -- children share a row count, expansions are
                         concatenated horizontally (column counts add).

WARNING: the class names follow the established 2D-grammar formalism and
are easy to misread.
"Horizontal" nonterminals cut the matrix along horizontal seams (children are
horizontal slabs, stacked top to bottom); "vertical" nonterminals cut along
vertical seams (children are vertical slabs, left to right). The file format
letters H/V mirror the class, not the direction of growth.

A 2D grammar is a 1D grammar whose rule objects carry an axis, so the
machinery that ignores sizes (reference and cycle checks, reachability,
moving the start to id 0, SLP conversion, the text format skeleton) is the
shared core in ``slg``. This module holds what is truly 2D: the rule and
matrix types, the dimension pass of validation, expansion and the MAT format.

Rules with an empty child list expand to the empty matrix; they are legal in
Slg2 (one construction in the reductions module needs them) and are
eliminated by slg2_to_slp2. Mixed arity is legal in Slg2; only Slp2 restricts
non-literal rules to exactly two children.

Text formats::

    SLG2 <num_nonterminals> <alphabet_size>
    <id>: L <terminal>
    <id>: H <id> [...]
    <id>: V <id> [...]
    START <id>

    MAT <rows> <cols>
    <row of space-separated codes> x rows

Grammars and matrices are immutable after construction/validation and safe
for any number of concurrent readers.
"""

from __future__ import annotations

from .errors import (
    ArithmeticOverflow,
    DimensionMismatch,
    EmptyLanguage,
    ExpansionTooLarge,
    ParseError,
)
from .slg import (
    DEFAULT_CAP,
    MAX_LEN,
    _as_slp,
    _binarize,
    _canonical,
    _dump,
    _Grammar,
    _int,
    _parse,
    _reach_pending,
    grammar_size1,
)


class _Concat:
    """A concatenation rule: the tuple of its child ids, given as arguments
    or as one iterable. Equal only to a rule of the same class."""

    __slots__ = ("children",)

    def __init__(self, *children):
        if len(children) == 1 and not isinstance(children[0], int):
            children = tuple(children[0])
        self.children = tuple(children)

    def __eq__(self, other):
        return type(other) is type(self) and self.children == other.children

    def __hash__(self):
        return hash((type(self).__name__, self.children))

    def __repr__(self):
        return f"{type(self).__name__}{self.children!r}"


class Horiz(_Concat):
    """Children share width; expansions stack vertically (rows add)."""

    __slots__ = ()


class Vert(_Concat):
    """Children share height; expansions concatenate horizontally (cols add)."""

    __slots__ = ()


class Matrix2D:
    """An explicit matrix of terminal codes, row-major flat storage.

    The public cell accessor is 1-based on both axes to match the query
    conventions used throughout the package; the flat ``cells`` list is
    0-based row-major.
    """

    __slots__ = ("rows", "cols", "cells")

    def __init__(self, rows, cols, cells):
        if rows < 1 or cols < 1:
            raise DimensionMismatch(f"matrix dimensions must be positive, got {rows}x{cols}")
        cells = list(cells)
        if len(cells) != rows * cols:
            raise DimensionMismatch(
                f"cell count {len(cells)} does not match {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.cells = cells

    @classmethod
    def from_rows(cls, rows_of_codes):
        rows = list(rows_of_codes)
        if not rows:
            raise DimensionMismatch("matrix needs at least one row")
        width = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != width:
                raise DimensionMismatch("ragged rows in matrix literal")
            flat.extend(r)
        return cls(len(rows), width, flat)

    def get(self, i, j):
        """Cell in row i, column j (both 1-based)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        return self.cells[(i - 1) * self.cols + (j - 1)]

    def row(self, i):
        """Row i (1-based) as a list."""
        base = (i - 1) * self.cols
        return self.cells[base:base + self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(1, self.rows + 1)]

    def __eq__(self, other):
        return (isinstance(other, Matrix2D) and self.rows == other.rows
                and self.cols == other.cols and self.cells == other.cells)

    def __repr__(self):
        return f"Matrix2D({self.rows}x{self.cols})"


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


class Slg2(_Grammar):
    """A 2D straight-line grammar over literal/Horiz/Vert rules."""

    __slots__ = ("_rows", "_cols")
    _magic, _literal, _letters, _min_children = "SLG2", "L", {Horiz: "H", Vert: "V"}, 0
    _caches = ("_topo", "_eps", "_rows", "_cols")
    _empty = "the empty matrix"

    def __init__(self, rules, alphabet_size, start=0):
        super().__init__(rules, alphabet_size, start)
        self._rows = None
        self._cols = None

    @staticmethod
    def _children(rule):
        return rule.children


class Slp2(Slg2):
    """An Slg2 in which every non-literal rule has arity exactly 2."""


def validate_slg2(g):
    """Check all Slg2 invariants; return the canonicalized grammar.

    Verifies acyclicity, reference and terminal ranges, and dimension
    consistency: the non-empty children of a Horiz rule must share one
    column count, those of a Vert rule one row count. Caches the topological
    order and per-nonterminal (rows, cols); empty-expanding rules get (0, 0).
    """
    g, topo = _canonical(g)
    rules = g.rules

    rows = [0] * len(rules)
    cols = [0] * len(rules)
    eps = [False] * len(rules)
    for nid in reversed(topo):
        rule = rules[nid]
        if isinstance(rule, int):
            rows[nid] = cols[nid] = 1
            continue
        live = [c for c in rule.children if not eps[c]]
        if not live:
            eps[nid] = True
            continue
        if isinstance(rule, Horiz):
            w = cols[live[0]]
            for c in live[1:]:
                if cols[c] != w:
                    raise DimensionMismatch(
                        f"Horiz rule {nid}: child {c} has {cols[c]} cols, expected {w}")
            r = sum(rows[c] for c in live)
            rows[nid], cols[nid] = r, w
        else:
            h = rows[live[0]]
            for c in live[1:]:
                if rows[c] != h:
                    raise DimensionMismatch(
                        f"Vert rule {nid}: child {c} has {rows[c]} rows, expected {h}")
            w = sum(cols[c] for c in live)
            rows[nid], cols[nid] = h, w
        if rows[nid] > MAX_LEN or cols[nid] > MAX_LEN:
            raise ArithmeticOverflow(f"dimensions of id {nid} exceed 2**62")

    g._topo = topo
    g._rows = rows
    g._cols = cols
    g._eps = eps
    return g


def validate_slp2(g):
    """validate_slg2 plus arity-2 and no empty rules; returns an Slp2."""
    g = _as_slp(validate_slg2(g), Slp2)
    if any(g._eps):
        raise EmptyLanguage("2D SLP may not contain empty-expanding rules")
    return g


def dims(g, nid):
    """(rows, cols) of the expansion of ``nid``; (0, 0) for empty rules."""
    nid = g._checked_id(nid)
    return g._rows[nid], g._cols[nid]


def expand2(g, cap=DEFAULT_CAP):
    """Materialize the unique matrix derived by the grammar.

    Assembled bottom-up (flat row-major lists); intermediate expansions are
    freed once every parent has consumed them. Empty children are skipped.
    """
    g.require_validated()
    r, c = g._rows[g.start], g._cols[g.start]
    if r == 0 or c == 0:
        raise EmptyLanguage("grammar derives only the empty matrix")
    if r * c > cap:
        raise ExpansionTooLarge(f"expansion has {r * c} cells, cap is {cap}")

    reach, pending = _reach_pending(g)

    exp = {}  # id -> flat row-major list (dims come from the caches)
    rows, cols = g._rows, g._cols
    for nid in reversed(g._topo):
        if not reach[nid] or g._eps[nid]:
            continue
        rule = g.rules[nid]
        if isinstance(rule, int):
            exp[nid] = [rule]
            continue
        live = [ch for ch in rule.children if not g._eps[ch]]
        if isinstance(rule, Horiz):
            flat = []
            for ch in live:
                flat.extend(exp[ch])
        else:
            flat = []
            w = [cols[ch] for ch in live]
            for i in range(rows[nid]):
                for ch, wc in zip(live, w):
                    flat.extend(exp[ch][i * wc:(i + 1) * wc])
        for ch in rule.children:
            pending[ch] -= 1
            if pending[ch] == 0 and ch != g.start and ch in exp:
                del exp[ch]
        exp[nid] = flat
    return Matrix2D(r, c, exp[g.start])


grammar_size2 = grammar_size1  # the size measure is the same in both dimensions


def slg2_to_slp2(g):
    """Convert to an equivalent 2D SLP (arity-2 rules, no empty rules).

    Same pipeline as the 1D conversion: drop empty-expanding children, alias
    single-child rules, binarize longer right-hand sides left to right, keep
    only rules reachable from the start.
    """
    if not g.validated:
        g = validate_slg2(g)
    return validate_slp2(_binarize(g, Slp2))


# -- text formats -----------------------------------------------------------

def parse_slg2(text):
    """Parse the SLG2 text format; returns an unvalidated Slg2."""
    return _parse(text, Slg2)


def dump_slg2(g):
    """Serialize to the SLG2 text format."""
    return _dump(g)


def parse_matrix(text):
    """Parse the MAT text format into a Matrix2D."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "MAT":
        raise ParseError(f"bad header: {lines[0]!r}")
    rows, cols = _int(head[1], lines[0]), _int(head[2], lines[0])
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} rows, found {len(lines) - 1}")
    flat = []
    for ln in lines[1:]:
        vals = [_int(v, ln) for v in ln.split()]
        if len(vals) != cols:
            raise ParseError(f"expected {cols} columns in row: {ln!r}")
        flat.extend(vals)
    return Matrix2D(rows, cols, flat)


def dump_matrix(m):
    """Serialize a Matrix2D to the MAT text format."""
    out = [f"MAT {m.rows} {m.cols}"]
    for i in range(1, m.rows + 1):
        out.append(" ".join(str(v) for v in m.row(i)))
    return "\n".join(out) + "\n"
