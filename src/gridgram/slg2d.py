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
machinery that ignores sizes (type, reference and cycle checks,
reachability, SLP conversion, the text format skeleton) is the shared core
in ``slg``; validation keeps every id and returns the grammar it is given.
This module holds what is truly 2D: the rule and matrix types, the
dimension pass of validation, expansion and the MAT format.

Every Horiz and Vert rule lists at least one child, so no rule derives the
empty matrix: validation refuses a rule that lists none (EmptyLanguage),
and the parser an ``H`` or ``V`` line without children. Mixed arity is
legal in Slg2; only validate_slp2 and the entry points that need an SLP
restrict non-literal rules to exactly two children.

Text formats::

    SLG2 <num_nonterminals> <alphabet_size>
    <id>: L <terminal>
    <id>: H <id> [<id> ...]
    <id>: V <id> [<id> ...]
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
    ParseError,
    PositionOutOfRange,
    RangeError,
)
from .slg import (
    DEFAULT_CAP,
    Codes,
    MAX_LEN,
    _as_slp,
    _check_binary,
    _check_cap,
    _dump,
    _expand,
    _Grammar,
    _int,
    _parse,
    _validate_core,
    grammar_size1,
)


class _Concat:
    """A concatenation rule: the tuple of its child ids, given as arguments
    or as one iterable. Equal only to a rule of the same class."""

    __slots__ = ("children",)

    def __init__(self, *children):
        if len(children) == 1 and hasattr(children[0], "__iter__"):
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

    The public cell accessors are 1-based on both axes to match the query
    conventions used throughout the package; the flat ``cells`` store is a
    0-based row-major ``Codes`` array. The constructor checks the
    dimensions and copies ``cells`` into one in a single pass: one byte per
    cell when every cell is in 0..255, else a signed 64-bit integer per
    cell, and a cell outside that range is a RangeError. expand2 hands over
    its freshly written store through ``_adopt`` instead, so a large
    expansion is never held twice. ``row`` and ``to_rows`` return lists.
    """

    __slots__ = ("rows", "cols", "cells")

    def __init__(self, rows, cols, cells):
        if not (isinstance(rows, int) and isinstance(cols, int) and rows >= 1 and cols >= 1):
            raise DimensionMismatch(f"matrix dimensions must be positive ints: {rows!r}x{cols!r}")
        # the retry reads cells again, and array() would read a bytes-like
        # initializer as raw machine bytes
        if not isinstance(cells, (list, tuple)):
            cells = list(cells)
        try:
            try:
                store = Codes("B", cells)
            except OverflowError:
                store = Codes("q", cells)
        except TypeError:
            raise RangeError("matrix cells must be integers") from None
        except OverflowError:
            raise RangeError("matrix cells must lie in the signed 64-bit range") from None
        if len(store) != rows * cols:
            raise DimensionMismatch(
                f"cell count {len(store)} does not match {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.cells = store

    @classmethod
    def _adopt(cls, rows, cols, cells):
        """Wrap the fresh row-major ``Codes`` of rows x cols cells that
        expand2 wrote, whatever its typecode, unchecked and uncopied:
        nothing else holds it."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.cells = rows, cols, cells
        return m

    @classmethod
    def from_rows(cls, rows_of_codes):
        try:
            rows = [list(r) for r in rows_of_codes]
        except TypeError:
            raise DimensionMismatch("a matrix literal is an iterable of rows, "
                                    "each an iterable of codes") from None
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
        if not (isinstance(i, int) and isinstance(j, int)
                and 1 <= i <= self.rows and 1 <= j <= self.cols):
            raise PositionOutOfRange(f"({i!r},{j!r}) outside {self.rows}x{self.cols}")
        return self.cells[(i - 1) * self.cols + (j - 1)]

    def row(self, i):
        """Row i (1-based) as a list."""
        if not (isinstance(i, int) and 1 <= i <= self.rows):
            raise PositionOutOfRange(f"row {i!r} outside [1, {self.rows}]")
        base = (i - 1) * self.cols
        return self.cells[base:base + self.cols].tolist()

    def to_rows(self):
        return [self.row(i) for i in range(1, self.rows + 1)]

    def __eq__(self, other):
        return (isinstance(other, Matrix2D) and self.rows == other.rows
                and self.cols == other.cols and self.cells == other.cells)

    def __repr__(self):
        return f"Matrix2D({self.rows}x{self.cols})"


class Slg2(_Grammar):
    """A 2D straight-line grammar over literal/Horiz/Vert rules."""

    __slots__ = ("_rows", "_cols")
    _magic, _literal, _letters = "SLG2", "L", {Horiz: "H", Vert: "V"}

    def __init__(self, rules, alphabet_size, start=0):
        super().__init__(rules, alphabet_size, start)
        self._rows = None
        self._cols = None

    @staticmethod
    def _children(rule):
        return rule.children

    def _measure(self, order):
        """Cache the rows and columns, visiting the ids in ``order``, children
        first: the children of a Horiz rule must share one column count,
        those of a Vert rule one row count."""
        rules, kids = self.rules, self._kids
        rows, cols = [0] * len(rules), [0] * len(rules)
        for nid in order:
            rule = rules[nid]
            if isinstance(rule, int):
                rows[nid] = cols[nid] = 1
                continue
            ks, total = kids[nid], 0    # plain loops: 2.5x faster than sum() over a generator
            if type(rule) is Horiz:
                w = cols[ks[0]]
                for c in ks:
                    if cols[c] != w:
                        raise DimensionMismatch(
                            f"Horiz rule {nid}: child {c} has {cols[c]} cols, expected {w}")
                    total += rows[c]
                rows[nid], cols[nid] = total, w
            else:
                h = rows[ks[0]]
                for c in ks:
                    if rows[c] != h:
                        raise DimensionMismatch(
                            f"Vert rule {nid}: child {c} has {rows[c]} rows, expected {h}")
                    total += cols[c]
                rows[nid], cols[nid] = h, total
            if rows[nid] > MAX_LEN or cols[nid] > MAX_LEN:
                raise ArithmeticOverflow(f"dimensions of id {nid} exceed 2**62")
        self._rows, self._cols = rows, cols

    def _move_records(self):
        rows, cols = self._rows, self._cols
        return [None if kid is None else (kid[0], kid[1], rows[kid[0]], True)
                if type(rule) is Horiz else (kid[0], kid[1], cols[kid[0]], False)
                for kid, rule in zip(self._kids, self.rules)]


Slp2 = Slg2  # a 2D SLP is a validated Slg2 with binary rules, see validate_slp2


def validate_slg2(g):
    """Check all Slg2 invariants; return ``g`` itself, every id kept.

    Verifies acyclicity, reference and terminal ranges, and dimension
    consistency: the children of a Horiz rule must share one column count,
    those of a Vert rule one row count. Caches the topological order, the
    child lists, reachability from the start, heights and per-nonterminal
    (rows, cols).
    """
    return _validate_core(Slg2._own(g))


def validate_slp2(g):
    """validate_slg2 plus the arity-2 restriction; returns ``g`` itself."""
    return _check_binary(validate_slg2(g), "validate_slp2")


def dims(g, nid):
    """(rows, cols) of the expansion of ``nid``."""
    nid = Slg2._checked_id(g, nid)
    return g._rows[nid], g._cols[nid]


def expand2(g, cap=DEFAULT_CAP):
    """Materialize the unique matrix derived by the grammar.

    Each output cell is written at most once, into one preallocated
    row-major ``Codes`` array of zeros that the returned Matrix2D adopts
    without a copy, of the narrowest unsigned typecode that holds the
    grammar's largest literal code (one byte per cell for codes up to 255);
    a code of 2**64 or more is a RangeError. A variable whose cells are all
    code 0 is left as those zeros, so a one-hot column taller than 16 cells
    is split down to its 1. A variable of at most 2**12 cells, at least one
    in 16 of them nonzero, that occurs at two or more places is built once
    and its copies are painted into place (see ``slg._paint``); every other
    variable is split top down into its children. The working set is the
    output plus those small variables, not the sum of all expansion sizes.
    """
    rows, cols = Slg2._ready(g)._rows, g._cols
    r, c = rows[g.start], cols[g.start]
    _check_cap(r * c, cap, "cells")
    return Matrix2D._adopt(r, c, _expand(g, rows, cols, Horiz))


grammar_size2 = grammar_size1  # the size measure is the same in both dimensions


def slg2_to_slp2(g):
    """Convert to an equivalent 2D SLP (arity-2 rules).

    As the 1D conversion: an SLP whose start reaches every rule is returned
    as it is; any other grammar is renumbered, the start last, with
    single-child rules aliased, longer right-hand sides binarized left to
    right and only rules reachable from the start kept. The output derives
    its cached arrays from ``g``'s.
    """
    return _as_slp(Slg2._ready(g))


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
