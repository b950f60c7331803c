"""Straight-line grammars: the machinery shared by 1D and 2D, and the 1D form.

A grammar is a list of rules indexed by nonterminal id. Each rule is either
an ``int`` -- a literal rule, the value is the terminal code -- or a rule
object listing child nonterminal ids. In 1D the rule object is a plain
``tuple`` of children; in 2D (module ``slg2d``) it is a ``Horiz`` or
``Vert`` whose children are in ``rule.children``. Everything that does not
look at expansion lengths or dimensions -- the type and range checks,
acyclicity, reachability, the SLP conversion and the text format skeleton
-- is written once here, for both.

A valid grammar is acyclic (some ordering of the nonterminals exists in which
every sequence rule references only later ones), every sequence rule lists
at least one child, every referenced id has a rule, and every literal code
is in ``[0, alphabet_size)``, so no rule derives the empty string or
matrix. Validation keeps every id: it returns the grammar it is given,
rules and start unchanged, and caches on it a topological order, the child
lists (``_kids``: per id the tuple of child ids, None for a literal),
reachability from the start (``_reach``), heights (``_height``: 0 for a
literal, else one more than the highest child), and per-nonterminal
expansion lengths (in 2D, dimensions, see ``slg2d``).
An SLP is a validated grammar whose non-literal rules all have two children;
``Slp1`` is another name for ``Slg1``. The check of that arity caches one
more list, the move records (``_moves``): per id the tuple a descent move
reads, ``(x, y, split)`` in 1D with split the length of x, and ``(x, y,
split, horiz)`` in 2D with split the rows of x when horiz (the rule splits
rows) and its columns otherwise; None for a literal.
The walkers of every module read these arrays and derive none of their own.
Every entry point other than ``validate_*`` takes a grammar of its own
dimension raw or validated, through one gate (``_Grammar._ready``): it
validates a grammar that has not passed validation, once, as ``validate_*``
does, and an entry point that needs an SLP names itself in NotAnSlp.
The SLP conversion returns an SLP whose start reaches every rule as it is,
ids and start kept; it renumbers any other grammar with the start last.

Text format (UTF-8, line oriented)::

    SLG1 <num_nonterminals> <alphabet_size>
    <id>: T <terminal>
    <id>: N <id> [<id> ...]
    START <id>

Grammars are immutable after validation and safe to share across readers;
construction and validation are single-threaded.
"""

from __future__ import annotations

from array import array
from itertools import chain

from .errors import (
    ArithmeticOverflow,
    CyclicGrammar,
    DanglingReference,
    DuplicateRule,
    EmptyLanguage,
    ExpansionTooLarge,
    NotAnSlp,
    ParseError,
    PreconditionViolated,
    RangeError,
    TerminalOutOfRange,
)

# Validation raises ArithmeticOverflow for an expansion length or side past
# this bound: Python ints never overflow, so this keeps sizes in a stated range.
MAX_LEN = 1 << 62

# Default cap on materialized expansion size (cells / symbols).
DEFAULT_CAP = 1 << 26


def _expect(cls, obj):
    """``obj`` itself, if it is a ``cls``; else PreconditionViolated naming
    both types, not an AttributeError from the first field read."""
    if not isinstance(obj, cls):
        raise PreconditionViolated(f"expected an {cls.__name__}, got {type(obj).__name__}")
    return obj


class _Grammar:
    """State and helpers shared by the 1D and 2D grammar classes.

    A subclass names its text format (``_magic``, the literal letter
    ``_literal``, and ``_letters`` mapping each rule type to its letter),
    how to read a rule's children (``_children``) and how to measure and
    cache its sizes (``_measure``, over ids children first).
    A rule's type is also its rebuilder: ``type(rule)(child_ids)``.
    """

    __slots__ = ("rules", "alphabet_size", "start", "_topo", "_kids", "_reach", "_height",
                 "_moves")

    def __init__(self, rules, alphabet_size, start=0):
        self.rules = list(rules)
        self.alphabet_size = alphabet_size
        self.start = start
        self._topo = None   # parents-first topological order (ids)
        self._kids = None   # per id: the tuple of child ids, None for a literal
        self._reach = None  # per-id flag: reachable from the start
        self._height = None  # per id: longest path down to a literal, 0 for a literal
        self._moves = None  # per id: a descent move's record, once _check_binary passed

    @property
    def validated(self):
        return self._topo is not None

    _own = classmethod(_expect)     # g itself, if it is a grammar of this class

    @classmethod
    def _ready(cls, g, needs=None):
        """``g`` itself, validated, and an SLP when ``needs`` names the entry
        point that requires one. Every entry point but ``validate_*`` passes
        its grammar here first: a grammar of the other dimension, or any
        other object, raises PreconditionViolated (``_own``); one that has
        not passed validation is validated, once, as ``validate_*`` does;
        and a rule of arity other than 2 raises NotAnSlp naming ``needs``
        (``_check_binary``), whether or not ``g`` came validated."""
        if not cls._own(g).validated:
            _validate_core(g)
        return g if needs is None else _check_binary(g, needs)

    @classmethod
    def _checked_id(cls, g, nid, needs=None):
        """nid, once ``g`` is ready (``_ready``) and nid is one of its rule ids."""
        count = len(cls._ready(g, needs).rules)
        if not (isinstance(nid, int) and 0 <= nid < count):
            raise RangeError(f"variable id {nid!r} outside [0, {count})")
        return nid

    @property
    def is_binary(self):
        """True when every non-literal rule has exactly two children."""
        return all(isinstance(r, int) or len(self._children(r)) == 2 for r in self.rules)

    def __len__(self):
        return len(self.rules)

    def __repr__(self):
        return (f"{type(self).__name__}({len(self.rules)} rules, "
                f"sigma={self.alphabet_size}, start={self.start})")


class Slg1(_Grammar):
    """A 1D straight-line grammar (rules, alphabet size, start id). An iterable
    rule is stored as a tuple; another non-int is left for validation to name."""

    __slots__ = ("_lens",)
    _magic, _literal, _letters = "SLG1", "T", {tuple: "N"}

    def __init__(self, rules, alphabet_size, start=0):
        super().__init__([r if type(r) is tuple or isinstance(r, int) or not hasattr(r, "__iter__")
                          else tuple(r) for r in rules], alphabet_size, start)
        self._lens = None   # expansion length per id

    @staticmethod
    def _children(rule):
        return rule

    def _measure(self, order):
        """Cache the expansion lengths, over ``order`` (children first)."""
        rules, lens = self.rules, [0] * len(self.rules)
        for nid in order:
            rule = rules[nid]
            if isinstance(rule, int):
                lens[nid] = 1
                continue
            total = 0
            for c in rule:
                total += lens[c]
            if total > MAX_LEN:
                raise ArithmeticOverflow(f"expansion of id {nid} exceeds 2**62")
            lens[nid] = total
        self._lens = lens

    def _move_records(self):
        lens = self._lens
        return [None if kid is None else (kid[0], kid[1], lens[kid[0]]) for kid in self._kids]


Slp1 = Slg1  # an SLP is a validated Slg1 with binary rules, see validate_slp1


def _toposort(kids, start):
    """Children-first DFS over all ids, the start first; returns the
    parents-first order and the per-id flag of reachability from the start.

    The ids finished before the DFS moves on from the start are exactly
    those reachable from it. Iterative, over a stack of child iterators:
    grammar depth may reach the rule count. Raises CyclicGrammar on any
    cycle, including self-reference.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(kids)
    order = []
    reach = [False] * len(kids)
    for root in chain((start,), range(len(kids))):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path, iters = [root], [iter(kids[root] or ())]
        while iters:
            for c in iters[-1]:
                if color[c] == WHITE:
                    color[c] = GRAY
                    path.append(c)
                    iters.append(iter(kids[c] or ()))
                    break
                if color[c] == GRAY:
                    raise CyclicGrammar(f"cycle through nonterminal {c}")
            else:
                iters.pop()
                node = path.pop()
                color[node] = BLACK
                order.append(node)
        if root == start:
            for node in order:
                reach[node] = True
    order.reverse()
    return order, reach


def _validate_core(g):
    """Validation in either dimension, keeping every id; returns ``g``.

    Checks the type and range of the alphabet size, the start and every
    rule, child id and terminal, refuses a rule with no children
    (EmptyLanguage), then sorts topologically. Stores the child lists,
    reachability from the start and heights on ``g``, has ``g`` measure its
    sizes children first (``_measure``, which checks them), and stores the
    parents-first order last, which marks ``g`` validated.
    """
    rules = g.rules
    if not rules:
        raise DanglingReference("grammar has no rules")
    sigma = g.alphabet_size
    if not (isinstance(sigma, int) and sigma >= 1):
        raise TerminalOutOfRange(f"alphabet_size must be an int >= 1, got {sigma!r}")
    if not (isinstance(g.start, int) and 0 <= g.start < len(rules)):
        raise DanglingReference(f"start id {g.start!r} is not a rule id in [0, {len(rules)})")

    n, letters, children = len(rules), g._letters, g._children
    kids = []
    for nid, rule in enumerate(rules):
        if isinstance(rule, int):
            if not (0 <= rule < sigma):
                raise TerminalOutOfRange(f"terminal {rule} at id {nid} not in [0, {sigma})")
            kids.append(None)
            continue
        if type(rule) not in letters:
            kinds = "/".join(t.__name__ for t in letters)
            raise TerminalOutOfRange(f"rule {nid} is neither an int terminal nor "
                                     f"a {kinds}: {rule!r}")
        ks = children(rule)
        if not ks:
            raise EmptyLanguage(f"rule {nid} has no children")
        for c in ks:
            if not (isinstance(c, int) and 0 <= c < n):
                raise DanglingReference(f"rule {nid} references undefined id {c!r}")
        kids.append(ks)
    g._kids, g._moves = kids, None
    topo, g._reach = _toposort(kids, g.start)
    g._height = height = [0] * len(kids)
    for nid in reversed(topo):
        if kids[nid] is not None:
            h = 0                   # a plain loop: 4x faster than max() over a map
            for c in kids[nid]:
                if height[c] > h:
                    h = height[c]
            height[nid] = h + 1
    g._measure(reversed(topo))
    g._topo = topo
    return g


def _check_binary(g, needs):
    """Validated ``g``, unless a non-literal rule's arity is not 2: then
    NotAnSlp names the first such rule; ``needs`` names what requires an SLP.
    The first check that passes caches ``g``'s move records (``_moves``)."""
    if g._moves is None:
        for nid, kid in enumerate(g._kids):
            if kid is not None and len(kid) != 2:
                raise NotAnSlp(f"rule {nid} has arity {len(kid)}, {needs} requires 2")
        g._moves = g._move_records()
    return g


def validate_slg1(g):
    """Check all Slg1 invariants; return ``g`` itself.

    Every id is kept: on success ``g``, with its rules and start unchanged,
    caches a topological order, the child lists, reachability from the start,
    heights and expansion lengths.
    """
    return _validate_core(Slg1._own(g))


def validate_slp1(g):
    """validate_slg1 plus the arity-2 restriction; returns ``g`` itself."""
    return _check_binary(validate_slg1(g), "validate_slp1")


def exp_len(g, nid):
    """Length of the expansion of nonterminal ``nid`` (memoized at validation)."""
    nid = Slg1._checked_id(g, nid)
    return g._lens[nid]


# Expansion builds a variable of at most this many symbols (cells in 2D)
# whole, once, and copies it into place; a larger one is only split.
_BLOCK = 1 << 12
# ... and only if at least one cell in _DENSE is nonzero: the zeros of a
# sparser one are already in the output, so splitting it paints only the rest.
_DENSE = 16


class Codes(array):
    """An expansion's codes, row-major: an ``array.array`` of one unsigned
    machine integer per cell, one byte for codes up to 255. It holds no
    object pointers, so the garbage collector never walks it.

    It compares equal to a ``list`` of the same codes, in either order (the
    list's comparison gives way to this one); against another array it
    compares as ``array`` does. It is unhashable, and its slices are plain
    arrays.
    """

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if isinstance(other, list):
            return len(self) == len(other) and self.tolist() == other
        return array.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq


# (bound, typecode): the unsigned typecodes by width, each holding the codes below its bound
_WIDTHS = [(1 << 8 * array(tc).itemsize, tc) for tc in "BHIQ"]


def _typecode(top):
    """The narrowest unsigned typecode that holds every code up to ``top``."""
    for bound, tc in _WIDTHS:
        if top < bound:
            return tc
    raise RangeError(f"code {top} does not fit in 64 bits")


def _zeros(tc, n):
    """``Codes`` of n zeros of typecode tc, in one allocation."""
    out = Codes(tc, (0,))
    out *= n
    return out


def _paint(out, width, off, src, h, w):
    """Copy the h x w row-major block ``src`` into ``out``, a row-major
    array ``width`` columns wide, with its top-left cell at flat index
    ``off``; both are arrays of one typecode. One slice when the block spans
    the width, one strided slice when it is one column wide, else a slice
    per row, or a strided slice per column when the block is taller than
    wide."""
    if w == width:
        out[off:off + h * w] = src
    elif w == 1:
        out[off:off + (h - 1) * width + 1:width] = src
    elif h <= w:
        for i in range(0, h * w, w):
            out[off:off + w] = src[i:i + w]
            off += width
    else:
        span = (h - 1) * width + 1
        for j in range(w):
            out[off + j:off + j + span:width] = src[j::w]


def _expand(g, rows, cols, stacked):
    """The expansion of validated ``g``, ``rows[v]`` x ``cols[v]`` cells per
    id v, as one flat row-major ``Codes``, each cell written at most once.
    The children of a rule of type ``stacked`` lie one below the other,
    those of any other rule side by side; a 1D string is one column. Every
    array it makes has the narrowest unsigned typecode that holds ``g``'s
    largest literal code; a code of 2**64 or more is a RangeError.

    The output starts as zeros, and a variable whose cells are all code 0
    is left as those zeros: it is never split, built from its children or
    painted, and a built parent that lists it gets ``size`` zeros for it.
    Of the rest, a variable is built whole, once, when a built variable
    lists it, when it is a literal, or when it has at most ``_BLOCK``
    cells, at most ``_DENSE`` cells per nonzero one, and lies at two or
    more places of the output; every other variable it reaches is split
    into its children. Nothing recurses. So the one-hot columns of the
    4096 x 1024 ext-marking matrix of reduce-chains are split down to their
    1s (README, "Expansion cost").

    0. Children first: count per variable its nonzero cells, and find the
       largest literal code. An all-zero start is returned as its zeros.
    1. Parents first: give each split variable its children that are not
       all zero with their offsets inside it, summed from the children's
       extents with no call per child, and count per variable its places
       below split variables (up to 2) and its occurrences in the rules of
       built ones, except of rules over literals only.
    2. Children first: build each built variable, a rule over literals
       only as their codes, another stacked one by concatenating its
       children, any other by painting them side by side. An entry is
       freed once its last built parent has consumed it, unless it lies at
       a place of its own (a block).
    3. Top down from the start over the split variables: ``_paint`` every
       block at every place it lies.

    A nonzero literal start is its own memo entry and is returned as it is.
    """
    rules, topo, start, children, height = g.rules, g._topo, g.start, g._kids, g._height
    width, paint = cols[start], _paint
    nnz = [0] * len(rules)   # per id: its cells that are not code 0
    top = 0                  # the largest literal code
    for nid in reversed(topo):
        kids = children[nid]
        if kids is None:
            code = rules[nid]
            nnz[nid] = 1 if code else 0
            if code > top:
                top = code
            continue
        total = 0
        for c in kids:
            total += nnz[c]
        nnz[nid] = total
    tc = _typecode(top)
    if not nnz[start]:
        return _zeros(tc, rows[start] * width)

    places = [0] * len(rules)
    places[start] = 1
    pending = [0] * len(rules)
    split = {}   # split id -> [(child, offset of the child inside it)]
    for nid in topo:
        rule = rules[nid]
        if isinstance(rule, int) or not nnz[nid] or not (places[nid] or pending[nid]):
            continue
        kids, size = children[nid], rows[nid] * cols[nid]
        if pending[nid] or (places[nid] > 1 and size <= _BLOCK and size <= _DENSE * nnz[nid]):
            if height[nid] > 1:     # a rule over literals is built from their codes
                for c in kids:
                    pending[c] += 1
            continue
        # a stacked child's offset is the rows above it times the output's width
        extent, scale = (rows, width) if type(rule) is stacked else (cols, 1)
        at, parts, off = places[nid], [], 0
        for c in kids:
            if nnz[c]:
                parts.append((c, off * scale))
                places[c] = 2 if places[c] else at
            off += extent[c]
        split[nid] = parts

    memo = {}
    zero = array(tc, (0,))
    for nid in reversed(topo):
        if nid in split or not (places[nid] or pending[nid]):
            continue
        rule = rules[nid]
        if not nnz[nid]:
            memo[nid] = zero * (rows[nid] * cols[nid])
            continue
        if isinstance(rule, int):
            memo[nid] = array(tc, (rule,))
            continue
        kids = children[nid]
        if height[nid] == 1:        # a row or a column of literals: their codes
            memo[nid] = array(tc, [rules[c] for c in kids])
            continue
        joined, h, w = type(rule) is stacked, rows[nid], cols[nid]
        built, off = array(tc) if joined else zero * (h * w), 0
        for c in kids:
            if joined:
                built.extend(memo[c])
            else:
                paint(built, w, off, memo[c], h, cols[c])
                off += cols[c]
            pending[c] -= 1
            if not pending[c] and not places[c]:
                del memo[c]
        memo[nid] = built
    if start not in split:
        return Codes(tc, memo[start])

    out = _zeros(tc, rows[start] * width)
    stack = [(start, 0)]
    while stack:
        nid, base = stack.pop()
        for c, off in split[nid]:
            if c in split:
                stack.append((c, base + off))
            else:
                paint(out, width, base + off, memo[c], rows[c], cols[c])
    return out


def _check_cap(size, cap, unit):
    """Raise unless the int ``cap`` admits an expansion of ``size`` units."""
    if not isinstance(cap, int):
        raise RangeError(f"cap must be an int, got {cap!r}")
    if size > cap:
        raise ExpansionTooLarge(f"expansion has {size} {unit}, cap is {cap}")


def expand1(g, cap=DEFAULT_CAP):
    """Materialize the unique string derived by the grammar as ``Codes``.

    Each output symbol is written at most once, into one preallocated array
    of zeros, of the narrowest unsigned typecode that holds the grammar's
    largest literal code (one byte per symbol for codes up to 255); a code
    of 2**64 or more is a RangeError. A variable whose symbols are all code
    0 is left as those zeros. A variable of at most 2**12 symbols, at least
    one in 16 of them nonzero, that occurs at two or more places is built
    once and its copies are sliced into place; every other variable is
    split top down into its children. The working set is the output plus
    those small variables, not the sum of all expansion lengths, and
    nothing recurses.
    """
    lens = Slg1._ready(g)._lens
    _check_cap(lens[g.start], cap, "symbols")
    return _expand(g, lens, [1] * len(lens), tuple)


def grammar_size1(g):
    """The size measure sum(max(|rhs|, 1)) over all rules, in either dimension."""
    return sum(1 if isinstance(r, int) else max(len(g._children(r)), 1) for r in g.rules)


def _binarize(g):
    """A renumbered SLP of a validated grammar, in either dimension, always a
    new grammar (``alphabet_reduce`` relabels its output in place).

    Single-child rules are aliased away, and longer right-hand sides are
    binarized left to right, each pair rule keeping its parent's type. Only
    rules reachable from the start survive, renumbered children first.
    Returns a validated SLP of ``g``'s type, valid by construction and not
    validated again: child lists and heights are recorded as rules are
    emitted, all are reachable, and descending ids are parents first (for a
    binary ``g`` the order a fresh sort gives); then the sizes, in id order,
    and the move records are derived.
    """
    rules, kids, height = [], [], []
    alias = {}  # original id -> output id, for surviving nodes
    g_rules, g_kids, g_reach = g.rules, g._kids, g._reach
    for nid in reversed(g._topo):
        if not g_reach[nid]:
            continue
        ks = g_kids[nid]
        if ks is None:
            alias[nid] = len(rules)
            rules.append(g_rules[nid])
            kids.append(None)
            height.append(0)
            continue
        ctor = type(g_rules[nid])
        acc = alias[ks[0]]
        for c in ks[1:]:
            c = alias[c]
            pair, h, hc = (acc, c), height[acc], height[c]
            height.append((h if h > hc else hc) + 1)
            rules.append(pair if ctor is tuple else ctor(pair))
            kids.append(pair)
            acc = len(rules) - 1
        alias[nid] = acc
    out = type(g)(rules, g.alphabet_size, alias[g.start])
    out._kids, out._reach, out._height = kids, [True] * len(rules), height
    out._measure(range(len(rules)))
    out._topo = list(range(len(rules) - 1, -1, -1))
    out._moves = out._move_records()
    return out


def _as_slp(g):
    """Validated ``g`` itself, its move records cached, when it is an SLP
    whose start reaches every rule; else ``_binarize(g)``."""
    if not (all(g._reach) and all(k is None or len(k) == 2 for k in g._kids)):
        return _binarize(g)
    if g._moves is None:
        g._moves = g._move_records()
    return g


def slg_to_slp(g):
    """Convert a grammar to an equivalent SLP (binary rules).

    An SLP whose start reaches every rule is returned as it is, ids kept.
    Any other grammar is renumbered, the start last: single-child rules are
    aliased away, longer right-hand sides binarized left to right, and only
    rules reachable from the start survive, within a small constant factor
    of the input size. The output derives its cached arrays from ``g``'s,
    validated if it is not.
    """
    return _as_slp(Slg1._ready(g))


# -- text format ------------------------------------------------------------

def _int(field, line):
    try:
        return int(field)
    except ValueError:
        raise ParseError(f"bad integer {field!r} in: {line!r}") from None


def _refuse(ln, rules, cls):
    """Raise the error of rule line ``ln`` of class ``cls``, which did not
    parse, from the first check it fails: the colon, the id's integer, its
    range, a duplicate, the body, the integers after the kind, the kind."""
    head, sep, rest = ln.partition(":")
    if not sep:
        raise ParseError(f"bad rule line: {ln!r}")
    nid = _int(head, ln)
    if not (0 <= nid < len(rules)):
        raise ParseError(f"rule id {nid} out of range [0, {len(rules)})")
    if rules[nid] is not None:
        raise DuplicateRule(f"duplicate rule for id {nid}")
    fields = rest.split()
    if not fields:
        raise ParseError(f"empty rule body: {ln!r}")
    for field in fields[1:]:
        _int(field, ln)
    if fields[0] == cls._literal:
        raise ParseError(f"literal rule needs one terminal: {ln!r}")
    if fields[0] in cls._letters.values():
        raise ParseError(f"sequence rule needs children: {ln!r}")
    raise ParseError(f"unknown rule kind {fields[0]!r} in: {ln!r}")


def _parse(text, cls):
    """Parse the text format of grammar class ``cls``; returns it unvalidated.
    A rule line takes one partition, one split and one ``map(int, ...)``; a
    line that fails is read again by ``_refuse``, which words the error."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty grammar file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != cls._magic:
        raise ParseError(f"bad header: {lines[0]!r}")
    count, sigma = _int(head[1], lines[0]), _int(head[2], lines[0])
    if count < 1 or sigma < 1:
        raise ParseError("nonterminal count and alphabet size must be positive")
    if count > len(lines) - 1:
        raise ParseError(f"header declares {count} rules, but {len(lines) - 1} lines follow")

    kinds = {letter: ctor for ctor, letter in cls._letters.items()}
    literal = cls._literal
    rules = [None] * count
    start = None
    for ln in lines[1:]:
        if ln.startswith("START"):
            parts = ln.split()
            if len(parts) != 2 or start is not None:
                raise ParseError(f"bad START line: {ln!r}")
            start = _int(parts[1], ln)
            continue
        head, _, rest = ln.partition(":")
        fields = rest.split()
        try:
            kind, fields[0] = fields[0], head
            nums = tuple(map(int, fields))      # the id, then the children or the terminal
            rule = nums[1] if kind == literal and len(nums) == 2 else kinds[kind](nums[1:])
        except (IndexError, KeyError, ValueError):
            rule = None
        if rule is None or len(nums) < 2 or not 0 <= nums[0] < count or rules[nums[0]] is not None:
            _refuse(ln, rules, cls)
        rules[nums[0]] = rule
    if start is None:
        raise ParseError("missing START line")
    missing = [i for i, r in enumerate(rules) if r is None]
    if missing:
        raise ParseError(f"no rule given for ids {missing}")
    return cls(rules, sigma, start)


def _dump(g):
    """Serialize a grammar of either dimension to its text format."""
    out = [f"{g._magic} {len(g.rules)} {g.alphabet_size}"]
    for nid, rule in enumerate(g.rules):
        if isinstance(rule, int):
            out.append(f"{nid}: {g._literal} {rule}")
        else:
            out.append(" ".join([f"{nid}:", g._letters[type(rule)],
                                 *map(str, g._children(rule))]))
    out.append(f"START {g.start}")
    return "\n".join(out) + "\n"


def parse_slg1(text):
    """Parse the SLG1 text format; returns an unvalidated Slg1."""
    return _parse(text, Slg1)


def dump_slg1(g):
    """Serialize to the SLG1 text format."""
    return _dump(g)
