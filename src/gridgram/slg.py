"""Straight-line grammars: the machinery shared by 1D and 2D, and the 1D form.

A grammar is a list of rules indexed by nonterminal id. Each rule is either
an ``int`` -- a literal rule, the value is the terminal code -- or a rule
object listing child nonterminal ids. In 1D the rule object is a plain
``tuple`` of children; in 2D (module ``slg2d``) it is a ``Horiz`` or
``Vert`` whose children are in ``rule.children``. Everything that does not
look at expansion lengths or dimensions -- acyclicity, reference and
terminal ranges, reachability, moving the start to id 0, the SLP conversion
and the text format skeleton -- is written once here, for both.

A valid grammar is acyclic (some ordering of the nonterminals exists in which
every sequence rule references only later ones), every referenced id has a
rule, and every literal code is in ``[0, alphabet_size)``. Validation
canonicalizes the grammar so the start symbol has id 0 and caches a
topological order, the child lists (``_kids``: per id the tuple of child
ids, None for a literal), reachability from the start (``_reach``), and
per-nonterminal expansion lengths (in 2D, dimensions and the axis flags
``_horiz``, see ``slg2d``). The walkers of every module read these arrays
and derive none of their own.

Text format (UTF-8, line oriented)::

    SLG1 <num_nonterminals> <alphabet_size>
    <id>: T <terminal>
    <id>: N <id> <id> [...]
    START <id>

Grammars are immutable after validation and safe to share across readers;
construction and validation are single-threaded.
"""

from __future__ import annotations

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

# Expansion lengths are stored as plain ints but checked against this bound so
# downstream structures can pack them into 64-bit words.
MAX_LEN = 1 << 62

# Default cap on materialized expansion size (cells / symbols).
DEFAULT_CAP = 1 << 26


class _Grammar:
    """State and helpers shared by the 1D and 2D grammar classes.

    A subclass names its text format (``_magic``, the literal letter
    ``_literal``, and ``_letters`` mapping each rule type to its letter),
    how to read a rule's children (``_children``), the fewest children a
    rule line may list (``_min_children``), the caches validation fills
    (``_caches``), and what an empty expansion is called (``_empty``).
    A rule's type is also its rebuilder: ``type(rule)(child_ids)``.
    """

    __slots__ = ("rules", "alphabet_size", "start", "_topo", "_eps", "_kids", "_reach")

    def __init__(self, rules, alphabet_size, start=0):
        self.rules = list(rules)
        self.alphabet_size = alphabet_size
        self.start = start
        self._topo = None   # parents-first topological order (ids)
        self._eps = None    # per-id flag: expands to the empty string/matrix
        self._kids = None   # per id: the tuple of child ids, None for a literal
        self._reach = None  # per-id flag: reachable from the start

    @property
    def validated(self):
        return self._topo is not None

    def require_validated(self):
        if not self.validated:
            raise PreconditionViolated(
                f"grammar must pass validate_{self._magic.lower()}() first")

    def _checked_id(self, nid):
        """nid, once the grammar is validated and nid is one of its rule ids."""
        self.require_validated()
        if not (isinstance(nid, int) and 0 <= nid < len(self.rules)):
            raise RangeError(f"variable id {nid!r} outside [0, {len(self.rules)})")
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
    """A 1D straight-line grammar (rules, alphabet size, start id)."""

    __slots__ = ("_lens",)
    _magic, _literal, _letters, _min_children = "SLG1", "T", {tuple: "N"}, 1
    _caches = ("_topo", "_eps", "_kids", "_reach", "_lens")
    _empty = "the empty string"

    def __init__(self, rules, alphabet_size, start=0):
        super().__init__((r if isinstance(r, int) else tuple(r) for r in rules),
                         alphabet_size, start)
        self._lens = None   # expansion length per id

    @staticmethod
    def _children(rule):
        return rule


class Slp1(Slg1):
    """An Slg1 in which every sequence rule has arity exactly 2."""


def _swap_start_to_zero(g):
    if g.start == 0:
        return g
    perm = list(range(len(g.rules)))
    perm[g.start], perm[0] = 0, g.start
    out = [None] * len(g.rules)
    for old, rule in enumerate(g.rules):
        if isinstance(rule, int):
            out[perm[old]] = rule
        else:
            out[perm[old]] = type(rule)(perm[c] for c in g._children(rule))
    return type(g)(out, g.alphabet_size, perm[g.start])


def _toposort(kids):
    """Children-first DFS over all ids, id 0 first; returns the parents-first
    order and the per-id flag of reachability from id 0.

    The ids finished before the DFS moves on from root 0 are exactly those
    reachable from it. Iterative (explicit stack): grammar depth may reach
    the rule count. Raises CyclicGrammar on any cycle, including
    self-reference.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(kids)
    order = []
    reach = [False] * len(kids)
    for root in range(len(kids)):
        if color[root] != WHITE:
            continue
        stack = [(root, 0)]
        while stack:
            node, child_ix = stack.pop()
            if child_ix == 0:
                if color[node] == BLACK:
                    continue
                if color[node] == GRAY:
                    raise CyclicGrammar(f"cycle through nonterminal {node}")
                color[node] = GRAY
            children = kids[node] or ()
            if child_ix < len(children):
                stack.append((node, child_ix + 1))
                c = children[child_ix]
                if color[c] == GRAY:
                    raise CyclicGrammar(f"cycle through nonterminal {c}")
                if color[c] == WHITE:
                    stack.append((c, 0))
            else:
                color[node] = BLACK
                order.append(node)
        if root == 0:
            for node in order:
                reach[node] = True
    order.reverse()
    return order, reach


def _canonical(g):
    """The dimension-independent half of validation.

    Checks the start and every reference and terminal range, then moves the
    start to id 0 and sorts topologically. Stores the child lists and the
    reachability from the start on the relabelled grammar and returns it with
    its parents-first order; the caller computes sizes and stores the rest.
    """
    if not g.rules:
        raise DanglingReference("grammar has no rules")
    if g.alphabet_size < 1:
        raise TerminalOutOfRange(f"alphabet_size must be >= 1, got {g.alphabet_size}")
    if not (0 <= g.start < len(g.rules)):
        raise DanglingReference(f"start id {g.start} out of range")

    rules = g.rules
    for nid, rule in enumerate(rules):
        if isinstance(rule, int):
            if not (0 <= rule < g.alphabet_size):
                raise TerminalOutOfRange(f"terminal {rule} at id {nid} not in [0, {g.alphabet_size})")
        elif type(rule) in g._letters:
            for c in g._children(rule):
                if not (0 <= c < len(rules)):
                    raise DanglingReference(f"rule {nid} references undefined id {c}")
        else:
            kinds = "/".join(t.__name__ for t in g._letters)
            raise TypeError(f"rule {nid} is not int/{kinds}: {rule!r}")
    g = _swap_start_to_zero(g)
    children = g._children
    g._kids = [None if isinstance(r, int) else children(r) for r in g.rules]
    topo, g._reach = _toposort(g._kids)
    return g, topo


def _check_binary(g, needs):
    """Raise NotAnSlp naming the first non-literal rule of validated ``g``
    whose arity is not 2; ``needs`` names what requires an SLP."""
    for nid, kid in enumerate(g._kids):
        if kid is not None and len(kid) != 2:
            raise NotAnSlp(f"rule {nid} has arity {len(kid)}, {needs} requires 2")


def _as_slp(g, slp_cls):
    """Check that every non-literal rule of validated ``g`` has arity 2 and
    return it as an ``slp_cls`` sharing its caches."""
    _check_binary(g, slp_cls.__name__)
    if isinstance(g, slp_cls):
        return g
    s = slp_cls(g.rules, g.alphabet_size, g.start)
    for name in g._caches:
        setattr(s, name, getattr(g, name))
    return s


def validate_slg1(g, allow_empty=False):
    """Check all Slg1 invariants; return the canonicalized grammar.

    On success the returned grammar has the start symbol at id 0 and caches
    a topological order, the child lists, reachability from the start, and
    expansion lengths. ``allow_empty`` admits rules expanding to the empty
    string (needed only while eliminating them in slg_to_slp); by default
    such rules are rejected.
    """
    g, topo = _canonical(g)
    rules = g.rules

    eps = [False] * len(rules)
    lens = [0] * len(rules)
    for nid in reversed(topo):
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
        if total == 0:
            eps[nid] = True
            if not allow_empty:
                raise EmptyLanguage(f"rule {nid} expands to the empty string")

    g._topo = topo
    g._lens = lens
    g._eps = eps
    return g


def validate_slp1(g):
    """validate_slg1 plus the arity-2 restriction; returns an Slp1."""
    return _as_slp(validate_slg1(g), Slp1)


def exp_len(g, nid):
    """Length of the expansion of nonterminal ``nid`` (memoized at validation)."""
    return g._lens[g._checked_id(nid)]


# Expansion builds a variable of at most this many symbols (cells in 2D)
# whole, once, and copies it into place; a larger one is only split.
_BLOCK = 1 << 12


def _expand(g, size, shift, build, paint):
    """The expansion of validated ``g`` as one flat list, each cell written once.

    A variable is built whole, once, when a built variable lists it, when
    it is a literal, or when it has at most ``_BLOCK`` cells and lies at two
    or more places of the output; every other variable it reaches is split
    into its children. Empty children are skipped, and nothing recurses.

    1. Parents first: give each split variable its children with their
       offsets inside it, ``shift(rule, child)`` apart, and count per
       variable its places below split variables (up to 2) and its
       occurrences in the rules of built ones.
    2. Children first: build each built variable, ``build(v, rule,
       children, memo)``. An entry is freed once its last built parent has
       consumed it, unless it lies at a place of its own (a block).
    3. Top down from the start over the split variables: at every place a
       block lies, ``paint(out, offset, block, memo[block])``.

    A literal start is its own memo entry and is returned as it is.
    """
    rules, eps, topo, start, children = g.rules, g._eps, g._topo, g.start, g._kids
    places = [0] * len(rules)
    places[start] = 1
    pending = [0] * len(rules)
    live = {}    # built id -> its non-empty children
    split = {}   # split id -> [(child, offset of the child inside it)]
    for nid in topo:
        rule = rules[nid]
        if isinstance(rule, int) or not (places[nid] or pending[nid]):
            continue
        kids = [c for c in children[nid] if not eps[c]]
        if pending[nid] or (places[nid] > 1 and size(nid) <= _BLOCK):
            live[nid] = kids
            for c in kids:
                pending[c] += 1
            continue
        parts, off = [], 0
        for c in kids:
            parts.append((c, off))
            off += shift(rule, c)
            places[c] = min(places[c] + places[nid], 2)
        split[nid] = parts

    memo = {}
    for nid in reversed(topo):
        if nid in split or not (places[nid] or pending[nid]):
            continue
        rule = rules[nid]
        if isinstance(rule, int):
            memo[nid] = [rule]
            continue
        kids = live.pop(nid)
        built = build(nid, rule, kids, memo)
        for c in kids:
            pending[c] -= 1
            if not pending[c] and not places[c]:
                del memo[c]
        memo[nid] = built
    if start not in split:
        return memo[start]

    out = [0] * size(start)
    stack = [(start, 0)]
    while stack:
        nid, base = stack.pop()
        for c, off in split[nid]:
            if c in split:
                stack.append((c, base + off))
            else:
                paint(out, base + off, c, memo[c])
    return out


def _extend_all(nid, rule, kids, memo):
    out = []
    for c in kids:
        out.extend(memo[c])
    return out


def _paint1(out, off, c, src):
    out[off:off + len(src)] = src


def expand1(g, cap=DEFAULT_CAP):
    """Materialize the unique string derived by the grammar as a list of codes.

    Each output symbol is written once, into one preallocated list. A
    variable of at most 2**12 symbols that occurs at two or more places is
    built once and its copies are sliced into place; every other variable
    is split top down into its children. The working set is the output
    plus those small variables, not the sum of all expansion lengths, and
    nothing recurses.
    """
    g.require_validated()
    n = g._lens[g.start]
    if n == 0:
        raise EmptyLanguage("grammar derives only the empty string")
    if n > cap:
        raise ExpansionTooLarge(f"expansion has {n} symbols, cap is {cap}")
    lens = g._lens
    return _expand(g, lens.__getitem__, lambda rule, c: lens[c], _extend_all, _paint1)


def grammar_size1(g):
    """The size measure sum(max(|rhs|, 1)) over all rules, in either dimension."""
    return sum(1 if isinstance(r, int) else max(len(g._children(r)), 1) for r in g.rules)


def _binarize(g, slp_cls):
    """The SLP conversion of a validated grammar, in either dimension.

    Empty-expanding children are dropped, single-child rules are aliased away,
    and longer right-hand sides are binarized left to right, each pair rule
    keeping its parent's type. Only rules reachable from the start survive.
    Returns an unvalidated ``slp_cls``.
    """
    if g._eps[g.start]:
        raise EmptyLanguage(f"grammar derives only {g._empty}")

    out_rules = []

    def emit(rule):
        out_rules.append(rule)
        return len(out_rules) - 1

    alias = {}  # original id -> output id, for surviving nodes
    for nid in reversed(g._topo):
        if not g._reach[nid] or g._eps[nid]:
            continue
        rule = g.rules[nid]
        if isinstance(rule, int):
            alias[nid] = emit(rule)
            continue
        kids = [alias[c] for c in g._kids[nid] if not g._eps[c]]
        if len(kids) == 1:
            alias[nid] = kids[0]
        else:
            ctor = type(rule)
            acc = kids[0]
            for c in kids[1:]:
                acc = emit(ctor((acc, c)))
            alias[nid] = acc
    return slp_cls(out_rules, g.alphabet_size, alias[g.start])


def slg_to_slp(g):
    """Convert a grammar to an equivalent SLP (binary rules, no empty rules).

    Empty-expanding children are dropped, single-child rules are aliased away,
    and longer right-hand sides are binarized left to right. Only rules
    reachable from the start survive. Output size stays within a small
    constant factor of the input size.
    """
    if not g.validated:
        g = validate_slg1(g, allow_empty=True)
    return validate_slp1(_binarize(g, Slp1))


# -- text format ------------------------------------------------------------

def _int(field, line):
    try:
        return int(field)
    except ValueError:
        raise ParseError(f"bad integer {field!r} in: {line!r}") from None


def _parse(text, cls):
    """Parse the text format of grammar class ``cls``; returns it unvalidated."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
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
    rules = [None] * count
    start = None
    for ln in lines[1:]:
        if ln.startswith("START"):
            parts = ln.split()
            if len(parts) != 2 or start is not None:
                raise ParseError(f"bad START line: {ln!r}")
            start = _int(parts[1], ln)
            continue
        head_part, sep, rest = ln.partition(":")
        if not sep:
            raise ParseError(f"bad rule line: {ln!r}")
        nid = _int(head_part, ln)
        if not (0 <= nid < count):
            raise ParseError(f"rule id {nid} out of range [0, {count})")
        if rules[nid] is not None:
            raise DuplicateRule(f"duplicate rule for id {nid}")
        fields = rest.split()
        if not fields:
            raise ParseError(f"empty rule body: {ln!r}")
        kind, args = fields[0], [_int(a, ln) for a in fields[1:]]
        if kind == cls._literal:
            if len(args) != 1:
                raise ParseError(f"literal rule needs one terminal: {ln!r}")
            rules[nid] = args[0]
        elif kind in kinds:
            if len(args) < cls._min_children:
                raise ParseError(f"sequence rule needs children: {ln!r}")
            rules[nid] = kinds[kind](args)
        else:
            raise ParseError(f"unknown rule kind {kind!r} in: {ln!r}")
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
