"""Constructive reductions between query families.

Contents:

  * orthogonal-vectors instance handling: uniformization to an equal number
    of ones per vector, and the instance builder that turns a uniform OV set
    into a single-row pattern plus a small 2D grammar whose expansion
    contains the pattern exactly when an orthogonal pair exists;
  * marking matrices: the sigma x n 0/1 matrix whose row c marks the
    occurrences of symbol c in a 1D string, the padded n*sigma x n variant,
    and grammar constructions producing both directly from a 1D SLP;
  * the alphabet reduction remapping a sparse alphabet onto a dense one,
    with the dict ``amap`` from each occurring code to its dense code;
  * query adapters: rank via line sum, symbol occurrence via square all-zero,
    square LCE via line LCE (binary search), line LCE via rectangle equality
    (binary search), and square all-zero via square LCE over a zero-padded
    grammar.

Adapters are written against plain callables ("providers") answering the
lower-level query, so the same code path runs over the naive oracle today
and over any future sublinear structure. Since a provider need not check
its arguments, every adapter checks that its own are integers, as the
oracles do: a float, a string or None raises RangeError before any provider
call. All constructors are pure and the adapters stateless; concurrent use
is safe given concurrent-safe providers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ExtRequiresLengthTwo,
    NonUniformInstance,
    ParseError,
    PreconditionViolated,
    RangeError,
)
from .oracle import _not_ints
from .slg import Slg1, _binarize, grammar_size1
from .slg2d import Horiz, Matrix2D, Slg2, Vert, grammar_size2


# -- orthogonal vectors -------------------------------------------------------

_BITS = frozenset((0, 1))


@dataclass(frozen=True)
class OvInstance:
    """A set of equal-length 0/1 vectors, each entry the int (or bool) 0 or 1."""

    vectors: tuple

    def __post_init__(self):
        try:
            vecs = tuple(tuple(v) for v in self.vectors)
        except TypeError:
            raise RangeError("an instance is an iterable of 0/1 vectors") from None
        object.__setattr__(self, "vectors", vecs)
        if not vecs:
            raise RangeError("instance must contain at least one vector")
        d = len(vecs[0])
        if d < 1:
            raise RangeError("vectors must have dimension >= 1")
        for v in vecs:
            if len(v) != d:
                raise RangeError("vectors must share one dimension")
            try:                    # 1.0 passes the set test, but its sum is no int
                bits = _BITS.issuperset(v) and type(sum(v)) is int
            except TypeError:       # an unhashable entry
                bits = False
            if not bits:
                raise RangeError("vector entries must be 0 or 1")

    @property
    def n(self):
        return len(self.vectors)

    @property
    def d(self):
        return len(self.vectors[0])

    def ones_counts(self):
        return [sum(v) for v in self.vectors]


@dataclass(frozen=True)
class PmInstance:
    """Pattern + grammar produced from a uniform OV instance.

    The pattern is the single row 1 0^l 1; the grammar expands to an
    n x (l+2)n matrix of vector-column groups, and the pattern occurs in it
    iff the source instance contains an orthogonal pair.
    """

    pattern: Matrix2D
    grammar: Slg2
    n: int
    d: int
    l: int


def uniform_ov(inst):
    """Rewrite an instance so every vector has exactly d ones (d' = 3d, 2n vectors).

    Each vector x with k ones maps to two vectors: x 1^(d-k) 0^(d+k) and
    x 0^d 1^(d-k) 0^k. An orthogonal pair exists in the output iff one exists
    in the input.
    """
    d = inst.d
    out = []
    for x in inst.vectors:
        k = sum(x)
        out.append(x + (1,) * (d - k) + (0,) * (d + k))
    for x in inst.vectors:
        k = sum(x)
        out.append(x + (0,) * d + (1,) * (d - k) + (0,) * k)
    return OvInstance(tuple(out))


def ov_to_pm(inst):
    """Build the pattern-matching instance for a uniform OV set.

    Requires every vector to contain the same number of ones l >= 1 (run
    uniform_ov first otherwise). The text is the horizontal concatenation,
    over vectors a_i, of a ones-column, then the columns of the input matrix
    selected at a_i's one-positions, then another ones-column. The grammar
    has one rule per input dimension (a column of the vector matrix), a
    ones-column rule, two literals, and the start rule spelling the column
    sequence; its size is exactly 2 + (d+1)n + (l+2)n. The grammar is valid
    by construction and not validated again: its arrays (child lists,
    reachability, heights, rows, columns, a parents-first order) come from
    the construction, and a column no vector has a 1 in is unreachable.
    """
    counts = inst.ones_counts()
    l = counts[0]
    if any(c != l for c in counts):
        raise NonUniformInstance(f"ones counts differ: {sorted(set(counts))}")
    if l < 1:
        raise NonUniformInstance("vectors must contain at least one 1")

    n, d = inst.n, inst.d
    # ids: 0 start, 1 literal 0, 2 literal 1, 3..d+2 vector columns, d+3 ones column
    ones_id = d + 3
    start_children = []
    for vec in inst.vectors:
        start_children.append(ones_id)
        start_children.extend(3 + i for i, b in enumerate(vec) if b == 1)
        start_children.append(ones_id)
    dimensions = list(zip(*inst.vectors))     # per dimension, its entry in each vector
    rules = [Vert(start_children), 0, 1, *(Horiz([2 if b else 1 for b in t]) for t in dimensions),
             Horiz([2] * n)]
    # a column is reached when a vector has a 1 there, the literal 0 when
    # such a column also has a 0
    reach = [True, any(1 in t and 0 in t for t in dimensions), True,
             *(1 in t for t in dimensions), True]
    grammar = _handed_over(rules, 2, 0, reach, [2, 0, 0] + [1] * (d + 1),
                           [n, 1, 1] + [n] * (d + 1), [(l + 2) * n, 1, 1] + [1] * (d + 1),
                           [0, *range(3, d + 4), 1, 2])
    pattern = Matrix2D(1, l + 2, [1] + [0] * l + [1])
    return PmInstance(pattern, grammar, n, d, l)


# -- OV file format (one 0/1 vector per line) ---------------------------------

def parse_ov(text):
    vecs = []
    for ln in text.splitlines():
        ln = ln.strip().replace(" ", "")
        if not ln:
            continue
        if any(ch not in "01" for ch in ln):
            raise ParseError(f"bad vector line: {ln!r}")
        vecs.append(tuple(int(ch) for ch in ln))
    if not vecs:
        raise ParseError("empty vector file")
    return OvInstance(tuple(vecs))


def dump_ov(inst):
    return "\n".join("".join(str(b) for b in v) for v in inst.vectors) + "\n"


# -- marking matrices ---------------------------------------------------------

def mark_char(t, a):
    """The 1 x n row marking the positions where t equals code a."""
    if not (isinstance(a, int) and a >= 0):
        raise RangeError(f"codes are non-negative ints, got {a!r}")
    return Matrix2D(1, len(t), [1 if v == a else 0 for v in t])


def mark_all_chars(t, sigma):
    """The sigma x n matrix stacking mark_char rows for c = 0..sigma-1.

    sigma is not capped here, so the caller bounds sigma x n."""
    _check_sigma(sigma)
    if len(t) < 1:
        raise RangeError("text must be nonempty")
    return _marking_matrix(t, sigma, 0)


def ext_mark_all_chars(t, sigma):
    """The n*sigma x n matrix interleaving each mark row with n-1 zero rows.

    sigma is not capped here, so the caller bounds sigma x n."""
    _check_sigma(sigma)
    if len(t) < 2:
        raise ExtRequiresLengthTwo("extended marking needs a text of length >= 2")
    return _marking_matrix(t, sigma, len(t) - 1)


def _marking_matrix(t, sigma, gap):
    """The mark_char rows of t for c = 0..sigma-1, each followed by ``gap``
    zero rows."""
    if any(not (isinstance(v, int) and 0 <= v < sigma) for v in t):
        raise RangeError(f"text codes must lie in [0, {sigma})")
    n = len(t)
    flat = []
    zeros = [0] * (gap * n)
    for c in range(sigma):
        flat.extend(1 if v == c else 0 for v in t)
        flat.extend(zeros)
    return Matrix2D(sigma * (gap + 1), n, flat)


def _check_sigma(sigma):
    if not (isinstance(sigma, int) and sigma >= 1):
        raise RangeError(f"sigma must be an int >= 1, got {sigma!r}")


def _handed_over(rules, sigma, start, reach, height, rows, cols, topo):
    """The Slg2 of ``rules`` that a construction made valid, with the arrays
    the construction knows: reachability, heights, rows, columns and a
    parents-first order as given, and the child lists read off the rules.
    It is marked validated and not validated again."""
    g = Slg2(rules, sigma, start)
    g._kids = [None if isinstance(r, int) else r.children for r in g.rules]
    g._reach, g._height, g._rows, g._cols, g._topo = reach, height, rows, cols, topo
    return g


def _add(rules, sizes, rule):
    """Append ``rule``, whose children are in ``rules`` already, to
    ``rules`` and its height, rows and columns to the lists ``sizes``;
    returns its id."""
    height, rows, cols = sizes
    if isinstance(rule, int):
        h, r, c = 0, 1, 1
    else:
        ks = rule.children
        h = 1 + max(height[k] for k in ks)
        if type(rule) is Horiz:
            r, c = sum(rows[k] for k in ks), cols[ks[0]]
        else:
            r, c = rows[ks[0]], sum(cols[k] for k in ks)
    rules.append(rule)
    height.append(h)
    rows.append(r)
    cols.append(c)
    return len(rules) - 1


def _zero_run(rules, sizes, unit, count, ctor):
    """Append, with ``_add``, rules for ``count`` copies of the zero block
    ``unit`` joined by ``ctor``.

    The copies come from a doubling chain (``unit``, 2, 4, ... copies) joined
    by the binary decomposition of ``count`` in increasing powers, so at most
    2 * bit_length(count) - 1 rules are added. Returns the run's id, which is
    ``unit`` itself when ``count`` is 1.
    """
    powers = [unit]
    for _ in range(1, count.bit_length()):
        powers.append(_add(rules, sizes, ctor(powers[-1], powers[-1])))
    parts = [powers[p] for p in range(count.bit_length()) if count >> p & 1]
    return parts[0] if len(parts) == 1 else _add(rules, sizes, ctor(*parts))


def _marking_grammar(g, sigma, gap):
    """The marking grammar of the validated SLP g with ``gap`` zero rows under each 1.

    Every 1D variable reachable from the start becomes a Vert over its
    children, numbered in id order before the rest; a literal with code c
    becomes the column with a 1 in row c * (gap + 1) + 1. Each column is a
    prefix of c zero units, the 1, a run of ``gap`` zeros and sigma - 1 - c
    more zero units, where a zero unit is gap + 1 zero cells tall; a run of
    no zero units is no child at all, so every rule lists one. Variables the
    start does not reach are left out, so only the codes of the text are
    checked against sigma. The rows and columns of each rule follow from g's
    lengths and from ``_add``, its heights from its children's, children
    first over g's order, and the columns of codes the text lacks, with the
    zero runs only they list, are unreachable.
    """
    _check_sigma(sigma)
    keep = [nid for nid, r in enumerate(g._reach) if r]
    if any(not (0 <= g.rules[nid] < sigma) for nid in keep if g._kids[nid] is None):
        raise RangeError(f"grammar terminals must lie in [0, {sigma})")
    new = {nid: at for at, nid in enumerate(keep)}     # input id -> output id
    gv = len(keep)
    rules = [None] * gv
    sizes = ([0] * gv, [sigma * (gap + 1)] * gv, [g._lens[nid] for nid in keep])
    m0, m1 = _add(rules, sizes, 0), _add(rules, sizes, 1)
    mid, unit = [m1], m0                   # mid: the 1, then the gap run if any
    if gap:
        mid.append(_zero_run(rules, sizes, m0, gap, Horiz))
        unit = _add(rules, sizes, Horiz(mid[-1], m0))
    zeros = [(), (unit,)]                  # zeros[i]: the ids spelling i zero units
    for _ in range(2, sigma):
        zeros.append((_add(rules, sizes, Horiz(*zeros[-1], unit)),))
    col = len(rules)                       # col + c: the marking column of code c
    for c in range(sigma):
        _add(rules, sizes, Horiz(*zeros[c], *mid, *zeros[sigma - 1 - c]))
    height = sizes[0]
    for nid in reversed(g._topo):          # children first
        if g._reach[nid]:
            kid, at = g._kids[nid], new[nid]
            rules[at] = Vert(col + g.rules[nid]) if kid is None else Vert(new[kid[0]], new[kid[1]])
            height[at] = 1 + max(height[k] for k in rules[at].children)
    topo = [new[nid] for nid in g._topo if g._reach[nid]] + [*range(len(rules) - 1, gv - 1, -1)]
    reach = [True] * gv + [False] * (len(rules) - gv)
    for nid in topo:                       # the columns of the codes, and what they list
        if reach[nid] and not isinstance(rules[nid], int):
            for k in rules[nid].children:
                reach[k] = True
    return _handed_over(rules, 2, new[g.start], reach, *sizes, topo)


def mark_grammar(g, sigma):
    """A 2D grammar expanding to mark_all_chars(expand1(g), sigma).

    Structure mirrors the 1D grammar: every 1D variable gets a counterpart
    concatenating its children's marking matrices horizontally; a 1D literal
    with code c maps to the sigma x 1 column with the single 1 in row c + 1.
    The zero-columns above/below that 1 are built by a chain of prefix rules;
    a code at the top or bottom row has no zero-column on that side, so no
    rule is empty. Output size is linear in |g| + sigma: the grammar gains
    about 2 * sigma rules, and sigma is not capped here, so the caller
    bounds it (the CLI checks 2 * sigma rules against its cell cap). The
    output's arrays come from the construction, and it is not validated
    again (see ``_marking_grammar``).
    """
    return _marking_grammar(Slg1._ready(g, "mark_grammar"), sigma, 0)


def ext_mark_grammar(g, sigma):
    """A 2D grammar expanding to ext_mark_all_chars(expand1(g), sigma).

    As mark_grammar, but each marking column is n*sigma tall: the n-1 zero
    rows below each 1 come from a doubling chain combined by the binary
    decomposition of n-1 (increasing powers). The output's arrays come from
    the construction, as for mark_grammar.
    """
    g = Slg1._ready(g, "ext_mark_grammar")
    n = g._lens[g.start]
    if n < 2:
        raise ExtRequiresLengthTwo("extended marking needs a text of length >= 2")
    num_z = (n - 1).bit_length()
    # the chain length is logarithmic, so it never dominates the grammar size
    if num_z > grammar_size1(g):
        raise PreconditionViolated(
            f"zero chain of {num_z} rules exceeds the grammar size {grammar_size1(g)}")
    return _marking_grammar(g, sigma, n - 1)


# -- alphabet reduction -------------------------------------------------------

def alphabet_reduce(g):
    """Remap the grammar onto the dense alphabet of codes it actually uses.

    Unused nonterminals are pruned; literal codes are replaced by their rank
    among the occurring codes. Returns the new SLP and the dict it relabels
    with, from each occurring code to its rank, in increasing code order.
    Queries against the original string translate through that dict: a
    queried code that never occurs answers 0 without consulting the new
    grammar at all. Only literal codes and the alphabet size change, so
    the new SLP is the conversion's own output, relabeled in place, with
    the arrays the conversion derived and no second validation.
    """
    pruned = _binarize(Slg1._ready(g, "alphabet_reduce"))
    occurring = sorted({r for r in pruned.rules if isinstance(r, int)})
    amap = {c: i for i, c in enumerate(occurring)}
    pruned.rules = [amap[r] if isinstance(r, int) else r for r in pruned.rules]
    pruned.alphabet_size = len(amap)
    return pruned, amap


# -- adapters over query providers --------------------------------------------

def rank_via_line_sum(line_sum_provider, amap, j, c):
    """Rank on the original string through a line-sum provider.

    The provider must answer line-sum queries on the marking matrix of the
    (alphabet-reduced) string: provider(e_r, e_c, l). amap is the dict that
    alphabet_reduce returns, or None when the provider already speaks the
    original alphabet. Exactly one provider call is issued, plus one
    alphabet-map lookup.

    Only j < 0 is refused here; j is bounded above by the provider alone.
    So a code missing from amap answers 0 for any j >= 0, with no provider
    call; and with amap=None, a code outside the provider's rows raises,
    where oracle.rank answers 0.
    """
    if not (isinstance(j, int) and isinstance(c, int)):
        raise _not_ints(j, c)
    if j < 0:
        raise RangeError(f"rank prefix {j} must be >= 0")
    if amap is not None:
        if c not in amap:
            return 0
        c = amap[c]
    return line_sum_provider(c + 1, j, j)


def occurs_via_square_all_zero(saz_provider, amap, b, e, c, n):
    """Symbol occurrence through a square-all-zero provider.

    The provider must answer square-all-zero queries on the extended marking
    matrix of the (alphabet-reduced) string of length n:
    provider(e_r, e_c, l). amap is the dict that alphabet_reduce returns, or
    None when the provider already speaks the original alphabet. Empty ranges
    (b >= e) answer 0 before any lookup.

    The queried square has its top row on the mark row of code c (row
    c*n + 1) and bottom-right corner (c*n + (e-b), e): it equals the marks
    of (b..e] stacked on zero padding, so it is all zero exactly when the
    code never occurs in the range.
    """
    if not (isinstance(b, int) and isinstance(e, int)
            and isinstance(c, int) and isinstance(n, int)):
        raise _not_ints(b, e, c, n)
    if not (0 <= b <= n and 0 <= e <= n):
        raise RangeError(f"occurs range {b}..{e} outside [0, {n}]")
    if b >= e:
        return 0
    if amap is not None:
        if c not in amap:
            return 0
        c = amap[c]
    z = saz_provider(c * n + (e - b), e, e - b)
    return 1 - z


def square_lce_via_line_lce(line_lce_provider, rows, cols, b_r, b_c, b2_r, b2_c):
    """Square LCE by binary search over line LCE queries.

    Uses the equivalence: the square LCE is >= t iff the t-row line LCE is
    >= t. Issues at most ceil(log2(t_max + 1)) provider calls where t_max is
    the geometric cap from both origins.
    """
    if not (isinstance(rows, int) and isinstance(cols, int) and isinstance(b_r, int)
            and isinstance(b_c, int) and isinstance(b2_r, int) and isinstance(b2_c, int)):
        raise _not_ints(rows, cols, b_r, b_c, b2_r, b2_c)
    if not (1 <= b_r <= rows and 1 <= b2_r <= rows
            and 1 <= b_c <= cols and 1 <= b2_c <= cols):
        raise RangeError("LCE origins outside the matrix")
    t_max = min(rows - b_r + 1, rows - b2_r + 1, cols - b_c + 1, cols - b2_c + 1)
    lo, hi = 0, t_max
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if line_lce_provider(b_r, b_c, b2_r, b2_c, mid) >= mid:
            lo = mid
        else:
            hi = mid - 1
    return lo


def line_lce_via_equality(eq_provider, rows, cols, b_r, b_c, b2_r, b2_c, l):
    """Line LCE by binary search over rectangle equality queries.

    Uses: the line LCE with height l is >= t iff the l x t rectangles at the
    two origins are equal. Same provider-call bound as the square search.
    """
    if not (isinstance(rows, int) and isinstance(cols, int) and isinstance(b_r, int)
            and isinstance(b_c, int) and isinstance(b2_r, int) and isinstance(b2_c, int)
            and isinstance(l, int)):
        raise _not_ints(rows, cols, b_r, b_c, b2_r, b2_c, l)
    if l < 1:
        raise RangeError("line LCE height must be >= 1")
    if not (1 <= b_r <= rows and 1 <= b2_r <= rows
            and 1 <= b_c <= cols and 1 <= b2_c <= cols):
        raise RangeError("LCE origins outside the matrix")
    if b_r + l > rows + 1 or b2_r + l > rows + 1:
        raise RangeError("line LCE strip extends past the matrix")
    t_max = min(cols - b_c + 1, cols - b2_c + 1)
    lo, hi = 0, t_max
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if eq_provider(b_r, b_c, b2_r, b2_c, l, mid) == 1:
            lo = mid
        else:
            hi = mid - 1
    return lo


def pad_with_zero_block(g2):
    """A grammar for Exp(g2) horizontally extended by an all-zero copy-sized block.

    The output's left half is the original expansion, the right half is an
    all-zero block of the same dimensions; only O(log rows + log cols) rules
    are added. The output is not validated again: its arrays are g2's,
    extended by the zero runs and the new start, which comes last.
    """
    g2 = Slg2._ready(g2)
    r, c = g2._rows[g2.start], g2._cols[g2.start]
    # a binary grammar for an r x c matrix cannot be smaller than the bit
    # length of its dimensions, so the padding stays linear in its size
    if g2.is_binary and max(r, c) > 1 << grammar_size2(g2):
        raise PreconditionViolated(
            f"binary grammar of size {grammar_size2(g2)} claims a {r}x{c} expansion")

    rules, first = list(g2.rules), len(g2.rules)
    sizes = (g2._height[:], g2._rows[:], g2._cols[:])
    column = _zero_run(rules, sizes, _add(rules, sizes, 0), r, Horiz)
    start = _add(rules, sizes, Vert(g2.start, _zero_run(rules, sizes, column, c, Vert)))
    return _handed_over(rules, g2.alphabet_size, start, g2._reach + [True] * (start + 1 - first),
                        *sizes, [*range(start, first - 1, -1), *g2._topo])


def square_all_zero_via_square_lce(g2):
    """Square all-zero through square LCE on the zero-padded grammar.

    Returns (padded grammar, adapter factory). The factory takes a provider
    answering square LCE on the padded expansion --
    provider(b_r, b_c, b2_r, b2_c) -- and yields a square-all-zero adapter
    for the original matrix: the queried block is all zero iff its LCE
    against the top-left corner of the zero half reaches the block side.
    """
    g2 = Slg2._ready(g2)
    r, c = g2._rows[g2.start], g2._cols[g2.start]
    padded = pad_with_zero_block(g2)

    def make_adapter(square_lce_provider):
        def saz(e_r, e_c, l):
            if not (isinstance(e_r, int) and isinstance(e_c, int) and isinstance(l, int)):
                raise _not_ints(e_r, e_c, l)
            if l < 0:
                raise RangeError(f"square side {l} must be >= 0")
            if not (l <= e_r <= r) or not (l <= e_c <= c):
                raise RangeError(f"square bounds ({e_r},{e_c},{l}) out of range")
            if l == 0:
                return 1
            x = square_lce_provider(e_r - l + 1, e_c - l + 1, 1, c + 1)
            return 1 if x >= l else 0
        return saz

    return padded, make_adapter
