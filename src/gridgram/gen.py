"""Seeded random grammar generators for tests, benchmarks, and the CLI.

Generators emit valid grammars by construction. One prelude, ``_literals``,
checks the parameters and lays the literals out at the top of the id range,
so every rule built below them references strictly higher ids. Children are
drawn from pools filtered so the expansion size stays under the cap. In 2D,
``_Pools`` groups the rules defined so far by the side each kind shares and
tracks the one of largest area, so ``_Pools.joiners`` reads only the group
of a rule's fixed side for the ids that keep its cell count within the cap,
and ``_Pools.define`` sets the new rule's dimensions and files it. Child
choice is biased toward recently created (hence larger) variables, so
expansions grow roughly geometrically until they hug the cap instead of
collapsing to a handful of symbols. Same seed, same grammar.
"""

from __future__ import annotations

import random

from .errors import RangeError
from .slg import Slg1, validate_slg1, validate_slp1
from .slg2d import Horiz, Matrix2D, Slg2, Vert, validate_slg2, validate_slp2


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _pick_biased(rng, pool):
    """Pick from pool (ascending ids), favoring the low = recent, large end."""
    if len(pool) == 1 or rng.random() < 0.35:
        return rng.choice(pool)
    k = int(rng.expovariate(0.45))
    return pool[min(k, len(pool) - 1)]


def _pick_growth(rng, pool, largest):
    """Pick the largest variable most of the time so expansions keep growing.

    largest() gives the pool's lowest id of largest size; it runs only when
    that branch is drawn.
    """
    if rng.random() < 0.65:
        return largest()
    return _pick_biased(rng, pool)


def _check_sizes(least, **sizes):
    """Raise RangeError unless every named size is an int >= least (no upper cap)."""
    for name, v in sizes.items():
        if not isinstance(v, int) or v < least:
            raise RangeError(f"{name} must be an int >= {least}, got {v!r}")


def _literals(rng, n_rules, sigma, bound, max_arity=2):
    """Check the parameters and draw the literals of an n_rules grammar.

    Returns (rules, sizes, n_comp): ids n_comp.. hold literal codes of size
    1, ids ..n_comp-1 are left for the caller to fill top-down with size 0.
    A one-rule grammar is a single literal, so n_comp is 0.
    """
    _check_sizes(1, n_rules=n_rules, sigma=sigma, max_arity=max_arity)
    _check_sizes(2, size_bound=bound)
    n_lit = 1 if n_rules == 1 else rng.randint(1, min(sigma, n_rules - 1))
    n_comp = n_rules - n_lit
    rules = [None] * n_comp + [rng.randrange(sigma) for _ in range(n_lit)]
    return rules, [0] * n_comp + [1] * n_lit, n_comp


def random_slp1(seed, n_rules, sigma=4, max_len=1 << 14):
    """A random validated 1D SLP with exactly n_rules rules; the caller bounds n_rules."""
    rng = _rng(seed)
    rules, lens, n_comp = _literals(rng, n_rules, sigma, max_len)
    size = lens.__getitem__
    for nid in range(n_comp - 1, -1, -1):
        growable = [i for i in range(nid + 1, n_rules) if lens[i] < max_len]
        largest = lambda: max(growable, key=size)
        a = largest() if nid == 0 else _pick_growth(rng, growable, largest)
        fits = [i for i in range(nid + 1, n_rules) if lens[a] + lens[i] <= max_len]
        b = max(fits, key=size) if nid == 0 else _pick_biased(rng, fits)
        if rng.random() < 0.5:
            a, b = b, a
        rules[nid] = (a, b)
        lens[nid] = lens[a] + lens[b]
    return validate_slp1(Slg1(rules, sigma, 0))


def random_slg1(seed, n_rules, sigma=4, max_arity=5, max_len=1 << 14):
    """A random validated 1D SLG with rule arity up to max_arity; the caller bounds n_rules."""
    rng = _rng(seed)
    rules, lens, n_comp = _literals(rng, n_rules, sigma, max_len, max_arity)
    for nid in range(n_comp - 1, -1, -1):
        arity = rng.randint(1, max_arity)
        kids, total = [], 0
        for j in range(arity):
            fits = [i for i in range(nid + 1, n_rules) if total + lens[i] <= max_len]
            if not fits:
                break
            if j == 0:
                c = _pick_growth(rng, fits, lambda: max(fits, key=lens.__getitem__))
            else:
                c = _pick_biased(rng, fits)
            kids.append(c)
            total += lens[c]
        rng.shuffle(kids)
        rules[nid] = tuple(kids)
        lens[nid] = total
    return validate_slg1(Slg1(rules, sigma, 0))


def _axes(kind, rows, cols):
    """(growing, shared) axis of a kind rule: Horiz adds rows, Vert adds columns."""
    return (rows, cols) if kind is Horiz else (cols, rows)


class _Pools:
    """The 2D ids defined so far, which all lie above the rule being built.

    rows and cols hold every id's dimensions (0 while undefined). For each
    kind, ids are grouped by the side its rules share, columns for Horiz and
    rows for Vert, each group in descending id order since rules are defined
    top-down, and least holds each group's least growing span. largest is
    the lowest id of largest area, which is what max over ascending ids
    returns.
    """

    def __init__(self, sizes, first):
        self.rows, self.cols = sizes, sizes[:]
        self.groups = {Horiz: {}, Vert: {}}
        self.least = {Horiz: {}, Vert: {}}
        self.largest = len(sizes) - 1
        for i in range(len(sizes) - 1, first - 1, -1):
            self._file(i)

    def _file(self, i):
        h, w, top = self.rows[i], self.cols[i], self.largest
        self.groups[Horiz].setdefault(w, []).append(i)
        self.groups[Vert].setdefault(h, []).append(i)
        least_h, least_v = self.least[Horiz], self.least[Vert]
        if h < least_h.get(w, h + 1):
            least_h[w] = h
        if w < least_v.get(h, w + 1):
            least_v[h] = w
        if h * w >= self.rows[top] * self.cols[top]:
            self.largest = i

    def area(self, i):
        return self.rows[i] * self.cols[i]

    def joiners(self, kind, kids, max_cells):
        """Ids, ascending, that can join the kind rule with children kids:
        they share its fixed axis and keep its cell count within max_cells."""
        grow, share = _axes(kind, self.rows, self.cols)
        width = share[kids[0]]
        # (span + g) * width <= max_cells, for a positive int width
        room = max_cells // width
        for k in kids:
            room -= grow[k]
        if room < self.least[kind][width]:
            return []           # no id of the group fits, so none is read
        return [i for i in reversed(self.groups[kind][width]) if grow[i] <= room]

    def define(self, nid, kind, kids):
        """Set nid's dimensions, the kids' growing spans added and the shared
        one carried over, and file nid in both groups."""
        grow, share = _axes(kind, self.rows, self.cols)
        grow[nid] = sum(grow[k] for k in kids)
        share[nid] = share[kids[0]]
        self._file(nid)


def random_slp2(seed, n_rules, sigma=4, max_cells=1 << 16):
    """A random validated 2D SLP with exactly n_rules rules; the caller bounds n_rules."""
    rng = _rng(seed)
    rules, sizes, n_comp = _literals(rng, n_rules, sigma, max_cells)
    pools = _Pools(sizes, n_comp)
    for nid in range(n_comp - 1, -1, -1):
        choice = None
        if nid == 0:
            for a in sorted(range(1, n_rules), key=pools.area, reverse=True):
                for kind in (Horiz, Vert):
                    pool = pools.joiners(kind, [a], max_cells)
                    if pool:
                        choice = (kind, a, max(pool, key=pools.area))
                        break
                if choice:
                    break
        if choice is None:
            for _ in range(8):
                kind = rng.choice((Horiz, Vert))
                a = _pick_growth(rng, range(nid + 1, n_rules), lambda: pools.largest)
                pool = pools.joiners(kind, [a], max_cells)
                if pool:
                    choice = (kind, a, _pick_biased(rng, pool))
                    break
        if choice is None:
            # the lowest id of least area: a literal, as every other rule has area >= 2
            choice = (rng.choice((Horiz, Vert)), n_comp, n_comp)
        kind, a, b = choice
        if rng.random() < 0.5:
            a, b = b, a
        rules[nid] = kind(a, b)
        pools.define(nid, kind, (a, b))
    return validate_slp2(Slg2(rules, sigma, 0))


def random_slg2(seed, n_rules, sigma=4, max_arity=5, max_cells=1 << 16):
    """A random validated 2D SLG with rule arity up to max_arity; the caller bounds n_rules."""
    rng = _rng(seed)
    rules, sizes, n_comp = _literals(rng, n_rules, sigma, max_cells, max_arity)
    pools = _Pools(sizes, n_comp)
    for nid in range(n_comp - 1, -1, -1):
        kind = rng.choice((Horiz, Vert))
        kids = [_pick_growth(rng, range(nid + 1, n_rules), lambda: pools.largest)]
        for _ in range(rng.randint(1, max_arity) - 1):
            pool = pools.joiners(kind, kids, max_cells)
            if not pool:
                break
            kids.append(_pick_biased(rng, pool))
        rng.shuffle(kids)
        rules[nid] = kind(*kids)
        pools.define(nid, kind, kids)
    return validate_slg2(Slg2(rules, sigma, 0))


def grammar_from_matrix(m):
    """A naive grammar expanding to the given matrix (one rule per row).

    Size is linear in the cell count; useful for driving grammar-level
    constructions from explicit test matrices.
    """
    codes = sorted(set(m.cells))
    rules = []
    lit_id = {}
    for c in codes:
        lit_id[c] = len(rules)
        rules.append(c)
    row_ids = []
    for i in range(1, m.rows + 1):
        row = m.row(i)
        if m.cols == 1:
            row_ids.append(lit_id[row[0]])
        else:
            rules.append(Vert(*(lit_id[v] for v in row)))
            row_ids.append(len(rules) - 1)
    if m.rows == 1:
        start = row_ids[0]
    else:
        rules.append(Horiz(*row_ids))
        start = len(rules) - 1
    return validate_slg2(Slg2(rules, max(codes) + 1, start))


def random_matrix(seed, rows, cols, sigma=2):
    """A random explicit matrix (flat row-major codes); the caller bounds rows * cols."""
    _check_sizes(1, rows=rows, cols=cols, sigma=sigma)
    rng = _rng(seed)
    return Matrix2D(rows, cols, [rng.randrange(sigma) for _ in range(rows * cols)])


def random_string(seed, n, sigma=4):
    """A random list of n codes below sigma; the caller bounds n."""
    _check_sizes(0, n=n)
    _check_sizes(1, sigma=sigma)
    rng = _rng(seed)
    return [rng.randrange(sigma) for _ in range(n)]
