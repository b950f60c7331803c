"""Seeded random grammar generators for tests, benchmarks, and the CLI.

Generators emit valid grammars by construction: ids are laid out so every
rule references strictly higher ids (literals live at the top of the id
range), and children are drawn from pools filtered so the expansion size
stays under the cap. Child choice is biased toward recently created (hence
larger) variables, so expansions grow roughly geometrically until they hug
the cap instead of collapsing to a handful of symbols. Same seed, same
grammar.
"""

from __future__ import annotations

import random

from .errors import RangeError
from .slg import Slg1, Slp1, validate_slg1, validate_slp1
from .slg2d import Horiz, Slg2, Slp2, Vert, validate_slg2, validate_slp2


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


def _pick_growth(rng, pool, sizekey):
    """Pick the largest variable most of the time so expansions keep growing."""
    if rng.random() < 0.65:
        return max(pool, key=sizekey)
    return _pick_biased(rng, pool)


def _emit_literals(rng, rules, sizes, n_comp, n_rules, sigma):
    for nid in range(n_comp, n_rules):
        rules[nid] = rng.randrange(sigma)
        sizes[nid] = 1


def random_slp1(seed, n_rules, sigma=4, max_len=1 << 14):
    """A random validated 1D SLP with exactly n_rules rules."""
    rng = _rng(seed)
    if n_rules < 1 or sigma < 1 or max_len < 2:
        raise RangeError("need n_rules >= 1, sigma >= 1, max_len >= 2")
    if n_rules == 1:
        return validate_slp1(Slp1([rng.randrange(sigma)], sigma, 0))

    n_lit = rng.randint(1, max(1, min(sigma, n_rules - 1)))
    n_comp = n_rules - n_lit
    rules = [None] * n_rules
    lens = [0] * n_rules
    _emit_literals(rng, rules, lens, n_comp, n_rules, sigma)
    for nid in range(n_comp - 1, -1, -1):
        growable = [i for i in range(nid + 1, n_rules) if lens[i] < max_len]
        if nid == 0:
            a = max(growable, key=lens.__getitem__)
        else:
            a = _pick_growth(rng, growable, lens.__getitem__)
        fits = [i for i in range(nid + 1, n_rules) if lens[a] + lens[i] <= max_len]
        b = max(fits, key=lens.__getitem__) if nid == 0 else _pick_biased(rng, fits)
        if rng.random() < 0.5:
            a, b = b, a
        rules[nid] = (a, b)
        lens[nid] = lens[a] + lens[b]
    return validate_slp1(Slp1(rules, sigma, 0))


def random_slg1(seed, n_rules, sigma=4, max_arity=5, max_len=1 << 14):
    """A random validated 1D SLG with rule arity up to max_arity."""
    rng = _rng(seed)
    if n_rules < 1 or sigma < 1 or max_arity < 1 or max_len < 2:
        raise RangeError("bad generator parameters")
    if n_rules == 1:
        return validate_slg1(Slg1([rng.randrange(sigma)], sigma, 0))

    n_lit = rng.randint(1, max(1, min(sigma, n_rules - 1)))
    n_comp = n_rules - n_lit
    rules = [None] * n_rules
    lens = [0] * n_rules
    _emit_literals(rng, rules, lens, n_comp, n_rules, sigma)
    for nid in range(n_comp - 1, -1, -1):
        arity = rng.randint(1, max_arity)
        kids, total = [], 0
        for j in range(arity):
            fits = [i for i in range(nid + 1, n_rules) if total + lens[i] <= max_len]
            if not fits:
                break
            c = _pick_growth(rng, fits, lens.__getitem__) if j == 0 else _pick_biased(rng, fits)
            kids.append(c)
            total += lens[c]
        rng.shuffle(kids)
        rules[nid] = tuple(kids)
        lens[nid] = total
    return validate_slg1(Slg1(rules, sigma, 0))


def random_slp2(seed, n_rules, sigma=4, max_cells=1 << 16):
    """A random validated 2D SLP with exactly n_rules rules."""
    rng = _rng(seed)
    if n_rules < 1 or sigma < 1 or max_cells < 2:
        raise RangeError("need n_rules >= 1, sigma >= 1, max_cells >= 2")
    if n_rules == 1:
        return validate_slp2(Slp2([rng.randrange(sigma)], sigma, 0))

    n_lit = rng.randint(1, max(1, min(sigma, n_rules - 1)))
    n_comp = n_rules - n_lit
    rules = [None] * n_rules
    rows = [0] * n_rules
    cols = [0] * n_rules
    for nid in range(n_comp, n_rules):
        rules[nid] = rng.randrange(sigma)
        rows[nid] = cols[nid] = 1
    for nid in range(n_comp - 1, -1, -1):
        choice = None
        if nid == 0:
            area = lambda i: rows[i] * cols[i]
            for a in sorted(range(1, n_rules), key=area, reverse=True):
                for kind in (Horiz, Vert):
                    if kind is Horiz:
                        pool = [i for i in range(1, n_rules)
                                if cols[i] == cols[a] and (rows[a] + rows[i]) * cols[a] <= max_cells]
                    else:
                        pool = [i for i in range(1, n_rules)
                                if rows[i] == rows[a] and rows[a] * (cols[a] + cols[i]) <= max_cells]
                    if pool:
                        choice = (kind, a, max(pool, key=area))
                        break
                if choice:
                    break
        if choice is None:
            for _ in range(8):
                kind = rng.choice((Horiz, Vert))
                a = _pick_growth(rng, list(range(nid + 1, n_rules)),
                                 lambda i: rows[i] * cols[i])
                if kind is Horiz:
                    pool = [i for i in range(nid + 1, n_rules)
                            if cols[i] == cols[a] and (rows[a] + rows[i]) * cols[a] <= max_cells]
                else:
                    pool = [i for i in range(nid + 1, n_rules)
                            if rows[i] == rows[a] and rows[a] * (cols[a] + cols[i]) <= max_cells]
                if pool:
                    choice = (kind, a, _pick_biased(rng, pool))
                    break
        if choice is None:
            smallest = min(range(nid + 1, n_rules), key=lambda i: rows[i] * cols[i])
            choice = (rng.choice((Horiz, Vert)), smallest, smallest)
        kind, a, b = choice
        if rng.random() < 0.5:
            a, b = b, a
        rules[nid] = kind(a, b)
        if kind is Horiz:
            rows[nid], cols[nid] = rows[a] + rows[b], cols[a]
        else:
            rows[nid], cols[nid] = rows[a], cols[a] + cols[b]
    return validate_slp2(Slp2(rules, sigma, 0))


def random_slg2(seed, n_rules, sigma=4, max_arity=5, max_cells=1 << 16):
    """A random validated 2D SLG with rule arity up to max_arity."""
    rng = _rng(seed)
    if n_rules < 1 or sigma < 1 or max_arity < 1 or max_cells < 2:
        raise RangeError("bad generator parameters")
    if n_rules == 1:
        return validate_slg2(Slg2([rng.randrange(sigma)], sigma, 0))

    n_lit = rng.randint(1, max(1, min(sigma, n_rules - 1)))
    n_comp = n_rules - n_lit
    rules = [None] * n_rules
    rows = [0] * n_rules
    cols = [0] * n_rules
    for nid in range(n_comp, n_rules):
        rules[nid] = rng.randrange(sigma)
        rows[nid] = cols[nid] = 1
    for nid in range(n_comp - 1, -1, -1):
        kind = rng.choice((Horiz, Vert))
        first = _pick_growth(rng, list(range(nid + 1, n_rules)),
                             lambda i: rows[i] * cols[i])
        arity = rng.randint(1, max_arity)
        kids = [first]
        if kind is Horiz:
            total_r, w = rows[first], cols[first]
            for _ in range(arity - 1):
                pool = [i for i in range(nid + 1, n_rules)
                        if cols[i] == w and (total_r + rows[i]) * w <= max_cells]
                if not pool:
                    break
                c = _pick_biased(rng, pool)
                kids.append(c)
                total_r += rows[c]
            r, c = total_r, w
        else:
            h, total_c = rows[first], cols[first]
            for _ in range(arity - 1):
                pool = [i for i in range(nid + 1, n_rules)
                        if rows[i] == h and h * (total_c + cols[i]) <= max_cells]
                if not pool:
                    break
                cc = _pick_biased(rng, pool)
                kids.append(cc)
                total_c += cols[cc]
            r, c = h, total_c
        rng.shuffle(kids)
        rules[nid] = kind(*kids)
        rows[nid], cols[nid] = r, c
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
    """A random explicit matrix (flat row-major codes)."""
    from .slg2d import Matrix2D

    rng = _rng(seed)
    return Matrix2D(rows, cols, [rng.randrange(sigma) for _ in range(rows * cols)])


def random_string(seed, n, sigma=4):
    rng = _rng(seed)
    return [rng.randrange(sigma) for _ in range(n)]
