"""Root-to-leaf descent over validated SLPs: the trivial access baseline.

This is the benchmark's own second oracle for random access. It reads only
the public grammar surface (``rules``, ``start``, ``exp_len``/``dims`` and the
``Horiz``/``Vert`` children), walks from the start symbol into the child
holding the target position, and costs one step per grammar level, so its
time grows with depth where the bookmark index does not.
"""

from __future__ import annotations

from gridgram import Horiz, dims, exp_len


def lengths1(g):
    """Expansion length of every variable of a validated 1D grammar."""
    return [exp_len(g, v) for v in range(len(g.rules))]


def shapes2(g):
    """(rows, cols) lists over every variable of a validated 2D grammar."""
    pairs = [dims(g, v) for v in range(len(g.rules))]
    return [r for r, _ in pairs], [c for _, c in pairs]


def descend1(rules, lens, start, i):
    """Symbol at 1-based position i of Exp(start) in a binary 1D grammar."""
    node = start
    while True:
        rule = rules[node]
        if rule.__class__ is int:
            return rule
        x, y = rule
        left = lens[x]
        if i <= left:
            node = x
        else:
            i -= left
            node = y


def descend2(rules, rows, cols, start, i, j):
    """Cell (i, j), 1-based, of Exp(start) in a binary 2D grammar."""
    node = start
    while True:
        rule = rules[node]
        if rule.__class__ is int:
            return rule
        x, y = rule.children
        if rule.__class__ is Horiz:
            top = rows[x]
            if i <= top:
                node = x
            else:
                i -= top
                node = y
        else:
            left = cols[x]
            if j <= left:
                node = x
            else:
                j -= left
                node = y


def depth_profile(children, size, start):
    """(max, mean) root-to-leaf depth below ``start``.

    ``children(v)`` lists the child ids of v (empty for a literal) and
    ``size(v)`` is the number of positions (cells) v expands to. The mean is
    taken over positions, so it is the expected step count of a descent to a
    uniformly random position.
    """
    order, seen, stack = [], set(), [(start, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        stack.extend((c, False) for c in children(node) if c not in seen)
    deepest, total = {}, {}
    for node in order:
        kids = children(node)
        if not kids:
            deepest[node], total[node] = 0, 0
        else:
            deepest[node] = 1 + max(deepest[c] for c in kids)
            total[node] = sum(total[c] + size(c) for c in kids)
    return deepest[start], total[start] / size(start)


def depth1(g):
    lens = lengths1(g)
    kids = lambda v: () if isinstance(g.rules[v], int) else g.rules[v]
    return depth_profile(kids, lens.__getitem__, g.start)


def depth2(g):
    rows, cols = shapes2(g)
    kids = lambda v: () if isinstance(g.rules[v], int) else g.rules[v].children
    return depth_profile(kids, lambda v: rows[v] * cols[v], g.start)
