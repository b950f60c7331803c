"""The benchmark workloads: seeded inputs, ready structures and query streams.

Each workload has two phases that run.py times separately:

* ``setup(seed, rec)`` generates the inputs as grammar text (or an OV
  instance) together with every query and its reference answer. The
  references come from ``expand1``/``expand2`` and the direct oracles, or,
  for the comb and the staircase, from the construction itself.
* ``build(inputs, rec, ops)`` takes the text to query-ready structures:
  bookmark indexes on the access workloads, provider input matrices on
  reduce-chains. It returns ``Target`` query streams.

``repeats`` is how many times the untraced run times each phase: a few
seconds of each, so that one noisy repeat does not decide the figure. The
counts are fixed, not timed, so every run does the same work whatever the
host's speed.

Every call into the program goes through ``rec.call(span_name, fn, ...)``,
so the traced run gets one span per call and the untraced run a plain call.
Only public names are used: those exported by ``gridgram``, plus ``gen``,
``reductions``, ``oracle`` and ``cli.main``.
"""

from __future__ import annotations

import random
import time
from functools import partial

import gridgram as gg
from gridgram import Horiz, Vert, gen, oracle, reductions

# record widths of one stored bookmark, in bytes: (i, p, k, hook, offset) and
# (i, p_r, p_c, k_r, k_c, hook, offset_r, offset_c) as 64-bit words
RECORD_BYTES1 = 40
RECORD_BYTES2 = 64


def levels(n, tau):
    """ceil(log_tau n) for n >= 1, in integer arithmetic."""
    p, reach = 0, 1
    while reach < n:
        reach *= tau
        p += 1
    return p


def _expand2(rec, g):
    m = rec.call("slg2d.expand", gg.expand2, g)
    rec.count("slg2d.expand_cells", m.rows * m.cols)
    return m


def _ref(rec, fn, *args):
    return rec.call("oracle.reference", fn, *args)


class Ops:
    """Counts every checked answer or bound, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def fail(self, what):
        """Count an attempt that raised or produced a wrong answer."""
        self.check(False, what)


class Target:
    """One query stream: a callable answering ``fn(*query)`` plus references.

    ``dim`` picks the end-to-end pool (1 or 2), ``span`` names the traced
    span around each call, and ``info`` holds what the checks need. When
    ``provider`` is set, each query's provider calls must stay within
    ``bounds[k]``.
    """

    __slots__ = ("name", "dim", "span", "fn", "queries", "expected",
                 "provider", "bounds", "info")

    def __init__(self, name, dim, span, fn, queries, expected,
                 provider=None, bounds=None, info=None):
        self.name = name
        self.dim = dim
        self.span = span
        self.fn = fn
        self.queries = queries
        self.expected = expected
        self.provider = provider
        self.bounds = bounds
        self.info = info or {}


class CountingProvider:
    """Wraps an oracle provider, counting calls and, when traced, timing them."""

    __slots__ = ("fn", "span", "calls", "rec")

    def __init__(self, fn, span):
        self.fn = fn
        self.span = span
        self.calls = 0      # since the caller last reset it
        self.rec = None     # a Recorder while the traced pass runs

    def __call__(self, *args):
        self.calls += 1
        if self.rec is None:
            return self.fn(*args)
        return self.rec.call(self.span, self.fn, *args)


# -- access workloads ---------------------------------------------------------

class AccessInput:
    """One grammar of an access workload, as text, with its queries."""

    __slots__ = ("label", "dim", "text", "queries", "expected")

    def __init__(self, label, dim, text, queries, expected):
        self.label = label
        self.dim = dim
        self.text = text
        self.queries = queries
        self.expected = expected


def _queries1(rng, n, count):
    return [(rng.randint(1, n),) for _ in range(count)]


def _queries2(rng, rows, cols, count):
    return [(rng.randint(1, rows), rng.randint(1, cols)) for _ in range(count)]


def build_access1(text, tau, rec):
    """Grammar text -> validated SLP and 1D index, one span per layer call."""
    g = rec.call("slg.parse", gg.parse_slg1, text)
    g = rec.call("slg.validate", gg.validate_slg1, g)
    slp = rec.call("slg.to_slp", gg.slg_to_slp, g)
    return slp, rec.call("access1d.build", gg.build_index1, slp, tau)


def build_access2(text, tau, rec):
    """Grammar text -> validated 2D SLP and 2D index."""
    g = rec.call("slg2d.parse", gg.parse_slg2, text)
    g = rec.call("slg2d.validate", gg.validate_slg2, g)
    slp = rec.call("slg2d.to_slp", gg.slg2_to_slp2, g)
    return slp, rec.call("access2d.build", gg.build_index2, slp, tau)


class AccessWorkload:
    """Bookmark-index random access against expansion-derived references."""

    queries_per_grammar = 4096

    def __init__(self, taus, generate, repeats):
        self.taus = taus
        self.repeats = repeats
        # (rng, rec) -> [(label, dim, text, reference, code map or None)]
        self._generate = generate

    def setup(self, seed, rec):
        rng = random.Random(seed)
        inputs = []
        for label, dim, text, ref, perm in self._generate(rng, rec):
            if dim == 1:
                queries = _queries1(rng, len(ref), self.queries_per_grammar)
                expected = [ref[i - 1] for (i,) in queries]
            else:
                queries = _queries2(rng, ref.rows, ref.cols, self.queries_per_grammar)
                expected = [ref.cells[(i - 1) * ref.cols + (j - 1)] for i, j in queries]
            if perm is not None:
                expected = [perm[v] for v in expected]
            inputs.append(AccessInput(label, dim, text, queries, expected))
        return inputs

    def build(self, inputs, rec, ops):
        targets = []
        for inp in inputs:
            for tau in self.taus:
                name = f"{inp.label}/tau{tau}"
                start = time.perf_counter_ns()
                if inp.dim == 1:
                    slp, ix = build_access1(inp.text, tau, rec)
                    build_ns = time.perf_counter_ns() - start
                    n = gg.exp_len(slp, slp.start)
                    top = levels(n, tau)
                    bound = 2 * len(slp.rules) * tau * (top + 1)
                    info = {"steps": top + 1}
                    fn = partial(gg.access1, ix)
                    span = "access1d.access1"
                else:
                    slp, ix = build_access2(inp.text, tau, rec)
                    build_ns = time.perf_counter_ns() - start
                    rows, cols = gg.dims(slp, slp.start)
                    top = levels(max(rows, cols), tau)
                    bound = 4 * len(slp.rules) * tau * tau * (top + 1) ** 2
                    info = {"iter_bound": levels(rows, tau) + levels(cols, tau) + 2}
                    fn = partial(gg.access2, ix)
                    span = "access2d.access2"
                entries = ix.entry_count()
                info.update(grammar=slp, ix=ix, tau=tau, label=inp.label, text=inp.text,
                            build_ns=build_ns, entries=entries, entry_bound=bound)
                ops.check(entries <= bound,
                          f"{name}: {entries} table entries exceed the bound {bound}")
                targets.append(Target(name, inp.dim, span, fn, inp.queries,
                                      inp.expected, info=info))
        return targets

    def weights(self, targets):
        """Three queries at the largest tau for each at a smaller one.

        Each target's latencies form one narrow cluster; unequal shares keep
        the pooled p50 inside the largest-tau cluster instead of on the edge
        between two clusters.
        """
        top = max(self.taus)
        return [3.0 if t.info["tau"] == top else 1.0 for t in targets]


def traced_access_checks(targets, ops):
    """Re-answer every query through access*_traced and check the step bounds.

    1D: the answer matches and the step count is exactly ceil(log_tau n) + 1.
    2D: the answer matches and the loop ran at most
    ceil(log_tau rows) + ceil(log_tau cols) + 2 iterations. Stores
    ``steps_total`` and ``steps_max`` in each target's info.
    """
    for t in targets:
        ix, info = t.info["ix"], t.info
        total = worst = 0
        for q, want in zip(t.queries, t.expected):
            try:
                if t.dim == 1:
                    code, steps = gg.access1_traced(ix, *q)
                    ok = steps == info["steps"]
                else:
                    code, steps = gg.access2_traced(ix, *q)
                    ok = steps <= info["iter_bound"]
            except Exception as e:  # noqa: BLE001 - every failure is counted
                ops.fail(f"{t.name} traced {q}: {type(e).__name__}: {e}")
                continue
            total += steps
            worst = max(worst, steps)
            ops.check(code == want and ok,
                      f"{t.name} traced {q}: code {code} (want {want}), {steps} steps")
        info["steps_total"], info["steps_max"] = total, worst


# gen corpus seed: the grammar shapes are fixed (seed 7 gives the 480x2136 matrix),
# so every --seed measures the same structure; --seed relabels the literal
# codes and draws the queries
CORPUS_SEED = 7
SIGMA = 4


def _code_map(rng, sigma):
    perm = list(range(sigma))
    rng.shuffle(perm)
    return perm


def _relabel(g, perm):
    """Unvalidated copy of a gen grammar with each literal code c made perm[c]."""
    cls = gg.Slg1 if isinstance(g, gg.Slg1) else gg.Slg2
    return cls([perm[r] if isinstance(r, int) else r for r in g.rules], len(perm), g.start)


def _shallow_inputs(rng, rec):
    """The gen corpus: one 1D and one 2D SLP of 200 rules hugging 2**20 cells."""
    perm = _code_map(rng, SIGMA)
    g = rec.call("gen.random_slp1", gen.random_slp1, CORPUS_SEED, 200, SIGMA, 1 << 20)
    text = rec.call("slg.dump", gg.dump_slg1, _relabel(g, perm))
    yield "slp1", 1, text, rec.call("slg.expand", gg.expand1, g), perm
    g = rec.call("gen.random_slp2", gen.random_slp2, CORPUS_SEED, 200, SIGMA, 1 << 20)
    text = rec.call("slg2d.dump", gg.dump_slg2, _relabel(g, perm))
    yield "slp2", 2, text, _expand2(rec, g), perm


COMB_VARS = 2000
STAIR_STEPS = 100


def right_comb(codes, sigma):
    """1D right comb X_i -> lit(codes[i]) X_{i+1}; expands to ``codes``.

    ``len(codes) - 1`` pair rules plus ``sigma`` literals; every position
    but the last two sits at a distinct depth, up to len(codes) - 1.
    """
    pairs = len(codes) - 1
    rules = [(pairs + codes[i], i + 1 if i + 1 < pairs else pairs + codes[pairs])
             for i in range(pairs)]
    rules.extend(range(sigma))
    return gg.Slg1(rules, sigma, 0)


def staircase(codes, sigma, steps):
    """2D staircase X_{k+1} = Horiz(Vert(X_k, col_k), row_{k+1}).

    X_0 is a literal; col_k (k+1 tall) and row_k (k+1 wide) are combs, each
    extending the previous strip by one literal. Returns the grammar and
    its (steps+1) x (steps+1) expansion as a Matrix2D, built directly from
    the construction.
    """
    take = iter(codes)
    rules = list(range(sigma))          # literal rules at ids 0..sigma-1

    def add(rule):
        rules.append(rule)
        return len(rules) - 1

    c0 = next(take)
    x, grid = c0, [[c0]]
    c = next(take)
    col, col_vals = c, [c]
    a, b = next(take), next(take)
    row, row_vals = add(Vert(a, b)), [a, b]
    for k in range(steps):
        x = add(Horiz(add(Vert(x, col)), row))
        grid = [r + [v] for r, v in zip(grid, col_vals)] + [list(row_vals)]
        if k + 1 < steps:
            c = next(take)
            col, col_vals = add(Horiz(col, c)), col_vals + [c]
            c = next(take)
            row, row_vals = add(Vert(row, c)), row_vals + [c]
    flat = [v for r in grid for v in r]
    return gg.Slg2(rules, sigma, x), gg.Matrix2D(steps + 1, steps + 1, flat)


def _comb_inputs(rng, rec):
    """One deep 1D comb and one deep 2D staircase, literals drawn by ``gen``."""
    codes = rec.call("gen.random_string", gen.random_string, rng.getrandbits(32),
                     COMB_VARS - SIGMA + 1, SIGMA)
    text1 = rec.call("slg.dump", gg.dump_slg1, right_comb(codes, SIGMA))
    yield "comb1", 1, text1, codes, None
    stair_codes = rec.call("gen.random_string", gen.random_string, rng.getrandbits(32),
                           2 * STAIR_STEPS + 2, SIGMA)
    g2, m2 = staircase(stair_codes, SIGMA, STAIR_STEPS)
    text2 = rec.call("slg2d.dump", gg.dump_slg2, g2)
    yield "stair2", 2, text2, m2, None


# -- reduce-chains ------------------------------------------------------------

CHAIN_STRING_LEN = 1024
CHAIN_SIGMA = 6          # generator alphabet; exactly CHAIN_CODES of it occur
CHAIN_CODES = 4
CHAIN_MATRICES = 8
CHAIN_MIN_SIDE = 16
CHAIN_CELLS = 1 << 10
OCCURS_MAX_RANGE = 16
OV_INSTANCES = 16
OV_VECTORS = 8
OV_DIM = 12
CHAIN_QUERIES = 512      # per matrix and kind
STRING_QUERIES = 2048    # per 1D kind

# share of the chain query stream per kind
CHAIN_MIX = {
    "rank_via_line_sum": 0.30,
    "occurs_via_square_all_zero": 0.20,
    "square_lce_via_line_lce": 0.15,
    "line_lce_via_equality": 0.15,
    "square_all_zero_via_square_lce": 0.15,
    "row_pattern": 0.05,
}


class ChainInputs:
    __slots__ = ("text1", "n", "rank", "occurs", "grids", "ov")

    def __init__(self):
        self.grids = []     # (text, rows, cols, {kind: (queries, expected)})
        self.ov = []        # (OvInstance, expected)


def _chain_string(rec):
    """A ~1k-symbol gen SLP using exactly CHAIN_CODES of CHAIN_SIGMA codes.

    The first corpus seed meeting the alphabet condition is used, so the
    marking matrices always have the same shape and alphabet_reduce always
    has a sparse alphabet to compact.
    """
    for attempt in range(1000):
        g = rec.call("gen.random_slp1", gen.random_slp1, CORPUS_SEED * 1000 + attempt, 60,
                     CHAIN_SIGMA, CHAIN_STRING_LEN)
        t = rec.call("slg.expand", gg.expand1, g)
        if len(set(t)) == CHAIN_CODES:
            return g, t
    raise RuntimeError(f"no corpus string with {CHAIN_CODES} codes")


def _chain_grid(k, rec):
    """The k-th corpus 2D SLP with both sides at least CHAIN_MIN_SIDE."""
    for attempt in range(1000):
        g = rec.call("gen.random_slp2", gen.random_slp2,
                     CORPUS_SEED * 1000 + 100 * k + attempt, 100, SIGMA, CHAIN_CELLS)
        rows, cols = gg.dims(g, g.start)
        if min(rows, cols) >= CHAIN_MIN_SIDE:
            return g
    raise RuntimeError(f"no {CHAIN_MIN_SIDE}-sided corpus matrix #{k}")


class ChainsWorkload:
    """Adapter chains over oracle providers; never touches the access indexes."""

    taus = ()
    repeats = (10, 10)

    def setup(self, seed, rec):
        rng = random.Random(seed)
        inp = ChainInputs()
        g1, t = _chain_string(rec)
        perm = _code_map(rng, CHAIN_SIGMA)
        inp.text1 = rec.call("slg.dump", gg.dump_slg1, _relabel(g1, perm))
        t = [perm[v] for v in t]
        n = inp.n = len(t)
        inp.rank = ([], [])
        inp.occurs = ([], [])
        for _ in range(STRING_QUERIES):
            j, c = rng.randint(0, n), rng.randrange(CHAIN_SIGMA)
            inp.rank[0].append((j, c))
            inp.rank[1].append(_ref(rec, oracle.rank, t, j, c))
            b = rng.randint(0, n - 1)
            e, c = rng.randint(b + 1, min(n, b + OCCURS_MAX_RANGE)), rng.randrange(CHAIN_SIGMA)
            inp.occurs[0].append((b, e, c, n))
            inp.occurs[1].append(_ref(rec, oracle.occurs, t, b, e, c))

        for k in range(CHAIN_MATRICES):
            g2 = _chain_grid(k, rec)
            text = rec.call("slg2d.dump", gg.dump_slg2, g2)
            m = _expand2(rec, g2)
            r, c = m.rows, m.cols
            kinds = {name: ([], []) for name in
                     ("square_lce_via_line_lce", "line_lce_via_equality",
                      "square_all_zero_via_square_lce")}
            for _ in range(CHAIN_QUERIES):
                o = (rng.randint(1, r), rng.randint(1, c), rng.randint(1, r), rng.randint(1, c))
                qs, ex = kinds["square_lce_via_line_lce"]
                qs.append(o)
                ex.append(_ref(rec, oracle.square_lce, m, *o))
                o = (rng.randint(1, r), rng.randint(1, c), rng.randint(1, r), rng.randint(1, c))
                height = rng.randint(1, min(16, r - max(o[0], o[2]) + 1))
                qs, ex = kinds["line_lce_via_equality"]
                qs.append(o + (height,))
                ex.append(_ref(rec, oracle.line_lce, m, *o, height))
                e_r, e_c = rng.randint(1, r), rng.randint(1, c)
                side = rng.randint(0, min(8, e_r, e_c))
                qs, ex = kinds["square_all_zero_via_square_lce"]
                qs.append((e_r, e_c, side))
                ex.append(_ref(rec, oracle.square_all_zero, m, e_r, e_c, side))
            inp.grids.append((text, r, c, kinds))

        # half the instances have an orthogonal pair and half do not, so the
        # pattern scan's full-length (answer 0) share is the same in every run
        wanted = {0: OV_INSTANCES // 2, 1: OV_INSTANCES // 2}
        while wanted[0] or wanted[1]:
            vm = rec.call("gen.random_matrix", gen.random_matrix, rng.getrandbits(32),
                          OV_VECTORS, OV_DIM, 2)
            inst = reductions.OvInstance(tuple(tuple(v) for v in vm.to_rows()))
            answer = rec.call("oracle.ov_brute", oracle.ov_brute, inst.vectors)
            if wanted[answer]:
                wanted[answer] -= 1
                inp.ov.append((inst, answer))
        return inp

    def build(self, inp, rec, ops):
        targets = []
        g = rec.call("slg.parse", gg.parse_slg1, inp.text1)
        g = rec.call("slg.validate", gg.validate_slg1, g)
        slp = rec.call("slg.to_slp", gg.slg_to_slp, g)
        reduced, amap = rec.call("reductions.alphabet_reduce", reductions.alphabet_reduce, slp)
        sigma = len(amap)
        mark = rec.call("reductions.mark_grammar", reductions.mark_grammar, reduced, sigma)
        mark_m = _expand2(rec, mark)
        ext = rec.call("reductions.ext_mark_grammar", reductions.ext_mark_grammar, reduced, sigma)
        ext_m = _expand2(rec, ext)

        p = CountingProvider(partial(oracle.line_sum, mark_m), "oracle.line_sum")
        qs, ex = inp.rank
        targets.append(Target("rank", 1, "reductions.rank_via_line_sum",
                              partial(reductions.rank_via_line_sum, p, amap), qs, ex,
                              provider=p, bounds=[1] * len(qs), info={"grammar": slp, "label": "string"}))
        p = CountingProvider(partial(oracle.square_all_zero, ext_m), "oracle.square_all_zero")
        qs, ex = inp.occurs
        targets.append(Target("occurs", 1, "reductions.occurs_via_square_all_zero",
                              partial(reductions.occurs_via_square_all_zero, p, amap), qs, ex,
                              provider=p, bounds=[1] * len(qs), info={"grammar": slp, "label": "string"}))

        for k, (text, r, c, kinds) in enumerate(inp.grids):
            g2 = rec.call("slg2d.parse", gg.parse_slg2, text)
            g2 = rec.call("slg2d.validate", gg.validate_slg2, g2)
            m = _expand2(rec, g2)
            # the adapter factory builds the zero-padded grammar; its cost is
            # pad_with_zero_block's
            padded, make_saz = rec.call("reductions.pad_with_zero_block",
                                        reductions.square_all_zero_via_square_lce, g2)
            padded_m = _expand2(rec, padded)

            p = CountingProvider(partial(oracle.line_lce, m), "oracle.line_lce")
            qs, ex = kinds["square_lce_via_line_lce"]
            bounds = [min(r - a + 1, r - a2 + 1, c - b + 1, c - b2 + 1).bit_length()
                      for a, b, a2, b2 in qs]
            targets.append(Target(f"square_lce#{k}", 2, "reductions.square_lce_via_line_lce",
                                  partial(reductions.square_lce_via_line_lce, p, r, c),
                                  qs, ex, provider=p, bounds=bounds,
                                  info={"grammar": g2, "label": f"grid#{k}"}))
            p = CountingProvider(partial(oracle.equal_rect, m), "oracle.equal_rect")
            qs, ex = kinds["line_lce_via_equality"]
            bounds = [min(c - b + 1, c - b2 + 1).bit_length() for _, b, _, b2, _ in qs]
            targets.append(Target(f"line_lce#{k}", 2, "reductions.line_lce_via_equality",
                                  partial(reductions.line_lce_via_equality, p, r, c),
                                  qs, ex, provider=p, bounds=bounds))
            p = CountingProvider(partial(oracle.square_lce, padded_m), "oracle.square_lce")
            qs, ex = kinds["square_all_zero_via_square_lce"]
            targets.append(Target(f"square_all_zero#{k}", 2,
                                  "reductions.square_all_zero_via_square_lce",
                                  make_saz(p), qs, ex, provider=p, bounds=[1] * len(qs)))

        for k, (inst, want) in enumerate(inp.ov):
            u = rec.call("reductions.uniform_ov", reductions.uniform_ov, inst)
            pm = rec.call("reductions.ov_to_pm", reductions.ov_to_pm, u)
            text_m = _expand2(rec, pm.grammar)
            targets.append(Target(f"row_pattern#{k}", 2, "oracle.row_pattern",
                                  partial(oracle.row_pattern_occurs, text_m, pm.pattern),
                                  [()], [want]))
        return targets

    def weights(self, targets):
        """Per-target share of the query stream, from CHAIN_MIX by kind."""
        kind = lambda t: t.span.split(".", 1)[1] if t.span.startswith("reductions.") \
            else "row_pattern"
        counts = {}
        for t in targets:
            counts[kind(t)] = counts.get(kind(t), 0) + 1
        return [CHAIN_MIX[kind(t)] / counts[kind(t)] for t in targets]


WORKLOADS = {
    "access-shallow": lambda: AccessWorkload((2, 8), _shallow_inputs, (20, 30)),
    "comb-deep": lambda: AccessWorkload((8,), _comb_inputs, (30, 3)),
    "reduce-chains": ChainsWorkload,
}
