"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Criteria 3-5 (step counts, size bounds, per-step
contracts) are measured on every query issued by the criterion-1/2 sweeps,
which the fixtures below run once per session. Each criterion's time target
is reported, not asserted.
"""

import random
import time

import pytest

from gridgram import (
    Slp1,
    access2_traced,
    access1_traced,
    build_index1,
    build_index2,
    ceil_log,
    dims,
    exp_len,
    expand1,
    expand2,
    grammar_size1,
    grammar_size2,
    hook_offset1,
    hook_offset2,
    slg_to_slp,
    slg2_to_slp2,
    validate_slp1,
)
from gridgram.gen import (
    grammar_from_matrix,
    random_matrix,
    random_slg1,
    random_slg2,
    random_slp1,
    random_slp2,
)
from gridgram.oracle import (
    equal_rect,
    line_lce,
    line_sum,
    occurs,
    ov_brute,
    rank,
    row_pattern_occurs,
    square_all_zero,
    square_lce,
)
from gridgram.reductions import (
    OvInstance,
    alphabet_reduce,
    ext_mark_all_chars,
    ext_mark_grammar,
    line_lce_via_equality,
    mark_all_chars,
    mark_grammar,
    occurs_via_square_all_zero,
    ov_to_pm,
    rank_via_line_sum,
    square_all_zero_via_square_lce,
    square_lce_via_line_lce,
    uniform_ov,
)
from conftest import (ACCEPTANCE_LINES, CountingProvider, expand_all_1d,
                      expand_all_2d, submatrix)


def _report(line):
    print(line)
    ACCEPTANCE_LINES.append(line)

TAUS = (2, 3, 8)
N_GRAMMARS = 500

_LEN_EXPS = [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]
_LEN_WTS = [3, 3, 3, 3, 3, 3, 2, 1, 1, 1, 1]
_CELL_EXPS = list(range(4, 21))
_CELL_WTS = [4] * 6 + [3, 3, 2] + [1] * 8


@pytest.fixture(scope="module")
def sweep1d():
    """Criterion-1 sweep; also records the data for criteria 3-5."""
    t0 = time.perf_counter()
    stats = {"queries": 0, "mismatches": 0, "step_errors": 0,
             "entry_bound_errors": 0, "max_n": 0, "taus": TAUS}
    for i in range(N_GRAMMARS):
        rng = random.Random(1_000_000 + i)
        rules = rng.randint(1, 60)
        max_len = 1 << rng.choices(_LEN_EXPS, weights=_LEN_WTS)[0]
        g = random_slp1(rng.randrange(2 ** 32), rules,
                        sigma=rng.randint(1, 8), max_len=max_len)
        text = expand1(g)
        n = len(text)
        stats["max_n"] = max(stats["max_n"], n)
        if n <= 1 << 10:
            positions = range(1, n + 1)
        else:
            positions = [rng.randint(1, n) for _ in range(256)]
        positions = list(positions)
        for tau in TAUS:
            ix = build_index1(g, tau)
            if ix.entry_count() > 2 * len(g.rules) * tau * (ix.levels + 1):
                stats["entry_bound_errors"] += 1
            want_steps = ceil_log(n, tau) + 1
            for p in positions:
                code, steps = access1_traced(ix, p)
                if code != text[p - 1]:
                    stats["mismatches"] += 1
                if steps != want_steps:
                    stats["step_errors"] += 1
            stats["queries"] += len(positions)
    stats["seconds"] = time.perf_counter() - t0
    return stats


@pytest.fixture(scope="module")
def sweep2d():
    """Criterion-2 sweep; also records the data for criteria 3-5."""
    t0 = time.perf_counter()
    stats = {"queries": 0, "mismatches": 0, "step_errors": 0,
             "entry_bound_errors": 0, "max_cells": 0, "taus": TAUS}
    for i in range(N_GRAMMARS):
        rng = random.Random(2_000_000 + i)
        rules = rng.randint(1, 60)
        max_cells = 1 << rng.choices(_CELL_EXPS, weights=_CELL_WTS)[0]
        g = random_slp2(rng.randrange(2 ** 32), rules,
                        sigma=rng.randint(1, 8), max_cells=max_cells)
        m = expand2(g)
        cells = m.rows * m.cols
        stats["max_cells"] = max(stats["max_cells"], cells)
        if cells <= 1 << 14:
            points = [(a, b) for a in range(1, m.rows + 1)
                      for b in range(1, m.cols + 1)]
        else:
            points = [(rng.randint(1, m.rows), rng.randint(1, m.cols))
                      for _ in range(512)]
        for tau in TAUS:
            ix = build_index2(g, tau)
            bound = 4 * len(g.rules) * tau * tau * (ix.levels + 1) ** 2
            if ix.entry_count() > bound:
                stats["entry_bound_errors"] += 1
            step_bound = ceil_log(m.rows, tau) + ceil_log(m.cols, tau) + 2
            for (pi, pj) in points:
                code, steps = access2_traced(ix, pi, pj)
                if code != m.get(pi, pj):
                    stats["mismatches"] += 1
                if steps > step_bound:
                    stats["step_errors"] += 1
            stats["queries"] += len(points)
    stats["seconds"] = time.perf_counter() - t0
    return stats


def test_criterion_1_random_access_1d(sweep1d):
    """500 seeded SLPs x tau in {2,3,8}: access1 equals naive expansion."""
    assert sweep1d["mismatches"] == 0
    _report(f"PASS criterion 1: 1D random access exact on {N_GRAMMARS} grammars, "
          f"{sweep1d['queries']} queries, max n {sweep1d['max_n']} "
          f"({sweep1d['seconds']:.1f}s, target <60s)")


def test_criterion_2_random_access_2d(sweep2d):
    """500 seeded 2D SLPs x tau in {2,3,8}: access2 equals naive expansion."""
    assert sweep2d["mismatches"] == 0
    _report(f"PASS criterion 2: 2D random access exact on {N_GRAMMARS} grammars, "
          f"{sweep2d['queries']} queries, max cells {sweep2d['max_cells']} "
          f"({sweep2d['seconds']:.1f}s, target <120s)")


def test_criterion_3_step_count_bounds(sweep1d, sweep2d):
    """access1 runs exactly ceil(log_tau n)+1 mapping steps; access2 at most
    ceil(log_tau r)+ceil(log_tau c)+2 iterations, on every sweep query."""
    assert sweep1d["step_errors"] == 0
    assert sweep2d["step_errors"] == 0
    total = sweep1d["queries"] + sweep2d["queries"]
    _report(f"PASS criterion 3: step bounds held on all {total} queries "
          f"(1D exact count, 2D within bound)")


def test_criterion_4_size_bounds(sweep1d, sweep2d):
    """Stored bookmarks <= 2|V|tau(L+1) in 1D and 4|V|tau^2(L+1)^2 in 2D."""
    assert sweep1d["entry_bound_errors"] == 0
    assert sweep2d["entry_bound_errors"] == 0
    builds = N_GRAMMARS * len(TAUS) * 2
    _report(f"PASS criterion 4: bookmark-count bounds held on {builds} index builds")


def test_criterion_5_per_step_contracts(sweep1d, sweep2d):
    """delta' <= tau**p per 1D step; the contraction disjunction per 2D step.

    Both contracts are asserted inside the query loops on every mapping step
    (access1_traced / access2_traced), so the sweeps above already executed
    them; this test certifies the asserts were live.
    """
    if not __debug__:
        pytest.fail("run the suite without -O so in-loop contracts are checked")
    assert sweep1d["mismatches"] == 0 and sweep2d["mismatches"] == 0
    total = sweep1d["queries"] + sweep2d["queries"]
    _report(f"PASS criterion 5: per-step contracts asserted in-loop on {total} "
          f"queries, zero violations")


def test_criterion_6_hook_lemmas():
    """Window relocation contracts, exhaustively on small corpus grammars.

    1D: every variable of 30 grammars (text lengths <= 2**10 by corpus
    construction), every window: the window reappears at the stored offset
    inside the hook, width-1 windows land on literals, larger windows
    straddle the hook's split. 2D: same over all four bullet conclusions
    including offset monotonicity, on 25 grammars (<= 2**12 cells by corpus
    construction).
    """
    t0 = time.perf_counter()
    windows_1d = 0
    for i in range(30):
        g = random_slp1(3_000_000 + i, random.Random(i).randint(1, 20),
                        sigma=3, max_len=64)
        exps = expand_all_1d(g)
        for nid in range(len(g.rules)):
            w = exps[nid]
            m = len(w)
            for b in range(m):
                for e in range(b + 1, m + 1):
                    hook, offset = hook_offset1(g, nid, b, e)
                    h = exps[hook]
                    assert w[b:e] == h[offset:offset + (e - b)]
                    assert offset <= b
                    if e - b == 1:
                        assert exp_len(g, hook) == 1
                    else:
                        l = exp_len(g, g.rules[hook][0])
                        assert offset < l < offset + (e - b)
                    windows_1d += 1

    windows_2d = 0
    for i in range(25):
        g = random_slp2(4_000_000 + i, random.Random(i).randint(1, 18),
                        sigma=3, max_cells=256)
        exps = expand_all_2d(g)
        for nid in range(len(g.rules)):
            w = exps[nid]
            for b_r in range(w.rows):
                for e_r in range(b_r + 1, w.rows + 1):
                    for b_c in range(w.cols):
                        for e_c in range(b_c + 1, w.cols + 1):
                            hook, offset_r, offset_c = hook_offset2(g, nid, b_r, b_c, e_r, e_c)
                            h = exps[hook]
                            assert submatrix(w, b_r, e_r, b_c, e_c) == submatrix(
                                h, offset_r, offset_r + (e_r - b_r),
                                offset_c, offset_c + (e_c - b_c))
                            assert offset_r <= b_r and offset_c <= b_c
                            rule = g.rules[hook]
                            if e_r - b_r == 1 and e_c - b_c == 1:
                                assert isinstance(rule, int)
                            else:
                                from gridgram import Horiz
                                assert not isinstance(rule, int)
                                x = rule.children[0]
                                if isinstance(rule, Horiz):
                                    l = dims(g, x)[0]
                                    assert offset_r < l < offset_r + (e_r - b_r)
                                else:
                                    l = dims(g, x)[1]
                                    assert offset_c < l < offset_c + (e_c - b_c)
                            windows_2d += 1
    _report(f"PASS criterion 6: hook contracts exact on {windows_1d} 1D and "
          f"{windows_2d} 2D exhaustive windows "
          f"({time.perf_counter() - t0:.1f}s, target <60s)")


def test_criterion_7_ov_reduction(ov_figure_vectors):
    """The worked instance reproduces the published shape exactly, and 300
    random instances agree with brute force through the full pipeline."""
    t0 = time.perf_counter()
    pm = ov_to_pm(OvInstance(ov_figure_vectors))
    t = expand2(pm.grammar)
    assert pm.pattern.cells == [1, 0, 0, 1]
    assert (t.rows, t.cols) == (5, 20)
    assert grammar_size2(pm.grammar) == 47
    assert row_pattern_occurs(t, pm.pattern) == 1

    yes = no = 0
    rng = random.Random(5_000_000)
    for _ in range(300):
        n, d = rng.randint(1, 12), rng.randint(1, 10)
        vecs = tuple(tuple(rng.randrange(2) for _ in range(d)) for _ in range(n))
        want = ov_brute(vecs)
        uni = uniform_ov(OvInstance(vecs))
        assert ov_brute(uni.vectors) == want
        assert all(sum(v) == d for v in uni.vectors)
        pm = ov_to_pm(uni)
        assert grammar_size2(pm.grammar) == 2 + (pm.d + 1) * pm.n + (pm.l + 2) * pm.n
        got = row_pattern_occurs(expand2(pm.grammar), pm.pattern)
        assert got == want
        yes += want
        no += 1 - want
    assert yes > 0 and no > 0
    _report(f"PASS criterion 7: figure instance exact; 300 random instances "
          f"({yes} positive, {no} negative) agree with brute force "
          f"({time.perf_counter() - t0:.1f}s, target <30s)")


def test_criterion_8_marking_reductions():
    """200 random SLPs: marking grammars expand to the direct matrices;
    the rank and occurrence adapters match the oracles over exhaustive
    (j,c) and (b,e,c); the alphabet reduction round-trips queries for
    declared alphabets up to n**2."""
    t0 = time.perf_counter()
    rank_q = occ_q = 0
    rng = random.Random(6_000_000)
    for i in range(200):
        sigma = rng.randint(1, 8)
        n_target = rng.choice((4, 6, 8, 12, 16, 24, 32, 44, 64, 96, 128))
        g = random_slp1(6_100_000 + i, rng.randint(2, 40),
                        sigma=sigma, max_len=n_target)
        text = expand1(g)
        n = len(text)

        marking = mark_all_chars(text, sigma)
        assert expand2(mark_grammar(g, sigma)) == marking
        ls = lambda e_r, e_c, l: line_sum(marking, e_r, e_c, l)
        for c in range(sigma):
            for j in range(n + 1):
                assert rank_via_line_sum(ls, None, j, c) == rank(text, j, c)
                rank_q += 1

        if n >= 2:
            ext = ext_mark_all_chars(text, sigma)
            assert expand2(ext_mark_grammar(g, sigma)) == ext
            saz = lambda e_r, e_c, l: square_all_zero(ext, e_r, e_c, l)
            for c in range(sigma):
                for b in range(n + 1):
                    for e in range(n + 1):
                        assert occurs_via_square_all_zero(saz, None, b, e, c, n) == \
                            occurs(text, b, e, c)
                        occ_q += 1

    # alphabet reduction round-trip with declared sigma up to n**2
    amap_checks = 0
    for i in range(25):
        inner = random.Random(6_200_000 + i)
        n_target = inner.randint(4, 32)
        base = random_slp1(6_300_000 + i, inner.randint(2, 25),
                           sigma=4, max_len=n_target)
        text0 = expand1(base)
        n = len(text0)
        sigma_hat = n * n
        spread = {c: inner.randrange(sigma_hat) for c in range(4)}
        rules = [r if not isinstance(r, int) else spread[r] for r in base.rules]
        g = validate_slp1(Slp1(rules, sigma_hat, base.start))
        text = expand1(g)
        reduced, amap = alphabet_reduce(g)
        marking = expand2(mark_grammar(reduced, len(amap)))
        ls = lambda e_r, e_c, l: line_sum(marking, e_r, e_c, l)
        ext = expand2(ext_mark_grammar(reduced, len(amap))) if n >= 2 else None
        saz = (lambda e_r, e_c, l: square_all_zero(ext, e_r, e_c, l)) if ext else None
        probe = set(text) | {inner.randrange(sigma_hat) for _ in range(10)}
        for c in probe:
            for j in range(n + 1):
                assert rank_via_line_sum(ls, amap, j, c) == rank(text, j, c)
                amap_checks += 1
            if saz:
                for b in range(n + 1):
                    for e in range(b, n + 1):
                        assert occurs_via_square_all_zero(saz, amap, b, e, c, n) == \
                            occurs(text, b, e, c)
                        amap_checks += 1
    _report(f"PASS criterion 8: marking grammars exact on 200 SLPs; "
          f"{rank_q} rank and {occ_q} occurrence adapter queries equal the "
          f"oracles; {amap_checks} alphabet-reduced queries round-trip "
          f"({time.perf_counter() - t0:.1f}s, target <60s)")


def test_criterion_9_query_adapter_chains():
    """100 random binary matrices, exhaustive origin pairs: the LCE and
    all-zero adapters equal their oracles with bounded provider calls."""
    t0 = time.perf_counter()
    pair_checks = saz_checks = 0
    rng = random.Random(7_000_000)
    for i in range(100):
        r, c = rng.randint(1, 10), rng.randint(1, 10)
        m = random_matrix(7_100_000 + i, r, c, sigma=2)
        n = max(r, c)
        budget = (n + 1 - 1).bit_length() + 1  # ceil(log2(n+1)) + 1
        for b_r in range(1, r + 1):
            for b_c in range(1, c + 1):
                for b2_r in range(1, r + 1):
                    for b2_c in range(1, c + 1):
                        ll = CountingProvider(lambda *a: line_lce(m, *a))
                        got = square_lce_via_line_lce(ll, r, c, b_r, b_c, b2_r, b2_c)
                        assert got == square_lce(m, b_r, b_c, b2_r, b2_c)
                        assert ll.calls <= budget
                        l = min(r - b_r + 1, r - b2_r + 1)
                        eq = CountingProvider(lambda *a: equal_rect(m, *a))
                        got = line_lce_via_equality(eq, r, c, b_r, b_c, b2_r, b2_c, l)
                        assert got == line_lce(m, b_r, b_c, b2_r, b2_c, l)
                        assert eq.calls <= budget
                        pair_checks += 1
        padded, make_adapter = square_all_zero_via_square_lce(grammar_from_matrix(m))
        pm = expand2(padded)
        saz = make_adapter(lambda *a: square_lce(pm, *a))
        for e_r in range(r + 1):
            for e_c in range(c + 1):
                for l in range(min(e_r, e_c) + 1):
                    assert saz(e_r, e_c, l) == square_all_zero(m, e_r, e_c, l)
                    saz_checks += 1
    _report(f"PASS criterion 9: adapter chains exact on {pair_checks} origin "
          f"pairs and {saz_checks} padded all-zero queries, provider calls "
          f"within ceil(log2(n+1))+1 ({time.perf_counter() - t0:.1f}s, target <60s)")


def test_criterion_10_conversion_fidelity():
    """SLG->SLP conversions preserve expansions at <= 3x size, and every
    binary output respects the dimension <= 2**size sanity bound."""
    t0 = time.perf_counter()
    checked = 0
    for i in range(120):
        rng = random.Random(8_000_000 + i)
        g = random_slg1(8_100_000 + i, rng.randint(1, 30), sigma=rng.randint(1, 6),
                        max_arity=5, max_len=4096)
        slp = slg_to_slp(g)
        assert slp.is_binary
        assert expand1(slp) == expand1(g)
        assert grammar_size1(slp) <= 3 * grammar_size1(g)
        assert exp_len(slp, slp.start) <= 1 << grammar_size1(slp)
        checked += 1
    for i in range(120):
        rng = random.Random(8_200_000 + i)
        g = random_slg2(8_300_000 + i, rng.randint(1, 30), sigma=rng.randint(1, 6),
                        max_arity=5, max_cells=4096)
        slp = slg2_to_slp2(g)
        assert slp.is_binary
        assert expand2(slp) == expand2(g)
        assert grammar_size2(slp) <= 3 * grammar_size2(g)
        r, c = dims(slp, slp.start)
        assert max(r, c) <= 1 << grammar_size2(slp)
        checked += 1
    _report(f"PASS criterion 10: conversions exact on {checked} grammars, size "
          f"factor <= 3, min-size assertions never fired "
          f"({time.perf_counter() - t0:.1f}s, target <30s)")
