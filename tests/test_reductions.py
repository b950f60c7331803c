"""Reduction constructions and query adapters against the naive oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gridgram import (
    EmptyLanguage,
    ExtRequiresLengthTwo,
    Horiz,
    Matrix2D,
    NonUniformInstance,
    Slg1,
    Slg2,
    Slp1,
    Vert,
    dims,
    exp_len,
    expand1,
    expand2,
    grammar_size1,
    grammar_size2,
    validate_slg1,
    validate_slg2,
    validate_slp1,
)
from gridgram import slg
from gridgram.errors import RangeError
from gridgram.gen import grammar_from_matrix, random_matrix, random_slp1, random_string
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
    dump_ov,
    ext_mark_all_chars,
    ext_mark_grammar,
    line_lce_via_equality,
    mark_all_chars,
    mark_char,
    mark_grammar,
    occurs_via_square_all_zero,
    ov_to_pm,
    pad_with_zero_block,
    parse_ov,
    rank_via_line_sum,
    square_all_zero_via_square_lce,
    square_lce_via_line_lce,
    uniform_ov,
)
from conftest import CountingProvider, hconcat
from test_expand import grammars2
from test_slg import assert_caches_of_a_fresh_validation, raw_grammars


# -- orthogonal vectors -------------------------------------------------------

def test_uniform_ov_formula():
    u = uniform_ov(OvInstance(((1, 0),)))
    assert u.vectors == ((1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0))


def test_uniform_ov_counts_and_ones():
    inst = OvInstance(((1, 1, 0), (0, 0, 0), (1, 0, 1)))
    u = uniform_ov(inst)
    assert u.n == 2 * inst.n and u.d == 3 * inst.d
    assert all(sum(v) == inst.d for v in u.vectors)


def test_uniform_ov_preserves_answer():
    rng = random.Random(31)
    for _ in range(200):
        n, d = rng.randint(1, 10), rng.randint(1, 8)
        vecs = tuple(tuple(rng.randrange(2) for _ in range(d)) for _ in range(n))
        inst = OvInstance(vecs)
        assert ov_brute(vecs) == ov_brute(uniform_ov(inst).vectors)


def test_uniform_ov_exhaustive_tiny_instances():
    """Both directions of the answer-preservation claim over every instance
    with up to 3 vectors in up to 3 dimensions."""
    from itertools import combinations_with_replacement, product

    checked = 0
    for d in (1, 2, 3):
        space = list(product((0, 1), repeat=d))
        for n in (1, 2, 3):
            for vecs in combinations_with_replacement(space, n):
                inst = OvInstance(tuple(vecs))
                u = uniform_ov(inst)
                assert ov_brute(inst.vectors) == ov_brute(u.vectors)
                assert all(sum(v) == d for v in u.vectors)
                checked += 1
    assert checked == sum(
        len(list(combinations_with_replacement(range(2 ** d), n)))
        for d in (1, 2, 3) for n in (1, 2, 3))


def test_ov_to_pm_figure_instance(ov_figure_vectors):
    pm = ov_to_pm(OvInstance(ov_figure_vectors))
    assert pm.pattern.cells == [1, 0, 0, 1]
    t = expand2(pm.grammar)
    assert (t.rows, t.cols) == (5, 20)
    assert grammar_size2(pm.grammar) == 47
    assert grammar_size2(pm.grammar) == 2 + (pm.d + 1) * pm.n + (pm.l + 2) * pm.n
    assert row_pattern_occurs(t, pm.pattern) == 1


def test_ov_to_pm_figure_text_exact(ov_figure_vectors):
    """The worked example's full 5 x 20 text, frozen cell for cell."""
    pm = ov_to_pm(OvInstance(ov_figure_vectors))
    t = expand2(pm.grammar)
    want = ["11111101101110111101",
            "11011111110110011101",
            "10111011111110111001",
            "10111001101111111011",
            "11011101100111011111"]
    assert ["".join(str(v) for v in t.row(i)) for i in range(1, 6)] == want


def test_ov_to_pm_figure_zero_blocks(ov_figure_vectors):
    """The four highlighted all-zero runs sit exactly where the worked
    example places them: one per ordered orthogonal pair, inside the group
    of the left vector at the row of the right vector."""
    pm = ov_to_pm(OvInstance(ov_figure_vectors))
    t = expand2(pm.grammar)
    highlighted = [(4, 6), (5, 10), (2, 14), (3, 18)]  # (row, first zero col)
    for row, col in highlighted:
        assert t.get(row, col) == 0 and t.get(row, col + 1) == 0
        assert t.get(row, col - 1) == 1 and t.get(row, col + 2) == 1
    # pattern occurrences are exactly the highlighted spots
    spots = {(i, j) for i in range(1, t.rows + 1)
             for j in range(1, t.cols - 2)
             if [t.get(i, j + k) for k in range(4)] == [1, 0, 0, 1]}
    assert spots == {(r, c - 1) for (r, c) in highlighted}


def test_ov_to_pm_no_orthogonal_pair():
    pm = ov_to_pm(OvInstance(((1, 1), (1, 1))))
    assert row_pattern_occurs(expand2(pm.grammar), pm.pattern) == 0


def test_ov_to_pm_requires_uniform_ones():
    with pytest.raises(NonUniformInstance):
        ov_to_pm(OvInstance(((1, 0), (1, 1))))
    with pytest.raises(NonUniformInstance):
        ov_to_pm(OvInstance(((0, 0), (0, 0))))


def test_ov_to_pm_random_equivalence():
    rng = random.Random(37)
    for _ in range(60):
        n, d = rng.randint(1, 8), rng.randint(1, 6)
        vecs = tuple(tuple(rng.randrange(2) for _ in range(d)) for _ in range(n))
        inst = uniform_ov(OvInstance(vecs))
        pm = ov_to_pm(inst)
        assert dims(pm.grammar, pm.grammar.start) == (inst.n, (pm.l + 2) * inst.n)
        assert row_pattern_occurs(expand2(pm.grammar), pm.pattern) == ov_brute(vecs)


def _ov_text_direct(inst):
    """The target text assembled cell by cell from its definition: per vector,
    a ones column, the input-matrix columns at that vector's one-positions,
    then another ones column, all concatenated horizontally."""
    n = inst.n
    ones = Matrix2D(n, 1, [1] * n)
    col = lambda i: Matrix2D(n, 1, [vec[i] for vec in inst.vectors])
    acc = None
    for vec in inst.vectors:
        group = ones
        for i, b in enumerate(vec):
            if b:
                group = hconcat(group, col(i))
        group = hconcat(group, ones)
        acc = group if acc is None else hconcat(acc, group)
    return acc


def test_ov_to_pm_text_matches_direct_construction(ov_figure_vectors):
    rng = random.Random(29)
    instances = [OvInstance(ov_figure_vectors)]
    for _ in range(40):
        n, d = rng.randint(1, 7), rng.randint(1, 6)
        vecs = tuple(tuple(rng.randrange(2) for _ in range(d)) for _ in range(n))
        instances.append(uniform_ov(OvInstance(vecs)))
    for inst in instances:
        pm = ov_to_pm(inst)
        assert expand2(pm.grammar) == _ov_text_direct(inst)


def test_ov_file_roundtrip(ov_figure_vectors):
    inst = OvInstance(ov_figure_vectors)
    assert parse_ov(dump_ov(inst)) == inst


def test_ov_file_skips_blank_lines_and_spaces():
    plain = "101\n011\n110\n"
    loose = "\n1 0 1\n   \n\n 0 11 \n\t\n1  1  0\n\n"
    assert parse_ov(loose) == parse_ov(plain) == OvInstance(((1, 0, 1), (0, 1, 1), (1, 1, 0)))


# -- marking matrices ---------------------------------------------------------

def test_mark_char_examples():
    assert mark_char([0, 1, 0], 0).cells == [1, 0, 1]
    assert mark_char([0, 1, 0], 1).cells == [0, 1, 0]
    assert mark_char([0, 1, 0], 7).cells == [0, 0, 0]


def test_mark_all_chars_example():
    assert mark_all_chars([0, 1, 0], 2).to_rows() == [[1, 0, 1], [0, 1, 0]]


def test_ext_mark_all_chars_example():
    assert ext_mark_all_chars([0, 1], 2).to_rows() == [[1, 0], [0, 0], [0, 1], [0, 0]]
    with pytest.raises(ExtRequiresLengthTwo):
        ext_mark_all_chars([0], 2)


def test_mark_all_chars_concatenation_identity():
    rng = random.Random(41)
    for _ in range(40):
        sigma = rng.randint(1, 6)
        t = random_string(rng.randrange(2**32), rng.randint(2, 30), sigma=sigma)
        cut = rng.randint(1, len(t) - 1)
        whole = mark_all_chars(t, sigma)
        parts = hconcat(mark_all_chars(t[:cut], sigma), mark_all_chars(t[cut:], sigma))
        assert whole == parts


def test_mark_grammar_ab():
    g = validate_slp1(Slp1([(1, 2), 0, 1], 2, 0))
    assert expand2(mark_grammar(g, 2)).to_rows() == [[1, 0], [0, 1]]


def test_ext_mark_grammar_ab():
    g = validate_slp1(Slp1([(1, 2), 0, 1], 2, 0))
    assert expand2(ext_mark_grammar(g, 2)).to_rows() == [[1, 0], [0, 0], [0, 1], [0, 0]]


def test_marking_grammars_follow_reachability():
    """Only the text's codes are checked against sigma, and a variable the
    start does not reach gets no rule; here literal 3 (code 5) is
    unreachable, and the text is [0, 1]."""
    g = validate_slp1(Slg1([(1, 2), 0, 1, 5], 6, 0))
    mg, eg = mark_grammar(g, 2), ext_mark_grammar(g, 2)
    assert expand2(mg) == mark_all_chars(expand1(g), 2)
    assert expand2(eg) == ext_mark_all_chars(expand1(g), 2)
    assert all(mg._reach) and all(eg._reach)     # every rule lies under the start
    for seed in range(40):      # random SLPs with unreachable rules, sigma just above the text
        g = random_slp1(seed, 30, sigma=6, max_len=64)
        text = expand1(g)
        sigma = max(text) + 1
        assert expand2(mark_grammar(g, sigma)) == mark_all_chars(text, sigma)
        if len(text) >= 2:
            assert expand2(ext_mark_grammar(g, sigma)) == ext_mark_all_chars(text, sigma)


def test_ext_mark_grammar_needs_length_two():
    g = validate_slp1(Slp1([0], 1, 0))
    with pytest.raises(ExtRequiresLengthTwo):
        ext_mark_grammar(g, 1)


def test_marking_grammars_random_equality_and_size():
    rng = random.Random(43)
    for _ in range(60):
        sigma = rng.randint(1, 8)
        g = random_slp1(rng.randrange(2**32), rng.randint(2, 25),
                        sigma=sigma, max_len=64)
        text = expand1(g)
        mg = mark_grammar(g, sigma)
        assert expand2(mg) == mark_all_chars(text, sigma)
        assert grammar_size2(mg) <= 6 * (grammar_size1(g) + sigma)
        if len(text) >= 2:
            eg = ext_mark_grammar(g, sigma)
            assert expand2(eg) == ext_mark_all_chars(text, sigma)
            assert grammar_size2(eg) <= 8 * (grammar_size1(g) + sigma)


def test_every_rule_lists_a_child():
    """Validation refuses a rule with no children in either dimension, and
    the marking grammars build none: a code in the top or bottom row has
    no zero run on that side, not an empty one."""
    with pytest.raises(EmptyLanguage):
        validate_slg1(Slg1([(1,), ()], 2, 0))
    with pytest.raises(EmptyLanguage):
        validate_slg2(Slg2([Vert(1), Horiz(), 0], 1, 0))
    for sigma in range(1, 6):
        g = random_slp1(sigma, 12, sigma=sigma, max_len=64)
        for make in (mark_grammar, ext_mark_grammar):
            mg = make(g, sigma)
            assert all(isinstance(r, int) or r.children for r in mg.rules)
        # g's reachable rules, the two literals, sigma - 2 zero runs and sigma columns
        assert len(mark_grammar(g, sigma).rules) == sum(g._reach) + 2 + max(sigma - 2, 0) + sigma


def test_ext_mark_grammar_power_of_two_lengths():
    # n - 1 a power of two exercises the top of the doubling chain
    for n_exp in (1, 2, 3, 4):
        n = (1 << n_exp) + 1
        rules = [(i + 1, i + 2) for i in range(n - 2)] + [0, 0]
        # build a left chain of exactly n literals
        rules = []
        for i in range(n - 1):
            rules.append((n - 1 + i, i + 1) if i < n - 2 else (n - 1 + i, 2 * n - 2))
        rules.extend([0] * n)
        g = validate_slp1(Slp1(rules, 1, 0))
        text = expand1(g)
        assert len(text) == n
        eg = ext_mark_grammar(g, 1)
        assert expand2(eg) == ext_mark_all_chars(text, 1)


# -- alphabet reduction -------------------------------------------------------

def test_alphabet_reduce_example():
    # "acac" over a wide alphabet using codes {0, 2}
    g = validate_slp1(Slp1([(1, 1), (2, 3), 0, 2], 100, 0))
    reduced, amap = alphabet_reduce(g)
    assert amap == {0: 0, 2: 1} and list(amap) == [0, 2]
    assert reduced.alphabet_size == 2
    assert expand1(reduced) == [0, 1, 0, 1]


def test_alphabet_reduce_identity_on_dense():
    g = validate_slp1(Slp1([(1, 2), 0, 1], 2, 0))
    reduced, amap = alphabet_reduce(g)
    assert amap == {0: 0, 1: 1} and list(amap) == [0, 1]
    assert expand1(reduced) == expand1(g)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), rules=st.integers(1, 40), sigma=st.integers(1, 9))
def test_alphabet_reduce_keeps_arrays_equal_to_a_fresh_validation(seed, rules, sigma):
    """The relabeled conversion's cached arrays (child lists, reachability,
    heights, order, lengths, move records) equal those validate_slp1 gives
    a fresh grammar with the same rules."""
    reduced, amap = alphabet_reduce(random_slp1(seed, rules, sigma=sigma, max_len=300))
    fresh = validate_slp1(Slp1(reduced.rules, len(amap), reduced.start))
    assert reduced.alphabet_size == len(amap) and reduced.validated
    for name in ("_kids", "_reach", "_height", "_topo", "_lens", "_moves"):
        assert getattr(reduced, name) == getattr(fresh, name), name


def test_alphabet_reduce_prunes_unreachable():
    g = validate_slp1(Slp1([(1, 2), 3, 5, 9], 10, 0))  # literal 9 unreachable
    reduced, amap = alphabet_reduce(g)
    assert amap == {3: 0, 5: 1} and list(amap) == [3, 5]
    assert len(reduced.rules) == 3


def test_absent_code_answers_zero_without_provider():
    boom = CountingProvider(lambda *a: 1 / 0)
    assert rank_via_line_sum(boom, {1: 0, 3: 1}, 5, 2) == 0
    assert occurs_via_square_all_zero(boom, {1: 0, 3: 1}, 0, 4, 2, 5) == 0
    assert boom.calls == 0


# -- rank / occurrence adapters -----------------------------------------------

def test_rank_via_line_sum_example():
    text = [0, 1, 0]
    marking = mark_all_chars(text, 2)
    provider = lambda e_r, e_c, l: line_sum(marking, e_r, e_c, l)
    assert rank_via_line_sum(provider, None, 3, 0) == 2


def test_occurs_via_square_all_zero_example():
    text = [0, 1]
    marking = ext_mark_all_chars(text, 2)
    provider = lambda e_r, e_c, l: square_all_zero(marking, e_r, e_c, l)
    assert square_all_zero(marking, 4, 1, 1) == 1
    assert occurs_via_square_all_zero(provider, None, 0, 1, 1, 2) == 0
    assert occurs_via_square_all_zero(provider, None, 1, 1, 0, 2) == 0  # empty range


def test_rank_occurs_adapters_exhaustive_sweep():
    rng = random.Random(47)
    for _ in range(25):
        sigma = rng.randint(1, 8)
        n = rng.randint(2, 24)
        text = random_string(rng.randrange(2**32), n, sigma=sigma)
        marking = mark_all_chars(text, sigma)
        ext = ext_mark_all_chars(text, sigma)
        ls = CountingProvider(lambda e_r, e_c, l: line_sum(marking, e_r, e_c, l))
        saz = CountingProvider(lambda e_r, e_c, l: square_all_zero(ext, e_r, e_c, l))
        for c in range(sigma):
            for j in range(n + 1):
                before = ls.calls
                assert rank_via_line_sum(ls, None, j, c) == rank(text, j, c)
                assert ls.calls == before + 1
            for b in range(n + 1):
                for e in range(n + 1):
                    assert occurs_via_square_all_zero(saz, None, b, e, c, n) == \
                        occurs(text, b, e, c)


def test_adapters_through_alphabet_map_and_grammars():
    """Full chain: sparse-alphabet SLP -> alphabet reduction -> marking
    grammar -> oracle provider -> adapter answers = direct oracle answers.
    The last text, 1,024 symbols long, has line sums crossing the one-byte
    sum's 256-cell chunks; its extended marking matrix (sigma n x n cells)
    is left out."""
    rng = random.Random(53)
    grammars = [random_slp1(rng.randrange(2**32), rng.randint(2, 15), sigma=60, max_len=48)
                for _ in range(12)]
    grammars.append(random_slp1(5, 80, sigma=60, max_len=1024))
    assert len(expand1(grammars[-1])) == 1024
    for g in grammars:
        text = expand1(g)
        sigma = 60
        reduced, amap = alphabet_reduce(g)
        marking = expand2(mark_grammar(reduced, len(amap)))
        ls = lambda e_r, e_c, l: line_sum(marking, e_r, e_c, l)
        n = len(text)
        ext = expand2(ext_mark_grammar(reduced, len(amap))) if 2 <= n <= 48 else None
        saz = (lambda e_r, e_c, l: square_all_zero(ext, e_r, e_c, l)) if ext else None
        codes = set(text) | {0, 7, sigma - 1}
        for c in codes:
            for j in range(n + 1):
                assert rank_via_line_sum(ls, amap, j, c) == rank(text, j, c)
            if saz:
                for b in range(n + 1):
                    for e in range(b, n + 1):
                        assert occurs_via_square_all_zero(saz, amap, b, e, c, n) == \
                            occurs(text, b, e, c)


# -- LCE / all-zero adapter chains ---------------------------------------------

def test_square_lce_via_line_lce_example():
    m = Matrix2D(2, 2, [0, 1, 0, 1])
    provider = lambda br, bc, br2, bc2, l: line_lce(m, br, bc, br2, bc2, l)
    assert square_lce_via_line_lce(provider, 2, 2, 1, 1, 2, 1) == \
        square_lce(m, 1, 1, 2, 1) == 1


def test_line_lce_via_equality_identical_origins():
    m = Matrix2D(2, 3, [0, 1, 0, 1, 1, 0])
    provider = lambda br, bc, br2, bc2, h, w: equal_rect(m, br, bc, br2, bc2, h, w)
    assert line_lce_via_equality(provider, 2, 3, 1, 1, 1, 1, 2) == 3


def test_lce_adapters_random_sweep_with_call_counts():
    rng = random.Random(59)
    for _ in range(40):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = random_matrix(rng.randrange(2**32), r, c, sigma=2)
        n = max(r, c)
        budget = (n + 1).bit_length() + 1    # ceil(log2(n+1)) + 1 slack
        for b_r in range(1, r + 1):
            for b_c in range(1, c + 1):
                for b2_r in range(1, r + 1):
                    for b2_c in range(1, c + 1):
                        ll = CountingProvider(
                            lambda *a: line_lce(m, *a))
                        got = square_lce_via_line_lce(ll, r, c, b_r, b_c, b2_r, b2_c)
                        assert got == square_lce(m, b_r, b_c, b2_r, b2_c)
                        assert ll.calls <= budget
                        l = min(r - b_r + 1, r - b2_r + 1)
                        eq = CountingProvider(
                            lambda *a: equal_rect(m, *a))
                        got = line_lce_via_equality(eq, r, c, b_r, b_c, b2_r, b2_c, l)
                        assert got == line_lce(m, b_r, b_c, b2_r, b2_c, l)
                        assert eq.calls <= budget


def test_pad_with_zero_block_structure():
    m = Matrix2D(2, 3, [1, 0, 1, 0, 1, 1])
    g = grammar_from_matrix(m)
    padded = pad_with_zero_block(g)
    pm = expand2(padded)
    assert (pm.rows, pm.cols) == (2, 6)
    assert [row[:3] for row in pm.to_rows()] == m.to_rows()
    assert all(v == 0 for row in pm.to_rows() for v in row[3:])
    # padding adds only a logarithmic number of rules
    assert grammar_size2(padded) <= grammar_size2(g) + 4 * (
        m.rows.bit_length() + m.cols.bit_length()) + 6


def test_constructions_validate_only_the_grammar_they_make(monkeypatch):
    """Given a validated grammar, no construction validates anything: its
    output is valid by construction and carries the arrays the construction
    knows, so nothing is sorted. A raw input is still validated, once."""
    sorts = []
    toposort = slg._toposort
    monkeypatch.setattr(slg, "_toposort", lambda *a: sorts.append(1) or toposort(*a))
    grid = validate_slg2(grammar_from_matrix(Matrix2D(2, 3, [1, 0, 1, 0, 1, 1])))
    text = validate_slp1(random_slp1(3, 12, sigma=3, max_len=40))
    vectors = uniform_ov(OvInstance(((1, 0, 1), (0, 1, 0))))
    for build, g in ((pad_with_zero_block, grid), (square_all_zero_via_square_lce, grid),
                     (alphabet_reduce, text), (lambda g: mark_grammar(g, 3), text),
                     (lambda g: ext_mark_grammar(g, 3), text), (ov_to_pm, vectors)):
        del sorts[:]
        build(g)
        assert len(sorts) == 0
    pad_with_zero_block(grammar_from_matrix(Matrix2D(2, 3, [1, 0, 1, 0, 1, 1])))
    assert len(sorts) == 1


@st.composite
def constructions(draw):
    """The output of one construction: a padding of a raw or a validated 2D
    grammar, a marking grammar of an SLP with unreachable rules and a sigma
    past its codes, or the OV text of a uniform instance, some with every
    entry a 1."""
    kind = draw(st.sampled_from(["pad", "saz", "mark", "ext", "ov"]))
    if kind in ("pad", "saz"):
        g2 = draw(raw_grammars().filter(lambda g: isinstance(g, Slg2)) | grammars2())
        return pad_with_zero_block(g2) if kind == "pad" else square_all_zero_via_square_lce(g2)[0]
    if kind == "ov":
        d = draw(st.integers(1, 5))
        vecs = draw(st.lists(st.tuples(*[st.integers(0, 1)] * d), min_size=1, max_size=7))
        inst = OvInstance(tuple(vecs))
        if len(set(inst.ones_counts())) != 1 or 0 in inst.ones_counts():
            inst = uniform_ov(inst)
        return ov_to_pm(inst).grammar
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sigma = draw(st.integers(1, 4))
    text = random_slp1(rng, draw(st.integers(2, 30)), sigma=sigma, max_len=200)
    rules = list(text.rules) + [rng.randrange(sigma), (0, 0)]     # reached by nothing
    text = validate_slp1(Slp1(rules, sigma, text.start))
    sigma += draw(st.integers(0, 2))
    if kind == "mark":
        return mark_grammar(text, sigma)
    return ext_mark_grammar(text, sigma) if exp_len(text, text.start) >= 2 else mark_grammar(text, sigma)


@settings(max_examples=150, deadline=None)
@given(g2=constructions())
def test_construction_arrays_equal_a_fresh_validation(g2):
    """The child lists, reachability, heights, rows, columns and (no) move
    records equal validate_slg2's on a fresh grammar with the same rules,
    and the order is parents first."""
    assert g2.validated
    assert_caches_of_a_fresh_validation(g2, False, binary=False)


def test_ov_text_with_no_zero_reaches_no_literal_zero():
    """Every entry a 1: no column lists the literal 0, so it is unreachable."""
    pm = ov_to_pm(OvInstance(((1, 1), (1, 1))))
    assert pm.grammar._reach == [True, False, True, True, True, True]
    assert_caches_of_a_fresh_validation(pm.grammar, False, binary=False)


def test_square_all_zero_via_square_lce_sweep():
    rng = random.Random(61)
    for _ in range(25):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng.randrange(2**32), r, c, sigma=2)
        g = grammar_from_matrix(m)
        padded, make_adapter = square_all_zero_via_square_lce(g)
        pm = expand2(padded)
        saz = make_adapter(lambda *a: square_lce(pm, *a))
        for e_r in range(r + 1):
            for e_c in range(c + 1):
                for l in range(min(e_r, e_c) + 1):
                    assert saz(e_r, e_c, l) == square_all_zero(m, e_r, e_c, l)


def test_composition_chain_occurs_down_to_equality():
    """occurs -> square all-zero -> square LCE (padded grammar) -> line LCE
    -> rectangle equality, every stage backed only by the stage below."""
    rng = random.Random(67)
    for _ in range(10):
        sigma = rng.randint(2, 5)
        g = random_slp1(rng.randrange(2**32), rng.randint(3, 12), sigma=sigma, max_len=20)
        text = expand1(g)
        n = len(text)
        if n < 2:
            continue
        reduced, amap = alphabet_reduce(g)
        ext_g = ext_mark_grammar(reduced, len(amap))
        padded, make_adapter = square_all_zero_via_square_lce(ext_g)
        pm = expand2(padded)
        pr, pc = pm.rows, pm.cols

        eq = lambda br, bc, br2, bc2, h, w: equal_rect(pm, br, bc, br2, bc2, h, w)
        ll = lambda br, bc, br2, bc2, l: line_lce_via_equality(eq, pr, pc, br, bc, br2, bc2, l)
        slce = lambda br, bc, br2, bc2: square_lce_via_line_lce(ll, pr, pc, br, bc, br2, bc2)
        saz = make_adapter(slce)

        for c in range(sigma + 2):
            for b in range(n + 1):
                for e in range(n + 1):
                    assert occurs_via_square_all_zero(saz, amap, b, e, c, n) == \
                        occurs(text, b, e, c)


def test_adapter_range_errors():
    m = Matrix2D(2, 2, [0, 0, 0, 0])
    provider = lambda *a: line_lce(m, *a)
    with pytest.raises(RangeError):
        square_lce_via_line_lce(provider, 2, 2, 0, 1, 1, 1)
    with pytest.raises(RangeError):
        line_lce_via_equality(lambda *a: 1, 2, 2, 1, 1, 1, 1, 5)
    with pytest.raises(RangeError):
        rank_via_line_sum(lambda *a: 0, None, -1, 0)
    with pytest.raises(RangeError):
        occurs_via_square_all_zero(lambda *a: 0, None, 0, 9, 0, 5)


def _no_call(*args):
    raise AssertionError(f"provider called with {args!r}")


_SAZ = square_all_zero_via_square_lce(grammar_from_matrix(Matrix2D(4, 4, [0] * 16)))[1](_no_call)
# per adapter: a call with one argument x, and the string and float forms of x
_ADAPTER_CALLS = {
    "rank_via_line_sum": (lambda x: rank_via_line_sum(_no_call, None, x, 0), "1", 1.0),
    "occurs_via_square_all_zero": (
        lambda x: occurs_via_square_all_zero(_no_call, None, x, 2, 0, 4), None, 1.0),
    "square_lce_via_line_lce": (
        lambda x: square_lce_via_line_lce(_no_call, 4, 4, x, 1, 1, 1), "1", 1.0),
    "line_lce_via_equality": (
        lambda x: line_lce_via_equality(_no_call, 4, 4, 1, 1, 1, 1, x), "2", 2.0),
    "square_all_zero_via_square_lce": (lambda x: _SAZ(x, 2, 1), "2", 2.0),
}


@pytest.mark.parametrize("form", [1, 2], ids=["str", "float"])
@pytest.mark.parametrize("name", list(_ADAPTER_CALLS))
def test_adapters_refuse_non_integer_arguments(name, form):
    """A string, None or float where an adapter takes an integer raises
    RangeError before any provider call, as the oracles do."""
    call = _ADAPTER_CALLS[name][0]
    with pytest.raises(RangeError, match="must be integers"):
        call(_ADAPTER_CALLS[name][form])


def test_ov_instance_refuses_what_is_no_list_of_vectors():
    with pytest.raises(RangeError, match="iterable of 0/1 vectors"):
        OvInstance(5)


@pytest.mark.parametrize("entry", [2, -1, "1", 0.5, 1.0, None, [1]])
def test_ov_instance_refuses_an_entry_that_is_no_bit(entry):
    """A float equal to 1 is refused too: uniform_ov and ov_to_pm take the
    ones counts as ints."""
    with pytest.raises(RangeError, match="vector entries must be 0 or 1"):
        OvInstance(((0, 1), (1, entry)))


@pytest.mark.parametrize("make, sigma", [
    (mark_grammar, 2.5), (ext_mark_grammar, 2.5), (mark_grammar, "2"),
], ids=["mark-float", "ext-mark-float", "mark-str"])
def test_marking_grammars_refuse_a_sigma_that_is_no_int(make, sigma):
    g = random_slp1(1, 10, 2, 50)
    with pytest.raises(RangeError, match="sigma must be an int >= 1"):
        make(g, sigma)


def square_all_zero_adapter(e_r, e_c, l):
    """The square-all-zero adapter of a 1 x 2 matrix, over a provider that
    must not be reached."""
    _, make = square_all_zero_via_square_lce(validate_slg2(Slg2([Vert(1, 1), 0], 1, 0)))
    return make(lambda *a: 1 / 0)(e_r, e_c, l)


@pytest.mark.parametrize("fn, args, match", [
    (mark_char, ([0, 1], -1), "non-negative"),
    (ext_mark_all_chars, ([0, 2], 2), "text codes"),
    (mark_grammar, (validate_slp1(Slg1([(1, 2), 0, 1], 2, 0)), 1), "grammar terminals"),
    (rank_via_line_sum, (lambda *a: 1 / 0, {2: 0}, 1, 2.0), "must be integers"),
    (line_lce_via_equality, (lambda *a: 1 / 0, 3, 3, 1, 1, 1, 1, 0), "height must be"),
    (line_lce_via_equality, (lambda *a: 1 / 0, 3, 3, 1, 4, 1, 1, 1), "origins outside"),
    (square_all_zero_adapter, (1, 1, -1), "square side"),
    (square_all_zero_adapter, (1, 3, 1), "square bounds"),
    (mark_char, ([0, 1], 1.5), "non-negative"),
    (mark_char, ([0, 1], "x"), "non-negative"),
    (mark_char, ([0, 1], None), "non-negative"),
    (mark_all_chars, ([0, 1], "x"), "sigma must be"),
    (mark_all_chars, ([0, 1], 2.5), "sigma must be"),
    (mark_all_chars, ([0, 1.5], 3), "text codes"),
    (ext_mark_all_chars, ([0, 1], "x"), "sigma must be"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_reduction_refusals_raise_range_error(fn, args, match):
    with pytest.raises(RangeError, match=match) as err:
        fn(*args)
    assert type(err.value) is RangeError
