"""CLI surface: every subcommand end to end, determinism, exit codes."""

import random
import sys

import pytest

from gridgram import (
    build_index1,
    build_index2,
    expand1,
    expand2,
    parse_slg1,
    parse_slg2,
    slg2_to_slp2,
    slg_to_slp,
    validate_slg1,
    validate_slg2,
)
from gridgram import cli
from gridgram.access1d import caps, ceil_log, decode_key1
from gridgram.cli import main
from gridgram.gen import random_matrix
from gridgram.oracle import rank
from gridgram.reductions import ext_mark_all_chars, mark_all_chars
from gridgram.slg import dump_slg1
from gridgram.slg2d import dump_matrix, dump_slg2
from conftest import comb1, kept, staircase2, zigzag1, zigzag2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def slp1_file(tmp_path, capsys):
    path = tmp_path / "g.slg1"
    code, _, _ = run(capsys, "gen", "slp1", "--rules", "18", "--seed", "4",
                     "--sigma", "3", "--max-len", "64", "-o", str(path))
    assert code == 0
    return path


@pytest.fixture
def slp2_file(tmp_path, capsys):
    path = tmp_path / "g.slg2"
    code, _, _ = run(capsys, "gen", "slp2", "--rules", "18", "--seed", "4",
                     "--sigma", "3", "--max-cells", "64", "-o", str(path))
    assert code == 0
    return path


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "gen", "slp2", "--rules", "30", "--seed", "9", "-o", str(a))
    run(capsys, "gen", "slp2", "--rules", "30", "--seed", "9", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    run(capsys, "gen", "slp2", "--rules", "30", "--seed", "10", "-o", str(b))
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("kind, flag, other", [
    ("slp1", "--max-len", "--max-cells"), ("slg1", "--max-len", "--max-cells"),
    ("slp2", "--max-cells", "--max-len"), ("slg2", "--max-cells", "--max-len"),
])
def test_gen_refuses_the_size_flag_its_kind_ignores(kind, flag, other, capsys):
    """The other dimension's size flag is refused in one line; with no size
    flag the generator's own default bound applies."""
    code, out, err = run(capsys, "gen", kind, "--rules", "20", other, "4")
    assert code == 1 and out == ""
    assert err.startswith("RangeError: ") and err.count("\n") == 1 and other in err
    make, bound, dump = cli._GEN[kind]
    code, out, _ = run(capsys, "gen", kind, "--rules", "20", "--seed", "5")
    assert code == 0 and out == dump(make(5, 20, sigma=4))
    code, out, _ = run(capsys, "gen", kind, "--rules", "20", "--seed", "5", flag, "16")
    assert code == 0 and out == dump(make(5, 20, sigma=4, **{bound: 16}))


def test_validate_ok_lines(slp1_file, slp2_file, capsys):
    code, out, _ = run(capsys, "validate", str(slp1_file))
    assert code == 0 and out.startswith("ok n=")
    code, out, _ = run(capsys, "validate", str(slp2_file))
    assert code == 0 and out.startswith("ok rows=") and "cols=" in out


def test_validate_cyclic_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.slg1"
    bad.write_text("SLG1 1 2\n0: N 0\nSTART 0\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1 and out == ""
    assert "CyclicGrammar" in err


def test_validate_bad_integer_field_is_one_line(tmp_path, capsys):
    for name, text in (("a.slg1", "SLG1 2 2\n0: N 1 x\n1: T 0\nSTART 0\n"),
                       ("b.slg1", "SLG1 1 2\n0: T 0\nSTART x\n"),
                       ("c.slg2", "SLG2 1 2\n0: L y\nSTART 0\n")):
        bad = tmp_path / name
        bad.write_text(text)
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("ParseError: ") and err.count("\n") == 1


def test_validate_empty_rule_is_one_line(tmp_path, capsys):
    """An H line without children is malformed, as an N line without
    children is in 1D."""
    bad = tmp_path / "empty.slg2"
    bad.write_text("SLG2 2 2\n0: H 1\n1: H\nSTART 0\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("ParseError: ") and err.count("\n") == 1


def test_bad_cap_is_one_line(slp1_file, slp2_file, tmp_path, capsys, monkeypatch):
    # GG_CAP_CELLS is the cap's one source: a --cap-cells flag, even a valid
    # one, is a usage error on every command the cap bounds
    inst = tmp_path / "v.ov"
    inst.write_text("101\n011\n")
    for argv in (("expand", str(slp2_file), "--cap-cells", "0"),
                 ("access", str(slp2_file), "1,1", "--cap-cells", "-4"),
                 ("ov", "gen", "3", "4", "--cap-cells", "12"),
                 ("ov", "uniform", str(inst), "--cap-cells", "36"),
                 ("ov", "solve", str(inst), "--cap-cells", "12"),
                 ("query", str(slp2_file), "sum", "1", "1", "1", "1", "--cap-cells", "64"),
                 ("reduce", "mark", str(slp1_file), str(tmp_path / "m"), "--cap-cells", "64"),
                 ("gen", "slp1", "--rules", "4", "--cap-cells", "64"),
                 ("bench", str(slp1_file), "--cap-cells", "4096")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2 and capsys.readouterr().out == "", argv
    for value in ("abc", "0"):
        monkeypatch.setenv("GG_CAP_CELLS", value)
        code, out, err = run(capsys, "expand", str(slp2_file))
        assert code == 1 and out == ""
        assert err.startswith("RangeError: GG_CAP_CELLS") and err.count("\n") == 1


def test_access_verify_mismatch_is_one_line(slp1_file, capsys, monkeypatch):
    def access1(ix, i):
        return -1

    monkeypatch.setattr(cli._DIM1, "access", access1)
    code, out, err = run(capsys, "access", str(slp1_file), "1", "--tau", "2", "--verify")
    assert code == 1 and out == ""
    assert err.startswith("GrammarError: verify mismatch") and err.count("\n") == 1


def test_access_verify_checks_the_tables(tmp_path, capsys, monkeypatch):
    """A corrupt slot the fast walk reads, block 0 of a state with its near
    and far children swapped, and access --verify refuses the index with a
    one-line diagnostic before the first answer, the slot's near code
    naming the hook's far child: on a 64-symbol zigzag at tau 2, in its
    first state, where plain access answers wrong at 46 positions, and on
    the 40-rule gen SLP (seed 5) at tau 2, in the state (13, left, 4),
    where access1 raises a bare IndexError at positions 53 and 155
    (``test_swapped_steps_are_refused_where_the_fast_walks_raise``)."""
    zig, gen = tmp_path / "zig.slg1", tmp_path / "gen.slg1"
    zig.write_text(dump_slg1(zigzag1(random.Random(1).choices(range(4), k=64))))
    code, _, _ = run(capsys, "gen", "slp1", "--rules", "40", "--seed", "5", "--sigma", "3",
                     "--max-len", "200", "-o", str(gen))
    assert code == 0
    for path, state, wrong, line in (
            (zig, (0, 0, 6), 46, "state 0, slot 0 names (1, 0), not its hook's child (63, 1)"),
            (gen, (13, 0, 4), None, "state 4, slot 0 names (8, 0), not its hook's child (7, 1)")):
        text = expand1(slg_to_slp(parse_slg1(path.read_text())))
        coords = [str(i) for i in range(1, len(text) + 1)]
        code, out, err = run(capsys, "access", str(path), *coords, "--tau", "2", "--verify")
        assert code == 0 and out.split() == [str(v) for v in text] and err == ""

        def build(slp, tau, cap):
            ix = build_index1(slp, tau, cap)
            slots = ix.states[{decode_key1(ix, key): j for key, j in ix.ids.items()}[state]][1]
            S, near, far = slots[0]
            slots[0] = (S, far, near)
            return ix

        monkeypatch.setattr(cli._DIM1, "build", build)
        if wrong:
            code, out, err = run(capsys, "access", str(path), *coords, "--tau", "2")
            assert code == 0 and sum(a != str(b) for a, b in zip(out.split(), text)) == wrong
        code, out, err = run(capsys, "access", str(path), *coords, "--tau", "2", "--verify")
        assert (code, out, err) == (1, "", f"PreconditionViolated: {line}\n")
        monkeypatch.undo()


def test_access_checks_epsilon_before_halving_it(slp2_file, capsys):
    code, out, err = run(capsys, "access", str(slp2_file), "1,1", "--epsilon", "-1")
    assert code == 1 and out == ""
    assert err == "RangeError: epsilon must be finite and > 0, got -1.0\n"
    code, out, err = run(capsys, "access", str(slp2_file), "1,1", "--epsilon", "5e-324",
                         "--verify")
    assert code == 0 and err == ""


def test_expand_matches_library(slp2_file, tmp_path, capsys):
    out_path = tmp_path / "m.mat"
    code, _, _ = run(capsys, "expand", str(slp2_file), "-o", str(out_path))
    assert code == 0
    g = validate_slg2(parse_slg2(slp2_file.read_text()))
    from gridgram import dump_matrix
    assert out_path.read_text() == dump_matrix(expand2(g))


def test_expand_cap_error(slp2_file, capsys, monkeypatch):
    monkeypatch.setenv("GG_CAP_CELLS", "1")
    code, out, err = run(capsys, "expand", str(slp2_file))
    assert code == 1 and "ExpansionTooLarge" in err


def test_access_1d_and_2d(slp1_file, slp2_file, capsys):
    g1 = validate_slg1(parse_slg1(slp1_file.read_text()))
    text = expand1(g1)
    code, out, _ = run(capsys, "access", str(slp1_file), "1", str(len(text)),
                       "--tau", "2", "--verify")
    assert code == 0
    assert [int(v) for v in out.split()] == [text[0], text[-1]]

    g2 = validate_slg2(parse_slg2(slp2_file.read_text()))
    m = expand2(g2)
    code, out, _ = run(capsys, "access", str(slp2_file), "1,1",
                       f"{m.rows},{m.cols}", "--tau", "3", "--verify")
    assert code == 0
    assert [int(v) for v in out.split()] == [m.get(1, 1), m.get(m.rows, m.cols)]


def test_access_out_of_range_line(slp2_file, capsys):
    code, out, err = run(capsys, "access", str(slp2_file), "999,999", "1,1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "ERR" and lines[1].isdigit()


def test_access_checks_the_coordinate_count(slp1_file, slp2_file, capsys):
    for path, coords, want in ((slp1_file, "1,5", 1), (slp2_file, "1,1,9", 2),
                               (slp2_file, "1", 2)):
        code, out, err = run(capsys, "access", str(path), coords, "1" if want == 1 else "1,1")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "ERR" and lines[1].isdigit()
        assert err == f"query {coords!r}: expected {want} coordinate(s), " \
                      f"got {len(coords.split(','))}\n"


def test_oversized_tau_is_clamped_or_refused_in_one_line(slp1_file, slp2_file, tmp_path, capsys,
                                                         monkeypatch):
    g1 = validate_slg1(parse_slg1(slp1_file.read_text()))
    m = expand2(validate_slg2(parse_slg2(slp2_file.read_text())))
    for argv, want in (((str(slp1_file), "3", "--tau", "100000000000"), [expand1(g1)[2]]),
                       ((str(slp1_file), "3", "--epsilon", "100"), [expand1(g1)[2]]),
                       ((str(slp2_file), "1,1", "--epsilon", "50"), [m.get(1, 1)])):
        code, out, err = run(capsys, "access", *argv, "--verify")
        assert (code, err) == (0, "") and [int(v) for v in out.split()] == want
    # the clamped builds are refused by the slots they make: 286 for the 1D
    # file at tau 64, and 94,445 for the 80-step zigzag at tau 41 (the 2D
    # file at its clamped tau builds none, so no cap refuses it)
    rng = random.Random(0)
    zigzag = tmp_path / "zigzag.slg2"
    zigzag.write_text(dump_slg2(zigzag2([rng.randrange(4) for _ in range(83)], 80)))
    monkeypatch.setenv("GG_CAP_CELLS", "99")
    for argv in (("access", str(slp1_file), "1", "--tau", "100000000000"),
                 ("access", str(zigzag), "1,1", "--epsilon", "50")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("ExpansionTooLarge: an index at tau ") and err.count("\n") == 1
    # bench's cap: over its 200 queries, under the 286 slots of the tau 64 build
    monkeypatch.setenv("GG_CAP_CELLS", "250")
    code, out, err = run(capsys, "bench", str(slp1_file), "--tau-list", "2,64", "--reps", "100")
    assert code == 1 and out == ""
    assert err.startswith("ExpansionTooLarge: an index at tau ") and err.count("\n") == 1
    # the queries bench makes count against the same cap, before it makes any
    code, out, err = run(capsys, "bench", str(slp1_file), "--tau-list", "2,3",
                         "--reps", str(10 ** 20))
    assert code == 1 and out == ""
    assert err.startswith("ExpansionTooLarge: --reps over --tau-list asks for ") \
        and err.count("\n") == 1


def refused(tau, cap):
    """The one stderr line of a build refused past the cap."""
    return (f"ExpansionTooLarge: an index at tau {tau} needs more table slots than the "
            f"expansion cap of {cap}\n")


def test_access_refuses_by_the_slots_the_build_allocates(tmp_path, capsys, monkeypatch):
    """The build counts the slots of every state it fills, kept or not:
    under a cap of that count access answers, one slot below it refuses."""
    path = tmp_path / "g.slg1"
    code, _, _ = run(capsys, "gen", "slp1", "--rules", "40", "--seed", "5", "--sigma", "3",
                     "--max-len", "200", "-o", str(path))
    assert code == 0
    slp = slg_to_slp(parse_slg1(path.read_text()))
    ix = build_index1(slp, 2)
    slots = ix.filled
    # the index keeps some of the slots it fills; one list per side and
    # level over every rule id would be far over the cap
    assert 0 < ix.entry_count() < slots < 2 * (ceil_log(len(expand1(slp)), 2) + 1) * \
        len(slp.rules) * 2
    monkeypatch.setenv("GG_CAP_CELLS", str(slots))
    code, out, err = run(capsys, "access", str(path), "3", "--tau", "2")
    assert (code, err) == (0, "") and int(out) == expand1(slp)[2]
    monkeypatch.setenv("GG_CAP_CELLS", str(slots - 1))
    code, out, err = run(capsys, "access", str(path), "3", "--tau", "2")
    assert (code, out, err) == (1, "", refused(2, slots - 1))


def test_access2_refuses_by_the_slots_the_build_allocates(tmp_path, capsys, monkeypatch):
    """The 2D build counts the slots of every state it fills, kept or not,
    on the 80-step zigzag, 41 x 41, which builds at tau 2."""
    rng = random.Random(0)
    path = tmp_path / "zigzag.slg2"
    path.write_text(dump_slg2(zigzag2([rng.randrange(4) for _ in range(83)], 80)))
    slp = slg2_to_slp2(parse_slg2(path.read_text()))
    ix = build_index2(slp, 2)
    slots = ix.filled
    # one slot per block; a full tau x tau grid per level pair would be over the cap
    grids = sum((cr + 1) * (cc + 1) for cr, cc, r
                in zip(caps(slp._rows, 2), caps(slp._cols, 2), slp._reach) if r)
    assert 0 < ix.entry_count() < slots < 4 * 2 * 2 * grids
    monkeypatch.setenv("GG_CAP_CELLS", str(slots))
    code, out, err = run(capsys, "access", str(path), "1,2", "--tau", "2")
    assert (code, err) == (0, "") and int(out) == expand2(slp).get(1, 2)
    monkeypatch.setenv("GG_CAP_CELLS", str(slots - 1))
    code, out, err = run(capsys, "access", str(path), "1,2", "--tau", "2")
    assert (code, out, err) == (1, "", refused(2, slots - 1))


def test_access_on_a_comb_that_builds_nothing_answers_under_any_cap(tmp_path, capsys,
                                                                   monkeypatch):
    """The 2,000-rule right comb at tau 8 is descended from at once: its
    build makes no slot, so access answers under a cap of 1."""
    rng = random.Random(1)
    g = comb1([rng.randrange(4) for _ in range(1997)], right=True)
    path = tmp_path / "comb.slg1"
    path.write_text(dump_slg1(g))
    slp = slg_to_slp(parse_slg1(path.read_text()))
    assert len(slp.rules) == 2000 and build_index1(slp, 8).filled == 0
    monkeypatch.setenv("GG_CAP_CELLS", "1")
    text = expand1(g)
    code, out, err = run(capsys, "access", str(path), "1", "1000", str(len(text)), "--tau", "8")
    assert (code, err) == (0, "") and [int(v) for v in out.split()] == \
        [text[0], text[999], text[-1]]


def test_access_and_bench_refuse_a_zigzag_by_the_slots_its_build_allocates(tmp_path, capsys,
                                                                           monkeypatch):
    """The 200-step zigzag at tau 8 fills 46,901 slots, of which it keeps
    14,178. Under a cap of exactly that, access and bench answer;
    one slot below it, each exits 1 with one ExpansionTooLarge line and
    empty stdout."""
    rng = random.Random(1)
    path = tmp_path / "zigzag.slg2"
    path.write_text(dump_slg2(zigzag2([rng.randrange(4) for _ in range(203)], 200)))
    slp = slg2_to_slp2(parse_slg2(path.read_text()))
    ix = build_index2(slp, 8)
    slots = ix.filled
    assert (ix.entry_count(), slots) == (14_178, 46_901)
    want = expand2(slp)
    monkeypatch.setenv("GG_CAP_CELLS", str(slots))
    code, out, err = run(capsys, "access", str(path), "1,1", "77,101", "--tau", "8")
    assert (code, err) == (0, "") and [int(v) for v in out.split()] == \
        [want.get(1, 1), want.get(77, 101)]
    code, out, err = run(capsys, "bench", str(path), "--tau-list", "8", "--reps", "4")
    assert (code, err) == (0, "") and out.splitlines()[1].startswith("8,14178,")
    monkeypatch.setenv("GG_CAP_CELLS", str(slots - 1))
    for argv in (("access", str(path), "1,1", "--tau", "8"),
                 ("bench", str(path), "--tau-list", "2,8", "--reps", "4")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", refused(8, slots - 1))


def test_ov_pipeline(tmp_path, capsys):
    inst = tmp_path / "v.ov"
    code, _, _ = run(capsys, "ov", "gen", "6", "5", "--seed", "2", "-o", str(inst))
    assert code == 0
    code, solved, _ = run(capsys, "ov", "solve", str(inst))
    assert code == 0 and solved.strip() in "01"
    uni = tmp_path / "u.ov"
    run(capsys, "ov", "uniform", str(inst), "-o", str(uni))
    pat, gram = tmp_path / "p.txt", tmp_path / "g.slg2"
    code, _, err = run(capsys, "ov", "reduce", str(uni), "-p", str(pat), "-g", str(gram))
    assert code == 0 and "size=" in err
    code, got, _ = run(capsys, "query", str(gram), "row-pattern", pat.read_text().strip())
    assert code == 0 and got.strip() == solved.strip()


def test_query_rank_direct_vs_via(slp1_file, capsys):
    g = validate_slg1(parse_slg1(slp1_file.read_text()))
    text = expand1(g)
    j = len(text) // 2
    for c in range(3):
        _, direct, _ = run(capsys, "query", str(slp1_file), "rank", str(j), str(c))
        _, via, _ = run(capsys, "query", str(slp1_file), "rank", str(j), str(c),
                        "--via", "line-sum")
        assert direct == via
        assert int(direct) == rank(text, j, c)


def test_query_rank_via_line_sum_checks_the_prefix(slp1_file, capsys):
    """A prefix past the string's end is refused through the chain as the
    oracle refuses it, for a code in the string and for one absent from it."""
    g = validate_slg1(parse_slg1(slp1_file.read_text()))
    text = expand1(g)
    n = len(text)
    for c in (text[0], 7):
        for via in ((), ("--via", "line-sum")):
            code, out, err = run(capsys, "query", str(slp1_file), "rank", str(n + 1), str(c), *via)
            assert code == 1 and out == ""
            assert err == f"RangeError: rank prefix {n + 1} outside [0, {n}]\n"


def test_query_occurs_direct_vs_via(slp1_file, capsys):
    for (b, e, c) in ((0, 3, 0), (1, 4, 2), (2, 2, 1)):
        _, direct, _ = run(capsys, "query", str(slp1_file), "occurs",
                           str(b), str(e), str(c))
        _, via, _ = run(capsys, "query", str(slp1_file), "occurs",
                        str(b), str(e), str(c), "--via", "square-all-zero")
        assert direct == via


def test_query_2d_vias(slp2_file, capsys):
    for args, via in ((["square-lce", "1", "1", "2", "2"], "line-lce"),
                      (["line-lce", "1", "1", "2", "1", "1"], "equality"),
                      (["square-all-zero", "2", "2", "1"], "square-lce")):
        _, direct, _ = run(capsys, "query", str(slp2_file), *args)
        _, through, _ = run(capsys, "query", str(slp2_file), *args, "--via", via)
        assert direct == through


def test_reduce_mark_then_expand_matches_direct(slp1_file, tmp_path, capsys):
    out = tmp_path / "marked.slg2"
    code, _, _ = run(capsys, "reduce", "mark", str(slp1_file), str(out))
    assert code == 0
    g1 = validate_slg1(parse_slg1(slp1_file.read_text()))
    marked = validate_slg2(parse_slg2(out.read_text()))
    assert expand2(marked) == mark_all_chars(expand1(g1), g1.alphabet_size)


def test_an_slp_file_with_start_0_that_reaches_every_rule(tmp_path, capsys):
    """A dumped comb, and a staircase numbered backwards, start at id 0 and
    reach every rule, so the conversion keeps their ids: access --verify
    answers every position as the expansion does, and reduce mark|extmark
    number their output from the file's ids, start 0, and expand to the
    direct marking matrices."""
    rng = random.Random(3)
    comb = comb1([rng.randrange(4) for _ in range(40)], right=False)
    stair = staircase2([rng.randrange(4) for _ in range(22)], 10)
    n = len(stair.rules)
    back = validate_slg2(type(stair)(
        [r if isinstance(r, int) else type(r)(tuple(n - 1 - c for c in r.children))
         for r in reversed(stair.rules)], 4, 0))
    path1, path2 = tmp_path / "comb.slg1", tmp_path / "stair.slg2"
    path1.write_text(dump_slg1(comb))
    path2.write_text(dump_slg2(back))
    slp1 = slg_to_slp(parse_slg1(path1.read_text()))
    slp2 = slg2_to_slp2(parse_slg2(path2.read_text()))
    assert (slp1.start, slp1.rules, slp2.start, slp2.rules) == (0, comb.rules, 0, back.rules)

    text, m = expand1(comb), expand2(back)
    code, out, err = run(capsys, "access", str(path1), *map(str, range(1, len(text) + 1)),
                         "--tau", "2", "--verify")
    assert (code, err) == (0, "") and [int(v) for v in out.split()] == list(text)
    cells = [(i, j) for i in range(1, m.rows + 1) for j in range(1, m.cols + 1)]
    code, out, err = run(capsys, "access", str(path2), *(f"{i},{j}" for i, j in cells),
                         "--tau", "2", "--verify")
    assert (code, err) == (0, "") and [int(v) for v in out.split()] == [m.get(*c) for c in cells]

    for kind, direct in (("mark", mark_all_chars), ("extmark", ext_mark_all_chars)):
        marked, mat = tmp_path / f"{kind}.slg2", tmp_path / f"{kind}.mat"
        assert run(capsys, "reduce", kind, str(path1), str(marked))[0] == 0
        assert parse_slg2(marked.read_text()).start == 0
        assert run(capsys, "expand", str(marked), "-o", str(mat))[0] == 0
        assert mat.read_text() == dump_matrix(direct(text, 4))


def test_reduce_pad(slp2_file, tmp_path, capsys):
    out = tmp_path / "padded.slg2"
    code, _, _ = run(capsys, "reduce", "pad", str(slp2_file), str(out))
    assert code == 0
    orig = validate_slg2(parse_slg2(slp2_file.read_text()))
    padded = validate_slg2(parse_slg2(out.read_text()))
    mo, mp = expand2(orig), expand2(padded)
    assert (mp.rows, mp.cols) == (mo.rows, 2 * mo.cols)


def test_reduce_pad_refuses_sigma_in_one_line(slp2_file, tmp_path, capsys):
    """pad takes no alphabet: --sigma is refused, not ignored, before the
    grammar is read, and no output is written."""
    out_path = tmp_path / "padded.slg2"
    code, out, err = run(capsys, "reduce", "pad", str(slp2_file), str(out_path),
                         "--sigma", "3")
    assert (code, out, err) == (1, "", "RangeError: reduce pad takes no --sigma\n")
    assert not out_path.exists()


def test_bench_csv_shape_and_direction(tmp_path, capsys):
    # deep doubling grammar: more blocks per level => fewer levels => fewer steps
    path = tmp_path / "deep.slg1"
    rules = [f"{i}: N {i + 1} {i + 1}" for i in range(12)] + ["12: T 0"]
    path.write_text("SLG1 13 1\n" + "\n".join(rules) + "\nSTART 0\n")
    code, out, _ = run(capsys, "bench", str(path), "--tau-list", "2,8", "--reps", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("tau,entries,bytes,build_ms,mean_query_ns,descent_ns,"
                        "loop_iterations_mean")
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["2", "8"]
    assert float(rows[0][6]) > float(rows[1][6])  # larger tau, fewer steps
    assert all(float(r[5]) > 0 for r in rows)
    from gridgram import ceil_log
    for r in rows:
        tau = int(r[0])
        assert int(r[1]) <= 2 * 13 * tau * (ceil_log(1 << 12, tau) + 1)


def test_ov_reduce_figure_size(tmp_path, capsys):
    inst = tmp_path / "fig.ov"
    inst.write_text("1001\n1100\n0101\n0011\n1010\n")
    pat, gram = tmp_path / "p.txt", tmp_path / "g.slg2"
    code, _, err = run(capsys, "ov", "reduce", str(inst), "-p", str(pat), "-g", str(gram))
    assert code == 0
    assert pat.read_text().strip() == "1001"
    assert "size=47" in err
    code, out, _ = run(capsys, "validate", str(gram))
    assert out.strip() == "ok rows=5 cols=20"


def test_bench_2d_branch(slp2_file, capsys):
    code, out, _ = run(capsys, "bench", str(slp2_file), "--tau-list", "2", "--reps", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("2,")


def test_bench_bytes_count_slots_and_distinct_steps(slp1_file, slp2_file, capsys):
    # 8 B per slot of the index's kept states and per entry of the chain
    # lists it keeps, plus each distinct (shared) slot object once; entries
    # counts the kept slots. These shallow grammars build nothing but the
    # 1D one at tau 3, where the walk reads
    built = 0
    for path, load, build in ((slp1_file, lambda t: slg_to_slp(parse_slg1(t)), build_index1),
                              (slp2_file, lambda t: slg2_to_slp2(parse_slg2(t)), build_index2)):
        code, out, _ = run(capsys, "bench", str(path), "--tau-list", "2,3", "--reps", "4")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            tau, entries, nbytes = (int(v) for v in line.split(",")[:3])
            ix = build(load(path.read_text()), tau)
            lists = list(kept(ix).values())
            steps = {id(v): v for t in lists for v in t}
            assert entries == ix.entry_count() and (len(steps) < entries or entries == 0)
            chained = sum(len(key) for chain in ix.chains or () for key in chain)
            assert nbytes == 8 * (sum(map(len, lists)) + chained) + \
                sum(map(sys.getsizeof, steps.values()))
            built += entries
    assert built > 0


def test_bench_bytes_count_the_chains_of_a_table_free_index(tmp_path, capsys):
    # a right comb of 64 symbols turns once on a point path, so its start
    # finishes by the turn rule at once: no state is kept, and the bytes
    # are the 8 B per entry of the two sides' chains, five lists over its 65
    # rules each
    path = tmp_path / "comb.slg1"
    rules = [f"{i}: N 63 {i + 1}" for i in range(62)] + ["62: N 63 64", "63: T 0", "64: T 1"]
    path.write_text("SLG1 65 2\n" + "\n".join(rules) + "\nSTART 0\n")
    code, out, _ = run(capsys, "bench", str(path), "--tau-list", "2,8", "--reps", "4")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        tau, entries, nbytes = (int(v) for v in line.split(",")[:3])
        ix = build_index1(slg_to_slp(parse_slg1(path.read_text())), tau)
        assert entries == 0 and ix.states == [] and ix.first < 0
        assert ix.chains is not None and nbytes == 8 * 2 * 5 * 65


def test_access_tau_preset_from_epsilon(slp1_file, capsys):
    g = validate_slg1(parse_slg1(slp1_file.read_text()))
    text = expand1(g)
    code, out, _ = run(capsys, "access", str(slp1_file), "1", "--epsilon", "1.0",
                       "--verify")
    assert code == 0 and int(out.split()[0]) == text[0]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["query"])
    assert exc.value.code == 2


def test_ov_gen_prints_the_rows_of_random_matrix(capsys):
    """ov gen draws its vectors with gen.random_matrix, so a seed's instance is
    that matrix's rows; the first is pinned byte for byte."""
    assert run(capsys, "ov", "gen", "2", "3", "--seed", "4")[1] == "010\n110\n"
    for seed, n, d in ((7, 5, 9), (123, 8, 1)):
        code, out, _ = run(capsys, "ov", "gen", str(n), str(d), "--seed", str(seed))
        rows = random_matrix(seed, n, d, 2).to_rows()
        assert code == 0 and out == "".join("".join(map(str, r)) + "\n" for r in rows)


def test_ov_gen_over_the_cap_is_refused_in_one_line(capsys, monkeypatch):
    # 10**10 cells: refused before any is generated
    code, out, err = run(capsys, "ov", "gen", "100000", "100000")
    assert code == 1 and out == ""
    assert err.startswith("ExpansionTooLarge: ") and err.count("\n") == 1
    monkeypatch.setenv("GG_CAP_CELLS", "12")
    code, out, _ = run(capsys, "ov", "gen", "3", "4")
    assert code == 0 and len(out.split()) == 3
    monkeypatch.setenv("GG_CAP_CELLS", "11")
    code, out, err = run(capsys, "ov", "gen", "3", "4")
    assert code == 1 and out == "" and err.startswith("ExpansionTooLarge: ")


def test_gen_over_the_work_cap_is_refused_in_one_line(capsys, monkeypatch):
    # 40 rules read 40**2 = 1600 pool entries
    monkeypatch.setenv("GG_CAP_CELLS", "1599")
    code, out, err = run(capsys, "gen", "slp1", "--rules", "40")
    assert code == 1 and out == ""
    assert err.startswith("ExpansionTooLarge: ") and err.count("\n") == 1
    monkeypatch.setenv("GG_CAP_CELLS", "1600")
    code, out, _ = run(capsys, "gen", "slp1", "--rules", "40")
    assert code == 0 and out.startswith("SLG1 40 ")


def test_reduce_mark_over_the_work_cap_is_refused_in_one_line(slp1_file, tmp_path, capsys,
                                                              monkeypatch):
    # sigma 1000 adds about 2000 rules
    out_path = tmp_path / "marked.slg2"
    monkeypatch.setenv("GG_CAP_CELLS", "1999")
    for kind in ("mark", "extmark"):
        code, out, err = run(capsys, "reduce", kind, str(slp1_file), str(out_path),
                             "--sigma", "1000")
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("ExpansionTooLarge: ") and err.count("\n") == 1
    monkeypatch.setenv("GG_CAP_CELLS", "2000")
    code, _, _ = run(capsys, "reduce", "mark", str(slp1_file), str(out_path), "--sigma", "1000")
    assert code == 0 and out_path.exists()


def test_ov_uniform_over_the_cap_is_refused_in_one_line(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "v.ov"
    inst.write_text("101\n011\n")          # uniform: 4 vectors of dimension 9, 36 cells
    monkeypatch.setenv("GG_CAP_CELLS", "36")
    code, out, _ = run(capsys, "ov", "uniform", str(inst))
    assert code == 0 and len(out.split()) == 4
    monkeypatch.setenv("GG_CAP_CELLS", "35")
    code, out, err = run(capsys, "ov", "uniform", str(inst))
    assert code == 1 and out == ""
    assert err.startswith("ExpansionTooLarge: ") and err.count("\n") == 1


def test_ov_solve_over_the_work_cap_is_refused_in_one_line(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "v.ov"
    inst.write_text("101\n011\n")          # 2 * 2 ordered pairs of 3 products
    monkeypatch.setenv("GG_CAP_CELLS", "12")
    code, out, _ = run(capsys, "ov", "solve", str(inst))
    assert code == 0 and out == "0\n"
    monkeypatch.setenv("GG_CAP_CELLS", "11")
    code, out, err = run(capsys, "ov", "solve", str(inst))
    assert code == 1 and out == ""
    assert err.startswith("ExpansionTooLarge: ") and err.count("\n") == 1


def test_row_pattern_over_the_work_cap_is_refused_in_one_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "row.slg2"
    path.write_text("SLG2 4 12\n0: V 1 2 3\n1: L 10\n2: L 2\n3: L 3\nSTART 0\n")
    argv = ("query", str(path), "row-pattern", "2,3")       # 3 cells times 2 codes
    monkeypatch.setenv("GG_CAP_CELLS", "6")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "1\n"
    monkeypatch.setenv("GG_CAP_CELLS", "5")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("ExpansionTooLarge: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("query", "{slg1}", "rank", "3", "x"),
    ("query", "{slg1}", "rank", "3"),
    ("query", "{slg1}", "occurs", "1", "2", "0", "4"),
    ("query", "{slg2}", "sum", "1", "1", "2"),
    ("bench", "{slg1}", "--tau-list", "2,x"),
    ("bench", "{slg1}", "--tau-list", "2,1"),
], ids=["non-integer", "missing", "extra", "missing-2d", "tau-list-non-integer",
        "tau-list-below-two"])
def test_bad_query_or_bench_argument_is_one_line(argv, slp1_file, slp2_file, capsys):
    argv = [a.format(slg1=slp1_file, slg2=slp2_file) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("RangeError: ") and err.count("\n") == 1


@pytest.mark.parametrize("tau_list, field", [("2,,3", ""), (",", ""), ("2,x", "x")])
def test_bad_tau_list_quotes_the_field_that_failed(tau_list, field, slp1_file, capsys):
    code, out, err = run(capsys, "bench", str(slp1_file), "--tau-list", tau_list)
    assert code == 1 and out == ""
    assert err == f"RangeError: --tau-list entries must be integers, got {field!r}\n"


@pytest.mark.parametrize("kind, path", [
    ("mark", "{slg2}"), ("extmark", "{slg2}"), ("pad", "{slg1}"),
], ids=["mark-slg2", "extmark-slg2", "pad-slg1"])
def test_reduce_of_the_wrong_dimension_is_one_line(kind, path, slp1_file, slp2_file,
                                                   tmp_path, capsys):
    out_path = tmp_path / "out.slg2"
    code, out, err = run(capsys, "reduce", kind, path.format(slg1=slp1_file, slg2=slp2_file),
                         str(out_path))
    assert code == 1 and out == ""
    assert err.startswith("ParseError: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_row_pattern_codes_digits_or_comma_separated(tmp_path, capsys):
    path = tmp_path / "row.slg2"
    path.write_text("SLG2 4 12\n0: V 1 2 3\n1: L 10\n2: L 2\n3: L 3\nSTART 0\n")
    for pattern, want in (("10,2,3", "1"), ("2,3", "1"), ("3,10", "0"),
                          ("23", "1"), ("102", "0")):
        code, out, _ = run(capsys, "query", str(path), "row-pattern", pattern)
        assert code == 0 and out.strip() == want, pattern
    code, out, err = run(capsys, "query", str(path), "row-pattern", "10,x")
    assert code == 1 and out == ""
    assert err.startswith("RangeError: ") and err.count("\n") == 1


def test_square_all_zero_via_square_lce_keeps_the_cap(tmp_path, capsys, monkeypatch):
    # a 2 x 32 matrix: 64 cells fit the cap, its 2 x 64 zero-padded copy does not
    path = tmp_path / "wide.slg2"
    path.write_text("SLG2 7 2\n0: L 0\n1: V 0 0\n2: V 1 1\n3: V 2 2\n4: V 3 3\n"
                    "5: V 4 4\n6: H 5 5\nSTART 6\n")
    monkeypatch.setenv("GG_CAP_CELLS", "64")
    argv = ("query", str(path), "square-all-zero", "2", "2", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == "1"
    code, out, err = run(capsys, *argv, "--via", "square-lce")
    assert code == 1 and out == ""
    assert err.startswith("ExpansionTooLarge: ") and err.count("\n") == 1


def test_every_query_rejects_the_other_dimension_and_an_unknown_via(
        slp1_file, slp2_file, capsys):
    all_vias = {via for _, _, _, chains in cli._QUERIES.values() for via in chains}
    for name, (arguments, dim, _, chains) in cli._QUERIES.items():
        qargs = ["1"] * len(arguments.split())
        own, other = (slp1_file, slp2_file) if dim == 1 else (slp2_file, slp1_file)
        bad = [("query", str(other), name, *qargs)]
        bad += [("query", str(own), name, *qargs, "--via", via)
                for via in sorted(all_vias - set(chains)) + ["bogus"]]
        for argv in bad:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err.startswith(("ParseError: ", "RangeError: ")), argv
            assert err.count("\n") == 1, argv


def test_unreadable_input_and_unwritable_output_are_one_line(slp1_file, tmp_path, capsys):
    for argv, prefix in ((("validate", str(tmp_path / "nope.slg1")), "ParseError: cannot read"),
                         (("expand", str(slp1_file), "-o", str(tmp_path / "no" / "x")),
                          "ParseError: cannot write")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(prefix) and err.count("\n") == 1
    binary = tmp_path / "bin.slg1"
    binary.write_bytes(b"SLG1 \xff\xfe\n")
    code, out, err = run(capsys, "validate", str(binary))
    assert code == 1 and err.startswith("ParseError: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("gen", "slp1", "--rules", "0"),
    ("reduce", "mark", "{slg1}", "{out}", "--sigma", "0"),
    ("access", "{slg1}", "1", "--epsilon=nan"),
    ("access", "{slg1}", "1", "--epsilon=inf"),
    ("access", "{slg1}", "1", "--epsilon=0"),
    ("access", "{slg1}", "1", "--tau", "4", "--epsilon=nan"),
    ("bench", "{slg1}", "--reps", "0"),
], ids=["gen-rules-zero", "reduce-sigma-zero", "epsilon-nan", "epsilon-inf", "epsilon-zero",
        "epsilon-nan-with-tau", "bench-reps-zero"])
def test_bad_flag_value_is_one_line(argv, slp1_file, tmp_path, capsys):
    out_path = tmp_path / "out.slg2"
    argv = [a.format(slg1=slp1_file, out=out_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("RangeError: ") and err.count("\n") == 1
    assert not out_path.exists()
