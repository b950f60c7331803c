"""The benchmark's own tests: seeded inputs, the descent baseline, span arithmetic.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import pytest  # noqa: E402

import gridgram as gg  # noqa: E402
from gridgram import gen  # noqa: E402

import descent  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- seeded inputs ------------------------------------------------------------

def _texts(name, seed):
    inputs = workloads.WORKLOADS[name]().setup(seed, spans.NullRecorder())
    if name == "reduce-chains":
        return [inputs.text1] + [grid[0] for grid in inputs.grids], inputs
    return [inp.text for inp in inputs], inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    first, a = _texts(name, 11)
    second, b = _texts(name, 11)
    assert first == second
    if name != "reduce-chains":
        assert [i.queries for i in a] == [i.queries for i in b]
        assert [i.expected for i in a] == [i.expected for i in b]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_queries(name):
    _, a = _texts(name, 11)
    _, b = _texts(name, 12)
    if name == "reduce-chains":
        assert a.rank != b.rank
    else:
        assert [i.queries for i in a] != [i.queries for i in b]


def test_comb_and_staircase_constructions_match_expansion():
    codes = gen.random_string(3, 40, 4)
    comb = gg.validate_slg1(workloads.right_comb(codes, 4))
    assert gg.expand1(comb) == codes
    assert descent.depth1(comb)[0] == len(codes) - 1
    g2, m2 = workloads.staircase(gen.random_string(4, 2 * 9 + 2, 4), 4, 9)
    assert gg.expand2(gg.validate_slg2(g2)) == m2
    assert (m2.rows, m2.cols) == (10, 10)


# -- descent baseline ---------------------------------------------------------

def test_descent1_equals_expansion():
    grammars = [gen.random_slp1(s, 30, 4, 300) for s in range(6)]
    grammars.append(gg.slg_to_slp(gg.validate_slg1(
        workloads.right_comb(gen.random_string(1, 60, 3), 3))))
    for g in grammars:
        lens = descent.lengths1(g)
        text = gg.expand1(g)
        got = [descent.descend1(g.rules, lens, g.start, i) for i in range(1, len(text) + 1)]
        assert got == text


def test_descent2_equals_expansion():
    grammars = [gen.random_slp2(s, 30, 4, 400) for s in range(6)]
    stair, _ = workloads.staircase(gen.random_string(2, 2 * 7 + 2, 4), 4, 7)
    grammars.append(gg.slg2_to_slp2(gg.validate_slg2(stair)))
    for g in grammars:
        rows, cols = descent.shapes2(g)
        m = gg.expand2(g)
        got = [descent.descend2(g.rules, rows, cols, g.start, i, j)
               for i in range(1, m.rows + 1) for j in range(1, m.cols + 1)]
        assert got == m.cells


def test_depth_profile_on_a_hand_built_grammar():
    # S -> A B, A -> a b, B -> a; positions sit at depths 2, 2, 1
    g = gg.validate_slp1(gg.Slp1([(1, 2), (3, 4), 0, 0, 1], 2, 0))
    assert descent.depth1(g) == (2, 5 / 3)


# -- spans --------------------------------------------------------------------

def test_self_time_on_a_hand_built_span_tree():
    # root [0, 100) with children [10, 30) and [25, 60) (overlapping) and a
    # child [90, 120) reaching past the root's end; the first child has a
    # grandchild [12, 20)
    tree = [
        ["root", 0, 100, -1, 1],
        ["a", 10, 30, 0, 1],
        ["b", 25, 60, 0, 1],
        ["c", 90, 120, 0, 1],
        ["a.x", 12, 20, 1, 1],
    ]
    # root covered by [10, 60) and [90, 100): 50 + 10
    assert spans.self_times(tree) == [100 - 60, 20 - 8, 35, 30, 8]
    agg = spans.aggregate(tree)
    assert agg["root"]["self_ns"] == 40 and agg["a"]["total_ns"] == 20


def test_recorder_nests_spans_and_counts_requests():
    rec = spans.Recorder()
    rec.request()
    assert rec.call("outer", lambda: rec.call("inner", lambda x: x + 1, 1)) == 2
    rec.request()
    rec.call("other", int, "3")
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("outer", -1, 1), ("inner", 0, 1), ("other", -1, 2)]
    assert all(s[2] >= s[1] for s in rec.spans)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 99) == 99
    assert metrics.percentile([7], 99) == 7


def test_counting_provider_counts_and_bounds_hold_on_a_chain():
    m = gen.random_matrix(5, 12, 12, 2)
    p = workloads.CountingProvider(lambda *a: gg.oracle.line_lce(m, *a), "oracle.line_lce")
    rng = random.Random(0)
    for _ in range(50):
        o = [rng.randint(1, 12) for _ in range(4)]
        p.calls = 0
        got = gg.reductions.square_lce_via_line_lce(p, 12, 12, *o)
        assert got == gg.oracle.square_lce(m, *o)
        t_max = min(13 - o[0], 13 - o[2], 13 - o[1], 13 - o[3])
        assert p.calls <= t_max.bit_length()


# -- the benchmark contract ---------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == metrics.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "comb-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
