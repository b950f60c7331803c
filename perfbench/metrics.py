"""Metric names, units and the percentile rule shared by the benchmark files.

``END_TO_END`` is what the untraced run prints and ``PER_LAYER`` what the
traced run prints; both must match ``BENCHMARK.json`` (a test checks this).
Every workload reports every name. A per-layer metric of a layer that the
workload never calls reads 0.
"""

from __future__ import annotations

import math

END_TO_END = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("query1d_p50_us", "us"),
    ("query1d_p99_us", "us"),
    ("query2d_p50_us", "us"),
    ("query2d_p99_us", "us"),
    ("query_qps", "1/s"),
    ("peak_rss_mib", "MiB"),
]

_ACCESS_LAYER = [
    ("build_s", "s"),
    ("entries", "count"),
    ("entries_over_bound", "ratio"),
    ("est_bytes", "B"),
    ("build_rss_mib", "MiB"),
    ("query_p50_us", "us"),
    ("steps_mean", "steps"),
    ("ns_per_step", "ns"),
]

CHAINS = [
    "rank_via_line_sum",
    "occurs_via_square_all_zero",
    "square_lce_via_line_lce",
    "line_lce_via_equality",
    "square_all_zero_via_square_lce",
]

CONSTRUCTIONS = [
    "alphabet_reduce",
    "mark_grammar",
    "ext_mark_grammar",
    "pad_with_zero_block",
    "uniform_ov",
    "ov_to_pm",
]

PER_LAYER = (
    [(f"gen.{fn}_s", "s") for fn in
     ("random_slp1", "random_slp2", "random_string", "random_matrix")]
    + [(f"slg.{op}_s", "s") for op in ("parse", "validate", "to_slp", "expand", "dump")]
    + [("slg.depth_max", "steps"), ("slg.depth_mean", "steps")]
    + [(f"slg2d.{op}_s", "s") for op in ("parse", "validate", "to_slp", "expand", "dump")]
    + [("slg2d.expand_cells", "count"), ("slg2d.depth_max", "steps"),
       ("slg2d.depth_mean", "steps")]
    + [(f"access1d.{m}", u) for m, u in _ACCESS_LAYER]
    + [(f"access2d.{m}", u) for m, u in _ACCESS_LAYER]
    + [("access2d.iters_over_bound", "ratio")]
    + [("baseline.descent1_p50_us", "us"), ("baseline.descent2_p50_us", "us"),
       ("baseline.index_over_descent1", "ratio"), ("baseline.index_over_descent2", "ratio")]
    + [(f"reductions.{c}_s", "s") for c in CONSTRUCTIONS]
    + [(f"reductions.{c}.p50_us", "us") for c in CHAINS]
    + [("reductions.adapter_self_us", "us"), ("reductions.provider_calls_mean", "count"),
       ("reductions.provider_calls_over_bound", "ratio")]
    + [("oracle.provider_us", "us"), ("oracle.calls", "count"),
       ("oracle.row_pattern_s", "s"), ("oracle.ov_brute_s", "s"),
       ("oracle.reference_s", "s")]
    + [("cli.access_s", "s"), ("cli.self_s", "s")]
    + [("trace.spans", "count"), ("trace.overhead_query1d_p50_us", "us"),
       ("trace.overhead_query2d_p50_us", "us"), ("trace.overhead_query_qps", "1/s")]
)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending sequence (p in (0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
