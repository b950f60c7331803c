"""gridgram benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload access-shallow --seed 1 --seconds 10 --trace 0

Workloads: access-shallow, comb-deep, reduce-chains (see workloads.py and
BENCHMARK.json for why each exists). The run is one process with no threads.
It imports the package from ``src/`` of the checkout, generates the inputs
from ``--seed``, and drives the program only through its public functions.

``--trace 0`` is the untraced run. It sets up the inputs several times and
reports the median, builds the query structures several times and reports
the lower quartile, then runs a closed loop with one client for ``--seconds``
seconds, timing each query from outside the call. Timings are scaled to a
reference host speed (see speed.py). Every answer and every paper bound is
checked, and each miss or exception counts in ``failed``.

``--trace 1`` is the traced run. It records a span around every call into
the program, runs each query stream once untraced and once traced (the
difference is the tracing overhead), adds the descent baseline, one more
build per index to measure its resident-memory cost, and in-process CLI
calls, and reports per-layer metrics.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(run facts, input shapes, all metrics) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``, and the traced run's
spans to ``.perfbench_out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from contextlib import redirect_stdout

from metrics import CHAINS, END_TO_END, PER_LAYER, percentile
from spans import NullRecorder, Recorder, aggregate
from speed import REF_NS, probe_ns, timed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SCHEDULE_LEN = 16384
CLI_QUERIES = 16
WINDOW_S = 0.25           # query-loop window
GROUP = 16                # queries per host-speed probe in the query loop

_now = time.perf_counter_ns


def _load_program():
    """Put the checkout's sources first on sys.path; stop if there are none."""
    if not os.path.isfile(os.path.join(SRC, "gridgram", "__init__.py")):
        sys.exit(f"perfbench: no gridgram package under {SRC}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, SRC)


def _git_commit():
    """The checkout's commit from .git, or "unknown" (no git process is run)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _us(ns):
    return ns / 1000.0


def _schedule(workload, targets, seed):
    """The seeded query order: (target, query) pairs drawn by target weight."""
    rng = random.Random(f"{seed}/schedule")
    picks = rng.choices(range(len(targets)), weights=workload.weights(targets), k=SCHEDULE_LEN)
    return [(t, rng.randrange(len(targets[t].queries))) for t in picks]


def _answer_ok(t, qi, r):
    prov = t.provider
    return r == t.expected[qi] and (prov is None or prov.calls <= t.bounds[qi])


def _miss(t, qi, r):
    calls = "" if t.provider is None else \
        f", {t.provider.calls} provider calls (bound {t.bounds[qi]})"
    return f"{t.name} {t.queries[qi]}: got {r}, want {t.expected[qi]}{calls}"


def timed_loop(targets, schedule, seconds, ops):
    """Closed loop, one client: answer scheduled queries until time is up.

    Every GROUP queries the host-speed probe runs once, and each query of the
    group is scaled by ``REF_NS`` over that probe's time: the host's speed
    changes within milliseconds, so a probe taken further away scales worse.
    The loop runs in WINDOW_S windows. Returns one ``_window_stats`` dict per
    window; latencies are dropped as each window closes, so memory does not
    grow with the host's speed. Each answer (and provider call count) is
    checked outside the timed region.
    """
    count = max(1, round(seconds / WINDOW_S))
    span_ns = int(seconds * 1e9 / count)
    windows = []
    pos, size = 0, len(schedule)
    for _ in range(count):
        raw, ref = (array("q"), array("q")), (array("d"), array("d"))
        window_end = _now() + span_ns
        while _now() < window_end:
            scale = REF_NS / probe_ns()
            for _ in range(GROUP):
                ti, qi = schedule[pos]
                pos = pos + 1 if pos + 1 < size else 0
                t = targets[ti]
                q = t.queries[qi]
                if t.provider is not None:
                    t.provider.calls = 0
                try:
                    t0 = _now()
                    r = t.fn(*q)
                    t1 = _now()
                except Exception as e:  # noqa: BLE001 - every failure is counted
                    ops.fail(f"{t.name} {q}: {type(e).__name__}: {e}")
                    continue
                raw[t.dim - 1].append(t1 - t0)
                ref[t.dim - 1].append((t1 - t0) * scale)
                if _answer_ok(t, qi, r):
                    ops.attempted += 1
                else:
                    ops.fail(_miss(t, qi, r))
        windows.append(_window_stats(raw, ref))
    return windows


def _window_stats(raw, ref):
    """Per pool ("1", "2", ""): count, total ns and p50/p99 (us) of one
    window, raw and at reference speed."""
    out = {}
    for key, pick in (("1", lambda x: x[0]), ("2", lambda x: x[1]),
                      ("", lambda x: x[0] + x[1])):
        st = out[key] = {"n": len(pick(raw))}
        for name, sample in (("_raw", pick(raw)), ("", pick(ref))):
            ordered = sorted(sample)
            st[f"ns{name}"] = sum(ordered)
            for q in (50, 99):
                st[f"p{q}{name}"] = _us(percentile(ordered, q)) if ordered else 0.0
    return out


def _lower_quartile(values):
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def _window_summary(windows):
    """Per-window p50/p99 (us) summarised over windows, counts and qps.

    p50 and p99 are the medians over windows of each window's p50 and p99.
    """
    out = {"windows": len(windows)}
    for key in ("1", "2", ""):
        stats = [w[key] for w in windows if w[key]["n"]]
        suffix = f"_{key}" if key else ""
        for q in ("p50", "p50_raw", "p99", "p99_raw"):
            out[q + suffix] = statistics.median(st[q] for st in stats) if stats else 0.0
        out[f"n{key or 'all'}"] = sum(st["n"] for st in stats)
        out[f"p99_tail_min{suffix}"] = min((st["n"] // 100 for st in stats), default=0)
    for name in ("", "_raw"):
        total_ns = sum(w[""][f"ns{name}"] for w in windows)
        out[f"qps{name}"] = out["nall"] / (total_ns / 1e9) if total_ns else 0.0
    return out


def _timed(fn, times):
    """Run fn() under ``speed.timed`` after a full collection; append
    (reference ns, raw ns) to ``times`` and return fn's result."""
    gc.collect()
    ref_ns, raw_ns, result = timed(fn)
    times.append((ref_ns, raw_ns))
    return result


def one_pass(targets, ops, rec=None):
    """Answer every query of every target once; per-dimension latencies in ns.

    With ``rec`` each query is a request with a span around the call (and
    provider spans inside it); provider call counts are returned per target.
    """
    lat = (array("q"), array("q"))
    calls = []
    for t in targets:
        if t.provider is not None:
            t.provider.rec = rec
        counts = []
        for qi, q in enumerate(t.queries):
            if t.provider is not None:
                t.provider.calls = 0
            try:
                if rec is None:
                    t0 = _now()
                    r = t.fn(*q)
                    t1 = _now()
                else:
                    rec.request()
                    t0 = _now()
                    r = rec.call(t.span, t.fn, *q)
                    t1 = _now()
            except Exception as e:  # noqa: BLE001 - every failure is counted
                ops.fail(f"{t.name} {q}: {type(e).__name__}: {e}")
                continue
            lat[t.dim - 1].append(t1 - t0)
            ops.check(_answer_ok(t, qi, r), _miss(t, qi, r))
            if t.provider is not None:
                counts.append((t.provider.calls, t.bounds[qi]))
        if t.provider is not None:
            t.provider.rec = None
        calls.append(counts)
    return lat, calls


def _latency_summary(lat):
    """p50/p99 (us), sample counts and qps over the two dimension pools."""
    out = {}
    total_n = total_ns = 0
    for d, sample in ((1, lat[0]), (2, lat[1])):
        s = sorted(sample)
        out[f"n{d}"] = len(s)
        if s:
            out[f"p50_{d}"] = _us(percentile(s, 50))
            out[f"p99_{d}"] = _us(percentile(s, 99))
        total_n += len(s)
        total_ns += sum(s)
    both = sorted(list(lat[0]) + list(lat[1]))
    out["p50"] = _us(percentile(both, 50)) if both else 0.0
    out["p99"] = _us(percentile(both, 99)) if both else 0.0
    out["qps"] = total_n / (total_ns / 1e9) if total_ns else 0.0
    return out


def _input_shapes(targets):
    """|V|, shape and depth (max, mean) of each distinct input grammar."""
    from descent import depth1, depth2
    from gridgram import Slg2, dims, exp_len

    shapes, seen = [], set()
    for t in targets:
        g = t.info.get("grammar")
        label = t.info.get("label")
        if g is None or label in seen:
            continue
        seen.add(label)
        if isinstance(g, Slg2):
            deepest, mean = depth2(g)
            shape = list(dims(g, g.start))
        else:
            deepest, mean = depth1(g)
            shape = [exp_len(g, g.start)]
        shapes.append({"label": label, "dim": t.dim, "vars": len(g.rules), "shape": shape,
                       "depth_max": deepest, "depth_mean": mean})
    return shapes


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- untraced run -------------------------------------------------------------

def run_untraced(workload, seed, seconds, ops):
    """Set up and build several times, then the timed query loop.

    Returns (reference-speed metrics, the same metrics at raw host speed,
    input shapes, per-repeat and per-window detail for the record).
    """
    from workloads import traced_access_checks

    rec = NullRecorder()
    setup = lambda: workload.setup(seed, rec)
    setups, builds = [], []
    inputs = _timed(setup, setups)
    targets = _timed(lambda: workload.build(inputs, rec, ops), builds)
    # the high-water mark of the first set-up and build is peak_rss_mib; the
    # repeats below raise it by a seed-dependent amount of heap
    # fragmentation, not by what they hold
    rss = _peak_rss_mib()
    for _ in range(workload.repeats[0] - 1):
        _timed(setup, setups)
    for _ in range(workload.repeats[1] - 1):
        targets = None
        targets = _timed(lambda: workload.build(inputs, rec, ops), builds)
    setup_ref, setup_ns = zip(*setups)
    build_ref, build_ns = zip(*builds)
    # setup: the median repeat; build: the lower quartile, since a build is
    # deterministic and the spread between its repeats is host noise
    setup_s = statistics.median(setup_ref) / 1e9
    build_s = _lower_quartile(build_ref) / 1e9
    schedule = _schedule(workload, targets, seed)
    gc.collect()
    windows = timed_loop(targets, schedule, seconds, ops)
    if workload.taus:
        traced_access_checks(targets, ops)
    s = _window_summary(windows)
    raw = {"setup_s": statistics.median(setup_ns) / 1e9,
           "build_s": _lower_quartile(build_ns) / 1e9,
           "query1d_p50_us": s["p50_raw_1"], "query1d_p99_us": s["p99_raw_1"],
           "query2d_p50_us": s["p50_raw_2"], "query2d_p99_us": s["p99_raw_2"],
           "query_qps": s["qps_raw"], "peak_rss_mib": rss}
    gated = {"setup_s": setup_s, "build_s": build_s,
             "query1d_p50_us": s["p50_1"], "query1d_p99_us": s["p99_1"],
             "query2d_p50_us": s["p50_2"], "query2d_p99_us": s["p99_2"],
             "query_qps": s["qps"], "peak_rss_mib": rss}
    extra = {"loop": s, "windows": windows,
             "setup_runs_s": [x / 1e9 for x in setup_ns],
             "setup_runs_ref_s": [x / 1e9 for x in setup_ref],
             "build_runs_s": [x / 1e9 for x in build_ns],
             "build_runs_ref_s": [x / 1e9 for x in build_ref]}
    return gated, raw, _input_shapes(targets), extra


# -- traced run ---------------------------------------------------------------

def _rss_mib():
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _build_rss_mib(target):
    """Resident-memory growth over one more text-to-index build of a target.

    The target's own index stays alive, so the growth is what a second
    index costs, transient build garbage included unless it was returned.
    """
    from workloads import build_access1, build_access2

    build = build_access1 if target.dim == 1 else build_access2
    gc.collect()
    before = _rss_mib()
    again = build(target.info["text"], target.info["tau"], NullRecorder())
    grown = _rss_mib() - before
    del again
    return grown


def _descent_pass(targets, ops):
    """Time the descent baseline over each grammar's queries; check answers."""
    from descent import descend1, descend2, lengths1, shapes2

    lat = (array("q"), array("q"))
    seen = set()
    for t in targets:
        label = t.info["label"]
        if label in seen:
            continue
        seen.add(label)
        g = t.info["grammar"]
        if t.dim == 1:
            fn = lambda q, r=g.rules, l=lengths1(g), s=g.start: descend1(r, l, s, *q)
        else:
            rows, cols = shapes2(g)
            fn = lambda q, r=g.rules, a=rows, b=cols, s=g.start: descend2(r, a, b, s, *q)
        for q, want in zip(t.queries, t.expected):
            t0 = _now()
            r = fn(q)
            lat[t.dim - 1].append(_now() - t0)
            ops.check(r == want, f"descent {label} {q}: got {r}, want {want}")
    return lat


def _cli_pass(workload, targets, ops):
    """One in-process ``gridgram access FILE coords --tau T`` per grammar.

    Returns (total seconds, seconds left after subtracting the matching
    text-to-index build time measured in the build phase).
    """
    from gridgram import cli

    tau = max(workload.taus)
    path = os.path.join(OUT_DIR, "cli-input.txt")
    total_ns = build_ns = 0
    try:
        for t in targets:
            if t.info["tau"] != tau:
                continue
            with open(path, "w", encoding="utf-8") as f:
                f.write(t.info["text"])
            qs = t.queries[:CLI_QUERIES]
            coords = [",".join(str(v) for v in q) for q in qs]
            out = io.StringIO()
            t0 = _now()
            with redirect_stdout(out):
                code = cli.main(["access", path, *coords, "--tau", str(tau)])
            total_ns += _now() - t0
            build_ns += t.info["build_ns"]
            got = out.getvalue().split()
            want = [str(v) for v in t.expected[:CLI_QUERIES]]
            ops.check(code == 0 and got == want, f"cli access {t.name}: exit {code}, {got[:4]}...")
    finally:
        if os.path.exists(path):
            os.remove(path)
    return total_ns / 1e9, max(0, total_ns - build_ns) / 1e9


def run_traced(workload, seed, spans_path, ops):
    from workloads import RECORD_BYTES1, RECORD_BYTES2, traced_access_checks

    rec = Recorder()
    rec.request()
    inputs = workload.setup(seed, rec)
    rec.request()
    targets = workload.build(inputs, rec, ops)

    gc.collect()
    plain, _ = one_pass(targets, ops)
    traced, calls = one_pass(targets, ops, rec)
    base = _latency_summary(plain)
    over = _latency_summary(traced)

    m = {name: 0.0 for name, _ in PER_LAYER}
    agg = aggregate(rec.spans)
    for name, a in agg.items():
        if f"{name}_s" in m:
            m[f"{name}_s"] = a["total_ns"] / 1e9
    m["slg2d.expand_cells"] = rec.counts.get("slg2d.expand_cells", 0)

    shapes = _input_shapes(targets)
    for prefix, dim in (("slg", 1), ("slg2d", 2)):
        mine = [s for s in shapes if s["dim"] == dim]
        if mine:
            m[f"{prefix}.depth_max"] = max(s["depth_max"] for s in mine)
            m[f"{prefix}.depth_mean"] = statistics.fmean(s["depth_mean"] for s in mine)

    if workload.taus:
        traced_access_checks(targets, ops)
        descent = _latency_summary(_descent_pass(targets, ops))
        for dim, layer, width in ((1, "access1d", RECORD_BYTES1), (2, "access2d", RECORD_BYTES2)):
            mine = [t for t in targets if t.dim == dim]
            if not mine:
                continue
            entries = sum(t.info["entries"] for t in mine)
            steps = sum(t.info["steps_total"] for t in mine)
            queries = sum(len(t.queries) for t in mine)
            m[f"{layer}.entries"] = entries
            m[f"{layer}.est_bytes"] = entries * width
            m[f"{layer}.entries_over_bound"] = max(t.info["entries"] / t.info["entry_bound"]
                                                   for t in mine)
            m[f"{layer}.build_rss_mib"] = max(_build_rss_mib(t) for t in mine)
            m[f"{layer}.query_p50_us"] = _us(percentile(sorted(agg[f"{layer}.access{dim}"]["durations_ns"]), 50))
            m[f"{layer}.steps_mean"] = steps / queries
            m[f"{layer}.ns_per_step"] = sum(plain[dim - 1]) / steps
            m[f"baseline.descent{dim}_p50_us"] = descent[f"p50_{dim}"]
            m[f"baseline.index_over_descent{dim}"] = base[f"p50_{dim}"] / descent[f"p50_{dim}"]
        twod = [t for t in targets if t.dim == 2]
        if twod:
            m["access2d.iters_over_bound"] = max(t.info["steps_max"] / t.info["iter_bound"]
                                                 for t in twod)
        m["cli.access_s"], m["cli.self_s"] = _cli_pass(workload, targets, ops)
    else:
        for chain in CHAINS:
            durations = agg.get(f"reductions.{chain}", {}).get("durations_ns")
            if durations:
                m[f"reductions.{chain}.p50_us"] = _us(percentile(sorted(durations), 50))
        chain_aggs = [agg[f"reductions.{c}"] for c in CHAINS if f"reductions.{c}" in agg]
        n_chain = sum(a["count"] for a in chain_aggs)
        m["reductions.adapter_self_us"] = _us(sum(a["self_ns"] for a in chain_aggs) / n_chain)
        pairs = [cb for per_target in calls for cb in per_target]
        m["reductions.provider_calls_mean"] = sum(c for c, _ in pairs) / len(pairs)
        m["reductions.provider_calls_over_bound"] = max(c / b for c, b in pairs)
        provider_spans = {t.provider.span for t in targets if t.provider is not None}
        prov = [agg[name] for name in provider_spans if name in agg]
        n_prov = sum(a["count"] for a in prov)
        m["oracle.calls"] = n_prov
        m["oracle.provider_us"] = _us(sum(a["total_ns"] for a in prov) / n_prov) if n_prov else 0.0

    m["trace.spans"] = len(rec.spans)
    m["trace.overhead_query1d_p50_us"] = over["p50_1"] - base["p50_1"]
    m["trace.overhead_query2d_p50_us"] = over["p50_2"] - base["p50_2"]
    m["trace.overhead_query_qps"] = over["qps"] - base["qps"]
    rec.write(spans_path)
    return m, shapes


# -- entry point --------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description="gridgram benchmark (one workload, one seed)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _load_program()
    from workloads import WORKLOADS, Ops

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    ops = Ops()
    started = time.time()

    if args.trace:
        values, shapes = run_traced(workload, args.seed, stem + ".spans.jsonl", ops)
        units, raw, extra = dict(PER_LAYER), {}, {}
    else:
        values, raw, shapes, extra = run_untraced(workload, args.seed, args.seconds, ops)
        units = dict(END_TO_END)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": _git_commit(), "taus": list(workload.taus),
        "inputs": shapes, "wall_s": time.time() - started,
        "metrics": metrics, "raw": raw,
        "attempted": ops.attempted, "failed": ops.failed, "failures": ops.notes, **extra,
    }
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for note in ops.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "trace", "python", "nproc",
                                             "commit", "taus", "inputs")}))
    if raw:
        print(f"{'metric':<24} {'reference':>14} {'raw':>14} unit")
        for name, unit in units.items():
            print(f"{name:<24} {values[name]:>14.6g} {raw[name]:>14.6g} {unit}")
    print(f"attempted {ops.attempted}, failed {ops.failed}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
