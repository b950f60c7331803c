"""Run one workload over several seeds and report each end-to-end metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload comb-deep --seeds 1-10

Runs the untraced ``perfbench/run.py`` once per seed, one run at a time, for
``--seconds`` (by default ``run_seconds`` of BENCHMARK.json), and prints, per
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``),
the interquartile distance as a share of the median, and the metric's bound
from BENCHMARK.json. A spread at or above a third of the bound is flagged.
The last column is the same spread of the raw, unscaled figure from each
run's record (see speed.py), to show what the reference-speed scaling buys.
The per-seed values are saved to ``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    """"1-5" or "1,4,9" -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def iqr_share(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance rule computes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{seed}-trace0.json")
        with open(record, encoding="utf-8") as f:
            raw = json.load(f)["raw"]
        runs.append({"seed": seed, **result, "raw": raw})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, share = iqr_share(values)
        raw_share = iqr_share([r["raw"][name] for r in runs])[3]
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <-- spread >= bound/3"
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                         "iqr_share": share, "raw_iqr_share": raw_share, "bound": bound}
        print(f"{name:<24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"iqr/median {share:7.4f} bound {bound} raw {raw_share:7.4f}{flag}")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", f"spread-{args.workload}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                   "summary": summary}, f, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
