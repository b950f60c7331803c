"""A short run of every benchmark workload, untraced and traced.

The benchmark (``perfbench/run.py``, workloads listed in ``BENCHMARK.json``)
checks every answer and bound it times and counts each miss in ``failed``.
This runs each workload for 0.2 s in both modes, in a copy of the checkout
as the benchmark itself runs it, so a change that breaks either mode, say
a traced metric that divides by a count the program no longer makes, fails
here and not only in a full benchmark run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of the files a benchmark run reads: BENCHMARK.json, perfbench/ and src/."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out", "tests")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, root / part, ignore=skip)
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_runs_clean(checkout, workload, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr
