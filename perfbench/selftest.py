"""Tests of the benchmark itself (slow: several minutes).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run.  It checks that
the committed digests reproduce, that the traced run gives the untraced
run's output, that work counters repeat exactly, and that BENCHMARK.json
lists exactly the metrics and workloads the code reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(HERE, "digests.json")) as _fh:
    DIGESTS = json.load(_fh)
FROZEN = [(w, int(s)) for w, seeds in sorted(DIGESTS["workloads"].items()) for s in seeds]
COUNTERS = ("calls", "cells", "out", "cosets_scored", "cosets_hit", "target_elems")


def child(workload: str, seed: int, mode: str) -> dict:
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as work:
        result = os.path.join(work, "result.json")
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
                        "--seed", str(seed), "--mode", mode, "--work", work,
                        "--result", result], check=True, cwd=ROOT)
        with open(result) as fh:
            return json.load(fh)


def test_benchmark_json_lists_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]


def test_a_held_out_seed_is_frozen():
    assert DIGESTS["held_out_seed"] in {seed for _, seed in FROZEN}
    assert {w for w, _ in FROZEN} == set(WORKLOADS)


@pytest.mark.parametrize("workload,seed", FROZEN)
def test_frozen_digests_reproduce(workload, seed):
    result = child(workload, seed, "run")
    frozen = DIGESTS["workloads"][workload][str(seed)]
    assert result["frozen"] and result["failed"] == 0
    assert result["digest"] == frozen["sha256"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_gives_untraced_output_and_exact_counters(workload):
    seed = FROZEN[0][1]
    first, second = child(workload, seed, "traced"), child(workload, seed, "traced")
    # the child fails every item whose traced output differs from the untraced one
    assert first["failed"] == second["failed"] == 0
    assert first["digest"] == second["digest"] == \
        DIGESTS["workloads"][workload][str(seed)]["sha256"]
    counts = [{name: {c: stats[c] for c in COUNTERS} for name, stats in run["totals"].items()}
              for run in (first, second)]
    assert counts[0] == counts[1]
    assert any(stats["calls"] for stats in counts[0].values())
