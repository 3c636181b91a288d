"""fqlab benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports fqlab from ``src/``.  Each
process it starts runs one workload single-threaded with a cold field cache.

--trace 0 (end-to-end, tracing off):
  one child sets up and runs passes for about S seconds (the nearest whole
  number of passes, at least one), and more children only set up (3 to 5
  set-ups in all, see SETUP_REPEATS).  It reports
    setup_s      median set-up time over those fresh processes:
                 import fqlab, build_field, enumerate_subfields and
                 coset_representatives for every proper subfield of every
                 field the workload uses;
    run_s        wall time of one pass of the workload's fqlab calls: the
                 sum over its operations of each one's median over the passes;
    peak_rss_mb  peak RSS of the child that ran the passes, read before the
                 outputs are checked.
--trace 1 (per layer):
  one child sets up and runs one pass under the tracer (``tracer.py``), with
  one untraced pass between them, and reports the metrics of
  ``metrics.PER_LAYER``.  The spans are written to
  ``.bench_work/spans-<workload>-<seed>.jsonl``.

Every output item is checked independently and, for the seeds in
``digests.json``, against its frozen digest; ``failed`` counts the items
that fail either check.  Lines before the last one give the metrics with
their units, failed_frac and the provenance (commit, Python, numpy, nproc).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, LAYERS, PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = (3, 5)  # fresh set-ups per run: at least 3, up to 5 within SETUP_BUDGET_S
SETUP_BUDGET_S = 8.0
DEADLINE_S = 170  # every run ends well inside three minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    env.pop("FQLAB_CAP", None)  # the default field cap
    return env


def run_child(workload: str, seed: int, mode: str, seconds: float, work: str,
              deadline: float) -> dict:
    result = os.path.join(work, f"{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--work", work, "--result", result]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise BenchError(f"{mode} child exceeded the deadline") from exc
    if proc.returncode:
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def src_lines() -> dict[str, float]:
    out = {}
    for layer in LAYERS:
        with open(os.path.join(ROOT, "src", "fqlab", f"{layer}.py"), "rb") as fh:
            out[f"{layer}.src_lines"] = fh.read().count(b"\n")
    return out


def provenance(child: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "python": child.get("python"), "numpy": child.get("numpy"),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def end_to_end(args, work, deadline) -> tuple[dict, dict]:
    main = run_child(args.workload, args.seed, "run", args.seconds, work, deadline)
    setups = [main["setup_s"]]
    while len(setups) < SETUP_REPEATS[0] or (
            len(setups) < SETUP_REPEATS[1] and sum(setups) < SETUP_BUDGET_S):
        setups.append(run_child(args.workload, args.seed, "setup", 0, work, deadline)["setup_s"])
    values = {"setup_s": statistics.median(setups),
              "run_s": sum(map(statistics.median, zip(*main["op_s"]))),
              "peak_rss_mb": main["peak_rss_mb"]}
    return main, values


def per_layer(args, work, deadline) -> tuple[dict, dict]:
    child = run_child(args.workload, args.seed, "traced", 0, work, deadline)
    values = layer_metrics(child["totals"], child["window_s"])
    values["bench.trace_overhead_frac"] = child["traced_s"] / child["untraced_s"] - 1
    values["bench.failed_frac"] = child["failed"] / child["attempted"]
    values.update(src_lines())
    os.replace(os.path.join(work, "spans.jsonl"),
               os.path.join(ROOT, ".bench_work",
                            f"spans-{args.workload}-{args.seed}.jsonl"))
    return child, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "fqlab", "__init__.py")):
        print(f"no fqlab package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        measure = per_layer if args.trace else end_to_end
        child, values = measure(args, work, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    specs = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in specs}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "provenance": provenance(child), "frozen_seed": child["frozen"],
                      "digest": child["digest"], "skips": child["skips"],
                      "failed_frac": child["failed"] / child["attempted"]}))
    for name, unit, *_ in specs:
        print(f"{args.workload:>16}  {name:<48} {values[name]:>14.6g} {unit}")
    print(json.dumps({"correct": child["failed"] == 0, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
