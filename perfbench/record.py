"""Repeat the benchmark over seeds, report spreads, freeze digests, record a baseline.

    python3 perfbench/record.py spread   --workloads trace survey-corollary --seeds 0 1 2 3 4
    python3 perfbench/record.py baseline --seeds 10 11 12 13 14 15 16 17 18 19
    python3 perfbench/record.py freeze   --seeds 0 1 2

``spread`` runs ``run.py --trace 0`` once per (workload, seed) and prints, per
end-to-end metric, the median and the interquartile range as a share of the
median (quartiles as ``statistics.quantiles(values, n=4)`` gives them).
``baseline`` does the same for every workload, adds one traced run per
workload, and writes ``perfbench/baseline.json``.  ``freeze`` writes the
item digests of the given seeds to ``perfbench/digests.json``; the last seed
given is recorded as held out, for confirming later claims.
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
sys.path.insert(0, HERE)

from metrics import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SECONDS = json.load(_fh)["run_seconds"]


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, information line) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def end_to_end(workloads, seeds) -> dict:
    out = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, info = bench(workload, seed, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed items")
            runs.append({"seed": seed, "digest": info["digest"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        stats = {name: spread([r[name] for r in runs]) for name, *_ in END_TO_END}
        for name, _, _, bound in END_TO_END:
            s = stats[name]
            print(f"{workload:>16} {name:<12} median {s['median']:.4f} "
                  f"iqr/median {s['iqr_share']:.4f} (bound {bound})", flush=True)
        out[workload] = {"runs": runs, "stats": stats, "provenance": info["provenance"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=("spread", "baseline", "freeze"))
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()

    if args.command == "freeze":
        frozen = {}
        for workload in args.workloads:
            frozen[workload] = {}
            for seed in args.seeds:
                path = os.path.join(ROOT, ".bench_work", "freeze.json")
                os.makedirs(os.path.dirname(path), exist_ok=True)
                subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                                "--workload", workload, "--seed", str(seed), "--mode", "run",
                                "--work", os.path.dirname(path), "--result", path],
                               check=True, cwd=ROOT)
                with open(path) as fh:
                    child = json.load(fh)
                if child["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: independent checks failed")
                frozen[workload][str(seed)] = {"sha256": child["digest"],
                                               "items": child["items"]}
                print(workload, seed, child["digest"], flush=True)
        with open(os.path.join(HERE, "digests.json"), "w") as fh:
            json.dump({"held_out_seed": args.seeds[-1], "workloads": frozen}, fh, indent=0)
            fh.write("\n")
        return 0

    results = end_to_end(args.workloads, args.seeds)
    if args.command == "baseline":
        for workload in args.workloads:
            result, info = bench(workload, args.seeds[0], 1)
            results[workload]["traced"] = {"seed": args.seeds[0], "correct": result["correct"],
                                           **{k: v["value"]
                                              for k, v in result["metrics"].items()}}
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
