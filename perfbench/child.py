"""One fresh benchmark process: set-up, then passes of one workload.

Modes:
  setup   import fqlab and build every field of the workload, nothing else;
  run     set-up, then untraced passes for about --seconds (the nearest
          whole number of passes, at least one);
  traced  set-up and one pass under the tracer, with one untraced pass
          between them to measure the tracer's overhead.

The result is written as JSON to --result.  ``run.py`` starts this script;
it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import workloads  # noqa: E402  (imports nothing heavy)


def digest(item: bytes) -> str:
    return hashlib.sha256(item).hexdigest()


def set_up(fq, fields) -> None:
    ff = fq.finite_field
    for text in fields:
        spec = ff.build_field(*workloads.parse_field(text))
        for G in ff.enumerate_subfields(spec):
            if G.is_proper:
                ff.coset_representatives(spec, G)


def run_pass(fq, ops, tracer=None):
    """Run every op once; returns (per-op timed seconds, per-op items or None, skips)."""
    seconds, results, skips = [], [], 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        try:
            spent, items, skipped = op.run(fq)
        except Exception:  # any error but the documented skip fails the op
            traceback.print_exc(file=sys.stderr)
            results.append(None)
            seconds.append(0.0)
            continue
        seconds.append(spent)
        skips += skipped
        results.append(items)
    return seconds, results, skips


def verdicts(fq, ops, results, frozen):
    """Item digests and one verdict per item: independent check and, when the
    seed is frozen, the committed digest."""
    digests, ok = [], []
    for op, items in zip(ops, results):
        if items is None:
            digests.append(None)
            ok.append(False)
            continue
        digests.extend(digest(i) for i in items)
        ok.extend(op.check(fq, items))
    if frozen is not None:
        ok = [good and d is not None and d[:16] == f
              for good, d, f in zip(ok, digests, frozen["items"])] + \
             [False] * abs(len(frozen["items"]) - len(digests))
    return digests, ok


def flat(results):
    return [d for items in results for d in (items or [None])]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    sys.path.insert(0, os.path.join(ROOT, "src"))

    start = time.perf_counter()
    import fqlab.cli
    import fqlab.finite_field
    import fqlab.survey

    fq = SimpleNamespace(cli=fqlab.cli, survey=fqlab.survey, finite_field=fqlab.finite_field)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.op = -1
        tracer.install()
        start = time.perf_counter()  # the traced window starts after the import
    set_up(fq, workload.fields)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        return _write(args.result, result)

    import numpy

    result.update(python=sys.version.split()[0], numpy=numpy.__version__)
    ops = workload.ops(args.seed, args.work)
    if tracer is not None:
        tracer.uninstall()
        untraced_ops, untraced, _ = run_pass(fq, ops)
        tracer.install()
        traced_ops, results, skips = run_pass(fq, ops, tracer)
        tracer.uninstall()
        passes = [traced_ops]
        result.update(untraced_s=sum(untraced_ops), traced_s=sum(traced_ops),
                      window_s=setup_s + sum(traced_ops), totals=tracer.totals)
        same = [a == b for a, b in zip(flat(untraced), flat(results))]
        tracer.write_spans(os.path.join(args.work, "spans.jsonl"))
    else:
        begun = time.perf_counter()
        op_s, results, skips = run_pass(fq, ops)
        passes, repeated = [op_s], True
        while (time.perf_counter() - begun) * (1 + 0.5 / len(passes)) < args.seconds:
            op_s, again, _ = run_pass(fq, ops)
            passes.append(op_s)
            repeated = repeated and flat(again) == flat(results)
        # every pass must give the first pass's items
        same = [repeated] * len(flat(results))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with open(os.path.join(HERE, "digests.json")) as fh:
        frozen = json.load(fh)["workloads"].get(args.workload, {}).get(str(args.seed))
    digests, ok = verdicts(fq, ops, results, frozen)
    ok = [good and s for good, s in zip(ok, same)] + ok[len(same):]
    full = hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()
    result.update(op_s=passes, skips=skips, attempted=len(ok), failed=ok.count(False),
                  frozen=frozen is not None,
                  digest=full, items=[d[:16] if d else None for d in digests])
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
