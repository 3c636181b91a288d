"""The benchmark's workloads.

Each workload is a list of operations built from the seed.  An operation
times only its calls into fqlab, then returns the items whose SHA-256
digests are frozen: each survey CSV row plus the header and summary, and
each trace JSON line.  Its ``check`` recomputes every item independently
(``oracle``), so seeds without frozen digests are checked too.

Why these three:

- survey-expander: the paper's headline |A(A+1)| at the 2^20 field cap; the
  only workload dominated by field set-up and ``coset_profile`` (p = 2).
- survey-corollary: odd characteristic (the digit loop in add/sub), the
  additive side (shift counts, energy) and product sets whose output size
  differs by sampler (gp: small |AA|, uniform: large).
- trace: the proof trace at |A| in 48..96; subset searches, slice, popular
  points and covering dominate, set-up and coset profiles are bypassed.

A fourth workload, ``verify all --trials 200`` plus
``exhaustive_min_expander(5^2, 6)`` (thousands of tiny, interpreter-bound
instances), was dropped: on a shared two-core host its run time spread by
15-35% between runs (interquartile range over median), twice the spread of
these three, so it could not be gated.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass
from typing import Callable

# largest set first: the smaller ones then fit in the heap it grew, so peak RSS
# does not depend on which draw happened to allocate most
TRACE_CASES = (("2^12", 96), ("2^12", 64), ("2^12", 48),
               ("3^7", 96), ("3^7", 64), ("3^7", 48))
TRACE_DRAWS = 2  # sets per case: the search cost varies from set to set
MAX_DRAWS = 20


class OpError(Exception):
    """An operation failed in a way other than the documented skip."""


def parse_field(text: str) -> tuple[int, int]:
    p, _, m = text.partition("^")
    return int(p), int(m or 1)


def _cli(fq, argv: list[str]) -> tuple[float, int, str]:
    """Run the CLI in-process; returns (seconds, exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = fq.cli.main(argv)
        seconds = time.perf_counter() - start
    return seconds, code, err.getvalue()


def _read_lines(path: str) -> list[bytes]:
    with open(path, "rb") as fh:
        return fh.read().splitlines()


@dataclass
class SurveyOp:
    kind: str
    fields: str
    sizes: str
    samplers: str
    seed: int
    work: str

    def run(self, fq):
        out = os.path.join(self.work, f"survey-{self.kind}.csv")
        seconds, code, err = _cli(fq, [
            "survey", "--kind", self.kind, "--fields", self.fields, "--sizes", self.sizes,
            "--samplers", self.samplers, "--trials", "1", "--alpha-policy", "fixed1",
            "--seed", str(self.seed), "--out", out])
        if code:
            raise OpError(err.strip())
        lines = _read_lines(out)
        with open(out + ".summary.json", "rb") as fh:
            summary = fh.read()
        rows = [line + b"\n" for line in lines[2:]]
        return seconds, rows + [b"\n".join(lines[:2]) + b"\n" + summary], 0

    def check(self, fq, items):
        import oracle

        config = {"fields": self.fields.split(","),
                  "sizes": [int(s) for s in self.sizes.split(",")],
                  "samplers": self.samplers.split(","), "trials": 1,
                  "alpha_policy": "fixed1"}
        return oracle.check_survey(self.kind, items, self.seed, config,
                                   fq.survey.sample_set, fq.finite_field.parse_descriptor)


@dataclass
class TraceOp:
    field: str
    size: int
    slot: int
    seed: int
    work: str
    members: list[int] | None = None

    def draw(self, index: int) -> list[int]:
        """A subset of F* of the op's size, redrawn by index after a skip."""
        import numpy as np

        p, m = parse_field(self.field)
        rng = np.random.default_rng([self.seed, p, m, self.size, self.slot, index])
        return sorted(int(v) for v in rng.choice(np.arange(1, p**m), self.size,
                                                  replace=False))

    def run(self, fq):
        out = os.path.join(self.work, "trace.json")
        seconds = 0.0
        for index in range(MAX_DRAWS):
            members = self.draw(index)
            spent, code, err = _cli(fq, [
                "trace", "--field", self.field, "--set", ",".join(map(str, members)),
                "--alpha", "1", "--format", "json", "--out", out])
            seconds += spent
            if code == 0:
                self.members = members
                return seconds, _read_lines(out), index
            if not err.startswith("TraceDegenerate:"):
                raise OpError(err.strip())
        raise OpError(f"{MAX_DRAWS} degenerate draws in a row")

    def check(self, fq, items):
        import oracle

        spec = fq.finite_field.parse_descriptor(self.field)
        return [len(items) == 1 and oracle.check_trace(items[0], spec, self.members)] * len(items)


@dataclass(frozen=True)
class Workload:
    fields: tuple[str, ...]  # every field the workload uses, built during set-up
    ops: Callable[[int, str], list]  # (seed, work dir) -> operations


WORKLOADS = {
    "survey-expander": Workload(
        ("2^20",),
        lambda seed, work: [SurveyOp("expander", "2^20", "1000,3000", "uniform", seed, work)]),
    "survey-corollary": Workload(
        ("3^12",),
        lambda seed, work: [SurveyOp("corollary", "3^12", "1000,3000", "uniform,gp",
                                     seed, work)]),
    "trace": Workload(
        ("2^12", "3^7"),
        lambda seed, work: [TraceOp(f, n, slot, seed, work)
                            for f, n in TRACE_CASES for slot in range(TRACE_DRAWS)]),
}
