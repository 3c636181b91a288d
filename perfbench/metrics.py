"""Metric names, units and directions; BENCHMARK.json lists exactly these.

End-to-end metrics come from untraced runs.  Per-layer metrics come from the
traced run only; every ``.s`` is self time summed over the traced window
(set-up plus one pass), and every counter is computed from call inputs or
plain result sizes (see ``tracer``).
"""

from __future__ import annotations

LAYERS = ("finite_field", "set_algebra", "decompositions", "lemma_oracles",
          "survey", "cli")
SET_OPS = ("sum", "diff", "prod", "ratio")

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

TIMED = (
    ["finite_field.build_field", "finite_field.enumerate_subfields",
     "finite_field.coset_representatives", "set_algebra.coset_profile"]
    + [f"set_algebra.set_op.{k}" for k in SET_OPS]
    + [f"set_algebra.{f}" for f in ("representation_spectrum", "intersection_shift_counts",
                                    "sum_representation_counts", "additive_energy",
                                    "multiplicative_energy", "quotient_set")]
    + ["lemma_oracles.basic_shift_subset", "lemma_oracles.refined_plunnecke_subset"]
    + [f"decompositions.{f}" for f in ("run_proof_trace", "dyadic_energy_slice",
                                       "popular_points", "covering_number")]
    + [f"survey.{f}" for f in ("run_survey", "sample_set", "expander_record",
                               "corollary_record")]
    + ["cli.main"]
)
# (span name, counter) reported as "<span name>.<counter>"
COUNTED = (
    [("set_algebra.coset_profile", c) for c in ("calls", "cosets_scored", "cosets_hit")]
    + [(f"set_algebra.set_op.{k}", "cells") for k in SET_OPS]
    + [("decompositions.covering_number", c) for c in ("calls", "target_elems")]
)

# (name, unit, better)
PER_LAYER = tuple(
    [(f"{name}.s", "s", "lower") for name in TIMED]
    + [(f"{name}.{c}", "count", "lower") for name, c in COUNTED]
    + [(f"set_algebra.set_op.{k}.yield", "ratio", "higher") for k in SET_OPS]
    + [(f"{layer}.s", "s", "lower") for layer in LAYERS]
    + [("bench.trace_overhead_frac", "ratio", "lower"),
       ("bench.unattributed_frac", "ratio", "lower"),
       ("bench.failed_frac", "ratio", "lower")]
    + [(f"{layer}.src_lines", "lines", "lower") for layer in LAYERS]
)


def layer_metrics(totals: dict[str, dict[str, float]], window_s: float) -> dict[str, float]:
    """Per-layer values from tracer totals; window_s is the traced wall time."""
    def stat(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {f"{name}.s": stat(name, "s") for name in TIMED}
    out.update({f"{name}.{c}": stat(name, c) for name, c in COUNTED})
    for k in SET_OPS:
        cells = stat(f"set_algebra.set_op.{k}", "cells")
        out[f"set_algebra.set_op.{k}.yield"] = (
            stat(f"set_algebra.set_op.{k}", "out") / cells if cells else 0.0)
    for layer in LAYERS:
        out[f"{layer}.s"] = sum(s["s"] for n, s in totals.items()
                                if n.startswith(layer + "."))
    attributed = sum(s["s"] for s in totals.values())
    out["bench.unattributed_frac"] = 1 - attributed / window_s
    return out
