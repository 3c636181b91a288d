"""Empirical survey of shifted-product growth: seeded instance generation,
exact measurement of |A(A+alpha)| against the two reference curves, the
intersection/energy record with its exact chain, desk-scale exhaustive minima,
and deterministic CSV/JSON persistence.

Curves are asymptotic guides with unknown constants: they are evaluated in
double precision and reported, never used as verdicts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .errors import (
    BudgetExceeded,
    InvariantViolated,
    InvalidSurveyConfig,
    IoFailure,
    NoProperSubfield,
    SetTooSmall,
    SizeInfeasible,
    ZeroShift,
)
from .finite_field import FieldSpec, coset_representatives, parse_descriptor, proper_subfields
from .set_algebra import (
    FqSet,
    _sum_of_squares,
    coset_profile,
    intersection_shift_counts,
    set_op,
    shifted_product,
    translate,
)

SAMPLERS = ("uniform", "ap", "gp", "coset")
ALPHA_POLICIES = ("fixed1", "sweep", "random")


def growth_curve(n: int, q: int) -> float:
    """min(n^(1+1/52), q^(1/48) * n^(1-1/48)) in double precision."""
    return min(n ** (1 + 1 / 52), q ** (1 / 48) * n ** (1 - 1 / 48))


def garaev_shen_curve(n: int, q: int) -> float:
    """min(sqrt(q*n), n^2/sqrt(q)), the large-set comparison curve."""
    return min(math.sqrt(q) * math.sqrt(n), n * n / math.sqrt(q))


def intersection_curve(prod_size: int, q: int) -> float:
    """|AA|^(1-1/53) + q^(-1/47) * |AA|^(1+1/47)."""
    return prod_size ** (1 - 1 / 53) + q ** (-1 / 47) * prod_size ** (1 + 1 / 47)


@dataclass(frozen=True)
class SurveyRecord:
    field: str
    p: int
    m: int
    size: int
    alpha: int
    sampler: str
    seed: int
    shifted_product: int
    theorem_curve: float
    gs_curve: float
    ratio: float
    structural_pass: bool


@dataclass(frozen=True)
class CorollaryRecord:
    field: str
    p: int
    m: int
    size: int
    alpha: int
    sampler: str
    seed: int
    intersection: int
    prod_size: int
    energy: int
    corollary_curve: float
    chain_pass: bool  # exact chain: always true, asserted at construction
    structural_pass: bool


@dataclass(frozen=True)
class SurveyConfig:
    fields: tuple[str, ...]
    sizes: tuple[int, ...]
    samplers: tuple[str, ...] = ("uniform",)
    trials: int = 1
    seed: int = 0
    alpha_policy: str = "fixed1"
    out: str = "survey.csv"
    kind: str = "expander"  # a key of KINDS

    def validate(self) -> None:
        if self.trials < 1:
            raise InvalidSurveyConfig("trials must be >= 1")
        if any(s < 2 for s in self.sizes):
            raise InvalidSurveyConfig("sizes must be >= 2")
        unknown = set(self.samplers) - set(SAMPLERS)
        if unknown:
            raise InvalidSurveyConfig(f"unknown samplers {sorted(unknown)}; known: {SAMPLERS}")
        if self.alpha_policy not in ALPHA_POLICIES:
            raise InvalidSurveyConfig(f"alpha policy must be one of {ALPHA_POLICIES}")
        if self.kind not in KINDS:
            raise InvalidSurveyConfig(f"kind must be one of {tuple(KINDS)}")


SAMPLER_TAGS = {name: i for i, name in enumerate(SAMPLERS)}


def sample_set(spec: FieldSpec, sampler: str, size: int, seed: int) -> FqSet:
    """Deterministic under (sampler, seed); the coset sampler may overshoot the
    requested size because it unions whole dilates."""
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    rng = np.random.default_rng([seed, spec.p, spec.m, size, SAMPLER_TAGS[sampler]])
    q = spec.q
    if sampler == "uniform":
        if size > q:
            raise SizeInfeasible(f"size {size} > q = {q}")
        return FqSet.from_iterable(spec, rng.choice(q, size=size, replace=False))
    if sampler == "ap":
        if size > spec.p:
            raise SizeInfeasible(f"AP length {size} > p = {spec.p}")
        a = int(rng.integers(0, q))
        d = int(rng.integers(1, q))
        return FqSet.from_iterable(
            spec, (spec.add(a, spec.mul(k, d)) for k in range(size)))
    if sampler == "gp":
        if size > q - 1:
            raise SizeInfeasible(f"GP length {size} > q - 1 = {q - 1}")
        u = int(rng.integers(1, q - 1)) if q > 2 else 1
        while math.gcd(u, q - 1) != 1:
            u = int(rng.integers(1, q - 1))
        c_log = int(rng.integers(0, q - 1))
        return FqSet.from_iterable(
            spec, (int(spec.exp_table[(c_log + k * u) % (q - 1)]) for k in range(size)))
    # coset: union of random dilates of a random proper subfield
    subs = proper_subfields(spec)
    if not subs:
        raise NoProperSubfield(f"{spec.descriptor} has no proper subfields")
    if size > q:
        raise SizeInfeasible(f"size {size} > q = {q}")
    G = subs[int(rng.integers(0, len(subs)))]
    reps = coset_representatives(spec, G)
    needed = min(len(reps), max(1, math.ceil((size - 1) / (G.size - 1))))
    chosen = rng.choice(reps, size=needed, replace=False)
    members: set[int] = set()
    for c in chosen:
        members.update(int(v) for v in spec.mul_arr(G.elements.members, np.int64(c)))
    return FqSet.from_iterable(spec, members)


def expander_record(A: FqSet, alpha: int, sampler: str = "explicit",
                    seed: int = 0) -> SurveyRecord:
    """Exact |A(A+alpha)| against the growth and large-set curves, with the
    structural coset verdict at kappa = 1."""
    if alpha % A.spec.q == 0:
        raise ZeroShift("alpha must be nonzero")
    if len(A) < 2:
        raise SetTooSmall("need |A| >= 2")
    spec = A.spec
    value = len(shifted_product(A, alpha))
    curve = growth_curve(len(A), spec.q)
    return SurveyRecord(
        field=spec.descriptor, p=spec.p, m=spec.m, size=len(A), alpha=int(alpha),
        sampler=sampler, seed=int(seed), shifted_product=value,
        theorem_curve=curve, gs_curve=garaev_shen_curve(len(A), spec.q),
        ratio=value / curve, structural_pass=coset_profile(A, 25, 26, A),
    )


def corollary_record(A: FqSet, alpha: int, sampler: str = "explicit",
                     seed: int = 0) -> CorollaryRecord:
    """|A ∩ (A-alpha)|, |AA| and E+(A) with the intersection curve.

    One pair count of A serves both: the shift counts |A ∩ (A-d)| give the
    intersection at d = alpha, and E+(A) is the sum of their squares.

    Two constant-free facts are checked on every record: the energy is at most
    |A|^2 times the largest difference-representation count (the maximum runs
    over the whole difference set), and S = A ∩ (A-a) satisfies S, S+a ⊆ A,
    hence |S(S+a)| <= |AA|.
    """
    spec = A.spec
    if alpha % spec.q == 0:
        raise ZeroShift("alpha must be nonzero")
    if len(A) < 2:
        raise SetTooSmall("need |A| >= 2")
    counts = intersection_shift_counts(A)
    inter = int(counts[alpha % spec.q])
    prod = set_op(A, A, "prod")
    energy = _sum_of_squares(counts)

    max_all = int(counts.max())
    if energy > len(A) ** 2 * max_all:
        raise InvariantViolated(f"energy {energy} exceeds |A|^2 * {max_all}")

    S = A.intersect(translate(A, spec.neg(alpha % spec.q)))
    chain_pass = True
    if len(S):
        S_shift = translate(S, alpha)
        if not (S.is_subset(A) and S_shift.is_subset(A)):
            raise InvariantViolated("A ∩ (A - alpha) or its shift by alpha leaves A")
        if len(set_op(S, S_shift, "prod")) > len(prod):
            raise InvariantViolated("the subset product S(S + alpha) outgrows AA")

    return CorollaryRecord(
        field=spec.descriptor, p=spec.p, m=spec.m, size=len(A), alpha=int(alpha),
        sampler=sampler, seed=int(seed), intersection=inter, prod_size=len(prod),
        energy=energy, corollary_curve=intersection_curve(len(prod), spec.q),
        chain_pass=chain_pass, structural_pass=coset_profile(A, 50, 53, prod),
    )


# survey kind -> (CSV header line, record type, record function, the ratio a
# cell summarizes).  A kind's CSV columns are its record type's fields, in
# order, and each cell is formatted by the field's declared type (_csv_row).
# The record functions are called through their module names, so a rebinding
# of them (perfbench's span tracer) sees every call.
KINDS = {
    "expander": ("# fq-expander-lab v1", SurveyRecord,
                 lambda *args, **kw: expander_record(*args, **kw), lambda r: r.ratio),
    "corollary": ("# fq-expander-lab corollary v1", CorollaryRecord,
                  lambda *args, **kw: corollary_record(*args, **kw),
                  lambda r: r.intersection / r.corollary_curve),
}
_CELL_FORMATS = {"float": lambda v: f"{v:.6g}", "bool": lambda v: "1" if v else "0"}


def _csv_row(record) -> list[str]:
    return [_CELL_FORMATS.get(f.type, str)(getattr(record, f.name)) for f in fields(record)]


ENUMERATION_BUDGET = 10**7
MAX_MINIMIZERS = 100


def exhaustive_min_expander(spec: FieldSpec, k: int, alpha: int = 1,
                            nonzero_only: bool = False):
    """Exact minimum of |A(A+alpha)| over every k-subset of F_q (or F_q^*).

    Returns (minimum, minimizers) with at most MAX_MINIMIZERS canonically first
    witnesses; refuses instances beyond the enumeration budget.
    """
    if alpha % spec.q == 0:
        raise ZeroShift("alpha must be nonzero")
    universe = range(1, spec.q) if nonzero_only else range(spec.q)
    n = len(universe)
    if k < 1 or k > n:
        raise SizeInfeasible(f"k = {k} infeasible for universe of {n}")
    if math.comb(n, k) > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"C({n},{k}) exceeds {ENUMERATION_BUDGET}")
    add, mul = spec.add, spec.mul
    best = None
    minimizers: list[tuple[int, ...]] = []
    for A in combinations(universe, k):
        shifted = [add(a, alpha) for a in A]
        prods = {mul(a, b) for a in A for b in shifted}
        size = len(prods)
        if best is None or size < best:
            best = size
            minimizers = [A]
        elif size == best and len(minimizers) < MAX_MINIMIZERS:
            minimizers.append(A)
    return best, minimizers


def _record_seed(seed: int, cell: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, cell, trial]).generate_state(1)[0])


def run_survey(config: SurveyConfig) -> str:
    """Stream records to CSV and write a JSON summary next to it; byte-identical
    across runs for a fixed config."""
    config.validate()
    header, record_type, make, ratio = KINDS[config.kind]

    rows: list[list[str]] = []
    cells: list[dict] = []
    skipped: list[dict] = []
    cell_index = 0
    for field_desc in config.fields:
        spec = parse_descriptor(field_desc)
        for size in config.sizes:
            for sampler in config.samplers:
                records = []
                try:
                    for trial in range(config.trials):
                        rec_seed = _record_seed(config.seed, cell_index, trial)
                        A = sample_set(spec, sampler, size, rec_seed)
                        for alpha in _alphas(config.alpha_policy, spec, rec_seed):
                            records.append(make(A, alpha, sampler=sampler, seed=rec_seed))
                except (SizeInfeasible, NoProperSubfield) as exc:
                    skipped.append({"field": field_desc, "size": size,
                                    "sampler": sampler, "reason": type(exc).__name__})
                    cell_index += 1
                    continue
                rows.extend(_csv_row(r) for r in records)
                cells.append(_summarize_cell(field_desc, size, sampler, records, ratio))
                cell_index += 1

    try:
        with open(config.out, "w", newline="") as fh:
            fh.write(header + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(f.name for f in fields(record_type))
            writer.writerows(rows)
        summary_path = config.out + ".summary.json"
        summary = {
            "config": {
                "fields": list(config.fields), "sizes": list(config.sizes),
                "samplers": list(config.samplers), "trials": config.trials,
                "seed": config.seed, "alpha_policy": config.alpha_policy,
                "kind": config.kind,
            },
            "cells": cells,
            "skipped": skipped,
        }
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return config.out


def _alphas(policy: str, spec: FieldSpec, rec_seed: int):
    if policy == "fixed1":
        return [1]
    if policy == "sweep":
        return list(range(1, spec.q))
    rng = np.random.default_rng([rec_seed, 0xA1F])
    return [int(rng.integers(1, spec.q))]


def _round6(x: float) -> float:
    return float(f"{x:.6g}")


def _summarize_cell(field_desc: str, size: int, sampler: str, records, ratio):
    out = {"field": field_desc, "size": size, "sampler": sampler,
           "records": len(records)}
    if not records:
        return out
    ratios = sorted(map(ratio, records))
    out["min_ratio"] = _round6(ratios[0])
    out["median_ratio"] = _round6(ratios[len(ratios) // 2])
    out["structural_pass_fraction"] = _round6(
        sum(r.structural_pass for r in records) / len(records))
    return out
