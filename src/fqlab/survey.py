"""Empirical survey of shifted-product growth: seeded instance generation,
exact measurement of |A(A+alpha)| against the two reference curves, the
intersection/energy record with its exact chain, desk-scale exhaustive minima
(scored by the subset searches' exhaustive scorer in decompositions), and
deterministic CSV/JSON persistence.

Curves are asymptotic guides with unknown constants: they are evaluated in
double precision and reported, never used as verdicts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .decompositions import _min_subsets
from .errors import (
    BudgetExceeded,
    InvariantViolated,
    InvalidSurveyConfig,
    IoFailure,
    NoProperSubfield,
    SetTooSmall,
    SizeInfeasible,
)
from .finite_field import (
    FieldSpec, _scalar, coset_representatives, parse_descriptor, proper_subfields)
from .set_algebra import FqSet, additive_energy, coset_profile, set_op_size, translate

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
        for name in ("fields", "sizes", "samplers"):
            if not getattr(self, name):
                raise InvalidSurveyConfig(f"{name} must name at least one value")
        if self.trials < 1:
            raise InvalidSurveyConfig("trials must be >= 1")
        if self.seed < 0:
            raise InvalidSurveyConfig("seed must be >= 0")
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
    """Deterministic under (sampler, seed).  The AP and the GP are one array op
    each; the coset sampler may overshoot the size as it unions whole dilates."""
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
        return FqSet.from_iterable(spec, spec.add_arr(a, spec.mul_arr(np.arange(size), d)))
    if sampler == "gp":
        if size > q - 1:
            raise SizeInfeasible(f"GP length {size} > q - 1 = {q - 1}")
        u = int(rng.integers(1, q - 1)) if q > 2 else 1
        while math.gcd(u, q - 1) != 1:
            u = int(rng.integers(1, q - 1))
        c_log = int(rng.integers(0, q - 1))
        return FqSet.from_iterable(
            spec, spec.exp_table[(c_log + u * np.arange(size, dtype=np.int64)) % (q - 1)])
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
    return FqSet.from_iterable(spec, spec.mul_arr(chosen[:, None], G.elements.members).ravel())


def expander_record(A: FqSet, alpha: int, sampler: str = "explicit",
                    seed: int = 0) -> SurveyRecord:
    """Exact |A(A+alpha)| against the growth and large-set curves, with the
    structural coset verdict at kappa = 1."""
    alpha = _scalar(alpha, "alpha", A.spec.q, nonzero=True)
    if len(A) < 2:
        raise SetTooSmall("need |A| >= 2")
    spec = A.spec
    value = set_op_size(A, translate(A, alpha), "prod")
    curve = growth_curve(len(A), spec.q)
    return SurveyRecord(
        field=spec.descriptor, p=spec.p, m=spec.m, size=len(A), alpha=alpha,
        sampler=sampler, seed=int(seed), shifted_product=value,
        theorem_curve=curve, gs_curve=garaev_shen_curve(len(A), spec.q),
        ratio=value / curve, structural_pass=coset_profile(A, 25, 26, A),
    )


def corollary_record(A: FqSet, alpha: int, sampler: str = "explicit",
                     seed: int = 0) -> CorollaryRecord:
    """|A ∩ (A-alpha)|, |AA| and E+(A) with the intersection curve.

    The intersection is the size of S = A ∩ (A-alpha), which the chain
    below needs as a set anyway, and E+(A) is ``additive_energy``: no
    q-length shift counts are built.

    Two constant-free facts are checked on every record: the energy is at
    most |A|^2 times the largest shift count |A ∩ (A-d)|, which is |A| (at
    d = 0), so at most |A|^3; and S satisfies S, S+a ⊆ A, hence
    |S(S+a)| <= |AA|.
    """
    spec = A.spec
    alpha = _scalar(alpha, "alpha", spec.q, nonzero=True)
    if len(A) < 2:
        raise SetTooSmall("need |A| >= 2")
    prod = set_op_size(A, A, "prod")
    energy = additive_energy(A)
    if energy > len(A) ** 3:
        raise InvariantViolated(f"energy {energy} exceeds |A|^3 = {len(A) ** 3}")

    S = A.intersect(translate(A, spec.neg(alpha)))
    if len(S):
        S_shift = translate(S, alpha)
        if not (S.is_subset(A) and S_shift.is_subset(A)):
            raise InvariantViolated("A ∩ (A - alpha) or its shift by alpha leaves A")
        if set_op_size(S, S_shift, "prod") > prod:
            raise InvariantViolated("the subset product S(S + alpha) outgrows AA")

    return CorollaryRecord(
        field=spec.descriptor, p=spec.p, m=spec.m, size=len(A), alpha=alpha,
        sampler=sampler, seed=int(seed), intersection=len(S), prod_size=prod,
        energy=energy, corollary_curve=intersection_curve(prod, spec.q),
        chain_pass=True, structural_pass=coset_profile(A, 50, 53, prod),
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
SWEEP_RECORD_BUDGET = 10**6  # records an alpha sweep may write: q - 1 for each set
MAX_MINIMIZERS = 100


def exhaustive_min_expander(spec: FieldSpec, k: int, alpha: int = 1,
                            nonzero_only: bool = False):
    """Exact minimum of |A(A+alpha)| over every k-subset of F_q (or F_q^*).

    Returns (minimum, minimizers) with at most MAX_MINIMIZERS canonically first
    witnesses, scored by the subset searches' exhaustive scorer on the
    universe x (universe + alpha) product grid; refuses instances whose
    subsets or grid cells exceed the enumeration budget.
    """
    alpha = _scalar(alpha, "alpha", spec.q, nonzero=True)
    k = _scalar(k, "k")
    universe = np.arange(int(nonzero_only), spec.q)
    n = len(universe)
    if k < 1 or k > n:
        raise SizeInfeasible(f"k = {k} infeasible for universe of {n}")
    if math.comb(n, k) > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"C({n},{k}) exceeds {ENUMERATION_BUDGET}")
    if n * n > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"the {n} x {n} product grid exceeds {ENUMERATION_BUDGET} cells")
    grid = spec.mul_arr(universe[:, None], spec.add_arr(universe, alpha)[None, :])
    best, rows = _min_subsets(grid, k, MAX_MINIMIZERS, square=True)
    return best, [tuple(A) for A in universe[rows].tolist()]


def _record_seed(seed: int, cell: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, cell, trial]).generate_state(1)[0])


def run_survey(config: SurveyConfig) -> str:
    """Write a CSV of records and a JSON summary next to it; both are
    byte-identical across runs for a fixed config.

    Every field is built, and an alpha sweep of more than SWEEP_RECORD_BUDGET
    records is refused, before the CSV is opened; an out path that cannot be
    opened raises IoFailure before any set is drawn.  Each record's row is
    written as soon as the record is made, and a cell keeps only its ratios
    and its count of structural passes for the summary, written last.  A
    survey that stops part way (a bug, an interrupt) leaves the rows already
    written and no summary."""
    config.validate()
    header, record_type, make, ratio = KINDS[config.kind]
    specs = [parse_descriptor(f) for f in config.fields]
    if config.alpha_policy == "sweep":
        sets = len(config.sizes) * len(config.samplers) * config.trials
        records = sets * sum(spec.q - 1 for spec in specs)
        if records > SWEEP_RECORD_BUDGET:
            raise BudgetExceeded(f"an alpha sweep of this survey writes up to {records} records, "
                                 f"over {SWEEP_RECORD_BUDGET}")

    cells: list[dict] = []
    skipped: list[dict] = []
    grid = product(zip(config.fields, specs), config.sizes, config.samplers)
    try:
        with open(config.out, "w", newline="") as fh:
            fh.write(header + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(f.name for f in fields(record_type))
            for cell, ((field_desc, spec), size, sampler) in enumerate(grid):
                seeds = [_record_seed(config.seed, cell, trial) for trial in range(config.trials)]
                try:
                    sets = [sample_set(spec, sampler, size, rec_seed) for rec_seed in seeds]
                except (SizeInfeasible, NoProperSubfield) as exc:
                    skipped.append({"field": field_desc, "size": size,
                                    "sampler": sampler, "reason": type(exc).__name__})
                    continue
                ratios, passes = [], 0
                for A, rec_seed in zip(sets, seeds):
                    for alpha in _alphas(config.alpha_policy, spec, rec_seed):
                        record = make(A, alpha, sampler=sampler, seed=rec_seed)
                        writer.writerow(_csv_row(record))
                        ratios.append(ratio(record))
                        passes += record.structural_pass
                cells.append(_summarize_cell(field_desc, size, sampler, ratios, passes))
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
        with open(config.out + ".summary.json", "w") as fh:
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


def _summarize_cell(field_desc: str, size: int, sampler: str, ratios: list[float],
                    passes: int) -> dict:
    ratios.sort()
    return {"field": field_desc, "size": size, "sampler": sampler, "records": len(ratios),
            "min_ratio": _round6(ratios[0]), "median_ratio": _round6(ratios[len(ratios) // 2]),
            "structural_pass_fraction": _round6(passes / len(ratios))}
