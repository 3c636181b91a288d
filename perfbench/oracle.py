"""Independent checks of fqlab's outputs, used on every seed.

Field addition here is written from the encoding alone (an element is the
integer sum of its base-p digits times powers of p), so it shares no code
with ``FieldSpec.add_arr``.  Products go through the field's exp/log tables,
which the field layer verifies when it builds them.  The sets themselves come
from fqlab's seeded samplers: they are inputs, not outputs under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

PROOF_CASES = ("1.1", "1.2", "2", "3", "4.1", "4.2", "4.3")


def add(spec, a, b, sign: int = 1) -> np.ndarray:
    """a + sign*b, digit by digit in base p (broadcasting)."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    pk = 1
    for _ in range(spec.m):
        out += ((a // pk % spec.p + sign * (b // pk % spec.p)) % spec.p) * pk
        pk *= spec.p
    return out


def product_set(spec, a, b) -> np.ndarray:
    """Sorted distinct products of a and b through the exp/log tables."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    seen = np.zeros(spec.q, dtype=bool)
    an, bn = a[a != 0], b[b != 0]
    if an.size and bn.size:
        logs = spec.log_table[bn]
        for x in spec.log_table[an]:
            seen[spec.exp_table[(x + logs) % (spec.q - 1)]] = True
    if an.size < a.size or bn.size < b.size:
        seen[0] = True
    return np.flatnonzero(seen)


def difference_set(spec, a, b) -> np.ndarray:
    seen = np.zeros(spec.q, dtype=bool)
    for start in range(0, a.size, 256):
        seen[add(spec, a[start:start + 256, None], b[None, :], -1)] = True
    return np.flatnonzero(seen)


def additive_energy(spec, a) -> int:
    counts = np.zeros(spec.q, dtype=np.int64)
    for start in range(0, a.size, 256):
        diffs = add(spec, a[start:start + 256, None], a[None, :], -1)
        counts += np.bincount(diffs.ravel(), minlength=spec.q)
    return int(np.dot(counts, counts))


def max_coset_counts(spec, a) -> list[tuple[int, int]]:
    """(|G|, max_c |A ∩ cG|) for every proper subfield G, by counting logs."""
    nonzero = a[a != 0]
    zero_in = int(nonzero.size != a.size)
    out = []
    for d in range(1, spec.m):
        if spec.m % d:
            continue
        g = spec.p**d
        n = (spec.q - 1) // (g - 1)
        counts = np.bincount(spec.log_table[nonzero] % n, minlength=n)
        out.append((g, int(counts.max()) + zero_in))
    return out


def structural_pass(spec, a, num: int, den: int, ref: int) -> bool:
    """kappa = 1 verdict: every coset has t^2 <= |G| or t^den <= ref^num."""
    return all(t * t <= g or t**den <= ref**num for g, t in max_coset_counts(spec, a))


def _g6(x: float) -> str:
    return f"{x:.6g}"


def _round6(x: float) -> float:
    return float(f"{x:.6g}")


def growth_curve(n: int, q: int) -> float:
    return min(n ** (1 + 1 / 52), q ** (1 / 48) * n ** (1 - 1 / 48))


def garaev_shen_curve(n: int, q: int) -> float:
    return min(math.sqrt(q) * math.sqrt(n), n * n / math.sqrt(q))


def intersection_curve(prod_size: int, q: int) -> float:
    return prod_size ** (1 - 1 / 53) + q ** (-1 / 47) * prod_size ** (1 + 1 / 47)


def check_survey(kind: str, items: list[bytes], seed: int, config: dict,
                 sample_set, parse_descriptor) -> list[bool]:
    """One verdict per item: each CSV row recomputed, then the header+summary."""
    rows = list(csv.reader(io.StringIO(b"".join(items[:-1]).decode())))
    verdicts, ratios = [], []
    for row in rows:
        field, _, _, size, alpha, sampler, rec_seed = row[:7]
        spec = parse_descriptor(field)
        n, alpha = int(size), int(alpha)
        a = sample_set(spec, sampler, n, int(rec_seed)).members
        key = [field, str(spec.p), str(spec.m), str(len(a)), str(alpha), sampler, rec_seed]
        if kind == "expander":
            value = product_set(spec, a, add(spec, a, alpha)).size
            curve = growth_curve(n, spec.q)
            ratio = value / curve
            expected = key + [str(value), _g6(curve), _g6(garaev_shen_curve(n, spec.q)),
                               _g6(ratio), str(int(structural_pass(spec, a, 25, 26, n)))]
        else:
            members = set(a.tolist())
            inter = sum(int(x) in members for x in add(spec, a, alpha, -1))
            prod = product_set(spec, a, a).size
            curve = intersection_curve(prod, spec.q)
            ratio = inter / curve
            expected = key + [str(inter), str(prod), str(additive_energy(spec, a)),
                               _g6(curve), "1",
                               str(int(structural_pass(spec, a, 50, 53, prod)))]
        verdicts.append(row == expected)
        ratios.append((field, n, sampler, ratio, row[-1] == "1"))
    header = "# fq-expander-lab v1" if kind == "expander" else "# fq-expander-lab corollary v1"
    text = items[-1].decode()
    head, _, summary = text.partition("\n")
    columns, _, summary = summary.partition("\n")
    cells = [{"field": f, "size": n, "sampler": s, "records": 1,
              "min_ratio": _round6(r), "median_ratio": _round6(r),
              "structural_pass_fraction": _round6(float(ok))}
             for f, n, s, r, ok in ratios]
    expected_summary = {"config": dict(config, seed=seed, kind=kind), "cells": cells,
                        "skipped": []}
    try:
        summary_ok = json.loads(summary) == expected_summary
    except json.JSONDecodeError:
        summary_ok = False
    expected_columns = ("field,p,m,size,alpha,sampler,seed," + (
        "shifted_product,theorem_curve,gs_curve,ratio,structural_pass" if kind == "expander"
        else "intersection,prod_size,energy,corollary_curve,chain_pass,structural_pass"))
    return verdicts + [summary_ok and head == header and columns == expected_columns]


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def check_trace(item: bytes, spec, members: list[int]) -> bool:
    """Recompute the trace's exact ratios from its own refined subset."""
    obj = json.loads(item)
    a_prime, a2 = obj["a_prime"], obj["a_dprime"]
    if (obj["field"] != spec.descriptor or obj["input"] != members or obj["alpha"] != 1
            or not set(a_prime) <= set(members) or len(a_prime) != math.ceil(len(members) / 2)
            or not set(a2) <= set(a_prime) or len(a2) < 2 or obj["case"] not in PROOF_CASES):
        return False
    minus_one = int(add(spec, 0, 1, -1))
    if minus_one in a2 or (obj["removed_minus_alpha"] and minus_one not in a_prime):
        return False
    a2 = np.array(a2, dtype=np.int64)
    n2 = a2.size
    shifted = product_set(spec, a2, add(spec, a2, 1)).size
    diff = difference_set(spec, a2, a2)
    diff4 = difference_set(spec, difference_set(spec, diff, a2), a2)
    return (obj["diff_ratio"] == _frac(Fraction(diff.size * n2**7, shifted**8))
            and obj["iterated_ratio"] == _frac(Fraction(diff4.size * n2**23, shifted**24))
            and obj["gamma"] == _frac(Fraction(n2**2 * shifted**4, obj["slice"]["M"] ** 2)))
