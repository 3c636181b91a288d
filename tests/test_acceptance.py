"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them live).

All expected values are either computed by independent brute-force oracles in
pools.py, frozen from a one-off enumeration, or are exact statements whose
failure would indicate an implementation bug.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from fqlab.cli import main as cli_main
from fqlab.decompositions import (
    _min_diffset_subset,
    _min_sumset_subset,
    covering_number,
    dyadic_energy_slice,
    points_certificates,
    popular_points,
    run_proof_trace,
    slice_certificates,
)
from fqlab.errors import TraceDegenerate
from fqlab.finite_field import build_field, parse_descriptor
from fqlab.lemma_oracles import batch_verify, generate_instance
from fqlab.set_algebra import (
    FqSet,
    additive_energy,
    multiplicative_energy,
    set_op,
    shifted_product,
)
from fqlab.survey import SurveyConfig, corollary_record, exhaustive_min_expander, run_survey
from pools import (
    EXACT,
    GREEDY,
    draw_set,
    naive_additive_energy,
    naive_cover_min,
    naive_min_expander,
    naive_multiplicative_energy,
    naive_set_op,
    naive_shifted_product,
    on_path,
    pool_field,
    verify_trace_case,
)

SEED = 20260809
TRIALS = 1000

# the constant-free lemma families of the exact suite
EXACT_FAMILIES = ("rbcard", "rbfq", "energy_identities", "energy_cs",
                  "ruzsa_triangle", "plunnecke", "ratio_to_shift")


def _announce(number: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def test_criterion_1_exact_lemma_suite():
    t0 = time.time()
    totals = {}
    for family in EXACT_FAMILIES:
        reports = batch_verify(family, trials=TRIALS, seed=SEED)
        assert len(reports) == TRIALS
        bad = [r for r in reports if r.verdict != "ExactPass"]
        assert not bad, f"{family}: {len(bad)} non-pass verdicts, first {bad[:1]}"
        totals[family] = len(reports)
    # corollary exact chain on its own randomized pool
    chain_count = 0
    for i in range(TRIALS):
        spec = pool_field(i)
        rng = np.random.default_rng([SEED, 77, i])
        size = int(rng.integers(2, min(12, spec.q) + 1))
        A = FqSet.from_iterable(spec, rng.choice(spec.q, size=size, replace=False))
        alpha = int(rng.integers(1, spec.q))
        rec = corollary_record(A, alpha)  # exact chain asserted inside
        assert rec.chain_pass
        chain_count += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"exact suite took {elapsed:.1f}s (budget 300s)"
    _announce(1, True, f"exact lemma suite: {sum(totals.values()) + chain_count} "
                       f"instances across {len(EXACT_FAMILIES) + 1} families, "
                       f"100% pass in {elapsed:.1f}s")


def _derive_pair(kwargs):
    """Map a criterion-1 instance onto a slice-admissible (X, Y) pair."""
    sets = []
    for value in kwargs.values():
        if isinstance(value, FqSet):
            sets.append(value)
        elif isinstance(value, list):
            sets.extend(s for s in value if isinstance(s, FqSet))
    if not sets:
        return None
    X = sets[0].nonzero()
    Y = sets[1] if len(sets) > 1 else sets[0]
    if len(Y) > len(X):
        X, Y = Y.nonzero(), X
    if len(X) == 0 or len(Y) == 0 or len(Y) > len(X) or len(X) * len(Y) < 2:
        return None
    if len(Y.nonzero()) == 0:  # zero-numerator singleton: nothing to slice
        return None
    return X, Y


def test_criterion_2_dyadic_slice_certificates():
    t0 = time.time()
    checked = skipped = 0
    for family in EXACT_FAMILIES:
        for i in range(TRIALS):
            kwargs = generate_instance(family, SEED, i)
            pair = _derive_pair(kwargs) if kwargs else None
            if pair is None:
                skipped += 1
                continue
            sl = dyadic_energy_slice(*pair)
            certs = slice_certificates(sl)
            assert certs["level_band"], (family, i)
            assert certs["energy_ok"], (family, i)
            assert certs["mass_strict"], (family, i)
            checked += 1
    assert checked >= 6000
    _announce(2, True, f"dyadic slice certificates: {checked} slices "
                       f"(skipped {skipped} degenerate pairs) in {time.time()-t0:.1f}s")


def test_criterion_3_popular_point_replay():
    t0 = time.time()
    done = 0
    i = 0
    while done < 200:
        kwargs = generate_instance("rudnev", SEED, i)
        i += 1
        if kwargs is None:
            continue
        X, Y = kwargs["X"], kwargs["Y"]
        sl = dyadic_energy_slice(X, Y)
        pts = popular_points(sl)
        chain = points_certificates(sl, pts)
        assert chain["all"], (i, chain)
        # independent recomputation of every stored slice set
        spec = X.spec
        pair_list = [(int(x), int(y)) for x, y in sl.pairs]
        for z, stored in pts.S.items():
            xi = spec.div(z, pts.x0)
            fresh = sorted(x for x, y in pair_list
                           if spec.div(y, x) == xi and x in pts.B_y0)
            assert fresh == [int(v) for v in stored.members]
        done += 1
    _announce(3, True, f"popular-point replay: {done} instances, tracked-constant "
                       f"chain and recomputation 100% in {time.time()-t0:.1f}s")


def test_criterion_4_witness_lemmas():
    t0 = time.time()
    reports = batch_verify("bou_glib_pivot", trials=500, seed=SEED)
    assert len(reports) == 500
    assert all(r.verdict == "WitnessFound" for r in reports)
    # exhaustive vs greedy agreement on every small instance
    agree = 0
    rng = np.random.default_rng([SEED, 4])
    for i in range(150):
        spec = pool_field(i)
        X = draw_set(rng, spec, int(rng.integers(3, min(13, spec.q))))
        S = draw_set(rng, spec, int(rng.integers(1, min(6, spec.q))))
        floor = max(1, (3 * len(X)) // 4)
        _, ex = on_path(EXACT, _min_sumset_subset, X, S, floor)
        _, gr = on_path(GREEDY, _min_sumset_subset, X, S, floor)
        assert ex <= gr
        Xn = X.nonzero()
        if len(Xn) >= 2:
            half = max(1, len(Xn) // 2)
            _, exd = on_path(EXACT, _min_diffset_subset, Xn, half)
            _, grd = on_path(GREEDY, _min_diffset_subset, Xn, half)
            assert exd <= grd
        target = draw_set(rng, spec, int(rng.integers(2, min(10, spec.q))))
        tile = draw_set(rng, spec, int(rng.integers(1, min(5, spec.q))))
        cx, _ = on_path(EXACT, covering_number, target, tile, 1)
        cg, _ = on_path(GREEDY, covering_number, target, tile, 1)
        assert cx <= cg
        agree += 1
    assert agree == 150
    _announce(4, True, f"witness lemmas: 500 pivot bounds met, {agree} "
                       f"exhaustive<=greedy agreements in {time.time()-t0:.1f}s")


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng([SEED, 5])
    ops = energies = covers = 0
    for i in range(150):
        spec = pool_field(i)
        A = draw_set(rng, spec, int(rng.integers(1, min(20, spec.q) + 1)))
        B = draw_set(rng, spec, int(rng.integers(1, min(20, spec.q) + 1)))
        kind = ("sum", "diff", "prod", "ratio")[i % 4]
        if kind == "ratio":
            B = B.nonzero()
            if len(B) == 0:
                continue
        assert list(set_op(A, B, kind)) == naive_set_op(spec, list(A), list(B), kind)
        ops += 1
    for i in range(80):
        spec = pool_field(i)
        A = draw_set(rng, spec, int(rng.integers(2, min(20, spec.q) + 1)))
        alpha = int(rng.integers(1, spec.q))
        assert (list(shifted_product(A, alpha))
                == naive_shifted_product(spec, list(A), alpha))
        assert additive_energy(A) == naive_additive_energy(spec, list(A))
        Y = draw_set(rng, spec, int(rng.integers(2, min(20, spec.q) + 1)))
        if len(A.nonzero()) and len(Y.nonzero()):
            assert (multiplicative_energy(A, Y)
                    == naive_multiplicative_energy(spec, list(A), list(Y)))
        energies += 1
    for i in range(60):
        spec = pool_field(i)
        target = draw_set(rng, spec, int(rng.integers(2, min(13, spec.q))))
        tile = draw_set(rng, spec, int(rng.integers(
            max(2, len(target) // 3), min(7, spec.q))))
        sign = 1 if i % 2 else -1
        count, _ = on_path(EXACT, covering_number, target, tile, sign)
        assert count == naive_cover_min(spec, list(target), list(tile), sign)
        covers += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"oracle equivalence took {elapsed:.1f}s (budget 120s)"
    _announce(5, True, f"oracle equivalence: {ops} set ops, {energies} energy "
                       f"instances, {covers} exact covers in {elapsed:.1f}s")


# frozen by a one-off full enumeration (independent scalar-arithmetic script);
# keys are (p, k, nonzero_only)
FROZEN_MINIMA = {
    (5, 2, False): 2, (5, 2, True): 3,
    (5, 3, False): 4, (5, 3, True): 4,
    (5, 4, False): 5, (5, 4, True): 5,
    (7, 3, False): 4, (7, 3, True): 5,
    (7, 4, False): 6, (7, 4, True): 6,
    (13, 3, False): 4, (13, 3, True): 5,
}


def test_criterion_6_exhaustive_expander_ground_truth():
    t0 = time.time()
    for (p, k, nonzero), frozen in FROZEN_MINIMA.items():
        spec = build_field(p, 1)
        got, minimizers = exhaustive_min_expander(spec, k, alpha=1,
                                                  nonzero_only=nonzero)
        assert got == frozen, (p, k, nonzero)
        assert (got, minimizers) == naive_min_expander(spec, k, 1, nonzero), (p, k, nonzero)
        for A in minimizers[:5]:
            assert len(naive_shifted_product(spec, A, 1)) == got
    _announce(6, True, f"exhaustive ground truth: {len(FROZEN_MINIMA)} frozen "
                       f"minima re-derived in {time.time()-t0:.1f}s")


TRACE_POOL_FIELDS = ("5^1", "7^1", "2^3", "3^2", "11^1", "13^1", "2^4",
                     "5^2", "3^3", "2^6")
CASE_LABELS = {"1.1", "1.2", "2", "3", "4.1", "4.2", "4.3"}


def test_criterion_7_proof_trace_totality():
    t0 = time.time()
    done = degenerate = big_quotient = 0
    index = 0
    while done < 500:
        rng = np.random.default_rng([SEED, 7, index])
        spec = parse_descriptor(TRACE_POOL_FIELDS[index % len(TRACE_POOL_FIELDS)])
        size = int(rng.integers(4, min(13, spec.q)))
        members = rng.choice(np.arange(1, spec.q), size=size, replace=False)
        alpha = 1 if index % 2 else int(rng.integers(1, spec.q))
        index += 1
        A = FqSet.from_iterable(spec, members)
        try:
            tr = run_proof_trace(A, alpha)
        except TraceDegenerate:
            degenerate += 1
            continue
        assert tr.case in CASE_LABELS
        verify_trace_case(tr, spec)
        if len(tr.points.A_tilde) ** 2 > spec.q:
            big_quotient += 1
            assert tr.case in ("1.1", "4.1"), (tr.case, spec.descriptor)
        done += 1
    assert big_quotient >= 10, "pool never exercised the large-quotient branch"
    # determinism spot check: identical inputs yield byte-identical traces
    spec = build_field(13, 1)
    A = FqSet.from_iterable(spec, (1, 2, 4, 8, 9))
    assert (run_proof_trace(A, 1).to_json() == run_proof_trace(A, 1).to_json())
    _announce(7, True, f"proof-trace totality: 500 admissible traces "
                       f"({degenerate} degenerate draws skipped), "
                       f"{big_quotient} large-quotient inputs all in 1.1/4.1, "
                       f"witnesses re-verified in {time.time()-t0:.1f}s")


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()

    def bytes_of(path):
        with open(path, "rb") as fh:
            return fh.read()

    # verify: JSON lines and CSV summary
    v1, v2 = str(tmp_path / "v1.jsonl"), str(tmp_path / "v2.jsonl")
    for out in (v1, v2):
        assert cli_main(["verify", "all", "--trials", "3", "--seed", "11",
                         "--out", out]) == 0
    assert bytes_of(v1) == bytes_of(v2)
    c1, c2 = str(tmp_path / "v1.csv"), str(tmp_path / "v2.csv")
    for out in (c1, c2):
        assert cli_main(["verify", "ruzsa_triangle", "--trials", "10",
                         "--seed", "11", "--format", "csv", "--out", out]) == 0
    assert bytes_of(c1) == bytes_of(c2)

    # trace batch
    t1, t2 = str(tmp_path / "t1.jsonl"), str(tmp_path / "t2.jsonl")
    for out in (t1, t2):
        assert cli_main(["trace", "--trials", "4", "--seed", "13",
                         "--out", out]) == 0
    assert bytes_of(t1) == bytes_of(t2)
    for line in bytes_of(t1).decode().strip().splitlines():
        json.loads(line)

    # survey CSV + JSON summary
    s1, s2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    for out in (s1, s2):
        cfg = SurveyConfig(fields=("13^1", "2^4"), sizes=(3, 5),
                           samplers=("uniform", "gp"), trials=2, seed=17, out=out)
        run_survey(cfg)
    assert bytes_of(s1) == bytes_of(s2)
    assert (json.loads(bytes_of(s1 + ".summary.json"))["cells"]
            == json.loads(bytes_of(s2 + ".summary.json"))["cells"])
    _announce(8, True, f"determinism: verify/trace/survey byte-identical "
                       f"across reruns in {time.time()-t0:.1f}s")
