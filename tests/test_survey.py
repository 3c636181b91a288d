import hashlib
import json
import math
from itertools import combinations

import numpy as np
import pytest

from fqlab.errors import (
    BudgetExceeded,
    ElementOutOfRange,
    InvalidSurveyConfig,
    IoFailure,
    MalformedLiteral,
    NoProperSubfield,
    SetTooSmall,
    SizeInfeasible,
    ZeroShift,
)
from fqlab import set_algebra, survey
from fqlab.finite_field import (
    build_field,
    coset_representatives,
    parse_descriptor,
    proper_subfields,
)
from fqlab.set_algebra import (
    FqSet,
    _sum_of_squares,
    additive_energy,
    dilate,
    intersection_shift_counts,
    set_op,
    shifted_product,
    translate,
)
from fqlab.survey import (
    SAMPLER_TAGS,
    SurveyConfig,
    corollary_record,
    exhaustive_min_expander,
    expander_record,
    garaev_shen_curve,
    growth_curve,
    run_survey,
    sample_set,
)
from pools import (
    LARGE_DESCRIPTOR,
    POOL_DESCRIPTORS,
    draw_set,
    force_backend,
    naive_additive_energy,
    naive_min_expander,
    naive_shifted_product,
    peak_bytes,
)

F5 = build_field(5, 1)
F7 = build_field(7, 1)
F13 = build_field(13, 1)
F16 = build_field(2, 4)


def fqset(spec, *values):
    return FqSet.from_iterable(spec, values)


def _is_affine_progression(spec, A, length):
    values = set(A)
    for a in A:
        for b in A:
            if a == b:
                continue
            d = spec.sub(b, a)
            image = {spec.add(a, spec.mul(k % spec.p, d)) for k in range(length)}
            if image == values:
                return True
    return False


def test_samplers_shapes_and_determinism():
    ap = sample_set(F13, "ap", 4, 11)
    assert len(ap) == 4 and _is_affine_progression(F13, list(ap), 4)
    gp = sample_set(F13, "gp", 3, 11)
    assert len(gp) == 3
    ratios = {F13.div(b, a) for a in gp for b in gp}
    assert len(ratios) <= 5  # geometric structure keeps the ratio set tiny
    for sampler in ("uniform", "ap", "gp"):
        assert sample_set(F13, sampler, 4, 3) == sample_set(F13, sampler, 4, 3)
    cs = sample_set(F16, "coset", 5, 2)
    assert len(cs) >= 5


def _loop_sample(spec, sampler, size, seed):
    """The gp and coset samplers element by element, from the same draws."""
    rng = np.random.default_rng([seed, spec.p, spec.m, size, SAMPLER_TAGS[sampler]])
    q = spec.q
    if sampler == "gp":
        u = int(rng.integers(1, q - 1)) if q > 2 else 1
        while math.gcd(u, q - 1) != 1:
            u = int(rng.integers(1, q - 1))
        c_log = int(rng.integers(0, q - 1))
        return sorted({int(spec.exp_table[(c_log + k * u) % (q - 1)]) for k in range(size)})
    subs = proper_subfields(spec)
    G = subs[int(rng.integers(0, len(subs)))]
    reps = coset_representatives(spec, G)
    needed = min(len(reps), max(1, math.ceil((size - 1) / (G.size - 1))))
    return sorted({spec.mul(int(c), int(g)) for c in rng.choice(reps, size=needed, replace=False)
                   for g in G.elements})


@pytest.mark.parametrize("desc", ("2^6", "3^4", "2^12", "3^7"))
@pytest.mark.parametrize("sampler", ("gp", "coset"))
def test_array_samplers_match_their_loop_definitions(desc, sampler):
    spec = parse_descriptor(desc)
    for size in (2, 10, spec.q // 3):
        for seed in range(5):
            assert list(sample_set(spec, sampler, size, seed)) == _loop_sample(
                spec, sampler, size, seed)


def test_sampler_errors():
    with pytest.raises(SizeInfeasible):
        sample_set(F5, "uniform", 6, 0)
    with pytest.raises(SizeInfeasible):
        sample_set(F5, "ap", 6, 0)
    with pytest.raises(SizeInfeasible):
        sample_set(F5, "gp", 5, 0)
    with pytest.raises(NoProperSubfield):
        sample_set(F5, "coset", 2, 0)


def test_expander_record_example():
    A = fqset(F13, 1, 2, 4)
    rec = expander_record(A, 1)
    assert rec.shifted_product == len(naive_shifted_product(F13, [1, 2, 4], 1)) == 9
    assert rec.theorem_curve == pytest.approx(min(3 ** (1 + 1 / 52),
                                                  13 ** (1 / 48) * 3 ** (1 - 1 / 48)))
    assert rec.gs_curve == pytest.approx(min(math.sqrt(13 * 3), 9 / math.sqrt(13)))
    assert rec.ratio == pytest.approx(9 / rec.theorem_curve)
    assert rec.structural_pass
    with pytest.raises(ZeroShift):
        expander_record(A, 0)


def test_expander_record_dilate_invariance():
    A = fqset(F13, 1, 2, 4)
    for c in (2, 3, 7):
        cA = dilate(A, c)
        calpha = F13.mul(c, 1)
        assert len(shifted_product(cA, calpha)) == len(shifted_product(A, 1))


def test_corollary_record_ap_example():
    A = fqset(F13, 0, 1, 2, 3)
    rec = corollary_record(A, 1)
    S = A.intersect(translate(A, F13.neg(1)))
    assert rec.intersection == len(S) == 3
    assert len(set_op(S, translate(S, 1), "prod")) <= rec.prod_size
    assert rec.chain_pass and rec.energy == 44


def test_corollary_record_vacuous_when_alpha_outside_difference_set():
    A = fqset(F13, 0, 6)
    rec = corollary_record(A, 1)
    assert rec.intersection == 0 and rec.chain_pass


def test_corollary_chain_randomized():
    rng = np.random.default_rng(2)
    for i in range(300):
        spec = (F5, F7, F13, F16, build_field(3, 3))[i % 5]
        size = int(rng.integers(2, min(12, spec.q) + 1))
        A = FqSet.from_iterable(spec, rng.choice(spec.q, size=size, replace=False))
        alpha = int(rng.integers(1, spec.q))
        rec = corollary_record(A, alpha)  # asserts the exact chain internally
        assert rec.chain_pass


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + (LARGE_DESCRIPTOR,))
@pytest.mark.parametrize("backend", ("grid", "triangle", "transform", "small grid blocks"))
def test_corollary_energy_matches_additive_energy_and_naive_oracle(desc, backend, monkeypatch):
    # the record's energy, and the sum of squares of the shift counts: two routes
    spec = parse_descriptor(desc)
    force_backend(monkeypatch, "grid" if backend == "small grid blocks" else backend)
    rng = np.random.default_rng([77, spec.q])
    for size in (2, 5, min(30, spec.q)):
        A = draw_set(rng, spec, size)
        if backend == "small grid blocks":  # blocks of 3 rows: the counts span several
            monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", 3 * len(A))
        alpha = int(rng.integers(1, spec.q))
        energy = corollary_record(A, alpha).energy
        assert energy == additive_energy(A) == naive_additive_energy(spec, list(A))
        assert energy == _sum_of_squares(intersection_shift_counts(A))


def test_corollary_invariant_survives_python_O():
    import os
    import subprocess
    import sys

    import fqlab

    # E+(A) <= |A|^2 * max_alpha |A ∩ (A - alpha)| = |A|^3, so |A|^3 + 1 breaks it
    script = ("import fqlab.survey as survey\n"
              "from fqlab.errors import InvariantViolated\n"
              "from fqlab.finite_field import build_field\n"
              "from fqlab.set_algebra import FqSet\n"
              "A = FqSet.from_iterable(build_field(7, 1), [1, 2, 4])\n"
              "survey.additive_energy = lambda A: len(A) ** 3 + 1\n"
              "try:\n"
              "    survey.corollary_record(A, 1)\n"
              "except InvariantViolated as exc:\n"
              "    print(type(exc).__name__, __debug__)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fqlab.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["InvariantViolated", "False"], proc.stderr


def test_exhaustive_min_expander_small():
    best, argmins = exhaustive_min_expander(F5, 2, nonzero_only=True)
    assert (best, argmins) == naive_min_expander(F5, 2, 1, True) and best == 3
    assert all(len(a) == 2 for a in argmins)
    best, _ = exhaustive_min_expander(F5, 1)
    assert best == 1  # singletons cannot spread
    with pytest.raises(BudgetExceeded):
        exhaustive_min_expander(build_field(2, 10), 9)


@pytest.mark.parametrize("p, m, alpha, error", [
    (2, 3, 9, ElementOutOfRange), (3, 2, 10, ElementOutOfRange), (7, 1, 8, ElementOutOfRange),
    (7, 1, -1, ElementOutOfRange), (7, 1, 7, ZeroShift), (2, 3, -8, ZeroShift),
    (7, 1, 1.5, MalformedLiteral), (7, 1, 1.0, MalformedLiteral), (7, 1, True, MalformedLiteral)])
def test_exhaustive_min_expander_checks_the_shift_like_the_records(p, m, alpha, error):
    # a shift that is not an integer is refused as FqSet.from_iterable refuses
    # it, and one outside [0, q) as shifted_product refuses it, with a multiple
    # of q a ZeroShift first; for A = {1, 3} on F_7, A ∩ (A - 8) is empty
    spec = build_field(p, m)
    A = FqSet.from_iterable(spec, [1, 2])
    for call in (lambda: exhaustive_min_expander(spec, 2, alpha),
                 lambda: shifted_product(A, alpha), lambda: expander_record(A, alpha),
                 lambda: corollary_record(A, alpha),
                 lambda: corollary_record(FqSet.from_iterable(spec, [1, 3]), alpha)):
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("k", [2.5, "3", True, np.float64(2)])
def test_exhaustive_min_expander_takes_only_an_integer_k(k):
    # a bool, a float or a string is no size; True must not run as k = 1
    with pytest.raises(MalformedLiteral):
        exhaustive_min_expander(F7, k)


def test_exhaustive_min_expander_refuses_a_grid_past_the_budget():
    # C(4095, 1) subsets are within the budget, the 4095 x 4095 grid is not
    with pytest.raises(BudgetExceeded, match="grid"):
        exhaustive_min_expander(build_field(2, 12), 1, nonzero_only=True)


def test_exhaustive_minimizers_match_the_listing(monkeypatch):
    # the minimum and the first MAX_MINIMIZERS minimizers against the scalar
    # listing, on the pool fields for k = 1..4 while the listing stays small;
    # 3^4 at k = 2 on F_q^* ties 118 subsets and is capped.  With the blocks
    # patched small each search spans many of them, the capped list too
    cases = [(spec, k, alpha, nonzero) for spec in map(parse_descriptor, POOL_DESCRIPTORS)
             for k in range(1, 5) for nonzero in (False, True)
             if 0 < math.comb(spec.q - nonzero, k) <= 2000 for alpha in (1, spec.q - 1)]
    cases.append((parse_descriptor("3^4"), 2, 1, True))
    for spec, k, alpha, nonzero in cases:
        want = naive_min_expander(spec, k, alpha, nonzero)
        for block_cells in (set_algebra.PAIR_BLOCK_CELLS, 50):
            monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", block_cells)
            got = exhaustive_min_expander(spec, k, alpha, nonzero_only=nonzero)
            assert got == want, (spec.descriptor, k, alpha, nonzero, block_cells)
    best, minimizers = want
    assert len(minimizers) == survey.MAX_MINIMIZERS < sum(
        len(naive_shifted_product(spec, A, 1)) == best for A in combinations(range(1, 81), 2))


def test_exhaustive_minimizers_are_canonical_and_verified():
    best, argmins = exhaustive_min_expander(F7, 3)
    assert argmins == sorted(argmins)
    for A in argmins:
        assert len(naive_shifted_product(F7, A, 1)) == best


@pytest.mark.parametrize("p, m, k", [(5, 1, 2), (7, 1, 3), (2, 3, 3), (3, 2, 3), (2, 4, 3),
                                     (5, 2, 3)])
def test_exhaustive_minimum_is_invariant_under_dilation(p, m, k):
    """(cA)(cA + c*alpha) = c^2 * A(A + alpha), so the minimum of |A(A+alpha)|
    is the same for every alpha != 0 and c*A attains it at alpha = c."""
    spec = build_field(p, m)
    for nonzero in (False, True):
        best, minimizers = exhaustive_min_expander(spec, k, alpha=1, nonzero_only=nonzero)
        for c in range(1, spec.q):
            assert exhaustive_min_expander(spec, k, alpha=c, nonzero_only=nonzero)[0] == best
            for A in minimizers:
                cA = [spec.mul(c, a) for a in A]
                assert len(naive_shifted_product(spec, cA, c)) == best


def test_run_survey_deterministic_bytes(tmp_path):
    cfg = SurveyConfig(fields=("13^1", "3^2"), sizes=(3, 4),
                       samplers=("uniform", "gp"), trials=2, seed=9,
                       out=str(tmp_path / "a.csv"))
    cfg2 = SurveyConfig(fields=("13^1", "3^2"), sizes=(3, 4),
                        samplers=("uniform", "gp"), trials=2, seed=9,
                        out=str(tmp_path / "b.csv"))
    p1, p2 = run_survey(cfg), run_survey(cfg2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    s1 = json.load(open(p1 + ".summary.json"))
    s2 = json.load(open(p2 + ".summary.json"))
    s1["config"].pop("seed"), s2["config"].pop("seed")
    assert s1["cells"] == s2["cells"]


# sha256 of the CSV and of its summary; 47 rows pass the structural condition
# and 7 fail for each kind, so both verdicts are frozen
FROZEN_SURVEY_DIGESTS = {
    "expander": ("ae7bd9732159f93e8af6df7b7b0b48982d1eb1a83202ac2682f0a513000940a8",
                 "dbfaef44e310e1387f5aa185b17d8b40e3d83962966a4f5c3eddd4f05b9fc2dc"),
    "corollary": ("214b646aa3bfeb252d1456366fc2ce2345a65b541e678d3d8cb8fd80465c5fd7",
                  "f05f74c9900d4fbd1cb23237259333413d4816d192836a704c0b26c8eaa50aff"),
}


@pytest.mark.parametrize("kind", sorted(FROZEN_SURVEY_DIGESTS))
def test_run_survey_bytes_are_frozen(tmp_path, kind):
    out = str(tmp_path / "frozen.csv")
    run_survey(SurveyConfig(fields=("2^6", "3^4", "2^8"), sizes=(4, 9, 16),
                            samplers=("uniform", "gp", "coset"), trials=2, seed=4,
                            out=out, kind=kind))
    rows = [line.split(",") for line in open(out).read().splitlines()[2:]]
    assert [sum(row[-1] == flag for row in rows) for flag in ("1", "0")] == [47, 7]
    digests = tuple(hashlib.sha256(open(path, "rb").read()).hexdigest()
                    for path in (out, out + ".summary.json"))
    assert digests == FROZEN_SURVEY_DIGESTS[kind]


def test_run_survey_schema_and_summary(tmp_path):
    out = str(tmp_path / "svy.csv")
    cfg = SurveyConfig(fields=("13^1",), sizes=(3,), samplers=("uniform",),
                       trials=3, seed=1, out=out)
    run_survey(cfg)
    lines = open(out).read().splitlines()
    assert lines[0] == "# fq-expander-lab v1"
    assert lines[1].split(",") == ["field", "p", "m", "size", "alpha", "sampler",
                                   "seed", "shifted_product", "theorem_curve",
                                   "gs_curve", "ratio", "structural_pass"]
    assert len(lines) == 2 + 3  # one record per trial
    summary = json.load(open(out + ".summary.json"))
    cell = summary["cells"][0]
    assert cell["records"] == 3
    assert cell["min_ratio"] <= cell["median_ratio"]
    # records are reproducible from the recorded per-record seed
    row = lines[2].split(",")
    seed, size = int(row[6]), int(row[3])
    A = sample_set(F13, row[5], size, seed)
    assert len(shifted_product(A, int(row[4]))) == int(row[7])


def test_run_survey_single_cell_single_trial(tmp_path):
    out = str(tmp_path / "one.csv")
    cfg = SurveyConfig(fields=("7^1",), sizes=(3,), trials=1, seed=0, out=out)
    run_survey(cfg)
    lines = open(out).read().splitlines()
    assert len(lines) == 3


def test_run_survey_skips_infeasible_cells(tmp_path):
    out = str(tmp_path / "skip.csv")
    cfg = SurveyConfig(fields=("7^1",), sizes=(3,), samplers=("coset",),
                       trials=1, seed=0, out=out)
    run_survey(cfg)
    summary = json.load(open(out + ".summary.json"))
    assert summary["skipped"][0]["reason"] == "NoProperSubfield"


def test_run_survey_corollary_kind(tmp_path):
    out = str(tmp_path / "cor.csv")
    cfg = SurveyConfig(fields=("13^1",), sizes=(4,), trials=2, seed=3,
                       out=out, kind="corollary")
    run_survey(cfg)
    lines = open(out).read().splitlines()
    assert lines[0] == "# fq-expander-lab corollary v1"
    assert "chain_pass" in lines[1]
    assert all(row.split(",")[11] == "1" for row in lines[2:])


def test_alpha_sweep_policy(tmp_path):
    out = str(tmp_path / "sweep.csv")
    cfg = SurveyConfig(fields=("5^1",), sizes=(2,), trials=1, seed=0,
                       alpha_policy="sweep", out=out)
    run_survey(cfg)
    lines = open(out).read().splitlines()
    assert len(lines) == 2 + 4  # one row per nonzero shift


def _no_draw(*args):
    raise AssertionError("a set was drawn")


def test_alpha_sweep_over_the_record_budget_is_refused_before_any_record(monkeypatch, tmp_path):
    monkeypatch.setattr(survey, "sample_set", _no_draw)
    out = tmp_path / "sweep.csv"
    cfg = SurveyConfig(fields=("2^20",), sizes=(2,), alpha_policy="sweep", out=str(out))
    with pytest.raises(BudgetExceeded, match="1048575 records"):
        run_survey(cfg)
    assert not out.exists()


@pytest.mark.parametrize("trials, refused", [(2, False), (3, True)])
def test_alpha_sweep_budget_counts_every_set(monkeypatch, tmp_path, trials, refused):
    monkeypatch.setattr(survey, "SWEEP_RECORD_BUDGET", 8)  # two sets of 4 shifts on F_5
    out = tmp_path / "sweep.csv"
    cfg = SurveyConfig(fields=("5^1",), sizes=(2,), trials=trials, alpha_policy="sweep",
                       out=str(out))
    if refused:
        with pytest.raises(BudgetExceeded, match="12 records"):
            run_survey(cfg)
        assert not out.exists()
    else:
        run_survey(cfg)
        assert len(out.read_text().splitlines()) == 2 + 8


def test_an_unwritable_out_fails_before_any_set_is_drawn(monkeypatch, tmp_path):
    monkeypatch.setattr(survey, "sample_set", _no_draw)
    cfg = SurveyConfig(fields=("7",), sizes=(3,), out=str(tmp_path / "missing" / "s.csv"))
    with pytest.raises(IoFailure):
        run_survey(cfg)


def test_a_negative_seed_is_an_invalid_config(tmp_path):
    out = tmp_path / "s.csv"
    with pytest.raises(InvalidSurveyConfig, match="seed"):
        run_survey(SurveyConfig(fields=("7",), sizes=(3,), seed=-1, out=str(out)))
    assert not out.exists()


@pytest.mark.parametrize("empty", ["fields", "sizes", "samplers"])
def test_an_empty_list_is_an_invalid_config(tmp_path, empty):
    out = tmp_path / "s.csv"
    cfg = dict(fields=("7",), sizes=(3,), samplers=("uniform",), out=str(out))
    with pytest.raises(InvalidSurveyConfig, match=empty):
        run_survey(SurveyConfig(**{**cfg, empty: ()}))
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("trials", 0), ("alpha_policy", "sweep2"),
                                          ("kind", "trace")])
def test_a_bad_count_or_name_is_an_invalid_config(field, value):
    cfg = SurveyConfig(fields=("7",), sizes=(3,), **{field: value})
    with pytest.raises(InvalidSurveyConfig, match=field.split("_")[-1]):
        cfg.validate()


def test_survey_functions_refuse_inputs_outside_their_domain():
    F7, F9 = build_field(7, 1), build_field(3, 2)
    with pytest.raises(ValueError, match="sampler"):
        sample_set(F7, "normal", 3, 0)
    with pytest.raises(SizeInfeasible):
        sample_set(F9, "coset", 10, 0)
    one = FqSet.from_iterable(F7, [3])
    for record in (expander_record, corollary_record):
        with pytest.raises(SetTooSmall):
            record(one, 1)
    for nonzero_only, k in ((False, 8), (True, 7)):
        with pytest.raises(SizeInfeasible):
            exhaustive_min_expander(F7, k, nonzero_only=nonzero_only)


def test_a_survey_that_stops_part_way_keeps_its_rows_and_writes_no_summary(monkeypatch,
                                                                           tmp_path):
    made = []

    def fail_on_the_third(*args, **kwargs):
        if len(made) == 2:
            raise RuntimeError("stopped")
        made.append(expander_record(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(survey, "expander_record", fail_on_the_third)
    out = tmp_path / "s.csv"
    with pytest.raises(RuntimeError, match="stopped"):
        run_survey(SurveyConfig(fields=("13",), sizes=(3,), trials=4, out=str(out)))
    rows = out.read_text().splitlines()[2:]
    assert rows == [",".join(survey._csv_row(r)) for r in made]
    assert not (tmp_path / "s.csv.summary.json").exists()


@pytest.mark.parametrize("kind", ["expander", "corollary"])
def test_an_alpha_sweep_holds_its_ratios_not_its_records(tmp_path, kind):
    # 5 sets of 4095 shifts on 2^12: 20,475 rows, about 1.1 KB each as records
    cfg = SurveyConfig(fields=("2^12",), sizes=(20,), trials=5, seed=0, alpha_policy="sweep",
                       out=str(tmp_path / "s.csv"), kind=kind)
    peak = peak_bytes(lambda: run_survey(cfg))[0]
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 2 + 5 * 4095
    assert peak < 5_000_000  # 22.6 MB (expander) and 20.4 MB (corollary) with every record kept


def test_curves_match_reference_formulas():
    assert growth_curve(10, 121) == pytest.approx(min(10 ** (53 / 52),
                                                      121 ** (1 / 48) * 10 ** (47 / 48)))
    assert garaev_shen_curve(10, 121) == pytest.approx(min(math.sqrt(1210),
                                                           100 / 11.0))
