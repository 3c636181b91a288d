import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqlab.decompositions import (
    DyadicSlice,
    TraceParams,
    covering_number,
    dyadic_energy_slice,
    points_certificates,
    popular_points,
    popularity_subset,
    run_proof_trace,
    slice_certificates,
)
from fqlab.errors import (
    DegenerateSlice,
    EmptySpectrum,
    SumBelowK,
    TraceDegenerate,
    ZeroInSet,
    ZeroShift,
)
from fqlab.finite_field import build_field, enumerate_subfields, parse_descriptor
from fqlab.set_algebra import (
    FqSet,
    dilate,
    quotient_set,
    representation_spectrum,
    set_op,
)
from pools import (
    POOL_DESCRIPTORS,
    draw_set,
    naive_cover_min,
    naive_popular_points,
    pool_field,
)

F5 = build_field(5, 1)
F7 = build_field(7, 1)
F13 = build_field(13, 1)
F16 = build_field(2, 4)


def fqset(spec, *values):
    return FqSet.from_iterable(spec, values)


# -- popularity --------------------------------------------------------------


def test_popularity_examples():
    dom = fqset(F7, 1, 2, 3)
    Y = popularity_subset(dom, {1: 4, 2: 1, 3: 1}, 6)
    assert Y == dom  # threshold 6/6 = 1, everything qualifies
    f_const = {int(x): 5 for x in dom}
    assert popularity_subset(dom, f_const, 15) == dom
    dom8 = FqSet.from_iterable(F13, range(1, 9))
    f = {1: 8, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
    Y = popularity_subset(dom8, f, 8, M_cap=8)
    assert Y == dom8  # threshold 8/16 = 1/2 keeps every element
    assert len(Y) >= Fraction(8, 16)


def test_popularity_guarantees_randomized():
    rng = np.random.default_rng(5)
    for i in range(300):
        spec = pool_field(i)
        dom = draw_set(rng, spec, int(rng.integers(1, min(12, spec.q) + 1)))
        f = {int(x): int(rng.integers(1, 40)) for x in dom}
        total = sum(f.values())
        K = int(rng.integers(1, total + 1))
        cap = max(f.values())
        Y = popularity_subset(dom, f, K, M_cap=cap)
        assert 2 * sum(f[int(y)] for y in Y) >= K
        assert 2 * cap * len(Y) >= K
        threshold = Fraction(K, 2 * len(dom))
        assert all((f[int(x)] >= threshold) == (x in Y) for x in dom)


def test_popularity_sum_below_k():
    with pytest.raises(SumBelowK):
        popularity_subset(fqset(F7, 1, 2), {1: 1, 2: 1}, 5)


# -- dyadic slice ------------------------------------------------------------


def test_slice_singleton():
    sl = dyadic_energy_slice(fqset(F7, 1), fqset(F7, 1))
    assert sl.D.to_literal() == "1" and sl.N == 1 and sl.L == 1


def test_slice_example_f7():
    X, Y = fqset(F7, 2, 3, 5), fqset(F7, 1, 2, 4)
    sl = dyadic_energy_slice(X, Y)
    # hand-checked spectrum: counts {4:1, 5:2, 3:2, 1:1, 6:2, 2:1}
    sp = representation_spectrum(X, Y)
    assert sp.counts == {4: 1, 5: 2, 3: 2, 1: 1, 6: 2, 2: 1}
    assert sl.N == 2 and sl.D.to_literal() == "3,5,6" and sl.L == 3
    certs = slice_certificates(sl)
    assert certs["level_band"] and certs["energy_ok"] and certs["mass_strict"]


def test_slice_tiebreak_prefers_small_level():
    # two ratios each hit twice, four ratios once: levels tie at 4+4 = 8 vs ...
    spec = F13
    X = fqset(spec, 1, 2)
    Y = fqset(spec, 2, 4)
    sp = representation_spectrum(X, Y)
    sl = dyadic_energy_slice(X, Y)
    levels = {}
    for c in sp.counts.values():
        j = c.bit_length() - 1
        levels[j] = levels.get(j, 0) + c * c
    best = max(levels.values())
    assert sl.N == 1 << min(j for j, s in levels.items() if s == best)


def test_slice_flat_spectrum_drops_one_slope():
    spec = build_field(2, 10)
    X, Y = fqset(spec, 3, 5), fqset(spec, 7, 11)  # all four ratios distinct
    sl = dyadic_energy_slice(X, Y)
    assert sl.L == 3 and sl.N == 1
    certs = slice_certificates(sl)
    assert certs["mass_strict"] and certs["energy_ok"] and certs["level_band"]


def test_slice_certificates_randomized():
    checked = 0
    for i in range(1000):
        spec = pool_field(i)
        rng = np.random.default_rng([7, i])
        X = draw_set(rng, spec, int(rng.integers(2, min(14, spec.q))), nonzero=True)
        Y = draw_set(rng, spec, int(rng.integers(2, min(len(X), spec.q) + 1)))
        if len(Y) > len(X):
            continue
        sl = dyadic_energy_slice(X, Y)
        certs = slice_certificates(sl)
        assert certs["level_band"] and certs["energy_ok"] and certs["mass_strict"]
        assert sl.M == sl.L * sl.N ** 2
        pairs = sl.pairs.tolist()
        assert pairs == sorted(pairs)  # the documented lexicographic (x, y) order
        checked += 1
    assert checked >= 950


def test_slice_errors():
    with pytest.raises(EmptySpectrum):
        dyadic_energy_slice(FqSet.from_literal(F7, ""), FqSet.from_literal(F7, ""))
    with pytest.raises(ValueError):
        dyadic_energy_slice(fqset(F7, 1), fqset(F7, 1, 2))


# -- popular points ----------------------------------------------------------


def test_popular_points_replay_small():
    X = fqset(F7, 2, 3, 5)
    Y = fqset(F7, 1, 2, 4)
    sl = dyadic_energy_slice(X, Y)
    pts = popular_points(sl)
    checks = points_certificates(sl, pts)
    assert checks["all"]
    # every stored slice set re-verifies from scratch
    pair_list = [(int(x), int(y)) for x, y in sl.pairs]
    for z, stored in pts.S.items():
        xi = F7.div(z, pts.x0)
        fresh = sorted(x for x, y in pair_list if F7.div(y, x) == xi and x in pts.B_y0)
        assert fresh == list(stored)


def test_popular_points_geometric_grid():
    spec = F13
    g = spec.generator
    gp = [spec.pow(g, i) for i in range(4)]
    X = Y = FqSet.from_iterable(spec, gp)
    sl = dyadic_energy_slice(X, Y)
    pts = popular_points(sl)
    assert points_certificates(sl, pts)["all"]
    # ordinates over x0 stay on slopes of the slice
    for z in pts.A_x0:
        assert spec.div(z, pts.x0) in sl.D


def test_popular_points_constants_record():
    sl = dyadic_energy_slice(fqset(F7, 2, 3, 5), fqset(F7, 1, 2, 4))
    pts = popular_points(sl)
    c = pts.constants
    assert c["pigeonhole_factor"] == Fraction(1, 2)
    assert c["pigeonhole_steps"] == 4
    assert c["pigeonhole_factor"] ** c["pigeonhole_steps"] == Fraction(1, 16)
    assert c["c_cols"] == Fraction(1, 4) and c["c_rows"] == Fraction(1, 2)


def test_popular_points_randomized_replay():
    done = 0
    for i in range(250):
        spec = pool_field(i)
        rng = np.random.default_rng([11, i])
        X = draw_set(rng, spec, int(rng.integers(2, min(12, spec.q))), nonzero=True)
        Y = draw_set(rng, spec, int(rng.integers(2, min(len(X), spec.q) + 1)))
        if len(Y) > len(X):
            continue
        sl = dyadic_energy_slice(X, Y)
        pts = popular_points(sl)
        assert points_certificates(sl, pts)["all"]
        done += 1
    assert done >= 230


def test_popular_points_match_naive_oracle():
    for fi, descriptor in enumerate(POOL_DESCRIPTORS + ("2^10", "2^12", "3^7")):
        spec = parse_descriptor(descriptor)
        for draw in range(4):
            rng = np.random.default_rng([515, fi, draw])
            X = draw_set(rng, spec, int(rng.integers(2, min(61, spec.q))), nonzero=True)
            Y = draw_set(rng, spec, int(rng.integers(1, len(X) + 1)), nonzero=True)
            if draw % 2:  # Y with 0 (the slope-zero line holds every x)
                Y = FqSet.from_iterable(spec, [0, *list(Y)[1:]])
            sl = dyadic_energy_slice(X, Y)
            pts = popular_points(sl)
            want = naive_popular_points(spec, sl.pairs)
            got = {"x0": pts.x0, "y0": pts.y0, "A_x0": list(pts.A_x0),
                   "B_y0": list(pts.B_y0), "A_tilde": list(pts.A_tilde),
                   "S": {z: list(s) for z, s in pts.S.items()},
                   "y_popular": list(pts.y_popular), "x_popular": list(pts.x_popular),
                   "d_popular": list(pts.d_popular), "constants": pts.constants}
            assert got == want, (descriptor, draw)
            assert list(pts.S) == list(want["S"])  # ascending z
            assert type(pts.x0) is int and type(pts.y0) is int
            assert all(type(z) is int for z in pts.S)
            assert ([(k, type(v)) for k, v in pts.constants.items()]
                    == [(k, type(v)) for k, v in want["constants"].items()])


def test_degenerate_slice_rejected():
    sl = dyadic_energy_slice(fqset(F7, 1), fqset(F7, 1))
    empty = DyadicSlice(X=sl.X, Y=sl.Y, D=FqSet.from_literal(F7, ""), N=1, L=0,
                        M=0, pairs=np.empty((0, 2), dtype=np.int64),
                        spectrum=sl.spectrum)
    with pytest.raises(DegenerateSlice):
        popular_points(empty)


# -- covering ----------------------------------------------------------------


def test_covering_examples():
    target = fqset(F5, 0, 1, 2, 3, 4)
    tile = fqset(F5, 0, 1)
    count, shifts = covering_number(target, tile)
    assert count == 3
    covered = set()
    for t in shifts:
        covered.update(int(F5.add(t, s)) for s in tile)
    assert covered >= set(range(5))
    # single translate case
    count, shifts = covering_number(fqset(F7, 3, 4), fqset(F7, 0, 1))
    assert count == 1 and shifts == [3]


def test_covering_greedy_vs_exact_and_oracle():
    rng = np.random.default_rng(13)
    for i in range(120):
        spec = pool_field(i)
        target = draw_set(rng, spec, int(rng.integers(2, min(9, spec.q))))
        tile = draw_set(rng, spec, int(rng.integers(1, min(5, spec.q))))
        sign = 1 if i % 2 else -1
        exact, ex_shifts = covering_number(target, tile, sign, mode="exact")
        greedy, gr_shifts = covering_number(target, tile, sign, mode="greedy")
        assert exact <= greedy
        assert greedy <= exact * (1 + math.log(len(target))) + 1e-9
        assert exact == naive_cover_min(spec, list(target), list(tile), sign)
        for count, shifts in ((exact, ex_shifts), (greedy, gr_shifts)):
            covered = set()
            eff = [spec.neg(t) for t in tile] if sign < 0 else list(tile)
            for t in shifts:
                covered.update(spec.add(t, s) for s in eff)
            assert covered >= set(int(v) for v in target.members)
            assert count == len(shifts)


def test_covering_negative_tile():
    target = fqset(F7, 1, 2)
    tile = fqset(F7, 5, 6)
    count, shifts = covering_number(target, tile, "-")
    assert count == 1  # -tile = {1, 2}, shift 0 covers


@pytest.mark.parametrize("sign", [0, 2, "x", "+1"])
def test_covering_bad_sign_is_a_value_error(sign):
    with pytest.raises(ValueError, match="sign must be"):
        covering_number(fqset(F7, 1, 2), fqset(F7, 5, 6), sign)


# -- proof trace -------------------------------------------------------------


def test_trace_preconditions():
    A = fqset(F13, 1, 2, 4, 8)
    with pytest.raises(ZeroShift):
        run_proof_trace(A, 0)
    with pytest.raises(ZeroInSet):
        run_proof_trace(fqset(F13, 0, 1, 2, 3), 1)
    with pytest.raises(TraceDegenerate):
        run_proof_trace(fqset(F13, 1, 2, 4), 1)


def test_trace_deterministic_and_verifiable():
    A = fqset(F13, 1, 2, 4, 8, 9)
    t1 = run_proof_trace(A, 1)
    t2 = run_proof_trace(A, 1)
    assert t1.case == t2.case
    assert t1.to_json() == t2.to_json()
    assert t1.certificates["slice"]["mass_strict"]
    assert t1.certificates["points_chain"]["all"]
    assert t1.certificates["ratio_to_shift"]["ok"]


def test_trace_subfield_input_lands_in_case_4_family():
    # the multiplicative group of a big enough embedded subfield keeps every
    # pipeline stage inside the subfield and the popular set above sqrt(|G|)
    spec = build_field(2, 10)
    G = next(h for h in enumerate_subfields(spec) if h.size == 32)
    A = G.elements.nonzero()
    alpha = int(A.members[0])
    tr = run_proof_trace(A, alpha, TraceParams(measure_covers=False))
    assert tr.case.startswith("4")
    assert quotient_set(tr.points.A_tilde).is_subset(G.elements)
    assert len(tr.points.A_tilde) ** 2 > G.size


def test_trace_small_subfield_group_stays_inside_subfield():
    # at desk scale a smaller group can land in a closure-violation branch,
    # but the quotient set still lives inside the subfield
    spec = build_field(2, 8)
    G = next(h for h in enumerate_subfields(spec) if h.size == 16)
    A = G.elements.nonzero()
    alpha = int(A.members[0])
    tr = run_proof_trace(A, alpha, TraceParams(measure_covers=False))
    assert quotient_set(tr.points.A_tilde).is_subset(G.elements)


def test_trace_large_quotient_forces_11_or_41():
    hits = 0
    for i in range(100):
        rng = np.random.default_rng([19, i])
        spec = (F5, F7, build_field(2, 3), build_field(3, 2))[i % 4]
        size = int(rng.integers(4, spec.q))
        members = rng.choice(np.arange(1, spec.q), size=size, replace=False)
        try:
            tr = run_proof_trace(FqSet.from_iterable(spec, members), 1,
                                 TraceParams(measure_covers=False))
        except TraceDegenerate:
            continue
        if len(tr.points.A_tilde) ** 2 > spec.q:
            hits += 1
            assert tr.case in ("1.1", "4.1")
    assert hits >= 5


def test_trace_witnesses_reverify():
    from pools import verify_trace_case

    done = 0
    for i in range(60):
        rng = np.random.default_rng([21, i])
        spec = (F13, build_field(11, 1), F16, build_field(5, 2))[i % 4]
        size = int(rng.integers(4, min(11, spec.q)))
        members = rng.choice(np.arange(1, spec.q), size=size, replace=False)
        try:
            tr = run_proof_trace(FqSet.from_iterable(spec, members), 1,
                                 TraceParams(measure_covers=False))
        except TraceDegenerate:
            continue
        verify_trace_case(tr, spec)
        done += 1
    assert done >= 40


def test_trace_json_is_serializable():
    import json

    tr = run_proof_trace(fqset(F13, 1, 2, 4, 8, 9), 1)
    text = json.dumps(tr.to_json(), sort_keys=True)
    assert "case" in json.loads(text)


@given(st.integers(0, 10_000))
def test_popularity_threshold_exactness(seed):
    rng = np.random.default_rng(seed)
    spec = F13
    dom = draw_set(rng, spec, int(rng.integers(1, 10)))
    f = {int(x): int(rng.integers(1, 9)) for x in dom}
    K = sum(f.values())
    Y = popularity_subset(dom, f, K)
    assert 2 * sum(f[int(y)] for y in Y) >= K


def test_trace_at_128_elements_reverifies():
    from pools import verify_trace_case

    spec = build_field(2, 12)
    for draw in range(10):
        rng = np.random.default_rng([128, draw])
        A = FqSet.from_iterable(spec, rng.choice(np.arange(1, spec.q), 128, replace=False))
        try:
            tr = run_proof_trace(A, 1)
        except TraceDegenerate:
            continue
        assert len(tr.a_prime) == 64 and len(tr.a_dprime) >= 47
        verify_trace_case(tr, spec)
        return
    pytest.fail("ten degenerate draws in a row")


def test_popularity_invariant_survives_python_O():
    import os
    import subprocess
    import sys

    import fqlab

    script = ("from fqlab.decompositions import _popularity\n"
              "from fqlab.errors import InvariantViolated\n"
              "try:\n"
              "    _popularity([1, 2, 3], [4, 1, 1], 6, M_cap=2)\n"
              "except InvariantViolated as exc:\n"
              "    print(type(exc).__name__, __debug__)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fqlab.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["InvariantViolated", "False"], proc.stderr
