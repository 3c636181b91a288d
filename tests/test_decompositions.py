import ast
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fqlab
from fqlab import decompositions, set_algebra
from fqlab.decompositions import (
    EXACT_SEARCH_LIMIT,
    DyadicSlice,
    _min_sumset_subset,
    covering_number,
    dyadic_energy_slice,
    points_certificates,
    popular_points,
    popularity_subset,
    refine_stage,
    run_proof_trace,
    slice_certificates,
)
from fqlab.errors import (
    DegenerateSlice,
    EmptySet,
    EmptySpectrum,
    InvariantViolated,
    MixedFields,
    SumBelowK,
    TraceDegenerate,
    ZeroInDenominatorSet,
    ZeroInSet,
    ZeroShift,
)
from fqlab.finite_field import (
    DigitPacking,
    FieldSpec,
    build_field,
    enumerate_subfields,
    parse_descriptor,
)
from fqlab.set_algebra import (
    FqSet,
    dilate,
    quotient_set,
    representation_spectrum,
    set_op,
    translate,
)
from pools import (
    EXACT,
    GREEDY,
    POOL_DESCRIPTORS,
    _naive_popularity,
    draw_set,
    naive_cover_min,
    naive_dyadic_slice,
    naive_first_ratio_quadruple,
    naive_greedy_cover,
    naive_popular_points,
    on_path,
    peak_bytes,
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


def test_popularity_core_matches_the_naive_pigeonhole():
    # _popularity reads the positions of a dense count array whose count is
    # positive; the naive pigeonhole reads the same counts as a dict
    rng = np.random.default_rng(37)
    for _ in range(400):
        n = int(rng.integers(1, 25))
        counts = np.where(rng.random(n) < 0.4, 0, rng.integers(1, 12, size=n))
        counts[rng.integers(n)] = rng.integers(1, 12)  # at least one position is hit
        f = {i: int(c) for i, c in enumerate(counts) if c}
        K = int(rng.integers(1, sum(f.values()) + 1))
        naive = _naive_popularity(f, K)
        for cap in (None, max(f.values()), max(f.values()) + int(rng.integers(1, 5))):
            kept, threshold, mass, size = decompositions._popularity(counts, K, cap)
            assert (kept.tolist(), threshold, mass, size) == (*naive, len(f))


def test_popularity_core_raises_on_each_broken_guarantee():
    popularity = decompositions._popularity
    with pytest.raises(SumBelowK):
        popularity(np.array([0, 2, 0, 1]), 4)
    with pytest.raises(InvariantViolated, match="M_cap"):  # f = 4 is above the cap
        popularity(np.array([0, 4, 1, 0, 1]), 6, M_cap=2)
    # 2 * |domain| * f wraps past int64 here, so no position reads as kept
    with pytest.raises(InvariantViolated, match="kept mass 0"):
        popularity(np.array([0, 1 << 61, 1]), 1 << 61)


def test_decompositions_refuse_inputs_outside_their_domain():
    with pytest.raises(ValueError, match="f > 0"):
        popularity_subset(fqset(F7, 1, 2), {1: 3, 2: 0}, 2)
    with pytest.raises(ZeroInDenominatorSet):
        dyadic_energy_slice(fqset(F7, 0, 1, 2), fqset(F7, 1, 2))
    X = fqset(F7, 1, 2, 3)
    with pytest.raises(EmptySet):
        refine_stage(X, [X, fqset(F7)], Fraction(1, 4))


# -- dyadic slice ------------------------------------------------------------


def test_slice_singleton():
    sl = dyadic_energy_slice(fqset(F7, 1), fqset(F7, 1))
    assert sl.D.to_literal() == "1" and sl.N == 1 and sl.L == 1


def test_slice_refuses_mixed_fields():
    # F_5 and F_7 encodings overlap, so only the field check can catch these
    for X, Y in ((fqset(F7, 1, 2, 3), fqset(F5, 1, 4)), (fqset(F5, 1, 2), fqset(F7, 1, 3))):
        with pytest.raises(MixedFields):
            dyadic_energy_slice(X, Y)


def test_slice_example_f7():
    X, Y = fqset(F7, 2, 3, 5), fqset(F7, 1, 2, 4)
    sl = dyadic_energy_slice(X, Y)
    # hand-checked spectrum: counts {4:1, 5:2, 3:2, 1:1, 6:2, 2:1}
    sp = representation_spectrum(X, Y)
    assert sp.tolist() == [0, 1, 1, 2, 1, 2, 2]
    assert sl.energy == 15
    assert sl.N == 2 and sl.D.to_literal() == "3,5,6" and sl.L == 3
    certs = slice_certificates(sl)
    assert certs["level_band"] and certs["energy_ok"] and certs["mass_strict"]


def test_slice_tiebreak_prefers_small_level():
    # {1,2,3} x {1,2}: one ratio hit twice (level 1, mass 4) ties four hit once
    # (level 0, mass 4); {1,2} x {2,4}: level 1 (mass 4) beats level 0 (mass 2)
    for X, Y, N in ((fqset(F13, 1, 2, 3), fqset(F13, 1, 2), 1),
                    (fqset(F13, 1, 2), fqset(F13, 2, 4), 2)):
        assert dyadic_energy_slice(X, Y).N == N == naive_dyadic_slice(F13, list(X), list(Y))["N"]


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


@pytest.mark.parametrize("descriptor", POOL_DESCRIPTORS + ("2^10",))
def test_slice_matches_naive_oracle(descriptor, monkeypatch):
    spec = parse_descriptor(descriptor)
    instances = []
    for draw in range(6):
        rng = np.random.default_rng([516, spec.q, draw])
        X = draw_set(rng, spec, int(rng.integers(1, min(25, spec.q))), nonzero=True)
        Y = draw_set(rng, spec, int(rng.integers(1, len(X) + 1)), nonzero=True)
        if draw % 2:  # Y with 0 (the slope-zero line holds every x)
            Y = FqSet.from_iterable(spec, [0, *list(Y)[1:]])
        instances.append((X, Y))
    if spec.q > 4:  # four distinct ratios 1, g^2, 1/g, g: flat at N = 1, one slope dropped
        g = spec.generator
        instances.append((fqset(spec, 1, g), fqset(spec, 1, spec.mul(g, g))))
    default, spanned = set_algebra.PAIR_BLOCK_CELLS, 0
    for X, Y in instances:
        want = naive_dyadic_slice(spec, list(X), list(Y))
        slopes = [spec.div(y, x) for x, y in want["pairs"]]
        # the default batches, then one row of X a batch: the pairs span len(X) batches
        for cells in (default, len(Y)):
            monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", cells)
            sl = dyadic_energy_slice(X, Y)
            assert (sl.N, list(sl.D), sl.pairs.tolist()) == (
                want["N"], want["D"], [list(p) for p in want["pairs"]]), (X, Y, cells)
            assert (sl.L, sl.M) == (len(want["D"]), len(want["D"]) * want["N"] ** 2)
            assert sl.line.tolist() == [want["D"].index(xi) for xi in slopes]
        spanned += len({x for x, _ in want["pairs"]}) > 1
    if spec.q > 4:
        assert sl.L == 3 and sl.N == 1
        assert spanned >= 4  # instances whose pairs lie in more than one batch


def test_slice_lists_its_pairs_without_the_ratio_grid():
    # |X| = |Y| = 1000 on 2^20: the whole int64 ratio grid and its
    # temporaries, kept to find the pairs, peaked at 46.4 MB; listed by
    # batches of X's rows, the slice holds the spectrum, a rank of D and the
    # pairs (21.7 MB)
    spec = build_field(2, 20)
    rng = np.random.default_rng(1000)
    X, Y = (draw_set(rng, spec, 1000, nonzero=True) for _ in range(2))
    X.bitmask, Y.bitmask  # the sets' own bitmasks are not part of the slice's peak
    peak, sl = peak_bytes(lambda: dyadic_energy_slice(X, Y))
    assert slice_certificates(sl)["level_band"]
    assert peak < 30_000_000


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


@pytest.mark.parametrize("lines_per_block", (None, 3))
def test_popular_points_match_naive_oracle(lines_per_block, monkeypatch):
    extra = ("2^10", "2^12", "3^7") if lines_per_block is None else ("2^10",)
    short_blocks = 0
    for fi, descriptor in enumerate(POOL_DESCRIPTORS + extra):
        spec = parse_descriptor(descriptor)
        for draw in range(4):
            rng = np.random.default_rng([515, fi, draw])
            X = draw_set(rng, spec, int(rng.integers(2, min(61, spec.q))), nonzero=True)
            Y = draw_set(rng, spec, int(rng.integers(1, len(X) + 1)), nonzero=True)
            if draw % 2:  # Y with 0 (the slope-zero line holds every x)
                Y = FqSet.from_iterable(spec, [0, *list(Y)[1:]])
            sl = dyadic_energy_slice(X, Y)
            if lines_per_block:  # the double sum over several blocks of lines
                monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", lines_per_block * len(X))
                short_blocks += sl.L > lines_per_block and sl.L % lines_per_block > 0
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
    if lines_per_block:  # draws whose last block of lines is short
        assert short_blocks >= 20


def test_popular_point_sets_build_no_bitmask_unasked():
    # the |A| = 300 slice on 2^20: a q-length bitmask per slice set S[z], built
    # with the set, took 300 MB of a 313 MB peak
    spec = build_field(2, 20)
    A = FqSet.from_iterable(spec, np.random.default_rng(0).choice(np.arange(2, spec.q), 300,
                                                                  replace=False))
    sl = dyadic_energy_slice(translate(A, 1), A)
    peak, pts = peak_bytes(lambda: popular_points(sl))
    assert len(pts.S) * spec.q > 40_000_000 > peak


def test_degenerate_slice_rejected():
    sl = dyadic_energy_slice(fqset(F7, 1), fqset(F7, 1))
    empty = DyadicSlice(X=sl.X, Y=sl.Y, D=FqSet.from_literal(F7, ""), N=1, L=0,
                        M=0, pairs=np.empty((0, 2), dtype=np.int64),
                        energy=sl.energy, line=np.empty(0, dtype=np.int64))
    with pytest.raises(DegenerateSlice):
        popular_points(empty)


def test_popular_points_stay_well_below_the_line_incidence():
    # the |A| = 300 slice on 2^16; the whole L x |X| line incidence, its product
    # with the points and that product's int64 copy peaked at 168 MB
    spec = build_field(2, 16)
    A = FqSet.from_iterable(spec, np.random.default_rng(0).choice(np.arange(2, spec.q), 300,
                                                                  replace=False))
    sl = dyadic_energy_slice(translate(A, 1), A)
    peak = peak_bytes(lambda: popular_points(sl))[0]
    assert sl.L > 20_000
    assert peak < 40_000_000 < sl.L * len(sl.X) * 8


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
    # targets up to the exact-search limit, tiles up to 40
    rng = np.random.default_rng(13)
    for i in range(160):
        spec = pool_field(i)
        target = draw_set(rng, spec, int(rng.integers(2, min(EXACT_SEARCH_LIMIT, spec.q) + 1)))
        tile = draw_set(rng, spec, int(rng.integers(1, min(40, spec.q) + 1)))
        sign = 1 if i % 2 else -1
        exact, ex_shifts = on_path(EXACT, covering_number, target, tile, sign)
        greedy, gr_shifts = on_path(GREEDY, covering_number, target, tile, sign)
        assert exact <= greedy
        assert greedy <= exact * (1 + math.log(len(target))) + 1e-9
        assert ex_shifts == sorted(set(ex_shifts))
        assert exact == naive_cover_min(spec, list(target), list(tile), sign)
        for count, shifts in ((exact, ex_shifts), (greedy, gr_shifts)):
            covered = set()
            eff = [spec.neg(t) for t in tile] if sign < 0 else list(tile)
            for t in shifts:
                covered.update(spec.add(t, s) for s in eff)
            assert covered >= set(int(v) for v in target.members)
            assert count == len(shifts)


@pytest.mark.parametrize("descriptor", POOL_DESCRIPTORS + ("2^16", "3^7"))
def test_greedy_cover_matches_naive(descriptor):
    # the falling gains against gains recomputed at every step: same count
    # and the same shifts in the same order, past the exact-search limit; on
    # 2^16 and 3^7, q far above |target||tile|, most shifts meet no target
    spec = parse_descriptor(descriptor)
    for trial in range(4):
        rng = np.random.default_rng([47, spec.q, trial])
        low = 1 if trial % 2 else min(EXACT_SEARCH_LIMIT + 1, spec.q)
        target = draw_set(rng, spec, int(rng.integers(low, min(60, spec.q) + 1)))
        tile = draw_set(rng, spec, int(rng.integers(1, min(50, spec.q) + 1)))
        for sign in (1, -1):
            assert on_path(GREEDY, covering_number, target, tile, sign) == naive_greedy_cover(
                spec, target.members.tolist(), tile.members.tolist(), sign)


def test_greedy_cover_builds_no_shift_grid():
    # |target| = 500, |tile| = 1000 on 3^12: a grid of newly covered elements
    # against every candidate shift peaked near 100 MB
    spec = build_field(3, 12)
    rng = np.random.default_rng(500)
    target = FqSet.from_iterable(spec, rng.choice(spec.q, 500, replace=False))
    tile = FqSet.from_iterable(spec, rng.choice(spec.q, 1000, replace=False))
    peak, (count, shifts) = peak_bytes(lambda: covering_number(target, tile))
    assert count == len(shifts) > 1
    assert peak < 32_000_000


@pytest.mark.parametrize("p, m, tile_size", [(2, 16, 1000), (2, 12, 2048)])
def test_exact_cover_builds_no_hit_grid(p, m, tile_size):
    # |target| = 12: a candidates x tile hit grid peaked at 276 MB on 2^16 and
    # 210 MB on 2^12; the masks and the 2^12 states take a few MB
    spec = build_field(p, m)
    rng = np.random.default_rng([12, spec.q, tile_size])
    target = FqSet.from_iterable(spec, rng.choice(spec.q, EXACT_SEARCH_LIMIT, replace=False))
    tile = FqSet.from_iterable(spec, rng.choice(spec.q, tile_size, replace=False))
    peak, (count, shifts) = peak_bytes(lambda: covering_number(target, tile))
    assert count == len(shifts) >= 1
    assert peak < 16_000_000


def test_covering_negative_tile():
    target = fqset(F7, 1, 2)
    tile = fqset(F7, 5, 6)
    count, shifts = covering_number(target, tile, -1)
    assert count == 1  # -tile = {1, 2}, shift 0 covers


@pytest.mark.parametrize(
    "limit", [EXACT_SEARCH_LIMIT, EXACT, GREEDY], ids=["auto", "exact", "greedy"])
@pytest.mark.parametrize("sign", [1, -1])
def test_covering_mixed_fields_raise(limit, sign):
    # F_13 and F_16 encodings overlap, so only the field check can catch this;
    # an empty target is refused too
    tile = fqset(F16, 1, 2, 3)
    for target in (fqset(F13, *range(1, 13)), fqset(F13)):
        with pytest.raises(MixedFields):
            on_path(limit, covering_number, target, tile, sign)


@pytest.mark.parametrize("sign", [0, 2, "x", "+1", "+", "-"])
def test_covering_bad_sign_is_a_value_error(sign):
    with pytest.raises(ValueError, match="sign must be"):
        covering_number(fqset(F7, 1, 2), fqset(F7, 5, 6), sign)


def test_covering_an_empty_target_takes_no_translate_and_an_empty_tile_is_refused():
    for sign in (1, -1):
        assert covering_number(fqset(F7), fqset(F7, 1, 2), sign) == (0, [])
        with pytest.raises(EmptySet):
            covering_number(fqset(F7, 1, 2), fqset(F7), sign)


# -- proof trace -------------------------------------------------------------


@pytest.mark.parametrize("descriptor", POOL_DESCRIPTORS)
def test_ratio_quadruple_matches_the_naive_oracle_at_every_r(descriptor):
    spec = parse_descriptor(descriptor)
    rng = np.random.default_rng([31, spec.q])
    for size in (0, 1, 2, 4, 7):
        S = draw_set(rng, spec, size)
        for r in range(1, spec.q):
            assert (decompositions._first_ratio_quadruple(S, r)
                    == naive_first_ratio_quadruple(spec, S, r)), (S, r)


@pytest.mark.parametrize("descriptor", ("2^10", "3^7"))
def test_ratio_quadruple_matches_the_naive_oracle_in_and_out_of_the_quotient_set(descriptor):
    spec = parse_descriptor(descriptor)
    rng = np.random.default_rng([32, spec.q])
    found = set()
    for size in (4, 8, 14):
        S = draw_set(rng, spec, size)
        R = quotient_set(S)
        outside = np.flatnonzero(~R.bitmask)  # empty once R(S) is the field
        for r in (*rng.choice(R.members[1:], 8), *rng.choice(outside, min(8, outside.size))):
            quad = decompositions._first_ratio_quadruple(S, int(r))
            assert quad == naive_first_ratio_quadruple(spec, S, int(r)), (S, r)
            assert (quad is None) == (r not in R)
            found.add(quad is None)
    assert found == {True, False}


def test_ratio_quadruple_holds_no_grid_of_the_set():
    # one int64 |S|^2 grid of a 2000-element set takes 32 MB
    spec = build_field(2, 20)
    S = draw_set(np.random.default_rng(33), spec, 2000)
    peak, quad = peak_bytes(lambda: decompositions._first_ratio_quadruple(S, 12345))
    a, b, c, d = quad
    assert spec.div(spec.sub(a, b), spec.sub(c, d)) == 12345
    assert peak < 16_000_000
    # a full scan: S inside the subfield of 2^10 elements, r outside it
    G = next(h for h in enumerate_subfields(spec) if h.size == 1 << 10)
    S = FqSet.from_iterable(spec, np.random.default_rng(34).choice(G.elements.members, 1000,
                                                                     replace=False))
    r = int(np.flatnonzero(~G.elements.bitmask)[0])
    peak, quad = peak_bytes(lambda: decompositions._first_ratio_quadruple(S, r))
    assert quad is None and peak < 16_000_000


def test_blocked_scans_pack_their_operands_once_a_pass(monkeypatch):
    # the sumset search's loss scoring and the quadruple's scan take their
    # operands from set_algebra._grid, packed once a pass on an odd-p
    # extension field: blocks of one row pack no more than one block of all
    spec = parse_descriptor("3^7")
    rng = np.random.default_rng(35)
    X, S, T = draw_set(rng, spec, 40), draw_set(rng, spec, 30), draw_set(rng, spec, 6)
    R = quotient_set(T)
    outside = int(np.flatnonzero(~R.bitmask)[0])  # r outside R(T): every row is scanned
    packs, pack = [], DigitPacking.pack
    monkeypatch.setattr(DigitPacking, "pack",
                        lambda self, x, j=0: packs.append(j) or pack(self, x, j))
    blocks, scan = [], decompositions._blocks
    monkeypatch.setattr(decompositions, "_blocks",
                        lambda *args: (blocks.append(1) or values for values in scan(*args)))

    def run():
        packs.clear()
        blocks.clear()
        sub, size = on_path(GREEDY, _min_sumset_subset, X, S, 30)
        quads = [decompositions._first_ratio_quadruple(T, r) for r in (int(R.members[-1]), outside)]
        assert quads[1] is None
        return (sub.tolist(), size, quads, packs.count(0)), len(blocks)

    default, default_blocks = run()
    monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", 1)
    one_row, one_row_blocks = run()
    assert one_row == default and one_row_blocks > default_blocks + 40


def test_only_set_algebra_hands_a_field_op_to_the_pair_grid_blocks():
    # every other scan of a pair grid takes its operands and op from
    # set_algebra._grid, which packs an odd-p operand once, not once a block
    methods = {name for cls in (FieldSpec, DigitPacking) for name in vars(cls)
               if not name.startswith("__") and callable(getattr(cls, name))}
    root = os.path.dirname(fqlab.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py") or name == "set_algebra.py":
            continue
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            callee = getattr(node, "func", None)
            if getattr(callee, "id", getattr(callee, "attr", None)) != "_blocks":
                continue
            for arg in (*node.args, *(keyword.value for keyword in node.keywords)):
                if any(isinstance(sub, ast.Attribute) and sub.attr in methods
                       for sub in ast.walk(arg)):
                    found.append(f"{name}:{node.lineno}")
    assert not found, found


# -- refinement stages --------------------------------------------------------


def test_plunnecke_terms_size_each_distinct_summand_once(monkeypatch):
    rng = np.random.default_rng(41)
    X, B, C = (draw_set(rng, F16, k) for k in (5, 3, 4))
    sized, set_op_size = [], decompositions.set_op_size
    monkeypatch.setattr(decompositions, "set_op_size",
                        lambda *args: sized.append(args[1]) or set_op_size(*args))
    total, product = decompositions._plunnecke_terms(X, [B, C, B, B])
    assert sized == [B, C]
    assert total == set_op(set_op(set_op(B, C, "sum"), B, "sum"), B, "sum")
    assert product == len(set_op(X, B, "sum")) ** 3 * len(set_op(X, C, "sum"))


def test_sumset_search_stays_well_below_one_grid_of_memory():
    # the |A| = 300 trace's refine stage on 2^16: X' of 150, S nearly the field
    spec = build_field(2, 16)
    rng = np.random.default_rng(150)
    X = FqSet.from_iterable(spec, rng.choice(np.arange(1, spec.q), 150, replace=False))
    S = FqSet.from_iterable(spec, rng.choice(spec.q, 65_500, replace=False))
    grid = len(X) * len(S) * 8  # one int64 X + S grid: 79 MB
    # greedy: 150 elements
    peak, (sub, _) = peak_bytes(lambda: _min_sumset_subset(X, S, math.ceil(3 * len(X) / 4)))
    assert len(sub) == 113
    assert peak < 40_000_000 < grid


def test_difference_search_frees_its_grid_once_labelled():
    # n = 600 on 2^20: the int64 difference grid is read only to label the
    # cells; held through the greedy steps it lifted the peak from 20.4 to
    # 23.3 MB
    spec = build_field(2, 20)
    A = draw_set(np.random.default_rng(600), spec, 600, nonzero=True)
    A.bitmask  # the set's own bitmask is not part of the search's peak
    peak, (sub, size) = peak_bytes(lambda: decompositions._min_diffset_subset(A, 300))
    S = FqSet.from_iterable(spec, sub)
    assert len(S) == 300 and size == len(set_op(S, S, "diff"))
    assert peak < 22_000_000


def test_decompositions_imports_no_higher_layer():
    # every import statement, those nested inside functions too
    with open(decompositions.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"lemma_oracles", "survey", "cli"}, sorted(imported)


def test_every_module_imports_only_the_layers_below_it():
    # the module-level `from .x import` lines against the layer order that
    # fqlab/__init__.py documents; errors is free to all.  The deferred import
    # inside SubfieldHandle.elements is not module level, and is left out
    layers = re.findall(r"^- ``(\w+)``", fqlab.__doc__, re.M)
    root = os.path.dirname(fqlab.__file__)
    names = sorted(name[:-3] for name in os.listdir(root) if name.endswith(".py"))
    assert set(names) == {*layers, "errors", "__init__", "__main__"}
    for name in layers + ["errors"]:
        with open(os.path.join(root, f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        allowed = set(layers[:layers.index(name)]) | {"errors"} if name in layers else set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.module in allowed, (name, node.module)


def _nodes(matches):
    """module:line of every AST node in fqlab that ``matches`` accepts."""
    root = os.path.dirname(decompositions.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read())
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if matches(node)]
    return found


def _calls(matches):
    """module:line of every call node in fqlab that ``matches`` accepts."""
    return _nodes(lambda node: isinstance(node, ast.Call) and matches(node))


def _len_calls(takes):
    """module:line of every len(x) call in fqlab whose argument node x ``takes`` accepts."""
    return _calls(lambda node: isinstance(node.func, ast.Name) and node.func.id == "len"
                  and bool(node.args) and takes(node.args[0]))


def test_no_module_takes_the_length_of_a_built_set():
    # a size is counted by set_op_size, never by building the set and taking its len
    def built(arg):
        if not isinstance(arg, ast.Call):
            return False
        callee = arg.func
        return (callee.id if isinstance(callee, ast.Name)
                else getattr(callee, "attr", "")) in ("set_op", "shifted_product")
    found = _len_calls(built)
    assert not found, found


def _ufunc_at(node) -> bool:
    """The call is np.add.at or np.subtract.at."""
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "at"
            and isinstance(func.value, ast.Attribute) and func.value.attr in ("add", "subtract")
            and isinstance(func.value.value, ast.Name) and func.value.value.id == "np")


def _int_literal(node) -> bool:
    """The expression is built of integer literals alone, so numpy sees a Python int."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.UnaryOp):
        return _int_literal(node.operand)
    if isinstance(node, ast.BinOp):
        return _int_literal(node.left) and _int_literal(node.right)
    if isinstance(node, ast.IfExp):
        return _int_literal(node.body) and _int_literal(node.orelse)
    return False


def _literal_operand(node) -> bool:
    return _ufunc_at(node) and len(node.args) > 2 and _int_literal(node.args[2])


def test_no_ufunc_at_call_takes_a_bare_integer_operand():
    # a Python int operand sends np.add.at on an int32 count array down numpy's
    # slow path, some 25-30x the time an element of a matching np.int32 operand
    flagged = [ast.parse(src).body[0].value for src in (
        "np.add.at(c, i, 1)", "np.subtract.at(c, i, -1)", "np.add.at(c, i, 2 if t else 1)")]
    passed = [ast.parse(src).body[0].value for src in (
        "np.add.at(c, i, np.int32(1))", "np.subtract.at(c, i, c.dtype.type(1))",
        "np.add.at(m, i, c * c)", "np.add(c, 1)")]
    assert all(map(_literal_operand, flagged)) and not any(map(_literal_operand, passed))
    assert len(_calls(_ufunc_at)) >= 5  # the check has calls to read
    found = _calls(_literal_operand)
    assert not found, found


def test_no_module_has_an_assert_statement():
    # python -O strips every assert: an invariant raises InvariantViolated instead
    assert len(_nodes(lambda node: isinstance(node, ast.Raise))) >= 5  # the check reads code
    found = _nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, found


def test_no_module_takes_the_length_of_a_subfield_element_set():
    # a subfield's size is SubfieldHandle.size: taking len(G.elements) builds the set
    found = _len_calls(lambda arg: isinstance(arg, ast.Attribute) and arg.attr == "elements")
    assert not found, found


def test_trace_preconditions():
    A = fqset(F13, 1, 2, 4, 8)
    with pytest.raises(ZeroShift):
        run_proof_trace(A, 0)
    with pytest.raises(ZeroInSet):
        run_proof_trace(fqset(F13, 0, 1, 2, 3), 1)
    with pytest.raises(TraceDegenerate):
        run_proof_trace(fqset(F13, 1, 2, 4), 1)


@pytest.mark.parametrize("kappa", [0, -2])
def test_trace_kappa_below_1_is_a_value_error(kappa):
    # kappa is squared, so -2 would pass for 2 and 0 would fail every bound
    A = FqSet.from_literal(build_field(5, 2), "1,2,3,4,9")
    assert run_proof_trace(A, 1).case == "4.3"
    with pytest.raises(ValueError, match="kappa must be"):
        run_proof_trace(A, 1, kappa=kappa)


@pytest.mark.parametrize("kappa", [1.5, 2.0, True, "2"])
def test_trace_kappa_that_is_not_an_integer_is_a_value_error(kappa):
    with pytest.raises(ValueError, match="kappa must be an integer"):
        run_proof_trace(FqSet.from_literal(build_field(5, 2), "1,2,3,4,9"), 1, kappa=kappa)


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
    tr = run_proof_trace(A, alpha)
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
    tr = run_proof_trace(A, alpha)
    assert quotient_set(tr.points.A_tilde).is_subset(G.elements)


def test_trace_large_quotient_forces_11_or_41():
    hits = 0
    for i in range(100):
        rng = np.random.default_rng([19, i])
        spec = (F5, F7, build_field(2, 3), build_field(3, 2))[i % 4]
        size = int(rng.integers(4, spec.q))
        members = rng.choice(np.arange(1, spec.q), size=size, replace=False)
        try:
            tr = run_proof_trace(FqSet.from_iterable(spec, members), 1)
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
            tr = run_proof_trace(FqSet.from_iterable(spec, members), 1)
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
              "    _popularity([4, 1, 1], 6, M_cap=2)\n"
              "except InvariantViolated as exc:\n"
              "    print(type(exc).__name__, __debug__)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fqlab.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["InvariantViolated", "False"], proc.stderr
