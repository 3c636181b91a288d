import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqlab.errors import (
    ElementOutOfRange,
    EmptyAfterZeroStrip,
    EmptySet,
    MalformedLiteral,
    MixedFields,
    SetTooSmall,
    ZeroDivisorInRatio,
    ZeroInDenominatorSet,
    ZeroShift,
)
from fqlab.finite_field import (
    build_field,
    coset_representatives,
    enumerate_subfields,
    parse_descriptor,
    proper_subfields,
)
from fqlab import set_algebra
from fqlab.set_algebra import (
    SET_OPS,
    FqSet,
    _pair_counts,
    _row_sizes,
    _sum_of_squares,
    additive_energy,
    coset_intersection_counts,
    coset_profile,
    dilate,
    intersection_shift_counts,
    multiplicative_energy,
    quotient_closure_failure,
    quotient_set,
    representation_spectrum,
    set_op,
    set_op_size,
    shifted_product,
    sum_representation_counts,
    translate,
)
from pools import (
    LARGE_DESCRIPTOR,
    POOL_DESCRIPTORS,
    draw_set,
    force_backend,
    naive_additive_energy,
    naive_coset_profile,
    naive_multiplicative_energy,
    naive_pair_counts,
    naive_quotient_closure_failure,
    naive_quotient_set,
    naive_set_op,
    peak_bytes,
    pool_field,
)

F5 = build_field(5, 1)
F7 = build_field(7, 1)
F4 = build_field(2, 2)
F9 = build_field(3, 2)
F16 = build_field(2, 4)


def fqset(spec, *values):
    return FqSet.from_iterable(spec, values)


def test_set_literals_and_json_roundtrip():
    A = FqSet.from_literal(F7, "5,1,1,0")
    assert A.to_literal() == "0,1,5"
    assert FqSet.from_json(A.to_json()) == A
    assert FqSet.from_literal(F7, "") .to_literal() == ""


@pytest.mark.parametrize("desc", ("7^1", "2^4", "3^3"))
def test_without_matches_the_plain_filter(desc):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([76, spec.q])
    A = draw_set(rng, spec, spec.q // 2)
    outside = [-1, -spec.q, spec.q, spec.q + 7, 1 << 70]  # ignored, like values not in A
    for drop in ([], [int(A.members[0])], list(rng.choice(spec.q, 5)) + outside, outside,
                 list(range(spec.q))):
        assert list(A.without(iter(drop))) == [v for v in A if v not in set(drop)]


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS)
def test_membership_matches_the_plain_set(desc):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([83, spec.q])
    for size in (0, 1, spec.q // 3, spec.q):
        A = draw_set(rng, spec, size)
        plain = set(A.members.tolist())
        values = list(range(-2, spec.q + 2)) + [-(1 << 70), 1 << 70]
        assert [v in A for v in values] == [v in plain for v in values]
        assert "bitmask" not in A.__dict__


def test_a_membership_test_builds_no_field_sized_array():
    spec = build_field(2, 20)
    A = draw_set(np.random.default_rng(84), spec, 1000)
    peak, found = peak_bytes(lambda: 0 in A)
    assert found == (int(A.members[0]) == 0)
    assert peak < 64_000 and "bitmask" not in A.__dict__


def test_from_iterable_takes_arrays_and_iterables_alike():
    values = np.array([9, 3, 3, 0, 15], dtype=np.int64)
    A = FqSet.from_iterable(F16, values)
    assert A == FqSet.from_iterable(F16, values.tolist()) == FqSet.from_iterable(F16, iter(values))
    assert A.to_literal() == "0,3,9,15" and values.tolist() == [9, 3, 3, 0, 15]
    for bad in ([16], [-1, 2], [3, 1 << 40]):
        with pytest.raises(ElementOutOfRange):
            FqSet.from_iterable(F16, np.array(bad, dtype=np.int64))


def test_from_iterable_refuses_non_integers_and_integers_past_int64():
    # a bool array is a bitmask, not a list of encodings
    for bad in ([1.5, 2], ["3"], [1, "3"], np.array([1.0]), np.array([True, False])):
        with pytest.raises(MalformedLiteral):
            FqSet.from_iterable(F7, bad)
    with pytest.raises(MalformedLiteral):
        FqSet.from_json({"field": "7", "members": [1.5]})
    for bad in ([10**23], [-(10**23)], [2**63], [1, 2**64], [np.int64(3), 10**30]):
        with pytest.raises(ElementOutOfRange):
            FqSet.from_iterable(F7, bad)
    assert FqSet.from_iterable(F7, np.array([3, 1], dtype=object)).to_literal() == "1,3"
    for empty in ([], (), np.array([]), np.array([], dtype=bool)):
        assert FqSet.from_iterable(F7, empty).members.dtype == np.int64


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32])
def test_from_iterable_reads_an_integer_array_without_a_conversion_copy(dtype):
    spec = build_field(2, 20)
    values = np.random.default_rng(85).permutation(spec.q)[:200_000].astype(dtype)
    peak, A = peak_bytes(lambda: FqSet.from_iterable(spec, values))
    assert A.members.dtype == np.int64 and np.array_equal(A.members, np.sort(values))
    assert peak < 2.5 * 8 * values.size  # unique's sorted copy and mask, and the members


def test_set_op_examples():
    assert set_op(fqset(F7, 1, 2), fqset(F7, 3), "sum").to_literal() == "4,5"
    out = set_op(fqset(F7, 1, 2, 4), fqset(F7, 1, 2, 4), "sum")
    assert len(out) == 6
    full_star = fqset(F5, 1, 2, 3, 4)
    assert set_op(full_star, full_star, "prod") == full_star


def test_set_op_errors():
    with pytest.raises(MixedFields):
        set_op(fqset(F7, 1), fqset(F5, 1), "sum")
    with pytest.raises(ZeroDivisorInRatio):
        set_op(fqset(F7, 1), fqset(F7, 0, 1), "ratio")


def test_set_op_matches_naive_oracle_randomized():
    checks = 0
    for i in range(1000):
        spec = pool_field(i)
        rng = np.random.default_rng([17, i])
        hi = 24 if i % 5 else 64
        A = draw_set(rng, spec, int(rng.integers(1, min(hi, spec.q) + 1)))
        B = draw_set(rng, spec, int(rng.integers(1, min(hi, spec.q) + 1)))
        kind = ("sum", "diff", "prod", "ratio")[i % 4]
        if kind == "ratio":
            B = B.nonzero()
            if len(B) == 0:
                continue
        got = set_op(A, B, kind)
        assert list(got) == naive_set_op(spec, list(A), list(B), kind)
        checks += 1
    assert checks >= 900


@pytest.mark.parametrize("desc", ("2^1",) + POOL_DESCRIPTORS + (LARGE_DESCRIPTOR,))
def test_pair_counts_match_naive_oracle(desc):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([71, spec.q])
    small, large = (draw_set(rng, spec, k, nonzero=True) for k in (2, 9))
    zero = fqset(spec, 0)
    sets = [zero, fqset(spec, 1), draw_set(rng, spec, 1, nonzero=True),
            small, small.union(zero), large, large.union(zero)]
    for A in sets:
        assert list(sum_representation_counts(A)) == naive_pair_counts(spec, A, A, "sum")
        assert list(intersection_shift_counts(A)) == naive_pair_counts(spec, A, A, "diff")
        for B in sets:
            for kind in SET_OPS:
                if kind == "ratio" and 0 in B:
                    with pytest.raises(ZeroDivisorInRatio):
                        set_op(A, B, kind)
                    continue
                counts = naive_pair_counts(spec, A, B, kind)
                assert list(set_op(A, B, kind)) == [v for v, c in enumerate(counts) if c]
            if 0 not in A:  # r(xi) = #{(x, y) in A x B : y/x = xi}
                counts = naive_pair_counts(spec, B, A, "ratio")
                rep = representation_spectrum(A, B)
                assert rep.tolist() == counts
                assert (int(rep.sum()), _sum_of_squares(rep)) == (sum(counts),
                                                                 sum(c * c for c in counts))


@pytest.mark.parametrize("desc", ("13^1", "2^4", "3^3", "11^2"))
def test_pair_counts_accumulate_over_blocks(desc, monkeypatch):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([72, spec.q])
    A = draw_set(rng, spec, 7, nonzero=True).union(fqset(spec, 0))
    B = draw_set(rng, spec, 4, nonzero=True)
    # blocks of 3 rows: 3 + 3 + 2 rows of A for sum and diff, 3 + 3 + 1 of A* for prod and ratio;
    # a set with itself is marked in blocks of 1-2 rows as its triangle narrows
    monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", 3 * len(B))
    for kind in SET_OPS:
        assert list(_pair_counts(A, B, kind)) == naive_pair_counts(spec, A, B, kind)
        assert list(set_op(A, B, kind)) == naive_set_op(spec, list(A), list(B), kind)
        X = A.nonzero() if kind == "ratio" else A
        assert list(set_op(X, X, kind)) == naive_set_op(spec, list(X), list(X), kind)


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS)
def test_set_op_of_a_set_with_itself_matches_naive_oracle(desc, monkeypatch):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([75, spec.q])
    sets = [draw_set(rng, spec, k, nonzero=True) for k in (1, 3, 12, 64)]
    sets += [A.union(FqSet.from_iterable(spec, [0])) for A in sets]
    # the cost model, then the grid: its triangle for the sum and product of a
    # set with itself, and the whole grid for an equal copy
    for backend in (None, "grid"):
        with monkeypatch.context() as patch:
            if backend is not None:
                force_backend(patch, backend)
            for A in sets:
                for kind in SET_OPS:
                    X = A.nonzero() if kind == "ratio" else A
                    naive = naive_set_op(spec, list(X), list(X), kind)
                    assert list(set_op(X, X, kind)) == naive
                    assert list(set_op(X, FqSet.from_iterable(spec, X.members), kind)) == naive


@pytest.mark.parametrize("desc", ("13^1", "2^6", "3^4"))
def test_the_grid_scores_a_triangle_for_a_set_with_itself_and_the_whole_grid_for_a_copy(
        desc, monkeypatch):
    spec = parse_descriptor(desc)
    A = draw_set(np.random.default_rng([73, spec.q]), spec, 12, nonzero=True)
    copy = FqSet.from_iterable(spec, A.members)
    assert copy == A and copy is not A
    scored, blocks = [], set_algebra._blocks

    def counted(a, b, op, triangle=False):
        for values in blocks(a, b, op, triangle):
            scored[-1][1] += values.size
            yield values
    monkeypatch.setattr(set_algebra, "_blocks", counted)
    served = force_backend(monkeypatch, "grid")
    n, half = len(A), len(A) * (len(A) + 1) // 2  # the triangle holds its diagonal
    for kind in ("sum", "prod"):
        for B, cells in ((A, range(half, n * n)), (copy, range(n * n, n * n + 1))):
            naive = naive_pair_counts(spec, A, B, kind)
            support = [v for v, c in enumerate(naive) if c]
            for op, expected in ((_pair_counts, naive), (set_op, support)):
                scored.append([(B is A, kind), 0])
                assert list(op(A, B, kind)) == expected
                assert scored[-1][1] in cells, scored[-1]
    assert served == ["sum"] * 4 + ["prod"] * 4


def test_pair_counts_stay_well_below_one_grid_of_memory(monkeypatch):
    spec = build_field(3, 12)
    A = FqSet.from_iterable(spec, np.random.default_rng(5).choice(spec.q, 3000, replace=False))
    grid = len(A) ** 2 * 8  # one int64 |A| x |A| grid: 72 MB
    counts = (lambda: sum_representation_counts(A), lambda: intersection_shift_counts(A),
              lambda: additive_energy(A), lambda: set_op(A, A, "prod"), lambda: set_op(A, A, "sum"),
              lambda: set_op(A, A, "diff"), lambda: set_op(A, A.nonzero(), "ratio"))
    # every op on the grid (the sum and product of A with itself on its
    # triangle); then the transform where it can serve, and the cost model's
    # choice (the rotation for prod and ratio) elsewhere
    for backend in ("grid", "transform"):
        with monkeypatch.context() as patch:
            served = force_backend(patch, backend)
            for count in counts:
                peak = peak_bytes(count)[0]
                assert peak < 40_000_000 < grid
            assert served


def test_grid_ratio_counts_peak_at_int32_log_sums(monkeypatch):
    # the 2(q-1) log sums and the q counts gathered from them, int32: 16.2
    # bytes an element of 3^12 (8.6 MB); int64 sums and counts took 32.2
    spec = build_field(3, 12)
    rng = np.random.default_rng(78)
    A, B = (FqSet.from_iterable(spec, rng.choice(np.arange(1, spec.q), 3000, replace=False))
            for _ in "AB")
    served = force_backend(monkeypatch, "grid")
    peak, counts = peak_bytes(lambda: _pair_counts(A, B, "ratio"))
    assert served == ["ratio"] and counts.dtype == np.int32
    assert int(counts.sum()) == len(A) * len(B)
    assert peak < 20 * spec.q


def test_half_spectrum_transform_matches_the_grid_at_survey_size(monkeypatch):
    # the survey's size on 3^12: four chunks of 27, 14 representatives each
    spec = build_field(3, 12)
    rng = np.random.default_rng(76)
    A, B = (FqSet.from_iterable(spec, rng.choice(spec.q, 3000, replace=False)) for _ in "AB")
    for X, Y, kind in ((A, A, "diff"), (A, B, "sum")):
        with monkeypatch.context() as patch:
            force_backend(patch, "grid")
            grid = _pair_counts(X, Y, kind)
        assert set_algebra._plan(X, Y, kind, False) == "transform"
        served = set_algebra._exact_counts(set_algebra._transform_counts(X, Y, kind),
                                           len(X) * len(Y))
        assert served is not None and np.array_equal(served, grid)
        assert np.array_equal(_pair_counts(X, Y, kind), grid)


def _two_half_transforms(spec):
    """The peak bound of a count by the transform: two buffers of a half
    transform, about half a complex array each for odd p (1.04x and 1.15x of
    q * 16 bytes on 3^12 and 7^7), one real array each for p = 2 (2.0x of
    q * 8); a third q-length array would break it."""
    return 2.3 * spec.q * 8 if spec.p == 2 else 1.2 * spec.q * 16


@pytest.mark.parametrize("desc", ("3^12", "7^7", "2^20"))
def test_shift_counts_by_transform_peak_near_two_q_length_complex_arrays(desc):
    spec = parse_descriptor(desc)
    A = FqSet.from_iterable(spec, np.random.default_rng(6).choice(spec.q, 3000, replace=False))
    assert set_algebra._plan(A, A, "diff", False) == "transform"
    intersection_shift_counts(A)  # the cached plan is not part of a count's peak
    peak = peak_bytes(lambda: intersection_shift_counts(A))[0]
    assert peak < _two_half_transforms(spec)
    assert "bitmask" not in A.__dict__


@pytest.mark.parametrize("desc", ("3^12", "7^7", "2^20"))
def test_energy_by_transform_peaks_within_a_count_by_transform(desc, monkeypatch):
    # the forward transform's two buffers, |F|^2 written into the free one
    spec = parse_descriptor(desc)
    A = FqSet.from_iterable(spec, np.random.default_rng(6).choice(spec.q, 3000, replace=False))
    assert set_algebra._plan(A, A, "sum", False) == "transform"
    expected = additive_energy(A)  # the cached plan is not part of the peak
    monkeypatch.setattr(set_algebra, "sum_representation_counts", None)  # no fallback
    peak, energy = peak_bytes(lambda: additive_energy(A))
    assert energy == expected and peak <= _two_half_transforms(spec)


@pytest.mark.parametrize("desc", ("3^12", "7^7", "2^20"))
def test_energy_by_transform_peaks_below_one_q_length_float_array(desc, monkeypatch):
    # the rows go a few at a time through two buffers of g q/L entries: 0.6x,
    # 0.6x and 0.2x of q * 8 bytes, where the two buffers of all h rows took
    # 2.1x, 2.3x and 2.0x
    spec = parse_descriptor(desc)
    A = FqSet.from_iterable(spec, np.random.default_rng(8).choice(spec.q, 3000, replace=False))
    expected = additive_energy(A)  # the cached plan is not part of the peak
    h, first, _, _ = set_algebra._chunk_matrices(spec)
    assert len(list(set_algebra._batches(h, spec.q // len(first)))) > 1
    monkeypatch.setattr(set_algebra, "sum_representation_counts", None)  # no fallback
    peak, energy = peak_bytes(lambda: additive_energy(A))
    assert energy == expected and peak < spec.q * 8


def test_pair_sum_by_transform_peaks_at_three_half_transforms():
    # F_A is held while F_B's passes take two more buffers: three half
    # transforms (13.2 MB on 3^12), with 5% for the rest
    spec = build_field(3, 12)
    rng = np.random.default_rng(77)
    A, B = (FqSet.from_iterable(spec, rng.choice(spec.q, 3000, replace=False)) for _ in "AB")
    assert set_algebra._plan(A, B, "sum", False) == "transform"
    _pair_counts(A, B, "sum")  # the cached plan is not part of a count's peak
    peak, counts = peak_bytes(lambda: _pair_counts(A, B, "sum"))
    assert int(counts.sum()) == len(A) * len(B)
    h, first, _, _ = set_algebra._chunk_matrices(spec)
    assert peak <= 1.05 * 3 * h * spec.q // len(first) * 16


def test_exact_counts_peak_near_two_q_length_arrays():
    # the residuals are taken in place and the counts written over the values,
    # so only their rint is held besides them (1.0x of q * 8 bytes); the
    # values, their rint, the difference and its abs peaked at 3.0x
    spec = build_field(3, 12)
    A = FqSet.from_iterable(spec, np.random.default_rng(6).choice(spec.q, 3000, replace=False))
    values = set_algebra._transform_counts(A, A, "diff")
    peak, counts = peak_bytes(lambda: set_algebra._exact_counts(values, len(A) ** 2))
    assert counts is not None and int(counts.sum()) == len(A) ** 2
    assert counts.dtype == np.int32 and np.shares_memory(counts, values)
    assert peak <= 1.1 * spec.q * 8


@pytest.mark.parametrize("desc", tuple(d for d in POOL_DESCRIPTORS if not d.endswith("^1"))
                         + (LARGE_DESCRIPTOR, "3^7"))
def test_transform_pair_counts_match_naive_oracle(desc, monkeypatch):
    spec = parse_descriptor(desc)
    served = force_backend(monkeypatch, "transform")
    rng = np.random.default_rng([73, spec.q])
    zero = fqset(spec, 0)
    small, large = (draw_set(rng, spec, k, nonzero=True) for k in (2, min(40, spec.q - 1)))
    sets = [zero, fqset(spec, 1), draw_set(rng, spec, 1, nonzero=True),
            small, small.union(zero), large, large.union(zero)]
    for A in sets:
        for B in sets + [A]:  # the last one is A itself, transformed once
            for kind in ("sum", "diff"):
                assert list(_pair_counts(A, B, kind)) == naive_pair_counts(spec, A, B, kind)
    assert len(served) == 2 * len(sets) * (len(sets) + 1)


def _off_by_half(values):
    return values + 0.5


def _moved_between_two_counts(values):  # the total stays |A||B|, the residuals are 0.4
    values[np.argmax(values)] -= 0.6
    values[np.argmin(values)] += 0.6
    return values


def _nan_in_one_count(values):
    values[np.argmax(values)] = np.nan
    return values


def _one_count_below_zero(values):
    # the smallest count goes to -1 and the largest takes the difference: the
    # total stays |A||B| and no residual moves
    low = np.argmin(values)
    moved = np.rint(values[low]) + 1
    values[low] -= moved
    values[np.argmax(values)] += moved
    return values


def _one_count_up_by_one(values):  # every residual and sign holds: only the total is off
    values[np.argmax(values)] += 1
    return values


@pytest.mark.parametrize("perturb", (_off_by_half, _moved_between_two_counts, _nan_in_one_count,
                                     _one_count_below_zero, _one_count_up_by_one))
@pytest.mark.parametrize("desc", ("2^4", "3^3", "5^3"))
def test_transform_falls_back_to_the_grid_when_its_counts_are_off(desc, perturb, monkeypatch):
    spec = parse_descriptor(desc)
    transform = set_algebra._transform_counts
    served = force_backend(monkeypatch, "transform")
    monkeypatch.setattr(set_algebra, "_transform_counts",
                        lambda A, B, kind: perturb(transform(A, B, kind)))
    rng = np.random.default_rng([74, spec.q])
    A, B = draw_set(rng, spec, 9), draw_set(rng, spec, 6)
    for X, Y in ((A, A), (A, B)):
        for kind in ("sum", "diff"):  # the counts, and the supports, recounted on the grid
            assert list(_pair_counts(X, Y, kind)) == naive_pair_counts(spec, X, Y, kind)
            assert list(set_op(X, Y, kind)) == naive_set_op(spec, list(X), list(Y), kind)
    assert served == ["sum", "sum", "diff", "diff"] * 2


@pytest.mark.parametrize("backend", ("grid", "triangle", "transform"))
@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + (LARGE_DESCRIPTOR,))
def test_energy_and_sum_counts_match_naive_oracles_on_every_backend(desc, backend, monkeypatch):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([82, spec.q])
    zero = fqset(spec, 0)
    sets = [zero, fqset(spec, 1)] + [draw_set(rng, spec, min(k, spec.q)) for k in (2, 7, 30, 64)]
    sets.append(sets[-2].union(zero))
    served = force_backend(monkeypatch, backend)
    fallbacks = []  # the transform's energies that missed their check
    exact_energy = set_algebra._exact_energy
    monkeypatch.setattr(set_algebra, "_exact_energy",
                        lambda *args: fallbacks.append(args) or exact_energy(*args))
    groups = _spy_on_energy_groups(monkeypatch)
    for A in sets:
        # blocks of 3 to isqrt(|A|) rows: the triangle's blocks and their corners span
        # several; then blocks of one row, and the energy's transform one row at a time
        for cells in (3 * len(A), 1):
            monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", cells)
            assert list(sum_representation_counts(A)) == naive_pair_counts(spec, A, A, "sum")
            assert additive_energy(A) == naive_additive_energy(spec, list(A))
    assert all(exact_energy(*args) is not None for args in fallbacks)
    if backend == "transform" and spec.m == 1:
        assert served == [] and groups == []
    else:  # the counts, then the energy (planned once more for its counts, off the transform)
        assert served == ["sum"] * (2 if backend == "transform" else 3) * 2 * len(sets)
        assert len(fallbacks) == (2 * len(sets) if backend == "transform" else 0)
        assert (max(groups, default=0) > 1) == (backend == "transform")


def _spy_on_energy_groups(monkeypatch) -> list[int]:
    """The number of row groups each ``_transform_energy`` call transformed,
    appended as the calls return."""
    groups, energy, half = [], set_algebra._transform_energy, set_algebra._half_transform
    calls = []

    def spy_half(*args, **kwargs):
        calls.append(1)
        return half(*args, **kwargs)

    def spy_energy(A):
        calls.clear()
        value = energy(A)
        groups.append(len(calls))
        return value
    monkeypatch.setattr(set_algebra, "_half_transform", spy_half)
    monkeypatch.setattr(set_algebra, "_transform_energy", spy_energy)
    return groups


def _perturbed_energies(value, size):
    """Values that ``_exact_energy`` must refuse: off by 1/2, off by 1, 2 or
    3 (the residue mod 4), past either end of [size^2, size^3] by 4 (in
    residue), and not finite."""
    return (value + 0.5, value + 1, value - 2, value + 3, value + 4 * ((size**3 - value) // 4 + 1),
            value - 4 * ((value - size**2) // 4 + 1), math.nan, math.inf)


@pytest.mark.parametrize("desc", ("2^4", "3^3", "5^3", "2^10"))
def test_energy_by_parseval_falls_back_to_the_counts_when_its_value_is_off(desc, monkeypatch):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([83, spec.q])
    sets = [draw_set(rng, spec, k) for k in (1, 3, 9, 20)]
    groups = _spy_on_energy_groups(monkeypatch)
    transform_energy = set_algebra._transform_energy
    served = force_backend(monkeypatch, "transform")
    default = set_algebra.PAIR_BLOCK_CELLS
    for A in sets:
        exact = naive_additive_energy(spec, list(A))
        for cells in (default, 1):  # then one row of the transform at a time
            monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", cells)
            value = transform_energy(A)
            assert set_algebra._exact_energy(value, len(A), spec.p) == exact
            for bad in _perturbed_energies(exact, len(A)):
                monkeypatch.setattr(set_algebra, "_transform_energy", lambda A: bad)
                assert set_algebra._exact_energy(bad, len(A), spec.p) is None
                assert additive_energy(A) == exact
    # each perturbed energy, then its counts
    assert served == ["sum"] * 2 * 2 * len(sets) * len(_perturbed_energies(0, 1))
    h = set_algebra._chunk_matrices(spec)[0]
    assert groups == [1, h] * len(sets)


def test_energy_by_parseval_falls_back_under_python_O():
    import os
    import subprocess
    import sys

    import fqlab

    # the check must hold without asserts: a value one off (odd) is refused
    script = ("from fqlab import set_algebra as sa\n"
              "from fqlab.finite_field import build_field\n"
              "A = sa.FqSet.from_iterable(build_field(3, 3), [0, 1, 5, 7, 20])\n"
              "exact = sa._sum_of_squares(sa.sum_representation_counts(A))\n"
              "sa._plan = lambda A, B, kind, support: 'transform'\n"
              "sa._transform_energy = lambda A: exact + 1.0\n"
              "print(sa.additive_energy(A) == exact, exact, __debug__)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fqlab.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["True", "57", "False"], proc.stderr


def _column_sets(spec):
    """Sets that fill one column of the first pass (the L members sharing
    their later chunks), every column or all but one, or hold 0 or q - 1."""
    _, first, _, _ = set_algebra._chunk_matrices(spec)
    rest = spec.q // len(first)
    rng = np.random.default_rng([79, spec.q])
    column = lambda c: FqSet.from_iterable(spec, np.arange(len(first)) * rest + c)
    rows = rng.integers(len(first), size=rest) * rest + np.arange(rest)
    return [column(0), column(rest - 1), column(rest // 2).union(fqset(spec, 1)),
            FqSet.from_iterable(spec, rows), FqSet.from_iterable(spec, rows[1:]),
            fqset(spec, 0), fqset(spec, spec.q - 1), fqset(spec, 0, spec.q - 1),
            draw_set(rng, spec, 20).union(fqset(spec, 0, spec.q - 1))]


@pytest.mark.parametrize("desc", ("2^10", "3^7"))
def test_first_pass_on_occupied_columns_matches_naive_oracle(desc, monkeypatch):
    # a set of fewer than q/L members (32 on 2^10, 81 on 3^7) takes the
    # occupied-column pass, a larger one every column
    spec = parse_descriptor(desc)
    served = force_backend(monkeypatch, "transform")
    occupied = []  # the columns each occupied-column pass multiplied
    columns = set_algebra._columns

    def spy(spec, members):
        cols, marks = columns(spec, members)
        if cols is not None:
            occupied.append(len(marks))
        return cols, marks
    monkeypatch.setattr(set_algebra, "_columns", spy)
    sets = _column_sets(spec)
    for A in sets:
        for B in (A, sets[0], sets[3], sets[-1]):
            for kind in ("sum", "diff"):
                assert list(_pair_counts(A, B, kind)) == naive_pair_counts(spec, A, B, kind)
    assert len(served) == 2 * 4 * len(sets)
    assert not any("bitmask" in A.__dict__ for A in sets)
    rest = spec.q // len(set_algebra._chunk_matrices(spec)[1])
    assert occupied and max(occupied) < rest


def _set_op_on(backend, X, Y, kind):
    """(set_op(X, Y, kind), the kinds ``backend`` served), with ``backend``
    forced for this one call."""
    with pytest.MonkeyPatch.context() as patch:
        served = force_backend(patch, backend)
        return set_op(X, Y, kind), served


@pytest.mark.parametrize("desc", ("2^1",) + tuple(d for d in POOL_DESCRIPTORS if d.endswith("^1")))
def test_prime_field_sums_and_differences_by_rotation_match_naive_oracle(desc, monkeypatch):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([77, spec.q])
    sets = [draw_set(rng, spec, k) for k in (1, 2, 5, spec.q)]
    served = force_backend(monkeypatch, "rotation")
    calls = 0
    for A in sets:
        for B in [A] + sets:  # B is A, then B != A (and once an equal copy)
            for kind in ("sum", "diff"):
                assert list(set_op(A, B, kind)) == naive_set_op(spec, list(A), list(B), kind)
                calls += 1
    assert served == ["sum", "diff"] * (calls // 2)


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + (LARGE_DESCRIPTOR, "2^12", "3^7"))
def test_rotated_products_and_ratios_match_the_grid(desc):
    # q - 1 = 6, 8, 4095 and 2186 among them: n % 8 both zero and nonzero
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([78, spec.q])
    zero = fqset(spec, 0)
    A, B = (draw_set(rng, spec, k, nonzero=True) for k in (min(60, spec.q // 2), 9))
    pairs = [(A, A), (A, B), (B, A), (A.union(zero), B), (A, B.union(zero))]
    A0 = A.union(zero)
    pairs.append((A0, A0))
    for X, Y in pairs:
        for kind in ("prod", "ratio"):
            if kind == "ratio" and 0 in Y:
                for backend in ("grid", "rotation"):
                    with pytest.raises(ZeroDivisorInRatio):
                        _set_op_on(backend, X, Y, kind)
                continue
            grid, on_grid = _set_op_on("grid", X, Y, kind)
            rotated, served = _set_op_on("rotation", X, Y, kind)
            assert rotated == grid and on_grid == served == [kind]


def test_a_saturating_quotient_set_exits_early(monkeypatch):
    spec = build_field(2, 8)
    X = draw_set(np.random.default_rng(79), spec, 40)
    with monkeypatch.context() as patch:
        force_backend(patch, "grid")
        grid = quotient_set(X)
    served = force_backend(monkeypatch, "rotation")
    rows = []
    bitwise_or = np.bitwise_or

    def counted(*args, **kwargs):
        rows.append(1)
        return bitwise_or(*args, **kwargs)
    monkeypatch.setattr(np, "bitwise_or", counted)
    R = quotient_set(X)
    assert R == grid and len(R) == spec.q
    # one ratio set on Z/255, which stops at its first check, 32 of its 248 rows
    assert served == ["ratio"] and len(set_op(X, X, "diff").nonzero()) == 248
    assert len(rows) == 32


def _star_sample(desc, size):
    """A of ``size`` elements drawn from F_q^* (seed 0), and B = A + 1."""
    spec = parse_descriptor(desc)
    A = FqSet.from_iterable(spec, np.random.default_rng(0).choice(np.arange(1, spec.q), size,
                                                                  replace=False))
    return A, translate(A, 1)


@pytest.mark.parametrize("desc, size, kind, plan", [
    ("2^12", 100, "prod", "grid"),  # AA, its triangle
    ("2^12", 1500, "prod", "rotation"),
    ("2^12", 1500, "sum", "transform"),  # A + A, by the transform before the rotation
    ("7^1", 6, "sum", "grid"),  # the whole of F_7^*, its triangle
    ("65521^1", 2000, "sum", "rotation"),
])
def test_cost_model_sends_only_large_grids_to_the_rotation(desc, size, kind, plan):
    A, _ = _star_sample(desc, size)
    assert set_algebra._plan(A, A, kind, True) == plan
    assert set_algebra._grid(A, A, kind)[-1]  # a set with itself: the grid is a triangle


# today's choices on the benchmark's shapes, so that moving code moves no decision
@pytest.mark.parametrize("desc, size, operands, kind, support, plan", [
    ("3^12", 1000, "AA", "diff", False, "grid"),  # A - A counts
    ("3^12", 1000, "AA", "prod", True, "grid"),  # AA, its triangle
    ("3^12", 1000, "AB", "prod", True, "rotation"),  # A(A+1)
    ("3^12", 3000, "AA", "diff", False, "transform"),
    ("3^12", 3000, "AB", "sum", False, "transform"),  # A + B counts
    ("3^12", 3000, "AA", "prod", True, "rotation"),
    ("3^12", 3000, "AB", "prod", True, "rotation"),
    ("2^20", 1000, "AB", "prod", True, "grid"),
    ("2^20", 3000, "AB", "prod", True, "rotation"),
    ("3^7", 96, "AA", "diff", False, "transform"),
    ("3^7", 96, "AB", "sum", False, "grid"),
])
def test_plan_keeps_the_benchmark_choices(desc, size, operands, kind, support, plan):
    A, B = _star_sample(desc, size)
    B = A if operands == "AA" else B
    assert set_algebra._plan(A, B, kind, support) == plan
    assert set_algebra._grid(A, B, kind)[-1] == (B is A and kind == "prod")  # AA's triangle


def test_plan_keeps_small_sets_on_the_grid():
    A, B = _star_sample("2^12", 96)
    ops = [(Y, kind) for Y in (A, B) for kind in SET_OPS if not (kind == "ratio" and 0 in Y)]
    plans = {set_algebra._plan(A, Y, kind, support) for Y, kind in ops for support in (False, True)}
    assert plans == {"grid"}
    # of which A + A and AA score one triangle
    assert [(Y is A, kind) for Y, kind in ops if set_algebra._grid(A, Y, kind)[-1]] == [
        (True, "sum"), (True, "prod")]


# the ops each backend can serve: B is A, the kind, a support (or counts), m
SERVES = {
    "grid": lambda same, kind, support, m: True,
    "triangle": lambda same, kind, support, m: same and kind in ("sum", "prod"),
    "rotation": lambda same, kind, support, m: support and (kind in ("prod", "ratio") or m == 1),
    "transform": lambda same, kind, support, m: kind in ("sum", "diff") and m > 1,
}


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + (LARGE_DESCRIPTOR,))
def test_every_backend_matches_the_naive_oracles(desc, monkeypatch):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([81, spec.q])
    zero = fqset(spec, 0)
    A, B = (draw_set(rng, spec, k, nonzero=True) for k in (min(24, spec.q - 1), 5))
    sets = [zero, fqset(spec, 1), B, B.union(zero), A, A.union(zero)]
    cases = []  # (X, Y, kind, counts); Y is X in the last of each row
    for X in sets:
        for Y in sets + [X]:
            for kind in SET_OPS:
                ok = not (kind == "ratio" and 0 in Y)
                cases.append((X, Y, kind, naive_pair_counts(spec, X, Y, kind) if ok else None))
    for backend, serves in SERVES.items():
        with monkeypatch.context() as patch:
            served, expected = force_backend(patch, backend), []
            for X, Y, kind, counts in cases:
                if counts is None:  # planned, then refused
                    with pytest.raises(ZeroDivisorInRatio):
                        set_op(X, Y, kind)
                    expected += [kind] * serves(X is Y, kind, True, spec.m)
                    continue
                support = [v for v, c in enumerate(counts) if c]
                got = _pair_counts(X, Y, kind)
                assert got.dtype == np.int32 and got.tolist() == counts
                assert list(set_op(X, Y, kind)) == support
                assert set_op_size(X, Y, kind) == len(support)
                expected += [kind] * (serves(X is Y, kind, False, spec.m)
                                      + 2 * serves(X is Y, kind, True, spec.m))
            assert served == expected
            assert served or (backend == "transform" and spec.m == 1)
            # the public wrappers hand the same int32 counts on
            wrapped = (sum_representation_counts(A), intersection_shift_counts(A),
                       representation_spectrum(A, B), representation_spectrum(B, A.union(zero)))
            assert [c.dtype for c in wrapped] == [np.dtype(np.int32)] * 4


def test_rotated_support_stays_small():
    spec = build_field(2, 20)
    A = FqSet.from_iterable(spec, np.random.default_rng(0).choice(np.arange(1, spec.q), 3000,
                                                                  replace=False))
    B = translate(A, 1)
    assert set_algebra._plan(A, B, "prod", True) == "rotation"
    peak = peak_bytes(lambda: set_algebra._pair_support(A, B, "prod"))[0]
    assert peak < 6 * spec.q


def test_rotated_support_starts_on_a_64_byte_line():
    # the rows' wide ORs store into it: from a start the allocator left off a
    # line, the |A| = 1000 and 3000 supports on 2^20 ran 10-15% slower
    rng = np.random.default_rng(64)
    for n in (255, 4095, 2**20 - 1):
        a, b = (rng.choice(n, k, replace=False) for k in (30, 40))
        out = set_algebra._rotate_support(a, b, n)
        assert out.ctypes.data % 64 == 0 and out.size == -(-n // 8)


@pytest.mark.parametrize("backend", tuple(SERVES))
@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + (LARGE_DESCRIPTOR, "2^12", "3^7"))
def test_set_op_size_matches_naive_oracle(desc, backend, monkeypatch):
    # q - 1 = 6, 8, 4095 and 2186 and p = 5, 7, 11, 13 among them: a packed
    # rotation with and without pad bits
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([80, spec.q])
    zero = fqset(spec, 0)
    A, B = (draw_set(rng, spec, k, nonzero=True) for k in (min(40, spec.q // 2), 9))
    A0 = A.union(zero)
    pairs = [(A, A), (A0, A0), (A, B), (B, A), (A0, B), (A, B.union(zero))]
    served, expected = force_backend(monkeypatch, backend), []
    for X, Y in pairs:
        for kind in SET_OPS:
            if kind == "ratio" and 0 in Y:  # planned, then refused
                with pytest.raises(ZeroDivisorInRatio):
                    set_op_size(X, Y, kind)
            else:
                assert set_op_size(X, Y, kind) == len(naive_set_op(spec, list(X), list(Y), kind))
            expected += [kind] * SERVES[backend](X is Y, kind, True, spec.m)
    assert served == expected


def test_set_op_size_of_a_saturating_rotation_exits_early(monkeypatch):
    spec = build_field(2, 8)  # n = 255: one pad bit, set from the start
    X = draw_set(np.random.default_rng(79), spec, 40)
    D = set_op(X, X, "diff")
    naive = naive_set_op(spec, list(D), list(D.nonzero()), "ratio")
    served = force_backend(monkeypatch, "rotation")
    rows = []
    bitwise_or = np.bitwise_or

    def counted(*args, **kwargs):
        rows.append(1)
        return bitwise_or(*args, **kwargs)
    monkeypatch.setattr(np, "bitwise_or", counted)
    assert set_op_size(D, D.nonzero(), "ratio") == len(naive) == spec.q
    assert served == ["ratio"] and len(rows) == 32  # 32 of its 248 rows


def test_representation_spectrum_refuses_mixed_fields():
    # F_5 and F_7 encodings overlap, so only the field check can catch these;
    # F_7's 6 is not an F_5 encoding at all
    for X, Y in ((fqset(F5, 1, 2), fqset(F7, 1, 3)), (fqset(F5, 1, 2), fqset(F7, 6)),
                 (fqset(F7, 1, 2, 3), fqset(F5, 1, 4))):
        with pytest.raises(MixedFields):
            representation_spectrum(X, Y)
        with pytest.raises(MixedFields):
            multiplicative_energy(X, Y)


def test_set_op_size_errors_and_empty_operands_follow_set_op():
    with pytest.raises(MixedFields):
        set_op_size(fqset(F7, 1), fqset(F5, 1), "sum")
    with pytest.raises(ZeroDivisorInRatio):
        set_op_size(fqset(F7, 1), fqset(F7, 0, 1), "ratio")
    with pytest.raises(ValueError):
        set_op_size(fqset(F7, 1), fqset(F7, 1), "quot")
    empty = FqSet.from_iterable(F7, ())
    assert set_op_size(empty, fqset(F7, 0, 1), "ratio") == len(set_op(empty, fqset(F7, 0, 1),
                                                                     "ratio")) == 0
    for kind in SET_OPS:
        assert set_op_size(fqset(F7, 1), empty, kind) == 0
        assert set_op_size(empty, fqset(F7, 1), kind) == 0


def test_sum_of_squares_widens_int32_counts_before_it_squares_them():
    # squares past 2^31: a plain int32 dot wraps them
    counts = np.array([50_000, 0, 3, 46_341], dtype=np.int32)
    exact = 50_000**2 + 9 + 46_341**2
    assert int(np.dot(counts, counts)) != exact
    assert _sum_of_squares(counts) == exact
    big = np.full(1 << 16, 1 << 15, dtype=np.int32)  # 2^16 squares of 2^30: the sum is 2^46
    assert _sum_of_squares(big) == 1 << 46


def test_sum_of_squares_is_exact_past_int64():
    counts = np.full(4, 1 << 31, dtype=np.int64)  # squares 2^62 each: the sum is 2^64
    assert int(np.sum(counts * counts)) == 0  # what int64 makes of it
    assert _sum_of_squares(counts) == 1 << 64
    assert _sum_of_squares(np.array([3, 0, 4], dtype=np.int64)) == 25


def test_set_op_with_an_empty_operand_is_empty():
    empty = FqSet.from_iterable(F7, ())
    assert set_op(empty, fqset(F7, 0, 1), "ratio") == empty
    for kind in SET_OPS:
        assert set_op(fqset(F7, 1), empty, kind) == empty
        assert set_op(empty, fqset(F7, 1), kind) == empty


def test_shifted_product_examples():
    assert shifted_product(fqset(F7, 1, 2), 1).to_literal() == "2,3,4,6"
    assert shifted_product(fqset(F5, 0), 1).to_literal() == "0"
    with pytest.raises(ZeroShift):
        shifted_product(fqset(F7, 1, 2), 0)


def test_shifted_product_subfield_obstruction_witness():
    # A = c*G^* with the shift chosen inside cG keeps the product inside a coset
    G = enumerate_subfields(F16)[1]  # F_4 inside F_16
    c = 2
    A = dilate(G.elements, c).nonzero()
    alpha = int(A.members[0])
    assert len(shifted_product(A, alpha)) <= G.size


def test_quotient_set_examples():
    assert quotient_set(fqset(F7, 0, 1)).to_literal() == "0,1,6"
    X = fqset(F4, 0, 1, 2)  # |X| = 3 > sqrt(4)
    assert len(quotient_set(X)) == 4
    with pytest.raises(SetTooSmall):
        quotient_set(fqset(F7, 3))


def test_quotient_set_of_coset_lands_in_subfield():
    G = enumerate_subfields(F16)[1].elements
    X = dilate(G, 7)
    assert quotient_set(X).is_subset(G)


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS)
def test_quotient_closure_failure_matches_naive_scan(desc):
    # quotient sets of random X (mostly failing 1 + R, or the whole field),
    # and each subfield against rows drawn from the field in the caller's
    # order: rows inside it pass, a row outside fails at its first cell
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([77, spec.q])
    cases = [(quotient_set(draw_set(rng, spec, int(rng.integers(2, min(6, spec.q) + 1)))),
              rng.integers(0, spec.q, size=5)) for _ in range(4)]
    for h in enumerate_subfields(spec):
        inside = rng.choice(h.elements.members, size=6)
        cases += [(h.elements, inside), (h.elements, rng.integers(0, spec.q, size=6))]
        if h.is_proper:
            outside = np.setdiff1d(np.arange(spec.q), h.elements.members)
            cases.append((h.elements, np.append(inside, rng.choice(outside, size=2))))
    for R, rows in cases:
        rows = rows.astype(np.int64)
        assert quotient_closure_failure(R, rows) == naive_quotient_closure_failure(
            spec, R.members.tolist(), rows.tolist())


def test_quotient_closure_failure_stays_well_below_one_grid_of_memory():
    # R, the complement of the 2^8 subfield G of 2^16, is closed under x -> 1 + x
    # and under multiplication by G^*, so with rows in G^* every cell is scored
    spec = build_field(2, 16)
    G = next(h for h in enumerate_subfields(spec) if h.d == 8).elements
    R = FqSet._from_bitmask(spec, ~G.bitmask)
    rows = np.random.default_rng(9).choice(G.members[1:], 300)
    grid = rows.size * len(R) * 8  # one int64 rows x R grid: 157 MB
    peak, result = peak_bytes(lambda: quotient_closure_failure(R, rows))
    assert result is None
    assert peak < 40_000_000 < grid


def test_quotient_closure_failure_passes_the_whole_field_at_once():
    spec = build_field(2, 16)
    rows = np.arange(1, spec.q, dtype=np.int64)
    assert quotient_closure_failure(FqSet.from_iterable(spec, range(spec.q)), rows) is None
    assert quotient_closure_failure(FqSet.from_iterable(F7, range(F7.q)), rows[:6]) is None


def test_quotient_closure_failure_finds_a_late_failing_row():
    # 700 rows in the 2^8 subfield G of 2^16 but row 650, which leaves G at
    # its first nonzero column, G[1] = 1
    spec = build_field(2, 16)
    G = next(h for h in enumerate_subfields(spec) if h.d == 8).elements
    rows = np.random.default_rng(8).choice(G.members, 700)
    rows[650] = int(np.setdiff1d(np.arange(spec.q), G.members)[0])
    assert quotient_closure_failure(G, rows) == (650, 1)


def test_quotient_set_closure_properties_exhaustive_small():
    # all X with |X| <= 4 over small fields: 0, 1, -1 in R(X); inversion closure
    from itertools import combinations

    for spec in (build_field(2, 1), build_field(3, 1), F4, F5, F7,
                 build_field(2, 3), F9, build_field(11, 1), build_field(13, 1), F16):
        for k in (2, 3, 4):
            if k > spec.q:
                continue
            for X in combinations(range(spec.q), k):
                R = quotient_set(FqSet.from_iterable(spec, X))
                assert 0 in R and 1 in R and spec.neg(1) in R
                nz = R.members[R.members != 0]
                assert R.bitmask[spec.inv_arr(nz)].all()
                assert list(R) == naive_quotient_set(spec, X)


def test_representation_spectrum_examples():
    sp = representation_spectrum(fqset(F7, 1), fqset(F7, 1))
    assert sp.tolist() == [0, 1, 0, 0, 0, 0, 0]
    assert int(sp.sum()) == 1 and _sum_of_squares(sp) == 1
    sp = representation_spectrum(fqset(F7, 1, 2), fqset(F7, 2, 4))
    assert sp.tolist() == [0, 1, 2, 0, 1, 0, 0]  # {2: 2, 4: 1, 1: 1}
    assert int(sp.sum()) == 4 and _sum_of_squares(sp) == 6
    with pytest.raises(ZeroInDenominatorSet):
        representation_spectrum(fqset(F7, 0, 1), fqset(F7, 1))


def test_spectrum_moment_identities_randomized():
    for i in range(400):
        spec = pool_field(i)
        rng = np.random.default_rng([23, i])
        X = draw_set(rng, spec, int(rng.integers(1, min(20, spec.q))), nonzero=True)
        Y = draw_set(rng, spec, int(rng.integers(1, min(20, spec.q) + 1)))
        sp = representation_spectrum(X, Y)
        assert int(sp.sum()) == len(X) * len(Y)
        assert _sum_of_squares(sp) == naive_multiplicative_energy(spec, list(X), list(Y))


def test_additive_energy_examples():
    assert additive_energy(fqset(F7, 0, 1)) == 6
    assert additive_energy(fqset(F7, 0, 1, 2)) == 19
    with pytest.raises(EmptySet):
        additive_energy(FqSet.from_literal(F7, ""))


def test_energy_bounds_and_oracle():
    for i in range(200):
        spec = pool_field(i)
        rng = np.random.default_rng([29, i])
        A = draw_set(rng, spec, int(rng.integers(1, min(20, spec.q) + 1)))
        e = additive_energy(A)
        assert len(A) ** 2 <= e <= len(A) ** 3
        assert e == naive_additive_energy(spec, list(A))


def test_multiplicative_energy_examples_and_zero_handling():
    A = fqset(F7, 1, 2, 4)
    assert multiplicative_energy(A, A) == 27
    assert multiplicative_energy(A, A) == naive_multiplicative_energy(F7, [1, 2, 4], [1, 2, 4])
    # explicit zero handling: quadruples with vanishing products enter in closed form
    B = fqset(F7, 0, 1, 2)
    assert multiplicative_energy(B, B) == naive_multiplicative_energy(F7, [0, 1, 2], [0, 1, 2])
    with pytest.raises(EmptyAfterZeroStrip):
        multiplicative_energy(fqset(F7, 0), fqset(F7, 1, 2))


def test_geometric_progression_energy_matches_oracle():
    for q, k in ((13, 4), (11, 5)):
        spec = build_field(q, 1)
        g = spec.generator
        gp = [spec.pow(g, i) for i in range(k)]
        A = FqSet.from_iterable(spec, gp)
        assert multiplicative_energy(A, A) == naive_multiplicative_energy(spec, gp, gp)


def test_cauchy_schwarz_randomized():
    for i in range(1000):
        spec = pool_field(i)
        rng = np.random.default_rng([31, i])
        X = draw_set(rng, spec, int(rng.integers(2, min(16, spec.q) + 1)))
        Y = draw_set(rng, spec, int(rng.integers(2, min(16, spec.q) + 1)))
        lhs = multiplicative_energy(X, Y) * len(set_op(X, Y, "prod"))
        assert lhs >= (len(X) * len(Y)) ** 2


def test_ratio_to_shift_randomized():
    for i in range(1000):
        spec = pool_field(i)
        rng = np.random.default_rng([37, i])
        A = draw_set(rng, spec, int(rng.integers(2, min(12, spec.q))), nonzero=True)
        lhs = len(set_op(A, A, "ratio")) * len(A)
        rhs = len(shifted_product(A, 1)) ** 2
        assert lhs <= rhs


def test_difference_count_identities_always():
    for i in range(400):
        spec = pool_field(i)
        rng = np.random.default_rng([41, i])
        A = draw_set(rng, spec, int(rng.integers(1, min(16, spec.q) + 1)))
        counts = intersection_shift_counts(A)
        assert int(counts.sum()) == len(A) ** 2
        assert int(np.sum(counts * counts)) == additive_energy(A)
        # counts[alpha] literally equals |A ∩ (A - alpha)|
        alpha = int(rng.integers(0, spec.q))
        inter = A.intersect(translate(A, spec.neg(alpha)))
        assert counts[alpha] == len(inter)


def test_coset_profile_prime_field_vacuous():
    A = fqset(F7, 1, 2, 4)
    assert all(coset_profile(A, 25, 26, A, kappa=k) for k in (1, 2, 4))


def test_coset_profile_embedded_subfield_fails_exactly():
    F4 = enumerate_subfields(F16)[1]  # F_4 embedded in F_16
    G = F4.elements
    # |A ∩ 1*F_4| = 4 (the coset of 1 sits at log 1 = 0): 4^2 > |F_4| = 4 and
    # 4^26 > 4^25, so kappa = 1 fails
    assert coset_intersection_counts(G, F4)[0] == 4
    assert 4 ** 2 > 4 and 4 ** 26 > 4 ** 25
    assert not coset_profile(G, 25, 26, G)


def test_coset_counts_refuse_a_subfield_of_another_field():
    A = fqset(F16, 1, 2, 3, 5)
    for G in proper_subfields(build_field(2, 6)):  # a 2^6 handle once counted A's cosets
        with pytest.raises(MixedFields):
            coset_intersection_counts(A, G)
        with pytest.raises(MixedFields):
            coset_representatives(F16, G)


@pytest.mark.parametrize("kappa", [0, -3])
def test_coset_profile_kappa_below_1_is_a_value_error(kappa):
    # kappa is squared, so -3 would act as 3 and 0 would fail every set
    with pytest.raises(ValueError, match="kappa must be"):
        coset_profile(fqset(F16, 1, 2, 3), 25, 26, 3, kappa=kappa)


def test_coset_profile_needs_a_nonempty_reference():
    for reference in (fqset(F16), 0):
        with pytest.raises(EmptySet, match="reference"):
            coset_profile(fqset(F16, 1, 2, 3), 25, 26, reference)


def test_coset_profile_exact_integer_comparisons():
    rng = np.random.default_rng(53)
    for _ in range(50):
        A = draw_set(rng, F16, int(rng.integers(2, 12)))
        verdicts = [coset_profile(A, 25, 26, A, kappa=k) for k in (1, 2, 4)]
        # the verdict on each subfield's largest count is the verdict on every coset
        assert verdicts == [all(t ** 2 <= k ** 2 * G.size or t ** 26 <= k ** 26 * len(A) ** 25
                                for G in proper_subfields(F16)
                                for t in coset_intersection_counts(A, G).tolist())
                            for k in (1, 2, 4)]
        # verdicts are monotone in kappa
        assert verdicts == sorted(verdicts)


def test_coset_profile_takes_integer_exponents_and_reference():
    # 25.5/26 once gave a verdict compared in floating point, and a float
    # reference a raw TypeError from len()
    A = fqset(F16, 1, 2, 3, 5, 7)
    for num, den, ref in ((25.5, 26, A), (25, 26.0, A), (True, 26, A), (25, np.float64(26), A),
                          (25, 26, 5.0), (25, 26, True), (25, 26, "5"), (25, 26, [1, 2])):
        with pytest.raises(MalformedLiteral):
            coset_profile(A, num, den, ref)
    for num, den, ref in ((-1, 26, A), (25, 0, A), (25, -26, A), (25, 26, -5)):
        with pytest.raises(ValueError, match="exponent_num >= 0, exponent_den >= 1"):
            coset_profile(A, num, den, ref)
    verdict = coset_profile(A, 25, 26, A)
    assert coset_profile(A, np.int64(25), np.int64(26), np.int64(len(A))) == verdict
    assert coset_profile(A, 0, 1, A) == coset_profile(A, 0, 1, 1)  # ref^0 = 1


def test_row_sizes_count_the_distinct_values_of_each_row():
    rng = np.random.default_rng(37)
    info = np.iinfo(np.int64)
    for shape in ((40, 9), (25, 1), (1, 30), (300, 64)):
        pool = rng.integers(info.min, info.max, size=12, dtype=np.int64, endpoint=True)
        values = rng.choice(pool, size=shape)  # repeats in most rows
        expected = [len(set(row)) for row in values.tolist()]
        assert _row_sizes(values).tolist() == expected
        assert (values[:, 1:] >= values[:, :-1]).all()  # sorted in place
    for fill in (info.min, -7, 0, info.max):
        assert _row_sizes(np.full((6, 11), fill, dtype=np.int64)).tolist() == [1] * 6


def _spied_coset_counts(monkeypatch):
    """Spy on coset_intersection_counts; return the list of the |G| it counted."""
    counted = []
    count = set_algebra.coset_intersection_counts

    def spy(A, G):
        counted.append(G.size)
        return count(A, G)
    monkeypatch.setattr(set_algebra, "coset_intersection_counts", spy)
    return counted


def test_coset_profile_counts_only_subfields_that_can_break_the_bound(monkeypatch):
    count = set_algebra.coset_intersection_counts
    counted = _spied_coset_counts(monkeypatch)
    G = enumerate_subfields(F16)[1].elements  # F_4 embedded in F_16
    # F_2 passes at t = |F_2|: 2^26 <= 4^25, and is not counted; F_4 decides: 4^26 > 4^25
    assert not coset_profile(G, 25, 26, G)
    assert counted == [4]
    counted.clear()
    assert coset_profile(G, 25, 26, G, kappa=2) and counted == []  # 4^2 <= 2^2 * 4
    spec = build_field(2, 20)
    A = draw_set(np.random.default_rng(0), spec, 1000)
    # only F_1024 can meet a coset in more than 1000^(25/26) (about 764) elements
    verdict = coset_profile(A, 25, 26, A)
    assert counted == [1024]
    assert verdict == all(t**2 <= G.size or t**26 <= len(A)**25
                          for G in proper_subfields(spec) for t in count(A, G).tolist())
    assert coset_profile(A, 25, 26, len(A)) == verdict


def test_coset_profile_allocates_no_q_length_array():
    spec = build_field(2, 20)
    A = draw_set(np.random.default_rng(0), spec, 1000)
    proper_subfields(spec)  # enumerated and cached before the measurement
    peak = peak_bytes(lambda: coset_profile(A, 25, 26, A))[0]
    assert peak < 1 << 20  # F_2 alone had q - 1 int64 counts: 8 MB


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + (LARGE_DESCRIPTOR,))
def test_coset_counting_matches_naive_oracle(desc):
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([59, spec.q])
    subfields = proper_subfields(spec)
    sets = [fqset(spec, 0)]  # meets no coset outside {0}, yet not vacuous off prime fields
    sets += [draw_set(rng, spec, k, nonzero=nz) for k in (2, 5, 12) for nz in (False, True)]
    for G in subfields:  # a whole dilate, with and without 0, fails kappa = 1
        sets += [dilate(G.elements, spec.q - 1), dilate(G.elements, spec.q - 1).nonzero()]
    other = draw_set(rng, spec, 9)
    for A in sets:
        naive = naive_coset_profile(spec, A)
        assert (not naive) == (spec.m == 1)
        for G in subfields:
            n = (spec.q - 1) // (G.size - 1)
            rows = [(c, t) for d, _, c, t in naive if d == G.d]
            counts = coset_intersection_counts(A, G)
            assert counts.size == len(rows) == n
            assert all(counts[spec.log_table[c] % n] == t for c, t in rows)
        for num, den, ref in ((25, 26, A), (50, 53, other)):
            verdicts = [coset_profile(A, num, den, ref, kappa=k) for k in (1, 2, 4)]
            assert verdicts == [all(t**2 <= k**2 * g or t**den <= k**den * len(ref)**num
                                    for _, g, _, t in naive) for k in (1, 2, 4)]
            assert verdicts == sorted(verdicts)  # monotone in kappa


@given(st.integers(2, 60), st.integers(0, 3), st.data())
def test_set_op_commutativity_property(size, field_idx, data):
    spec = (F5, F7, F9, F16)[field_idx]
    members = data.draw(st.sets(st.integers(0, spec.q - 1), min_size=1, max_size=size))
    other = data.draw(st.sets(st.integers(0, spec.q - 1), min_size=1, max_size=size))
    A, B = FqSet.from_iterable(spec, members), FqSet.from_iterable(spec, other)
    assert set_op(A, B, "sum") == set_op(B, A, "sum")
    assert set_op(A, B, "prod") == set_op(B, A, "prod")
    assert len(set_op(A, B, "sum")) <= min(spec.q, len(A) * len(B))


def test_dilate_translate_consistency():
    A = fqset(F7, 1, 2, 4)
    assert translate(A, 3).to_literal() == "0,4,5"
    assert dilate(A, 2).to_literal() == "1,2,4"  # multiplicative coset closure
    assert dilate(A, 0).to_literal() == "0"


def test_dilate_refuses_an_out_of_range_factor():
    A = fqset(F16, 1, 2, 3)
    for c in (-1, 16, 17):
        with pytest.raises(ElementOutOfRange):
            dilate(A, c)
    assert dilate(A, 15) == FqSet.from_iterable(F16, F16.mul_arr(A.members, np.int64(15)))


def test_translate_refuses_an_out_of_range_shift():
    A = fqset(F16, 1, 2, 3)
    for alpha in (-1, 16, 17):
        with pytest.raises(ElementOutOfRange):
            translate(A, alpha)
    assert translate(A, 15).to_literal() == "12,13,14"


@pytest.mark.parametrize("value", [1.5, 2.0, np.float64(1.0), True, np.True_, "1", None])
def test_translate_dilate_and_without_refuse_a_scalar_that_is_not_an_integer(value):
    # a float once acted as its truncation: translate by 1.5 gave {2, 3, 4}
    A = fqset(F7, 1, 2, 3)
    for call in (lambda: translate(A, value), lambda: dilate(A, value),
                 lambda: A.without([value]), lambda: A.without([5, value])):
        with pytest.raises(MalformedLiteral):
            call()
    assert translate(A, np.int64(1)) == translate(A, 1) == fqset(F7, 2, 3, 4)
    assert A.without([np.int64(1), 9]) == fqset(F7, 2, 3)


@pytest.mark.parametrize("kappa", [1.5, 2.0, True, "2"])
def test_coset_profile_kappa_that_is_not_an_integer_is_a_value_error(kappa):
    # kappa = 1.5 once reached a big-integer power: OverflowError on 2^24
    with pytest.raises(ValueError, match="kappa must be an integer"):
        coset_profile(fqset(F16, 1, 2, 3), 25, 26, 3, kappa=kappa)
