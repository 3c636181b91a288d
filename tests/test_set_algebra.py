import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqlab.errors import (
    EmptyAfterZeroStrip,
    EmptySet,
    MixedFields,
    SetTooSmall,
    ZeroDivisorInRatio,
    ZeroInDenominatorSet,
    ZeroShift,
)
from fqlab.finite_field import build_field, enumerate_subfields, parse_descriptor, proper_subfields
from fqlab import set_algebra
from fqlab.set_algebra import (
    SET_OPS,
    FqSet,
    _pair_counts,
    _sum_of_squares,
    additive_energy,
    coset_intersection_counts,
    coset_profile,
    dilate,
    intersection_shift_counts,
    multiplicative_energy,
    quotient_set,
    representation_spectrum,
    set_op,
    shifted_product,
    sum_representation_counts,
    translate,
)
from pools import (
    LARGE_DESCRIPTOR,
    POOL_DESCRIPTORS,
    draw_set,
    naive_additive_energy,
    naive_coset_profile,
    naive_multiplicative_energy,
    naive_pair_counts,
    naive_quotient_set,
    naive_set_op,
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
                assert rep.counts == {v: c for v, c in enumerate(counts) if c}
                assert (rep.total, rep.energy) == (sum(counts), sum(c * c for c in counts))


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
    # the default cost model, then the grid alone (its triangle for sum and prod)
    for cells_per_element in (set_algebra.TRANSFORM_CELLS, float("inf")):
        monkeypatch.setattr(set_algebra, "TRANSFORM_CELLS", cells_per_element)
        for A in sets:
            for kind in SET_OPS:
                X = A.nonzero() if kind == "ratio" else A
                assert list(set_op(X, X, kind)) == naive_set_op(spec, list(X), list(X), kind)


def test_pair_counts_stay_well_below_one_grid_of_memory(monkeypatch):
    spec = build_field(3, 12)
    A = FqSet.from_iterable(spec, np.random.default_rng(5).choice(spec.q, 3000, replace=False))
    grid = len(A) ** 2 * 8  # one int64 |A| x |A| grid: 72 MB
    counts = (lambda: sum_representation_counts(A), lambda: intersection_shift_counts(A),
              lambda: set_op(A, A, "prod"), lambda: set_op(A, A, "sum"),
              lambda: set_op(A, A, "diff"), lambda: set_op(A, A.nonzero(), "ratio"))
    # TRANSFORM_CELLS = 0 sends sum and diff to the transform; infinity keeps them on the grid
    for cells_per_element in (float("inf"), 0):
        monkeypatch.setattr(set_algebra, "TRANSFORM_CELLS", cells_per_element)
        for count in counts:
            tracemalloc.start()
            try:
                count()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40_000_000 < grid


def _forced_transform(monkeypatch):
    """Send every nonempty sum and diff over an extension field to the
    transform, and return the list of the kinds it served."""
    served = []
    transform = set_algebra._transform_counts

    def spy(A, B, kind):
        served.append(kind)
        return transform(A, B, kind)
    monkeypatch.setattr(set_algebra, "TRANSFORM_CELLS", 0)
    monkeypatch.setattr(set_algebra, "_transform_counts", spy)
    return served


@pytest.mark.parametrize("desc", tuple(d for d in POOL_DESCRIPTORS if not d.endswith("^1"))
                         + (LARGE_DESCRIPTOR, "3^7"))
def test_transform_pair_counts_match_naive_oracle(desc, monkeypatch):
    spec = parse_descriptor(desc)
    served = _forced_transform(monkeypatch)
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


@pytest.mark.parametrize("perturb", (_off_by_half, _moved_between_two_counts))
@pytest.mark.parametrize("desc", ("2^4", "3^3", "5^3"))
def test_transform_falls_back_to_the_grid_when_its_counts_are_off(desc, perturb, monkeypatch):
    spec = parse_descriptor(desc)
    transform = set_algebra._transform_counts
    monkeypatch.setattr(set_algebra, "TRANSFORM_CELLS", 0)
    monkeypatch.setattr(set_algebra, "_transform_counts",
                        lambda A, B, kind: perturb(transform(A, B, kind)))
    rng = np.random.default_rng([74, spec.q])
    A, B = draw_set(rng, spec, 9), draw_set(rng, spec, 6)
    for X, Y in ((A, A), (A, B)):
        for kind in ("sum", "diff"):
            assert list(_pair_counts(X, Y, kind)) == naive_pair_counts(spec, X, Y, kind)


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
    assert sp.counts == {1: 1} and sp.total == 1 and sp.energy == 1
    sp = representation_spectrum(fqset(F7, 1, 2), fqset(F7, 2, 4))
    assert sp.counts == {2: 2, 4: 1, 1: 1}
    assert sp.total == 4 and sp.energy == 6
    with pytest.raises(ZeroInDenominatorSet):
        representation_spectrum(fqset(F7, 0, 1), fqset(F7, 1))


def test_spectrum_moment_identities_randomized():
    for i in range(400):
        spec = pool_field(i)
        rng = np.random.default_rng([23, i])
        X = draw_set(rng, spec, int(rng.integers(1, min(20, spec.q))), nonzero=True)
        Y = draw_set(rng, spec, int(rng.integers(1, min(20, spec.q) + 1)))
        sp = representation_spectrum(X, Y)
        assert sp.total == len(X) * len(Y)
        assert sp.energy == naive_multiplicative_energy(spec, list(X), list(Y))


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
