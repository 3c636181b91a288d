import dataclasses
import hashlib
import inspect
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from fqlab import decompositions, lemma_oracles, set_algebra
from fqlab.decompositions import _min_diffset_subset, _min_sumset_subset
from fqlab.errors import (
    EmptySet,
    EpsilonOutOfRange,
    MalformedLiteral,
    MixedFields,
    NotApplicable,
    NotSubsets,
    SetTooSmall,
    ZeroElement,
    ZeroInSet,
)
from fqlab.finite_field import build_field, enumerate_subfields, parse_descriptor
from fqlab.lemma_oracles import (
    LEMMA_IDS,
    LEMMAS,
    PIVOT_SAMPLES,
    _first_collision,
    basic_shift_subset,
    batch_verify,
    check_covering_by_shifts,
    check_dyadic_energy,
    check_energy_cs,
    check_energy_identities,
    check_plunnecke,
    check_popularity,
    check_quotient_subfield,
    check_rbcard,
    check_ratio_to_shift,
    check_rbfq,
    check_rudnev,
    check_ruzsa_triangle,
    find_pivot_r,
    find_pivot_xi,
    generate_instance,
    product_energy,
    refined_plunnecke_subset,
    run_lemma,
)
from fqlab.set_algebra import FqSet, dilate, quotient_set, set_op, translate
from pools import (
    EXACT,
    GREEDY,
    POOL_DESCRIPTORS,
    draw_set,
    naive_add,
    naive_exhaustive_min_subset,
    naive_first_collision,
    naive_greedy_min_subset,
    naive_multiplicative_energy,
    naive_quotient_set,
    naive_set_op,
    on_path,
    peak_bytes,
    pool_field,
)

F5 = build_field(5, 1)
F7 = build_field(7, 1)
F8 = build_field(2, 3)
F9 = build_field(3, 2)
F31 = build_field(31, 1)


def fqset(spec, *values):
    return FqSet.from_iterable(spec, values)


def test_rbcard_equality_example():
    X = fqset(F7, 0, 1)
    assert 3 not in quotient_set(X)  # R({0,1}) = {0,1,6}
    rep = check_rbcard(X, 3, X, X)
    assert rep.verdict == "ExactPass"
    assert rep.witness["size"] == 4
    # oracle: {0,1} - 3*{0,1} = {0,4,1,5}
    assert len(set_op(X, dilate(X, 3), "diff")) == 4


def test_rbcard_collision_branch():
    X = fqset(F7, 0, 1, 2)
    rep = check_rbcard(X, 1, X, X)  # r = 1 is always a quotient, x - x collides
    assert rep.verdict == "WitnessFound"
    assert rep.witness["size"] <= rep.witness["product"]
    assert rep.witness["collision"] is not None


def test_first_collision_matches_naive_oracle():
    # the doubling row prefixes against a literal scan of the whole grid, on
    # the pool fields and 2^10, with and without a repeat
    hits = 0
    for i in range(200):
        spec = pool_field(i)
        rng = np.random.default_rng([29, i])
        X1 = draw_set(rng, spec, int(rng.integers(1, min(20, spec.q) + 1)))
        X2 = draw_set(rng, spec, int(rng.integers(1, min(20, spec.q) + 1)))
        r = int(rng.integers(1, spec.q))
        found = _first_collision(X1, X2, r)
        assert found == naive_first_collision(spec, list(X1), list(X2), r)
        hits += found is not None
    assert 0 < hits < 200


def test_rbcard_singletons_trivial():
    X = fqset(F7, 2, 5)
    rep = check_rbcard(X, 3, fqset(F7, 2), fqset(F7, 5))
    assert rep.verdict in ("ExactPass", "WitnessFound")
    assert rep.witness["size"] == 1 or rep.witness["product"] == 1


def test_rbcard_not_subsets():
    with pytest.raises(NotSubsets):
        check_rbcard(fqset(F7, 0, 1), 3, fqset(F7, 5), fqset(F7, 0))


def test_rbcard_passes_a_quotient_r_when_no_difference_repeats():
    # r in R(X) allows a repeat in X1 - r*X2 but does not force one: singletons
    # give one value; with X1 = X2 = X the pairs behind r collide
    X = fqset(F7, 0, 1, 3)
    r = 2  # (3 - 1) / (1 - 0)
    assert r in quotient_set(X)
    rep = check_rbcard(X, r, fqset(F7, 0), fqset(F7, 3))
    assert rep.verdict == "ExactPass"
    assert rep.witness == {"size": 1, "product": 1, "r_in_quotient": True}
    rep = check_rbcard(X, r, X, X)
    assert rep.verdict == "WitnessFound"
    assert rep.witness["size"] < rep.witness["product"] == 9
    assert rep.witness["collision"] == naive_first_collision(F7, [0, 1, 3], [0, 1, 3], r)


def test_lemma_checks_refuse_inputs_outside_their_domain():
    one, empty = fqset(F7, 3), fqset(F7)
    X = fqset(F7, 1, 2, 4)
    for check in (check_rbfq, check_quotient_subfield, find_pivot_r):
        with pytest.raises(SetTooSmall):
            check(one)
    refusals = [
        (EmptySet, lambda: find_pivot_xi(empty, X)),
        (EmptySet, lambda: check_ruzsa_triangle(X, empty, X)),
        (EmptySet, lambda: check_ratio_to_shift(empty)),
        (EmptySet, lambda: basic_shift_subset(empty)),
        (ZeroInSet, lambda: basic_shift_subset(fqset(F7, 0, 1))),
        (ZeroInSet, lambda: check_covering_by_shifts(fqset(F7, 0, 1), 1, 0, one, one)),
        (ZeroElement, lambda: check_covering_by_shifts(X, 7, 0, one, one)),
        (NotSubsets, lambda: check_covering_by_shifts(X, 1, 0, fqset(F7, 5), one)),
        (NotSubsets, lambda: check_covering_by_shifts(X, 1, 0, empty, one)),
    ]
    for error, call in refusals:
        with pytest.raises(error):
            call()
    for call in (lambda: batch_verify("ramsey", 1), lambda: generate_instance("ramsey", 0, 0)):
        with pytest.raises(ValueError, match="unknown lemma id 'ramsey'"):
            call()


def test_an_unknown_lemma_id_is_the_same_value_error_at_every_entry_point():
    # run_lemma raised a bare KeyError: 'ramsey' where the other two raised this
    messages = []
    for call in (lambda: run_lemma("ramsey", X=fqset(F5, 1)), lambda: batch_verify("ramsey", 1),
                 lambda: generate_instance("ramsey", 0, 0)):
        with pytest.raises(ValueError, match="unknown lemma id 'ramsey'") as caught:
            call()
        messages.append(str(caught.value))
    assert len(set(messages)) == 1 and "known: rbcard, rbfq" in messages[0]


def test_rbfq_branches():
    rep = check_rbfq(fqset(build_field(2, 2), 0, 1, 2))
    assert rep.verdict == "ExactPass" and rep.witness["quotient_size"] == 4
    rep = check_rbfq(FqSet.from_iterable(F9, enumerate_subfields(F9)[0].elements.members))
    assert rep.verdict == "MeasuredRatio" and rep.witness["quotient_size"] == 3
    rep = check_rbfq(fqset(build_field(2, 1), 0, 1))
    assert rep.verdict == "ExactPass" and rep.witness["quotient_size"] == 2


def test_quotient_subfield_embedded_prime_field():
    X = FqSet.from_iterable(F9, enumerate_subfields(F9)[0].elements.members)
    rep = check_quotient_subfield(X)
    assert rep.verdict == "ExactPass"
    assert rep.witness["quotient_size"] == 3


def test_quotient_subfield_large_set_is_full_field():
    X = fqset(F5, 0, 1, 2)  # |X| > sqrt(5) so R = F_5, trivially a subfield
    rep = check_quotient_subfield(X)
    assert rep.verdict == "ExactPass"
    assert rep.witness["quotient_size"] == 5


def test_quotient_subfield_violation_reports_witness():
    # {1, g} with tiny quotient set usually breaks one hypothesis in F_8
    g = F8.generator
    rep = check_quotient_subfield(fqset(F8, 1, g))
    if rep.verdict == "WitnessFound":
        assert rep.witness["hypothesis"] in ("1+R", "X*R")
    else:
        assert rep.witness["quotient_size"] == 8


def test_find_pivot_r_applicable():
    X = fqset(F31, 1, 2, 4)
    rep = find_pivot_r(X)
    assert rep.verdict == "MeasuredRatio"
    assert rep.witness["r"] in quotient_set(X)
    assert 0 < rep.value <= 1.0


def test_find_pivot_r_not_applicable_for_subfield():
    X = FqSet.from_iterable(F9, enumerate_subfields(F9)[0].elements.members)
    with pytest.raises(NotApplicable):
        find_pivot_r(X)


def test_find_pivot_r_two_elements():
    rep = find_pivot_r(fqset(F31, 1, 2))
    assert rep.value <= Fraction(3, 4)


def test_find_pivot_xi_examples():
    rep = find_pivot_xi(fqset(F5, 1, 2), fqset(F5, 1, 2))
    assert rep.verdict == "WitnessFound"
    assert rep.witness["max_sumset"] >= 2  # bound = 4*4/(4+4) = 2
    rep = find_pivot_xi(fqset(F5, 3), fqset(F5, 2))
    assert rep.verdict == "WitnessFound"
    full = FqSet.from_iterable(F7, range(F7.q))
    rep = find_pivot_xi(full, full)
    assert rep.witness["max_sumset"] == 7


def test_pivot_xi_and_product_energy_refuse_mixed_fields():
    # F_5 and F_7 encodings overlap, so only the field check can catch these
    for X, Y in ((fqset(F7, 1, 2, 3, 4), fqset(F5, 1, 2, 3)), (fqset(F5, 1, 2), fqset(F7, 1, 3))):
        with pytest.raises(MixedFields):
            find_pivot_xi(X, Y)
        with pytest.raises(MixedFields):
            product_energy(X, Y)


def _naive_dilated_sumset_size(spec, X, Y, c):
    return len(naive_set_op(spec, X, [spec.mul(c, y) for y in Y], "sum"))


@pytest.mark.parametrize("descriptor", ["7^1", "2^4", "3^3", "11^2"])
def test_find_pivot_xi_matches_a_per_candidate_loop(descriptor):
    spec = parse_descriptor(descriptor)
    rng = np.random.default_rng([29, spec.q])
    X1, X2 = draw_set(rng, spec, 4), draw_set(rng, spec, 3)
    sizes = [_naive_dilated_sumset_size(spec, X1, X2, xi) for xi in range(1, spec.q)]
    rep = find_pivot_xi(X1, X2)
    assert rep.witness["max_sumset"] == max(sizes)
    assert rep.witness["xi"] == 1 + sizes.index(max(sizes))  # the first maximiser


@pytest.mark.parametrize("descriptor", ["2^6", "3^4", "11^2", "5^3"])
def test_find_pivot_r_matches_a_per_candidate_loop(descriptor):
    spec = parse_descriptor(descriptor)
    X = draw_set(np.random.default_rng([31, spec.q]), spec, 5)
    floor = math.ceil(Fraction(3 * len(X), 4))
    R = naive_quotient_set(spec, list(X))
    worst = [min(_naive_dilated_sumset_size(spec, S, S, r) for S in combinations(list(X), floor))
             for r in R]
    rep = find_pivot_r(X)
    assert rep.witness["min_sumset"] == max(worst)
    assert rep.witness["r"] == R[worst.index(max(worst))]  # the first maximiser


def test_find_pivot_r_samples_its_subsets_above_ten_elements(monkeypatch):
    spec = build_field(2, 10)
    X = draw_set(np.random.default_rng(35), spec, 12)
    draws, real = [], lemma_oracles._dilated_sumset_sizes
    monkeypatch.setattr(lemma_oracles, "_dilated_sumset_sizes",
                        lambda *args: draws.append(args[0]) or real(*args))
    rep = find_pivot_r(X)
    assert len(draws) == PIVOT_SAMPLES and all(len(S) == 9 and S.is_subset(X) for S in draws)
    assert rep.verdict == "MeasuredRatio" and rep.witness["subset_size"] == 9
    assert rep.witness["r"] in quotient_set(X) and 9 <= rep.witness["min_sumset"] <= 81
    assert find_pivot_r(X).to_json() == rep.to_json()
    assert draws[PIVOT_SAMPLES:] == draws[:PIVOT_SAMPLES]  # the same seeded draws


def test_plunnecke_with_no_summands_is_a_domain_error():
    with pytest.raises(EmptySet):
        check_plunnecke(fqset(F7, 1, 2), [])
    with pytest.raises(EmptySet):
        refined_plunnecke_subset(fqset(F7, 1, 2), [], Fraction(1, 2))


def test_ruzsa_triangle_example():
    X = fqset(F7, 0, 1)
    rep = check_ruzsa_triangle(X, X, X)
    assert rep.verdict == "ExactPass"
    assert rep.witness["lhs"] == 3 * 2 and rep.witness["rhs"] == 9


def test_plunnecke_ap_example():
    ap = fqset(build_field(13, 1), 0, 1, 2)
    rep = check_plunnecke(ap, [ap, ap])
    assert rep.verdict == "ExactPass"
    assert rep.witness["lhs"] == 5 * 3 and rep.witness["rhs"] == 25


def test_ratio_to_shift_example():
    A = fqset(F7, 1, 2, 4)
    rep = check_ratio_to_shift(A)
    assert rep.verdict == "ExactPass"
    with pytest.raises(ZeroInSet):
        check_ratio_to_shift(fqset(F7, 0, 1))


def test_refine_stage_takes_eps_exactly_and_refuses_it_out_of_range():
    # the stage itself once took a float eps in float arithmetic (7 kept where
    # the lemma wrapper kept 8), asked for 20 of 10 elements at eps = -1, and
    # kept one element at eps = 2
    spec = build_field(2, 6)
    X, B = FqSet.from_iterable(spec, range(1, 11)), fqset(spec, 1, 2, 4)
    kept, size, _ = decompositions.refine_stage(X, [B], 0.3)
    assert len(kept) == math.ceil((1 - Fraction(0.3)) * 10) == 8  # the float 0.3 < 3/10
    rep = refined_plunnecke_subset(X, [B], 0.3)
    assert rep.witness == {"subset": kept.members.tolist(), "sumset_size": size, "floor": 8}
    for eps in (-1, 0, 1, 2, Fraction(3, 2), 1.5):
        with pytest.raises(EpsilonOutOfRange):
            decompositions.refine_stage(X, [B], eps)
        with pytest.raises(EpsilonOutOfRange):  # before the wrapper checks anything else
            refined_plunnecke_subset(fqset(spec), [B], eps)


def test_refined_plunnecke_singleton_translates():
    X = fqset(F7, 0, 1, 3)
    rep = refined_plunnecke_subset(X, [fqset(F7, 2)], Fraction(1, 4))
    assert rep.value <= 1.0
    with pytest.raises(EpsilonOutOfRange):
        refined_plunnecke_subset(X, [X], Fraction(3, 2))
    with pytest.raises(EpsilonOutOfRange, match=r"got 1000000000.*\(401 characters\)$"):
        refined_plunnecke_subset(X, [X], Fraction(10**400))


def test_refined_plunnecke_eps_near_one_keeps_one_element():
    X = fqset(F7, 0, 1, 3)
    B = fqset(F7, 1, 2)
    rep = refined_plunnecke_subset(X, [B], Fraction(99, 100))
    assert rep.witness["floor"] == 1
    assert rep.witness["sumset_size"] == len(B)


def test_subset_search_modes_agree_small():
    rng = np.random.default_rng(3)
    for i in range(60):
        spec = pool_field(i)
        X = draw_set(rng, spec, int(rng.integers(3, min(11, spec.q))))
        S = draw_set(rng, spec, int(rng.integers(1, min(6, spec.q))))
        floor = max(1, (3 * len(X)) // 4)
        _, ex = on_path(EXACT, _min_sumset_subset, X, S, floor)
        _, gr = on_path(GREEDY, _min_sumset_subset, X, S, floor)
        assert ex <= gr
        Xn = X.nonzero()
        if len(Xn) >= 2:
            fl = max(1, len(Xn) // 2)
            _, exd = on_path(EXACT, _min_diffset_subset, Xn, fl)
            _, grd = on_path(GREEDY, _min_diffset_subset, Xn, fl)
            assert exd <= grd


@pytest.mark.parametrize("descriptor", ["2^4", "2^6", "2^8", "2^10", "3^4", "5^3", "7^2",
                                        "31", "127"])
def test_greedy_subset_search_matches_naive(descriptor):
    # the incremental counts against literal recomputation.  A removed
    # difference x - a repeats as a' - x when a' = 2x - a is in the set: always
    # in characteristic 2, sometimes for odd p.  In characteristic 3 a - a' is
    # then a third representation, so only p = 2 and p >= 5 can lose a repeat.
    # The first two trials search down to one element and remove one element.
    spec = parse_descriptor(descriptor)
    for trial in range(6):
        rng = np.random.default_rng([31, spec.q, trial])
        X = draw_set(rng, spec, int(rng.integers(13, min(40, spec.q - 1) + 1)),
                     nonzero=trial == 0)
        S = draw_set(rng, spec, int(rng.integers(1, min(30, spec.q) + 1)))
        S = S.nonzero() if trial == 1 and len(S) > 1 else S.union(fqset(spec, 0))
        floor = {0: 1, 1: len(X) - 1}.get(trial, int(rng.integers(1, len(X))))
        sub, size = on_path(GREEDY, _min_sumset_subset, X, S, floor)
        assert ([int(v) for v in sub], size) == naive_greedy_min_subset(
            spec, X.members.tolist(), floor, S.members.tolist())
        sub, size = on_path(GREEDY, _min_diffset_subset, X, floor)
        assert ([int(v) for v in sub], size) == naive_greedy_min_subset(
            spec, X.members.tolist(), floor)


@pytest.mark.parametrize("block_cells", [None, 1, 40])
def test_exhaustive_subset_search_matches_naive(block_cells, monkeypatch):
    # every floor on the pool fields against the scalar listing.  Patched
    # small, the blocks split a search many times over, and a tie with the
    # minimum in a later block must not displace the first one
    if block_cells is not None:
        monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", block_cells)
    for i, descriptor in enumerate(POOL_DESCRIPTORS):
        spec = parse_descriptor(descriptor)
        rng = np.random.default_rng([37, i])
        X = draw_set(rng, spec, int(rng.integers(2, min(10, spec.q - 1) + 1)), nonzero=i % 2)
        S = draw_set(rng, spec, int(rng.integers(1, min(5, spec.q) + 1)))
        members = X.members.tolist()
        for floor in range(1, len(X) + 1):
            sub, size = on_path(EXACT, _min_sumset_subset, X, S, floor)
            assert ([int(v) for v in sub], size) == naive_exhaustive_min_subset(
                spec, members, floor, S.members.tolist())
            sub, size = on_path(EXACT, _min_diffset_subset, X, floor)
            assert ([int(v) for v in sub], size) == naive_exhaustive_min_subset(
                spec, members, floor)


def test_one_block_size_batches_every_blocked_loop(monkeypatch):
    # set_algebra.PAIR_BLOCK_CELLS, patched small, splits the subset scorer's
    # subsets, popular points' lines and the pivot lemma's candidates into
    # several batches each, with the results of the default size
    spec = parse_descriptor("3^4")
    rng = np.random.default_rng(33)
    X, Y = draw_set(rng, spec, 16, nonzero=True), draw_set(rng, spec, 6, nonzero=True)
    grid = spec.sub_arr(X.members[:, None], X.members[None, :])
    sl = decompositions.dyadic_energy_slice(X, Y)

    def results():
        best, rows = decompositions._min_subsets(grid, 4, 50, square=True)
        pts = decompositions.popular_points(sl)
        return (best, rows.tolist(), pts.x0, pts.y0, list(pts.A_tilde),
                {z: list(S) for z, S in pts.S.items()}, pts.constants,
                lemma_oracles._dilated_sumset_sizes(X, Y, np.arange(1, spec.q)).tolist())

    want, batches, batched = results(), [], set_algebra._batches

    def counted(count, cells):
        batches.append(len(list(batched(count, cells))))
        return batched(count, cells)
    for module in (decompositions, lemma_oracles):
        monkeypatch.setattr(module, "_batches", counted)
    assert results() == want and batches == [1, 1, 1]
    monkeypatch.setattr(set_algebra, "PAIR_BLOCK_CELLS", 64)
    batches.clear()
    assert results() == want
    assert len(batches) == 3 and min(batches) > 1, batches


@pytest.mark.parametrize("descriptor", ["2^6", "7^2", "3^4", "5^3", "2^8"])
def test_saturated_sumset_search_exits_early_and_matches_naive(descriptor, monkeypatch):
    # with c the least count of a value of X + S, c - 2 and c - 1 removals
    # take no count to 1 before the last argmax, so the search returns
    # without scoring a row; c and c + 1 removals run the search.  All
    # against the literal greedy, which has no such exit.  S = F_q gives
    # every value the count |X|.
    spec = parse_descriptor(descriptor)
    scored, blocks = [], decompositions._blocks
    monkeypatch.setattr(decompositions, "_blocks",
                        lambda *args: scored.append(1) or blocks(*args))
    seen = set()
    for trial in range(4):
        rng = np.random.default_rng([37, spec.q, trial])
        X = draw_set(rng, spec, int(rng.integers(12, 20)))
        S = (FqSet.from_iterable(spec, range(spec.q)) if trial == 0
             else draw_set(rng, spec, spec.q // 2 + int(rng.integers(0, spec.q // 4))))
        least = min(Counter(naive_add(spec, x, s) for x in X for s in S).values())
        for removals, exits in ((least - 2, True), (least - 1, True), (least, False),
                                (least + 1, False)):
            if not 1 <= removals < len(X):
                continue
            scored.clear()
            floor = len(X) - removals
            sub, size = on_path(GREEDY, _min_sumset_subset, X, S, floor)
            assert (not scored) == exits
            assert ([int(v) for v in sub], size) == naive_greedy_min_subset(
                spec, X.members.tolist(), floor, S.members.tolist())
            seen.add(exits)
    assert seen == {True, False}


# (field, |X|) -> sha256 of both greedy searches' (subset, size) on a uniform
# X in F*, with S of |X|/8 elements: the sumset search down to 3|X|/4, the
# difference-set search down to |X|/2.  Frozen from the per-step rescans these
# searches replaced; F_101 has no 160 nonzero elements, so it takes 100.
FROZEN_SEARCHES = {
    ("2^12", 96): "a06df46f4791881766613eb617981dcb1a07c39cf492ef3daaf0237923e3f241",
    ("2^12", 160): "b2fca4ef3741fc7fb50aa3fc8e615672ac2866f6d17ed6c8a62667951968f120",
    ("3^7", 96): "ea965b5146ebd9da541215232c8b2b0bf71cbaa834d7e1ba9ae9c87051035cf9",
    ("3^7", 160): "341b071939b0d6476e086581447479a6628d319dd1c81b1f5f3285066d18b61c",
    ("101", 96): "688fa11f68e287b754534c3cfd5356c0296deee98e8bf2b74994eeaa11832d6e",
    ("101", 100): "b35434ba3a3e973390b21c1ddc73f1742f94e3d687f9270cc3c4bbdd3b8aaaa0",
}


@pytest.mark.parametrize("descriptor, n", sorted(FROZEN_SEARCHES))
def test_greedy_subset_searches_are_frozen(descriptor, n):
    spec = parse_descriptor(descriptor)
    rng = np.random.default_rng([spec.q, n])
    X = FqSet.from_iterable(spec, rng.choice(np.arange(1, spec.q), n, replace=False))
    S = FqSet.from_iterable(spec, rng.choice(spec.q, n // 8, replace=False))
    sub, size = on_path(GREEDY, _min_sumset_subset, X, S, math.ceil(3 * n / 4))
    dsub, dsize = on_path(GREEDY, _min_diffset_subset, X, math.ceil(n / 2))
    found = json.dumps([sub.tolist(), size, dsub.tolist(), dsize])
    assert hashlib.sha256(found.encode()).hexdigest() == FROZEN_SEARCHES[descriptor, n]


def test_greedy_difference_search_labels_on_one_int32_rank():
    # the distinct differences of 40 elements of 2^20 are ranked by one
    # q-length int32 mark summed in place (4.2 MB); an int64 bincount, its
    # marks and their int64 cumsum peaked at 17.8 MB
    spec = build_field(2, 20)
    X = FqSet.from_iterable(spec, np.random.default_rng(3).choice(np.arange(1, spec.q), 40,
                                                                 replace=False))
    X.bitmask  # the set's own bitmask is not part of the search's peak
    peak, (sub, size) = peak_bytes(lambda: on_path(GREEDY, _min_diffset_subset, X, 20))
    assert ([int(v) for v in sub], size) == naive_greedy_min_subset(
        spec, X.members.tolist(), 20)
    assert peak < 6 * spec.q


def test_basic_shift_subset_small():
    A = fqset(F7, 1, 2)
    rep = basic_shift_subset(A)
    assert rep.witness["floor"] == 1 and rep.witness["diff_size"] == 1
    g = F31.generator
    gp = FqSet.from_iterable(F31, [F31.pow(g, i) for i in range(6)])
    rep = basic_shift_subset(gp)
    assert rep.verdict == "MeasuredRatio" and rep.value > 0


def test_popularity_report():
    dom = fqset(F7, 1, 2, 3)
    rep = check_popularity(dom, {1: 4, 2: 1, 3: 1}, 6, M_cap=4)
    assert rep.verdict == "ExactPass"


def test_popularity_report_takes_integer_f_and_k_on_the_whole_domain():
    # a missing element was a raw KeyError, f = 1.5 was summed in floating
    # point, and K = 2.5 reached Fraction as a raw TypeError
    dom = fqset(F7, 1, 2, 3)
    with pytest.raises(ValueError, match="f > 0"):
        check_popularity(dom, {1: 4, 2: 1}, 6)
    for K in (0, -3):  # K = 0 on an empty domain was a raw ZeroDivisionError
        with pytest.raises(ValueError, match="K must be at least 1"):
            check_popularity(fqset(F7), {}, K)
    for f, K, M_cap in (({1: 4, 2: 1.5, 3: 1}, 6, None), ({1: 4, 2: 1, 3: True}, 6, None),
                        ({1: 4, 2: 1, 3: 1}, 2.5, None), ({1: 4, 2: 1, 3: 1}, 6, 4.0)):
        with pytest.raises(MalformedLiteral):
            check_popularity(dom, f, K, M_cap)
    f = {np.int64(1): np.int64(4), 2: 1, 3: 1}
    assert check_popularity(dom, f, np.int64(6), M_cap=4).witness == {"kept": 3, "mass": 6}


def test_energy_identities_report():
    rng = np.random.default_rng(9)
    for i in range(50):
        spec = pool_field(i)
        X = draw_set(rng, spec, int(rng.integers(2, min(10, spec.q))), nonzero=True)
        Y = draw_set(rng, spec, int(rng.integers(2, min(10, spec.q) + 1)))
        rep = check_energy_identities(X, Y)
        assert rep.verdict == "ExactPass"
        assert product_energy(X, Y) == naive_multiplicative_energy(spec, list(X), list(Y))


def test_energy_cs_and_dyadic_and_rudnev_reports():
    rng = np.random.default_rng(11)
    for i in range(40):
        spec = pool_field(i)
        X = draw_set(rng, spec, int(rng.integers(2, min(10, spec.q))), nonzero=True)
        Y = draw_set(rng, spec, int(rng.integers(2, len(X) + 1)))
        assert check_energy_cs(X, Y).verdict == "ExactPass"
        assert check_dyadic_energy(X, Y).verdict == "ExactPass"
        assert check_rudnev(X, Y).verdict == "ExactPass"


@pytest.mark.parametrize("change", ["gain", "lose"])
def test_rudnev_fails_when_one_stored_slice_set_is_off_by_one(monkeypatch, change):
    real = lemma_oracles.popular_points

    def tampered(sl):
        pts = real(sl)
        z, S_z = max(pts.S.items())
        spec = S_z.spec
        if change == "lose":
            S_z = S_z.without([int(S_z.members[-1])])
        else:
            S_z = S_z.union(FqSet.from_iterable(spec, np.flatnonzero(~S_z.bitmask)[:1]))
        return dataclasses.replace(pts, S={**pts.S, z: S_z})

    rng = np.random.default_rng(12)
    for i in range(20):
        spec = pool_field(i)
        X = draw_set(rng, spec, int(rng.integers(2, min(10, spec.q))), nonzero=True)
        Y = draw_set(rng, spec, int(rng.integers(2, len(X) + 1)))
        assert check_rudnev(X, Y).verdict == "ExactPass"
        with monkeypatch.context() as m:
            m.setattr(lemma_oracles, "popular_points", tampered)
            report = check_rudnev(X, Y)
        assert report.verdict == "Fail" and report.witness["recompute"] is False


@pytest.mark.parametrize("X, Y", [((1,), (0,)), ((1,), (2,)), ((1, 2), (0,)), ((3, 5, 6), (0,))])
def test_dyadic_energy_outside_its_shapes_is_not_applicable(X, Y):
    # |X||Y| < 2 or Y inside {0}: one slope holds every pair, so mass_strict
    # cannot hold, and the lemma does not claim it there
    with pytest.raises(NotApplicable):
        check_dyadic_energy(FqSet.from_iterable(F7, X), FqSet.from_iterable(F7, Y))


def test_covering_by_shifts_measured():
    Z = fqset(F31, 1, 2, 4, 8)
    frame = translate(dilate(Z, 3), 5)
    X = FqSet.from_iterable(F31, frame.members[:3])
    Y = FqSet.from_iterable(F31, frame.members[1:])
    rep = check_covering_by_shifts(Z, 3, 5, X, Y)
    assert rep.verdict == "MeasuredRatio"
    assert rep.witness["count_pos"] >= 1 and rep.witness["count_neg"] >= 1


def test_batch_verify_deterministic_and_sound():
    for lemma in ("rbcard", "rbfq", "ruzsa_triangle", "plunnecke",
                  "ratio_to_shift", "energy_identities", "energy_cs"):
        r1 = batch_verify(lemma, trials=10, seed=4)
        r2 = batch_verify(lemma, trials=10, seed=4)
        assert [r.to_json() for r in r1] == [r.to_json() for r in r2]
        assert all(r.verdict == "ExactPass" for r in r1), lemma


def test_batch_verify_covers_every_lemma():
    for lemma in LEMMA_IDS:
        reports = batch_verify(lemma, trials=2, seed=1)
        assert len(reports) == 2
        assert all(r.verdict != "Fail" for r in reports), lemma


def test_generate_instance_deterministic():
    a = generate_instance("ruzsa_triangle", 7, 3)
    b = generate_instance("ruzsa_triangle", 7, 3)
    assert a["X"] == b["X"] and a["B1"] == b["B1"]


def test_report_json_has_no_timing():
    rep = check_rbfq(fqset(F5, 0, 1, 2))
    data = rep.to_json()
    assert "timing" not in data


def test_run_lemma_times_the_check_and_leaves_output_alone():
    X = fqset(F5, 0, 1, 2)
    direct = check_rbfq(X)
    timed = run_lemma("rbfq", X=X)
    assert "timing" not in timed.to_json() and timed.to_json() == direct.to_json()


def test_lemma_table_matches_the_checkers():
    # the order seeds each lemma's instance stream, so it is part of the output
    assert LEMMA_IDS == tuple(LEMMAS) == (
        "rbcard", "rbfq", "quotient_subfield", "pivot", "bou_glib_pivot",
        "ruzsa_triangle", "ratio_to_shift", "plunnecke", "plunnecke_refined",
        "covering_by_shifts", "basic_shift_bound", "popularity", "energy_identities",
        "energy_cs", "dyadic_energy", "rudnev")
    for lemma, (checker, set_params) in LEMMAS.items():
        params = inspect.signature(checker).parameters
        assert all(name in params for name in set_params), lemma
        assert "Bs" not in set_params[:-1], lemma  # only a trailing "Bs" takes the rest
    batch_only = sorted(lemma for lemma, (_, set_params) in LEMMAS.items() if not set_params)
    assert batch_only == ["covering_by_shifts", "popularity"]


# sha256 of the JSON lines of batch_verify(lemma, trials=10, seed=3) for every
# lemma in LEMMA_IDS order, as the CLI prints them
BATCH_DIGEST = "b7095fd12a0cce1fd67dac7dbf3bb7e4bd690801bc03261609f4d6508ca8ddb7"


def test_batch_verify_output_is_frozen():
    lines = [json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))
             for lemma in LEMMA_IDS for r in batch_verify(lemma, trials=10, seed=3)]
    assert len(lines) == 10 * len(LEMMA_IDS)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BATCH_DIGEST
