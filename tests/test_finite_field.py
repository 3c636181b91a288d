import os
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqlab.errors import (
    DegreeZero,
    DivisionByZero,
    FieldTooLarge,
    InvariantViolated,
    NotPrime,
    NotProperSubfield,
)
from fqlab.finite_field import (
    DigitPacking,
    _digits,
    _poly_mulmod,
    _smallest_irreducible,
    arith,
    build_field,
    coset_representatives,
    divisors,
    enumerate_subfields,
    is_prime,
    parse_descriptor,
    proper_subfields,
)
from fqlab.set_algebra import FqSet
from pools import (
    LARGE_DESCRIPTOR,
    POOL_DESCRIPTORS,
    naive_add,
    naive_coset_profile,
    naive_neg,
    naive_smallest_irreducible,
    naive_sub,
)

SMALL_FIELDS = [(7, 1), (2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6)]


def brute_poly_has_root(coeffs, p):
    return any(sum(c * x**i for i, c in enumerate(coeffs)) % p == 0 for x in range(p))


def test_prime_field_modulus_is_x():
    spec = build_field(7, 1)
    assert spec.q == 7
    assert spec.modulus == (0, 1)


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: enumerate all 4 monic quadratics over F_2 and test for roots
    irreducible = [low + (1,) for low in product(range(2), repeat=2)
                   if not brute_poly_has_root(low + (1,), 2)]
    assert irreducible == [(1, 1, 1)]
    assert build_field(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + (LARGE_DESCRIPTOR,))
def test_smallest_irreducible_matches_the_full_scan(desc):
    p, _, m = desc.partition("^")
    p, m = int(p), int(m)
    expected = naive_smallest_irreducible(p, m)
    assert _smallest_irreducible(p, m) == parse_descriptor(desc).modulus == expected


def test_bench_field_moduli_are_frozen():
    # 2^20: X^20 + X^17 + 1; 3^12: X^12 + X^11 + X^8 + 1
    assert _smallest_irreducible(2, 20) == (1,) + (0,) * 16 + (1, 0, 0, 1)
    assert _smallest_irreducible(3, 12) == (1,) + (0,) * 7 + (1, 0, 0, 1, 1)


def test_f9_generator_order_is_eight():
    spec = build_field(3, 2)
    g = spec.generator
    powers = [spec.pow(g, k) for k in range(1, 9)]
    assert powers[-1] == 1
    assert 1 not in powers[:-1]


def test_generator_is_smallest_primitive():
    for p, m in SMALL_FIELDS:
        spec = build_field(p, m)
        for cand in range(1, spec.generator):
            order = next(k for k in range(1, spec.q)
                         if spec.pow(cand, k) == 1)
            assert order < spec.q - 1, f"{cand} already primitive in {spec.descriptor}"


def test_build_field_errors():
    with pytest.raises(NotPrime):
        build_field(6, 1)
    with pytest.raises(DegreeZero):
        build_field(5, 0)
    with pytest.raises(FieldTooLarge):
        build_field(2, 21)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("FQLAB_CAP", "1024")
    with pytest.raises(FieldTooLarge):
        build_field(2, 11)
    assert build_field(2, 10).q == 1024
    monkeypatch.setenv("FQLAB_CAP", "1000")  # not a power of two
    with pytest.raises(ValueError):
        build_field(2, 3)


def test_scalar_arith_examples():
    f7 = build_field(7, 1)
    assert arith(f7, "mul", 3, 5) == 1
    f4 = build_field(2, 2)
    assert arith(f4, "mul", 2, 2) == 3  # X * X = X + 1 mod X^2+X+1
    assert arith(f4, "inv", 1) == 1
    assert arith(f7, "pow", 3, 6) == 1
    assert arith(f7, "pow", 0, 0) == 1
    with pytest.raises(DivisionByZero):
        arith(f7, "div", 1, 0)
    with pytest.raises(DivisionByZero):
        arith(f7, "inv", 0)


def test_exp_log_tables_roundtrip():
    for p, m in SMALL_FIELDS:
        spec = build_field(p, m)
        xs = np.arange(1, spec.q)
        assert np.array_equal(spec.exp_table[spec.log_table[xs]], xs)
        assert spec.exp_table[spec.q - 1] == spec.exp_table[0] == 1


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS)
def test_exp_table_is_the_power_sequence_of_the_generator(desc):
    spec = parse_descriptor(desc)
    g = _digits(spec.generator, spec.p, spec.m)
    power = _digits(1, spec.p, spec.m)
    for k in range(spec.q):
        assert spec.exp_table[k] == sum(d * spec.p**i for i, d in enumerate(power)), k
        power = _poly_mulmod(power, g, spec.modulus, spec.p)


# 1021^2 packs 11 bits a digit, so each reduction chunk holds a single digit
@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + ("3^7", "5^8", "7^7", "1021^2"))
def test_addition_matches_the_digitwise_oracle(desc):
    spec = parse_descriptor(desc)
    if spec.q <= 128:  # every pair
        a, b = (v.ravel() for v in np.meshgrid(np.arange(spec.q), np.arange(spec.q)))
    else:  # the largest element against itself and 0, then random pairs
        rng = np.random.default_rng([37, spec.q])
        a = np.concatenate([[0, spec.q - 1, spec.q - 1], rng.integers(0, spec.q, 3000)])
        b = np.concatenate([[spec.q - 1, 0, spec.q - 1], rng.integers(0, spec.q, 3000)])
    pairs = list(zip(a.tolist(), b.tolist()))
    sums = [naive_add(spec, x, y) for x, y in pairs]
    diffs = [naive_sub(spec, x, y) for x, y in pairs]
    negs = [naive_neg(spec, x) for x, _ in pairs]
    assert spec.add_arr(a, b).tolist() == sums
    assert spec.sub_arr(a, b).tolist() == diffs
    assert spec.neg_arr(a).tolist() == negs
    assert [spec.add(x, y) for x, y in pairs] == sums
    assert [spec.sub(x, y) for x, y in pairs] == diffs
    assert [spec.neg(x) for x, _ in pairs] == negs


def test_digit_packing_refuses_more_than_62_bits():
    with pytest.raises(InvariantViolated):
        DigitPacking.build(3, 21)  # 3 bits a digit; refused before any table is built


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_random_triples(p, m):
    spec = build_field(p, m)
    rng = np.random.default_rng([p, m, 99])
    n = 10_000
    a, b, c = (rng.integers(0, spec.q, size=n) for _ in range(3))
    assert np.array_equal(spec.add_arr(a, b), spec.add_arr(b, a))
    assert np.array_equal(spec.mul_arr(a, b), spec.mul_arr(b, a))
    assert np.array_equal(spec.add_arr(spec.add_arr(a, b), c),
                          spec.add_arr(a, spec.add_arr(b, c)))
    assert np.array_equal(spec.mul_arr(spec.mul_arr(a, b), c),
                          spec.mul_arr(a, spec.mul_arr(b, c)))
    assert np.array_equal(spec.mul_arr(a, spec.add_arr(b, c)),
                          spec.add_arr(spec.mul_arr(a, b), spec.mul_arr(a, c)))
    nz = a[a != 0]
    assert np.all(spec.mul_arr(nz, spec.inv_arr(nz)) == 1)
    assert np.all(spec.add_arr(a, spec.neg_arr(a)) == 0)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 4), (5, 2), (2, 6), (3, 4), (2, 10)])
def test_frobenius_is_additive_and_multiplicative(p, m):
    spec = build_field(p, m)
    grid = np.arange(spec.q)
    a, b = np.meshgrid(grid, grid, sparse=True)
    lhs = spec.pow_arr(spec.add_arr(a, b), p)
    rhs = spec.add_arr(spec.pow_arr(a, p), spec.pow_arr(b, p))
    assert np.array_equal(lhs, rhs)
    lhs = spec.pow_arr(spec.mul_arr(a, b), p)
    rhs = spec.mul_arr(spec.pow_arr(a, p), spec.pow_arr(b, p))
    assert np.array_equal(lhs, rhs)


def test_subfields_prime_field():
    handles = enumerate_subfields(build_field(7, 1))
    assert len(handles) == 1 and not handles[0].is_proper


def test_subfields_f16():
    handles = enumerate_subfields(build_field(2, 4))
    assert [h.size for h in handles] == [2, 4, 16]
    assert [h.size for h in handles if h.is_proper] == [2, 4]


def test_subfield_f9_is_prime_subfield():
    handles = enumerate_subfields(build_field(3, 2))
    assert list(handles[0].elements) == [0, 1, 2]


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (2, 6), (5, 2), (3, 4)])
def test_subfields_closed_under_field_ops(p, m):
    spec = build_field(p, m)
    for h in enumerate_subfields(spec):
        el = h.elements.members
        assert el.size == p**h.d
        a, b = el[:, None], el[None, :]
        assert h.elements.bitmask[spec.add_arr(a, b)].all()
        assert h.elements.bitmask[spec.sub_arr(a, b)].all()
        assert h.elements.bitmask[spec.mul_arr(a, b)].all()
        nz = el[el != 0]
        assert h.elements.bitmask[spec.div_arr(a, nz[None, :])].all()


def test_coset_representatives_f4():
    spec = build_field(2, 2)
    G = enumerate_subfields(spec)[0]
    reps = coset_representatives(spec, G)
    assert len(reps) == 3
    cosets = [frozenset({0, c}) for c in reps]
    assert len(set(cosets)) == 3


def test_coset_representatives_cover_field_and_are_distinct():
    for p, m in [(3, 2), (2, 4), (5, 2), (2, 6), (3, 4)]:
        spec = build_field(p, m)
        for G in proper_subfields(spec):
            reps = coset_representatives(spec, G)
            assert len(reps) == (spec.q - 1) // (G.size - 1)
            dilates = [frozenset(int(v) for v in
                                 spec.mul_arr(G.elements.members, np.int64(c)))
                       for c in reps]
            assert len(set(dilates)) == len(reps)
            union = set().union(*dilates)
            assert union == set(range(spec.q))
            # c and c*g (g in G^*) name the same coset
            g = max(int(v) for v in G.elements.members)  # nonzero since |G| >= 2
            c = reps[-1]
            scaled = frozenset(int(v) for v in spec.mul_arr(
                G.elements.members, np.int64(spec.mul(c, g))))
            assert scaled in set(dilates)


@pytest.mark.parametrize("p,m", [(3, 2), (2, 4), (5, 2), (2, 6), (3, 4)])
def test_coset_representatives_are_smallest_encodings(p, m):
    spec = build_field(p, m)
    naive = naive_coset_profile(spec, [])
    for G in proper_subfields(spec):
        assert coset_representatives(spec, G).tolist() == [c for d, _, c, _ in naive if d == G.d]


def test_coset_representatives_is_a_cached_read_only_array():
    spec = build_field(2, 6)
    for G in proper_subfields(spec):
        reps = coset_representatives(spec, G)
        assert reps.dtype == np.int64 and not reps.flags.writeable
        assert coset_representatives(spec, G) is reps


def test_coset_representatives_rejects_full_field():
    spec = build_field(2, 4)
    with pytest.raises(NotProperSubfield):
        coset_representatives(spec, enumerate_subfields(spec)[-1])


def test_descriptor_roundtrip_and_json():
    spec = parse_descriptor("3^2")
    assert spec.descriptor == "3^2"
    data = spec.to_json()
    assert data["p"] == 3 and data["m"] == 2 and data["q"] == 9
    assert data["modulus"] == [1, 0, 1]
    assert parse_descriptor("13").q == 13


@given(st.sampled_from(SMALL_FIELDS), st.integers(0, 10**6), st.integers(0, 10**6))
def test_pow_matches_repeated_multiplication(pm, a_raw, e):
    spec = build_field(*pm)
    a = a_raw % spec.q
    e = e % 16
    expected = 1
    for _ in range(e):
        expected = spec.mul(expected, a)
    assert spec.pow(a, e) == expected


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
