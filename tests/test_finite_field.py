import hashlib
import os
import subprocess
import sys
import time
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqlab.errors import (
    DegreeZero,
    DivisionByZero,
    ElementOutOfRange,
    FieldTooLarge,
    InvariantViolated,
    MalformedLiteral,
    NoIrreducibleFound,
    NotPrime,
    NotProperSubfield,
)
from fqlab.finite_field import (
    MAX_CAP,
    TABLE_BITS,
    DigitPacking,
    _build_tables,
    _digits,
    _is_irreducible,
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
from fqlab.set_algebra import FqSet, dilate, set_op
from fqlab.survey import SAMPLERS, sample_set
from pools import (
    LARGE_DESCRIPTOR,
    POOL_DESCRIPTORS,
    naive_add,
    naive_coset_profile,
    naive_is_irreducible,
    naive_neg,
    naive_smallest_irreducible,
    naive_sub,
    peak_bytes,
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


# every monic candidate of degree 1..max_m over F_p
CANDIDATE_RANGES = [(2, 10), (3, 6), (5, 4), (7, 3), (13, 2)]


@pytest.mark.parametrize("p,max_m", CANDIDATE_RANGES)
def test_ben_or_agrees_with_trial_division(p, max_m):
    for m in range(1, max_m + 1):
        for low in product(range(p), repeat=m):
            assert _is_irreducible(low + (1,), p) == naive_is_irreducible(low + (1,), p), low


def mobius(n: int) -> int:
    mu, f = 1, 2
    while n > 1:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            mu = -mu
        f += 1
    return mu


@pytest.mark.parametrize("p,max_m", CANDIDATE_RANGES)
def test_irreducible_counts_follow_gauss_formula(p, max_m):
    for m in range(1, max_m + 1):
        count = sum(_is_irreducible(low + (1,), p) for low in product(range(p), repeat=m))
        assert m * count == sum(mobius(d) * p ** (m // d) for d in divisors(m)), m


def test_smallest_irreducible_at_the_largest_cap_is_fast():
    start = time.perf_counter()
    _smallest_irreducible(2, 24)
    assert time.perf_counter() - start < 0.05


# descriptor -> (sha256 of the exp_table and log_table bytes, sha256 of every
# coset_representatives array in proper_subfields order)
FROZEN_TABLES = {
    "2^20": ("43f087c2c2daf8538fbfa335f16cb93d7355d40464111a7076cfa5cfa6f377da",
            "e59d0cf5cf669b289e454e972ba76d741417d0452a1e34458f3fbd8719fa2929"),
    "3^12": ("6ca624181930be1273f0b50f2fcbc1867aacf96427d203529167d22c50c17f0d",
            "ec84e7896d80daf17261e18e444a16fdadaf85f6a6b168207aba57d5bad8efd4"),
    "7^7": ("684e6c01dedd3a85d40bfeb09cb7aa4aeafc01eb5a21cc9caa859fa97c792415",
           "a4309cc535b1ca9fd12d39168e483effaa305e940b2606a3e220d8e9072e4c83"),
    "5^8": ("a2f7f2c809c5061e41e1ad4074136500a0fbe7be9359da02fb751beb4d97bc03",
           "71ac8bef664092fc38079c2ff2416ea9eee8826e7dea213dadb5d50f3cb96f80"),
    "2^12": ("7361f8acdc78fe89a67a94e929971baf81ce968e59cf5f2cf15845696d208fb0",
            "e1a6a7e6534bacde74a12e3987791c1c796f10e5627c3a60f608d15774e76e7a"),
    "3^7": ("24e91c7348ba84f70e38749a78e63b1956c2d9860a5cea0a8faf5813490e1ac4",
           "7e93777586ec1be1508f7d909b05aa9f2927cfca05c0978616ae307d2d49327e"),
    "2^2": ("dc55d42940fb2283da3744bf8d6dee0021f82cd43bd612a86624908dcd6550b7",
           "e2e2033ae7e19d680599d4eb0a1359a2b48ec5baac75066c317fbf85159c54ef"),
    "5^1": ("d58988aba7dfcb1df6bc3b2dec3d029b57d36695ea535bc2eca4045e43e915a2",
           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "7^1": ("7d6eb9b8c245c210cdbf896f36b950228a1c61c4bd551dc672a732e2b4c3981b",
           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "2^3": ("9b80598d6273edb7ceba872b67a4aa8ef0f31a1575c510df3324df6e50fadb32",
           "bca8b15e214f1957bbe2ab312dffa6660d09b86731e2dd43d123d7b1b2172b56"),
    "3^2": ("15e9ad8c95fd51e11d455b75c859c8f1e5b590c72e1bee0987a79c6bd3944d06",
           "142da22154106757ba159eaa2b27c829152bba0c988568ca43dd40bf3947e32b"),
    "11^1": ("8ebf28f2268b42fed55fe18ff53f2ecc6ac27ab926343328e6d761a986d4e10a",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "13^1": ("190b057df7b56416089fb48437471d338f87e2038fedcc0ab9fa1d913e63a5b3",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "2^4": ("db6ac2e209595c8c6cf94874fd5914c577850537b62b269400804b37aeeb7ee8",
           "82a1408347040cd1de7feba0b42c316fd6922bd7ab5c80e2da12e61689a3c004"),
    "5^2": ("9938f7fd7665fa4b0542549c378528a059eb25b516f32b8aafb1b3d2e99d1dad",
           "ef0f78a81709cf16101cc3a6e77e4ee30e082f1eda6ddbfd4e0f5a5fc1bc0a0e"),
    "3^3": ("32187b07e74f2368935eaaefe3aa23def8252330b9dcd975fee064d298c12ff7",
           "e2c779709eb00f0a0a80629502bbec4b46213828990aef580668924195c6efd2"),
    "2^6": ("62ea8440b96348aa3cedde62458f91bb83da8f40d7693f8ff6b2c15be4f8eed4",
           "bc155dc9eba9e91f0640c44a7398f7d79eb7f983701c4cc0d2940aa1274b93ba"),
    "3^4": ("d31faec116c54ef9a12c4ba9552a776f5d7b714d6b0fde12f946714aa5560738",
           "50f71ff029c8958eac4ba28fe7d94e75ae1fe99e1ede756aa8370bf3f6a397a1"),
    "11^2": ("f652212f236056a28dec58c1ec29d6ecbf913a83a38f2db7504c3e127f82dd9b",
            "684555f897c478338ae51f0c8b6ab58b7d174814b695376f5cbda51293c480a2"),
    "5^3": ("17ba68a6ff69b80e5f9dbff25793c53cd88e2acdb2eb400c72194984e30ebe76",
           "1fb20b7fbfbdf6f529ba3e2a3bcd94204367436f579bf862639bc6817a89647c"),
    "2^10": ("0edfdf7ca8c82c32adaaccbd171726ca71f39f5507dd611a6dcabfc42dc18c5f",
            "89cff5e095314175e6ae087e665d2f5dd5998d348b943dec22ae96d39c30d5ee"),
}


@pytest.mark.parametrize("desc", list(FROZEN_TABLES))
def test_tables_and_coset_representatives_are_frozen(desc):
    # the digests hash the values widened to int64, the arrays' dtype when they were frozen
    spec = parse_descriptor(desc)
    reps = hashlib.sha256()
    for G in proper_subfields(spec):
        reps.update(coset_representatives(spec, G).astype(np.int64).tobytes())
    tables = hashlib.sha256(spec.exp_table.astype(np.int64).tobytes()
                            + spec.log_table.astype(np.int64).tobytes()).hexdigest()
    assert (tables, reps.hexdigest()) == FROZEN_TABLES[desc]


def _rebuild_tables(spec, add=np.bitwise_xor):
    """Run the table build again on a built field's modulus and generator (the
    field cache would otherwise hide it).  ``add`` combines the images of a
    p = 2 field; an odd-p extension field builds its packing again and
    combines through it."""
    combine = (add, 1)
    if spec.packing is not None:
        pk = DigitPacking.build(spec.p, spec.m)
        combine = (pk.add_packed, pk.width)
    return _build_tables(spec.p, spec.m, spec.q, spec.modulus, spec.generator, *combine)


@pytest.mark.parametrize("p,m", [(2, 20), (3, 12)])
def test_table_build_peaks_near_the_tables_own_bytes(p, m):
    spec = build_field(p, m)
    peak, (exp_table, log_table) = peak_bytes(lambda: _rebuild_tables(spec))
    assert peak <= 1.25 * (exp_table.nbytes + log_table.nbytes)
    assert np.array_equal(exp_table, spec.exp_table) and np.array_equal(log_table, spec.log_table)


@pytest.mark.parametrize("desc", ["2^20", "3^12", "7^7"])
def test_tables_hold_four_bytes_an_entry(desc):
    spec = parse_descriptor(desc)
    assert spec.exp_table.nbytes + spec.log_table.nbytes == 8 * spec.q
    pk = spec.packing
    if pk is not None:  # and the packing holds only small tables
        assert max(t.size for t in pk.digits + pk.tables) <= 1 << TABLE_BITS


def test_packing_at_the_largest_cap_holds_no_field_length_table():
    q, oracle_field = 3**15, SimpleNamespace(p=3, m=15)  # the oracles read p and m alone
    peak, pk = peak_bytes(lambda: DigitPacking.build(3, 15))
    assert q <= MAX_CAP and peak < 1 << 20
    rng = np.random.default_rng([37, q])
    a = np.concatenate([[0, q - 1], rng.integers(0, q, 3000)])
    b = np.concatenate([[q - 1, q - 1], rng.integers(0, q, 3000)])
    pairs = list(zip(a.tolist(), b.tolist()))
    assert pk.add(a, b).tolist() == [naive_add(oracle_field, x, y) for x, y in pairs]
    assert pk.sub(a, b).tolist() == [naive_sub(oracle_field, x, y) for x, y in pairs]
    assert pk.neg(a).tolist() == [naive_neg(oracle_field, x) for x in a.tolist()]


# GF(2^4) additions that break the power table: every sum 1, so powers repeat;
# the sum 15 = q - 1 as -1, which as an index wraps to slot 15 and, unchecked,
# would fill the log table as if the powers were a bijection
BROKEN_ADDS = {"repeated": lambda a, b: np.ones_like(a),
               "wrapped": lambda a, b: np.where((a ^ b) == 15, -1, a ^ b)}


@pytest.mark.parametrize("kind", list(BROKEN_ADDS))
def test_table_build_refuses_a_power_table_that_is_not_a_bijection(kind):
    with pytest.raises(NoIrreducibleFound):
        _rebuild_tables(build_field(2, 4), add=BROKEN_ADDS[kind])


def test_table_bijection_check_survives_python_O():
    import fqlab

    script = ("import numpy as np\n"
              "from fqlab.errors import NoIrreducibleFound\n"
              "from fqlab.finite_field import _build_tables, build_field\n"
              "s = build_field(2, 4)\n"
              "try:\n"
              "    _build_tables(2, 4, 16, s.modulus, s.generator,\n"
              "                  lambda a, b: np.where((a ^ b) == 15, -1, a ^ b))\n"
              "except NoIrreducibleFound as exc:\n"
              "    print(type(exc).__name__, __debug__)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fqlab.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["NoIrreducibleFound", "False"], proc.stderr


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
    with pytest.raises(FieldTooLarge):  # composite, but over the cap: refused before is_prime
        build_field(10**18, 1)
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
    for bad in ((3, 1.5), (1.0, 2), (True, 2)):  # a float exponent once raised IndexError
        with pytest.raises(MalformedLiteral):
            arith(f7, "pow", *bad)
    with pytest.raises(ElementOutOfRange):
        arith(f7, "mul", 3, 7)
    with pytest.raises(ValueError, match="unknown op"):
        arith(f7, "mod", 3, 2)
    with pytest.raises(ValueError, match="second operand"):
        arith(f7, "add", 3)


@pytest.mark.parametrize("desc", ("7", "2^4", "3^3"))
def test_zero_has_no_inverse_and_no_negative_power(desc):
    spec = parse_descriptor(desc)
    with pytest.raises(DivisionByZero):
        spec.pow(0, -1)
    with pytest.raises(DivisionByZero):
        spec.inv_arr(np.array([1, 0]))
    with pytest.raises(DivisionByZero):
        spec.div_arr(np.array([1, 2]), np.array([1, 0]))


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


# 3^7 packs by one gather and 3^12 by two digit chunks; 1021^2 packs 11 bits a
# digit, so each reduction chunk holds a single digit
@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + ("3^7", "3^12", "5^8", "7^7", "1021^2"))
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


@pytest.mark.parametrize("desc", POOL_DESCRIPTORS + ("2^12", "3^7", "2^20"))
def test_subfield_handles_build_their_elements_once_on_demand(desc):
    spec = parse_descriptor(desc)
    for G in enumerate_subfields(spec):
        bitmask = np.zeros(spec.q, dtype=bool)  # the subfield marked on the whole field
        bitmask[spec.exp_table[: spec.q - 1 : (spec.q - 1) // (spec.p**G.d - 1)]] = True
        bitmask[0] = True
        assert G.size == spec.p**G.d
        assert G.elements is G.elements
        assert G.size == len(G.elements)
        assert np.array_equal(G.elements.members, np.flatnonzero(bitmask))
        assert np.array_equal(G.elements.bitmask, bitmask)


def test_enumerate_subfields_allocates_no_field_sized_array():
    spec = build_field(2, 20)
    saved = dict(spec._derived)
    spec._derived.clear()
    try:
        peak, handles = peak_bytes(lambda: enumerate_subfields(spec))
    finally:
        spec._derived.clear()
        spec._derived.update(saved)
    assert [G.size for G in handles] == [2**d for d in divisors(20)]
    assert not any("elements" in G.__dict__ for G in handles)
    assert peak < 64_000


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
        assert reps.dtype == np.int32 and not reps.flags.writeable
        assert coset_representatives(spec, G) is reps


def test_prime_subfield_coset_representatives_peak_under_twice_their_own_bytes():
    spec = build_field(2, 20)
    G = proper_subfields(spec)[0]
    saved = dict(spec._derived)
    spec._derived.pop("coset_reps", None)
    try:
        peak, reps = peak_bytes(lambda: coset_representatives(spec, G))
    finally:
        spec._derived.clear()
        spec._derived.update(saved)
    assert G.size == 2 and reps.nbytes == 4 * (spec.q - 1)
    # an int64 array of the q-1 representatives would alone reach the bound
    assert peak < 2 * reps.nbytes


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


@pytest.mark.parametrize("desc", ["2^20", "3^12"])
def test_pow_arr_matches_scalar_pow_at_huge_exponents(desc):
    spec = parse_descriptor(desc)
    a = np.array([0, 1, 3, 5, 1000, spec.q - 1], dtype=np.int64)
    for e in (0, 1, 2**40, 2**45, 2**50, 2**62, 2**64, 2**70):
        assert spec.pow_arr(a, e).tolist() == [spec.pow(int(x), e) for x in a], e


@pytest.mark.parametrize("desc", ["2^10", "3^5"])
def test_values_read_from_the_int32_tables_are_int64(desc):
    spec = parse_descriptor(desc)
    sets = [sample_set(spec, sampler, 2 if sampler == "ap" else 40, seed=1)
            for sampler in SAMPLERS]
    A = sets[0]
    x = A.nonzero().members
    sets += [G.elements for G in enumerate_subfields(spec)]
    sets += [dilate(A, 7), set_op(A, A, "prod"), set_op(A, A.nonzero(), "ratio")]
    arrays = [S.members for S in sets]
    arrays += [spec.mul_arr(A.members, np.int64(7)), spec.mul_arr(x, x[::-1]),
               spec.div_arr(A.members, np.int64(7)), spec.div_arr(x, x[::-1]), spec.inv_arr(x),
               spec.pow_arr(A.members, 0), spec.pow_arr(A.members, 5), spec.pow_arr(x, -5)]
    assert [a.dtype for a in arrays] == [np.dtype(np.int64)] * len(arrays)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
