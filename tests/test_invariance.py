"""Invariances at the target sizes, where the naive oracles cannot reach:
the images of a set under a translation, a dilation, the Frobenius map
x -> x^p and the reflection x -> -alpha - x have other encodings, so their
grid blocks, packed words and transform columns all differ from the
original's, while the quantities below must not.  Each backend meets its
own image as well as another backend's.  The proof trace on a Frobenius
image, and over a prime field on a dilation image, passes every check that
it passes on the set itself."""

import numpy as np
import pytest

from fqlab import set_algebra
from fqlab.decompositions import run_proof_trace
from fqlab.finite_field import parse_descriptor
from fqlab.set_algebra import (
    SET_OPS,
    FqSet,
    _pair_counts,
    _sum_of_squares,
    additive_energy,
    dilate,
    intersection_shift_counts,
    set_op_size,
    sum_representation_counts,
    translate,
)
from pools import force_backend, verify_trace_case

TARGET_FIELDS = ("2^20", "3^12", "7^7")


def _images(A: FqSet, rng) -> list[FqSet]:
    """A + t, cA and the Frobenius image of A, for random t != 0 and c != 0, 1."""
    spec = A.spec
    t, c = int(rng.integers(1, spec.q)), int(rng.integers(2, spec.q))
    frobenius = FqSet.from_iterable(spec, spec.pow_arr(A.members, spec.p))
    return [translate(A, t), dilate(A, c), frobenius]


def _energy_on(backend: str, X: FqSet) -> int:
    with pytest.MonkeyPatch.context() as patch:
        served = force_backend(patch, backend)
        energy = additive_energy(X)
    assert served and served[0] == "sum"
    return energy


@pytest.mark.parametrize("desc", TARGET_FIELDS)
def test_additive_energy_is_invariant_across_backends_at_3000(desc):
    # A on both backends; each image on one: the grid's triangle meets A + t,
    # the whole grid cA (through an equal copy), and the transform's Parseval
    # sum the Frobenius image
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([91, spec.q])
    A = FqSet.from_iterable(spec, rng.choice(spec.q, 3000, replace=False))
    assert set_algebra._plan(A, A, "sum", False) == "transform"
    energy = additive_energy(A)
    assert {_energy_on(backend, A) for backend in ("grid", "transform")} == {energy}
    shifted, dilated, frobenius = _images(A, rng)
    assert _energy_on("grid", shifted) == energy
    with pytest.MonkeyPatch.context() as patch:
        served = force_backend(patch, "grid")
        counts = _pair_counts(dilated, FqSet.from_iterable(spec, dilated.members), "sum")
    assert served == ["sum"] and _sum_of_squares(counts) == energy
    assert _energy_on("transform", frobenius) == energy


@pytest.mark.parametrize("desc", TARGET_FIELDS)
def test_additive_energy_is_invariant_at_ten_thousand(desc, monkeypatch):
    # only the transform is cheap here: every image's Parseval sum against
    # A's, and against the squares of A's sum counts, a second route
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([92, spec.q])
    A = FqSet.from_iterable(spec, rng.choice(spec.q, 10**4, replace=False))
    checked = []  # every Parseval value passes its check: no energy falls back
    exact_energy = set_algebra._exact_energy
    monkeypatch.setattr(set_algebra, "_exact_energy",
                        lambda *args: checked.append(exact_energy(*args)) or checked[-1])
    energy = _energy_on("transform", A)
    assert [_energy_on("transform", X) for X in _images(A, rng)] == [energy] * 3
    assert checked == [energy] * 4
    assert _sum_of_squares(sum_representation_counts(A)) == energy


def _sizes_on(backend: str | None, X: FqSet, kinds=SET_OPS, Y: FqSet | None = None) -> list[int]:
    """|X ∘ Y| (Y = X if None) for each kind, with ``backend`` forced where
    it can serve, at least once, and the plan elsewhere (the plan alone if
    None)."""
    with pytest.MonkeyPatch.context() as patch:
        served = force_backend(patch, backend) if backend is not None else [None]
        sizes = [set_op_size(X, X if Y is None else Y, kind) for kind in kinds]
    assert served
    return sizes


# the backend each image is forced onto, A's own sizes taken on the plan: at
# 3000 the plan serves sum and diff by the transform and prod and ratio by the
# rotation, so the grid's triangle takes the images' sums and products (the
# "triangle" of ``force_backend``), and only the cheap backends run (the
# whole grid scores 9e6 cells an op there).  Over F_p the plan serves A by
# the grid at 300 and by the rotation at 3000, and each image goes to the
# other; Frobenius is the identity there
IMAGE_BACKENDS = {300: {"frobenius": "grid", "dilation": "rotation", "translation": "transform",
                        "reflection": "grid", "dilated_shift": "rotation"},
                  3000: {"frobenius": "triangle", "dilation": "triangle",
                         "translation": "triangle", "reflection": "rotation",
                         "dilated_shift": "grid"}}
PRIME_IMAGE_BACKENDS = {300: "rotation", 3000: "grid"}


@pytest.mark.parametrize("size", sorted(IMAGE_BACKENDS))
@pytest.mark.parametrize("desc", TARGET_FIELDS + ("1048573^1",))
def test_set_sizes_are_invariant_under_automorphisms_and_shifts(desc, size):
    # x -> x^p is an automorphism, so it keeps all four sizes; a dilation keeps
    # |cA cA| = |AA| and |cA / cA| = |A/A|, a translation |A + A| and |A - A|;
    # B = -alpha - A has B(B + alpha) = (A + alpha)A, and cA(cA + c alpha) is
    # c^2 A(A + alpha)
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([93, spec.q, size])
    A = FqSet.from_iterable(spec, rng.choice(np.arange(1, spec.q), size, replace=False))
    shifted, dilated, frobenius = _images(A, rng)
    backends = IMAGE_BACKENDS[size]
    sizes = _sizes_on(None, A)
    if spec.m == 1:
        other = PRIME_IMAGE_BACKENDS[size]
        backends = dict.fromkeys(backends, other)
        assert other not in {set_algebra._plan(A, A, kind, True) for kind in SET_OPS}
        assert frobenius == A
    else:
        assert _sizes_on(backends["frobenius"], frobenius) == sizes
    assert _sizes_on(backends["dilation"], dilated, ("prod", "ratio")) == sizes[2:]
    assert _sizes_on(backends["translation"], shifted, ("sum", "diff")) == sizes[:2]
    alpha = int(rng.integers(1, spec.q))
    reflected = FqSet.from_iterable(spec, spec.sub_arr(spec.neg_arr(A.members), np.int64(alpha)))
    shifted_product = _sizes_on(None, A, ("prod",), translate(A, alpha))
    assert (_sizes_on(backends["reflection"], reflected, ("prod",), translate(reflected, alpha))
            == shifted_product)
    c = int(rng.integers(2, spec.q))
    assert (_sizes_on(backends["dilated_shift"], dilate(A, c), ("prod",),
                      translate(dilate(A, c), spec.mul(c, alpha))) == shifted_product)


@pytest.mark.parametrize("desc", TARGET_FIELDS)
def test_shift_counts_by_transform_follow_the_frobenius_map(desc):
    # c_{phi A}(phi v) = c_A(v): phi A - phi A = phi(A - A), pair by pair
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([94, spec.q])
    A = FqSet.from_iterable(spec, rng.choice(spec.q, 3000, replace=False))
    frobenius = _images(A, rng)[2]
    with pytest.MonkeyPatch.context() as patch:
        served = force_backend(patch, "transform")
        counts, image = intersection_shift_counts(A), intersection_shift_counts(frobenius)
    assert served == ["diff", "diff"] and int(counts.sum()) == len(A) ** 2
    assert np.array_equal(image[spec.pow_arr(np.arange(spec.q), spec.p)], counts)
    # phi fixes 0 and 1, so a unit moved between the counts there keeps the
    # map; c(0) = |A| and c(-v) = c(v) do not
    assert counts[0] == len(A)
    assert np.array_equal(counts[spec.neg_arr(np.arange(spec.q))], counts)


# every bool of a trace's certificates that must hold; the case-4 flags
# (full_field, sqrt_condition, ...) describe the branch and are left out
PASSING_CERTIFICATES = {"level_band", "energy_ok", "mass_strict", "all", "ok", "not_in_quotient"}


def _failed_certificates(certificates: dict) -> list[str]:
    failed = []
    for key, value in certificates.items():
        if isinstance(value, dict):
            failed += [f"{key}.{name}" for name in _failed_certificates(value)]
        elif key in PASSING_CERTIFICATES and value is not True:
            failed.append(key)
    return failed


def _check_traces(A: FqSet, alpha: int, image: FqSet, image_alpha: int) -> None:
    """The proof trace on (A, alpha) and on its image: the two traces' sets
    need not correspond, as ties break toward smaller encodings, but both
    must pass every certificate and their case predicates, and the image's
    shifted product must have A's size."""
    assert (set_op_size(image, translate(image, image_alpha), "prod")
            == set_op_size(A, translate(A, alpha), "prod"))
    for X, shift in ((A, alpha), (image, image_alpha)):
        trace = run_proof_trace(X, shift)
        assert not _failed_certificates(trace.certificates), (A.spec.descriptor, X is image)
        verify_trace_case(trace, A.spec)


@pytest.mark.parametrize("desc, size", [("2^12", 96), ("3^7", 96), ("2^16", 160), ("3^12", 160)])
def test_proof_trace_holds_on_the_frobenius_image(desc, size):
    # phi(A(A + alpha)) = phi A (phi A + phi alpha)
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([95, spec.q])
    A = FqSet.from_iterable(spec, rng.choice(np.arange(1, spec.q), size, replace=False))
    alpha = int(rng.integers(1, spec.q))
    _check_traces(A, alpha, FqSet.from_iterable(spec, spec.pow_arr(A.members, spec.p)),
                  int(spec.pow_arr(np.int64(alpha), spec.p)))


@pytest.mark.parametrize("desc", ("65521^1", "1048573^1"))
def test_proof_trace_holds_on_a_dilation_image_over_a_prime_field(desc):
    # Frobenius is the identity on F_p; cA(cA + c alpha) = c^2 A(A + alpha)
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([96, spec.q])
    A = FqSet.from_iterable(spec, rng.choice(np.arange(1, spec.q), 96, replace=False))
    alpha, c = (int(v) for v in rng.integers(2, spec.q, 2))
    _check_traces(A, alpha, dilate(A, c), spec.mul(c, alpha))
