"""Invariances at the target sizes, where the naive oracles cannot reach:
the images of a set under a translation, a dilation and the Frobenius map
x -> x^p have other encodings, so their grid blocks, packed words and
transform columns all differ from the original's, while the quantities
below must not.  Each backend meets its own image as well as another
backend's."""

import numpy as np
import pytest

from fqlab import set_algebra
from fqlab.finite_field import parse_descriptor
from fqlab.set_algebra import (
    FqSet,
    _sum_of_squares,
    additive_energy,
    dilate,
    sum_representation_counts,
    translate,
)
from pools import force_backend

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
    # A on every backend; each image on one: the triangle meets A + t, the
    # whole grid cA, and the transform's Parseval sum the Frobenius image
    spec = parse_descriptor(desc)
    rng = np.random.default_rng([91, spec.q])
    A = FqSet.from_iterable(spec, rng.choice(spec.q, 3000, replace=False))
    assert set_algebra._plan(A, A, "sum", False) == "transform"
    energy = additive_energy(A)
    assert {_energy_on(backend, A) for backend in ("grid", "triangle", "transform")} == {energy}
    shifted, dilated, frobenius = _images(A, rng)
    assert _energy_on("triangle", shifted) == energy
    assert _energy_on("grid", dilated) == energy
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
