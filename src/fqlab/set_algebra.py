"""Canonical subsets of GF(q) and the set-theoretic quantities built on them:
sum/product/difference/ratio sets, shifted products, the quotient set of a set,
ratio representation counts, additive and multiplicative energies, and the
structural growth condition, decided from each proper subfield's largest
coset-intersection count.

FqSet values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
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
from .finite_field import FieldSpec, proper_subfields

SET_OPS = ("sum", "diff", "prod", "ratio")
PAIR_BLOCK_CELLS = 1 << 20  # grid cells per block of a pairwise count: bounds its memory


@dataclass(frozen=True, eq=False)
class FqSet:
    """A subset of GF(q): sorted unique member encodings plus a bitmask for
    O(1) membership.  The ascending encoding order is the canonical order used
    for every smallest-witness tie-break downstream."""

    spec: FieldSpec
    members: np.ndarray  # sorted unique int64
    bitmask: np.ndarray  # bool, length q

    @classmethod
    def from_iterable(cls, spec: FieldSpec, values: Iterable[int]) -> "FqSet":
        members = np.unique(np.asarray(list(values), dtype=np.int64))
        if members.size and (members[0] < 0 or members[-1] >= spec.q):
            raise ElementOutOfRange(f"element out of range [0, {spec.q})")
        return cls._from_sorted(spec, members)

    @classmethod
    def _from_sorted(cls, spec: FieldSpec, members: np.ndarray) -> "FqSet":
        bitmask = np.zeros(spec.q, dtype=bool)
        bitmask[members] = True
        members.setflags(write=False)
        bitmask.setflags(write=False)
        return cls(spec=spec, members=members, bitmask=bitmask)

    @classmethod
    def from_literal(cls, spec: FieldSpec, text: str) -> "FqSet":
        """Parse the comma-separated encoding literal, e.g. "0,1,5"."""
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise MalformedLiteral(f"set literal {text!r} is not a list of integers") from None
        return cls.from_iterable(spec, values)

    @classmethod
    def full(cls, spec: FieldSpec, include_zero: bool = True) -> "FqSet":
        start = 0 if include_zero else 1
        return cls._from_sorted(spec, np.arange(start, spec.q, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.members.size)

    def __contains__(self, value: int) -> bool:
        return 0 <= value < self.spec.q and bool(self.bitmask[value])

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqSet)
            and same_field(self.spec, other.spec)
            and np.array_equal(self.members, other.members)
        )

    def __repr__(self) -> str:
        return f"FqSet({self.spec.descriptor}; {self.to_literal()})"

    def to_literal(self) -> str:
        return ",".join(str(int(v)) for v in self.members)

    def to_json(self) -> dict:
        return {"field": self.spec.descriptor, "members": [int(v) for v in self.members]}

    @classmethod
    def from_json(cls, obj: dict) -> "FqSet":
        from .finite_field import parse_descriptor

        return cls.from_iterable(parse_descriptor(obj["field"]), obj["members"])

    # plain set-theoretic helpers (not sumset algebra)
    def intersect(self, other: "FqSet") -> "FqSet":
        _require_same_field(self, other)
        return FqSet._from_sorted(self.spec, self.members[other.bitmask[self.members]])

    def union(self, other: "FqSet") -> "FqSet":
        _require_same_field(self, other)
        return FqSet._from_sorted(self.spec, np.union1d(self.members, other.members))

    def without(self, values: Iterable[int]) -> "FqSet":
        drop = set(int(v) for v in values)
        keep = np.array([v for v in self.members if int(v) not in drop], dtype=np.int64)
        return FqSet._from_sorted(self.spec, keep)

    def nonzero(self) -> "FqSet":
        return FqSet._from_sorted(self.spec, self.members[self.members != 0])

    def is_subset(self, other: "FqSet") -> bool:
        _require_same_field(self, other)
        return bool(np.all(other.bitmask[self.members])) if len(self) else True


def same_field(a: FieldSpec, b: FieldSpec) -> bool:
    return a is b or (a.p == b.p and a.m == b.m and a.modulus == b.modulus)


def _require_same_field(A: FqSet, B: FqSet) -> None:
    if not same_field(A.spec, B.spec):
        raise MixedFields(f"{A.spec.descriptor} vs {B.spec.descriptor}")


def translate(A: FqSet, alpha: int) -> FqSet:
    """A + alpha."""
    return FqSet._from_sorted(A.spec, np.sort(A.spec.add_arr(A.members, np.int64(alpha))))


def dilate(A: FqSet, c: int) -> FqSet:
    """c * A (c = 0 collapses a nonempty set to {0})."""
    return FqSet.from_iterable(A.spec, A.spec.mul_arr(A.members, np.int64(c)))


def _pair_counts(A: FqSet, B: FqSet, kind: str) -> np.ndarray:
    """counts[v] = #{(a, b) in A x B : a ∘ b = v} for ∘ = kind, length q.

    sum and diff count the add_arr/sub_arr grid; prod and ratio count
    log a ± log b mod (q-1) over the nonzero parts, scatter that into encodings
    through exp_table[:q-1] and give 0 the closed form |A||B| - |A*||B*|.
    The grid is never held whole: the counts accumulate (``np.add.at``, no
    q-length array per block) over blocks of rows of A of about
    PAIR_BLOCK_CELLS cells each."""
    spec = A.spec
    if kind in ("sum", "diff"):
        a, b, n = A.members, B.members, spec.q
        op = spec.add_arr if kind == "sum" else spec.sub_arr
    else:
        if kind == "ratio" and 0 in B:
            raise ZeroDivisorInRatio("ratio set needs 0 not in B")
        # q <= 2^24, so int32 holds the residues and their sums at half the bytes a cell
        a = spec.log_table[A.members[A.members != 0]].astype(np.int32)
        b = spec.log_table[B.members[B.members != 0]].astype(np.int32)
        n = spec.q - 1
        combine = np.add if kind == "prod" else np.subtract

        def op(x, y):
            return combine(x, y) % n
    counts = np.zeros(n, dtype=np.int64)
    rows = max(1, PAIR_BLOCK_CELLS // max(1, b.size))
    for i in range(0, a.size, rows):
        np.add.at(counts, op(a[i: i + rows, None], b[None, :]).ravel(), 1)
    if kind in ("sum", "diff"):
        return counts
    out = np.zeros(spec.q, dtype=np.int64)
    out[spec.exp_table[: spec.q - 1]] = counts
    out[0] = len(A) * len(B) - a.size * b.size
    return out


def set_op(A: FqSet, B: FqSet, kind: str) -> FqSet:
    """Exact pairwise sum/diff/prod/ratio set of A and B: the support, ascending,
    of ``_pair_counts`` (counts over the grid for sum and diff, over the log
    residues for prod and ratio).  An empty operand gives the empty set."""
    _require_same_field(A, B)
    if kind not in SET_OPS:
        raise ValueError(f"unknown set op {kind!r}, expected one of {SET_OPS}")
    if len(A) == 0 or len(B) == 0:
        return FqSet.from_iterable(A.spec, ())
    return FqSet._from_sorted(A.spec, np.flatnonzero(_pair_counts(A, B, kind)))


def shifted_product(A: FqSet, alpha: int) -> FqSet:
    """A(A + alpha), the shifted-product growth quantity."""
    if alpha % A.spec.q == 0:
        raise ZeroShift("shift must be nonzero")
    return set_op(A, translate(A, alpha), "prod")


def quotient_set(X: FqSet) -> FqSet:
    """R(X) = all ratios (x1-x2)/(x3-x4) with x3 != x4.

    Always contains 0, 1 and -1, and is closed under inversion of its nonzero
    elements.
    """
    if len(X) < 2:
        raise SetTooSmall("quotient set needs |X| >= 2")
    diffs = set_op(X, X, "diff")
    return set_op(diffs, diffs.nonzero(), "ratio")


@dataclass(frozen=True)
class RepSpectrum:
    """Ratio representation counts r(xi) = #{(x, y) in X x Y : y/x = xi}.

    total equals |X||Y| (first-moment identity) and energy equals the
    multiplicative energy between X and Y (second-moment identity).
    """

    counts: dict[int, int]
    total: int
    energy: int


def representation_spectrum(X: FqSet, Y: FqSet) -> RepSpectrum:
    if 0 in X:
        raise ZeroInDenominatorSet("denominator set must avoid 0")
    binned = _pair_counts(Y, X, "ratio")
    counts = {int(xi): int(binned[xi]) for xi in np.flatnonzero(binned)}
    # counts are <= q <= 2^20 and there are <= q of them, so int64 cannot overflow
    return RepSpectrum(counts=counts,
                       total=int(binned.sum()),
                       energy=int(np.sum(binned * binned)))


def sum_representation_counts(A: FqSet) -> np.ndarray:
    """counts[s] = #{(a1, a2) in A^2 : a1 + a2 = s}, length q."""
    return _pair_counts(A, A, "sum")


def additive_energy(A: FqSet) -> int:
    """Number of quadruples with a1 + a2 = a3 + a4, via sum-representation counts."""
    if len(A) == 0:
        raise EmptySet("additive energy of the empty set")
    counts = sum_representation_counts(A)
    return int(np.sum(counts * counts))


def multiplicative_energy(X: FqSet, Y: FqSet) -> int:
    """Number of quadruples with x1*y1 = x2*y2, (x_i, y_i) in X x Y.

    Zeros are stripped from both sets before the ratio-based computation and
    the quadruples whose products vanish are added back in closed form: a pair
    has zero product iff it contains a zero, so they contribute exactly
    (|X||Y| - |X*||Y*|)^2.
    """
    _require_same_field(X, Y)
    Xn, Yn = X.nonzero(), Y.nonzero()
    if len(Xn) == 0 or len(Yn) == 0:
        raise EmptyAfterZeroStrip("both sets must contain a nonzero element")
    zero_pairs = len(X) * len(Y) - len(Xn) * len(Yn)
    return representation_spectrum(Xn, Yn).energy + zero_pairs**2


def intersection_shift_counts(A: FqSet) -> np.ndarray:
    """counts[alpha] = |A ∩ (A - alpha)|, length q.

    Summed over the difference set this gives |A|^2, and the sum of squares
    gives the additive energy.
    """
    return _pair_counts(A, A, "diff")


# ---------------------------------------------------------------------------
# structural condition: coset-intersection counts
# ---------------------------------------------------------------------------


def coset_intersection_counts(A: FqSet, G) -> np.ndarray:
    """|A ∩ cG| for every coset cG of the subfield G, indexed by
    log c mod (q-1)/(|G|-1)."""
    spec = A.spec
    n = (spec.q - 1) // (G.size - 1)
    logs = spec.log_table[A.members[A.members != 0]]
    return np.bincount(logs % n, minlength=n) + int(0 in A)


def coset_profile(A: FqSet, exponent_num: int, exponent_den: int, reference: FqSet,
                  kappa: int = 1) -> bool:
    """The structural condition: |A ∩ cG| <= kappa * max(|G|^(1/2),
    |reference|^(num/den)) for every proper subfield G and every c.

    The bound grows with the count, so each subfield's largest count decides
    all of its cosets: one exact comparison per subfield, by big-integer
    cross-powering, so the verdict is bit-reproducible.  kappa models the
    unknowable implied constant.  A prime field has no proper subfield and
    passes vacuously.
    """
    if len(reference) == 0:
        raise EmptySet("reference set must be nonempty")
    ref = len(reference)
    for G in proper_subfields(A.spec):
        t = int(coset_intersection_counts(A, G).max())
        if not (t**2 <= kappa**2 * G.size
                or t**exponent_den <= kappa**exponent_den * ref**exponent_num):
            return False
    return True
