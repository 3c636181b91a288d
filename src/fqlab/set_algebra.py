"""Canonical subsets of GF(q) and the set-theoretic quantities built on them:
sum/product/difference/ratio sets, shifted products, the quotient set of a set,
ratio representation counts, additive and multiplicative energies, and the
structural growth condition, decided from each proper subfield's largest
coset-intersection count.

Pairwise sets are marked (``_pair_support``, a q-length bitmask) and
pairwise counts are counted (``_pair_counts``); both take their operands from
``_grid``, score it in ``_blocks`` and pick the backend by ``_use_transform``.
The grid scores the |A||B| pairs block by block (one triangle of them for the
sum or product set of a set with itself).  For sum and diff over GF(p^m),
m > 1, the character transform of (Z/p)^m turns the count into pointwise
products of q-length transforms; it runs when |A||B| exceeds TRANSFORM_CELLS
grid cells per q-length transform, and only where its worst-case float64
error (``_transform_error_bound``) is below 1/4, so that rounding recovers
every count exactly.  The rounded counts are checked (residual, sign, total)
and any failure falls back to the grid; a set served by the transform is the
support of its checked counts.

FqSet values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
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
# grid cells per block of a pairwise count: bounds its memory, and keeps the int64
# temporaries of an odd-p block (DigitPacking's packed sums and gathered chunks) in cache
PAIR_BLOCK_CELLS = 1 << 16
# cost model: one q-length transform costs about as much as this many grid cells per element
# (measured 1-2.4 on 2^12-2^20, 3^7-3^12, 5^8 and 7^7, single-threaded BLAS)
TRANSFORM_CELLS = 2
TRANSFORM_CHUNK = 32  # largest side p^k of a chunk matrix of the transform


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
    def _from_bitmask(cls, spec: FieldSpec, bitmask: np.ndarray) -> "FqSet":
        """The set whose q-length bool bitmask this is; it takes the array over."""
        members = np.flatnonzero(bitmask)
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
        """The set less the given values; values not in it, in [0, q) or not, are ignored."""
        drop = np.array([v for v in values if 0 <= v < self.spec.q], dtype=np.int64)
        return FqSet._from_sorted(self.spec, self.members[~np.isin(self.members, drop)])

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


def _use_transform(A: FqSet, B: FqSet) -> bool:
    """The cost model for sum and diff: the transform (two q-length transforms
    when B is A, three otherwise) runs over GF(p^m), m > 1, when |A||B|
    exceeds TRANSFORM_CELLS * q cells per transform and the worst-case error
    bound ``_transform_error_bound`` is below 1/4."""
    spec, cells = A.spec, len(A) * len(B)
    transforms = 2 if B is A else 3
    return (spec.m > 1 and cells > TRANSFORM_CELLS * transforms * spec.q
            and _transform_error_bound(spec, cells) < 0.25)


def _grid(A: FqSet, B: FqSet, kind: str):
    """(a, b, op, size): the grid op(a[i], b[j]) names the value of each pair
    of A x B as an index below size.

    Sum and diff combine encodings by add_arr/sub_arr (size q).  Prod and
    ratio combine the int32 logs of the nonzero parts by np.add, ratio with
    q-1 - log b, so the values lie below 2(q-1) and a value and its
    reduction mod q-1 name the same element: no % (q-1) per cell."""
    spec = A.spec
    if kind in ("sum", "diff"):
        return A.members, B.members, spec.add_arr if kind == "sum" else spec.sub_arr, spec.q
    if kind == "ratio" and 0 in B:
        raise ZeroDivisorInRatio("ratio set needs 0 not in B")
    n = spec.q - 1
    # q <= 2^24, so int32 holds the logs and their sums at half the bytes a cell
    a = spec.log_table[A.members[A.members != 0]].astype(np.int32)
    b = spec.log_table[B.members[B.members != 0]].astype(np.int32)
    return a, (n - b if kind == "ratio" else b), np.add, 2 * n


def _blocks(a: np.ndarray, b: np.ndarray, op, triangle: bool = False) -> Iterator[np.ndarray]:
    """The grid op(a[i], b[j]) in blocks of rows of about PAIR_BLOCK_CELLS
    cells each, so it is never held whole.  With ``triangle`` (a is b and op
    symmetric) a block skips the columns before its first row: every pair
    still appears once in some order.  Its blocks also hold at most
    sqrt(|a|) rows: about sqrt(|a|) blocks then score about |a|^1.5 / 2
    cells left of the diagonal, a 1/(2 sqrt(|a|)) share of the grid.  A
    consumer drops each block before it asks for the next, or two blocks
    are alive at once."""
    i = 0
    while i < a.size:
        j = i if triangle else 0
        rows = max(1, PAIR_BLOCK_CELLS // max(1, b.size - j))
        if triangle:
            rows = min(rows, math.isqrt(a.size))
        yield op(a[i: i + rows, None], b[None, j:])
        i += rows


def _by_encoding(spec: FieldSpec, by_log: np.ndarray, zero) -> np.ndarray:
    """A length-q array from one indexed by log mod (q-1), with ``zero`` at 0:
    one gather through the log table."""
    out = np.empty(spec.q, dtype=by_log.dtype)
    out[0] = zero
    out[1:] = by_log[spec.log_table[1:]]
    return out


def _pair_counts(A: FqSet, B: FqSet, kind: str) -> np.ndarray:
    """counts[v] = #{(a, b) in A x B : a ∘ b = v} for ∘ = kind, length q.

    Counted, where ``_pair_support`` only marks; both share ``_grid``,
    ``_blocks`` and ``_use_transform``.  Sum and diff that ``_use_transform``
    admits come from the transform; its rounded counts must pass
    ``_exact_counts``, and if they do not, the grid recounts.  Otherwise the
    counts accumulate (``np.add.at``, no q-length array per block) over the
    ``_blocks`` of the ``_grid``; for prod and ratio the log sums are folded
    mod q-1 once, mapped to encodings by one gather, and 0 gets the closed
    form |A||B| - |A*||B*|."""
    cells = len(A) * len(B)
    if kind in ("sum", "diff") and _use_transform(A, B):
        counts = _exact_counts(_transform_counts(A, B, kind), cells)
        if counts is not None:
            return counts
    a, b, op, size = _grid(A, B, kind)
    counts = np.zeros(size, dtype=np.int64)
    for values in _blocks(a, b, op):
        np.add.at(counts, values.ravel(), 1)
        del values
    if kind in ("sum", "diff"):
        return counts
    n = A.spec.q - 1
    counts[:n] += counts[n:]
    return _by_encoding(A.spec, counts[:n], cells - a.size * b.size)


def _pair_support(A: FqSet, B: FqSet, kind: str) -> np.ndarray:
    """The length-q bool bitmask of {a ∘ b : a in A, b in B}, ∘ = kind.

    Supports are marked, not counted: each block of the ``_grid`` sets
    ``seen[values]``, and for prod and ratio the log sums are folded mod q-1
    with | and mapped to encodings by one gather; 0 is in the set iff
    |A||B| > |A*||B*|.  For sum and prod of a set with itself only one
    triangle of the grid is scored.  Sum and diff that ``_use_transform``
    sends to the transform take the support of the checked
    ``_pair_counts``."""
    if kind in ("sum", "diff") and _use_transform(A, B):
        return _pair_counts(A, B, kind) > 0
    a, b, op, size = _grid(A, B, kind)
    seen = np.zeros(size, dtype=bool)
    for values in _blocks(a, b, op, triangle=B is A and kind in ("sum", "prod")):
        seen[values] = True
        del values
    if kind in ("sum", "diff"):
        return seen
    n = A.spec.q - 1
    seen[:n] |= seen[n:]
    return _by_encoding(A.spec, seen[:n], len(A) * len(B) > a.size * b.size)


# ---------------------------------------------------------------------------
# the transform backend: characters of (Z/p)^m
# ---------------------------------------------------------------------------


def _chunk_matrices(spec: FieldSpec) -> list[np.ndarray]:
    """DFT matrices of (Z/p)^k for the chunks of the m base-p digits of an
    encoding, most significant chunk first, cached in ``spec._derived``.

    The m digits are split into as few chunks as keep p^k <= TRANSFORM_CHUNK
    (one digit at least), as evenly as possible.  Entry [u, x] is
    w^(-<u, x>), w = exp(2 pi i / p), with u and x read as the k digits of
    their index; it is real (a +-1 Hadamard block) for p = 2.  Each matrix is
    symmetric."""
    mats = spec._derived.get("transform_chunks")
    if mats is None:
        p, m = spec.p, spec.m
        k = 1
        while p ** (k + 1) <= TRANSFORM_CHUNK:
            k += 1
        passes = -(-m // k)
        roots = np.array([1.0, -1.0]) if p == 2 else np.exp(-2j * np.pi * np.arange(p) / p)
        mats = []
        for n in (m // passes + (i < m % passes) for i in range(passes)):
            digits = np.arange(p**n)[:, None] // p ** np.arange(n) % p
            mats.append(roots[digits @ digits.T % p])
            mats[-1].setflags(write=False)
        spec._derived["transform_chunks"] = mats
    return mats


def _transform(x: np.ndarray, mats: list[np.ndarray], inverse: bool = False) -> np.ndarray:
    """The (unnormalised) character transform of a q-length array, or its
    conjugate for ``inverse``.  Each pass multiplies the leading chunk axis by
    its matrix and rotates that axis to the end, so after the last pass the
    axes are back in encoding order."""
    for W in mats:
        x = x.reshape(W.shape[0], -1).T @ (W.conj() if inverse else W)
    return x.ravel()


def _transform_counts(A: FqSet, B: FqSet, kind: str) -> np.ndarray:
    """Unrounded sum or diff counts: the inverse transform of F_A * F_B (sum)
    or of F_A * conj(F_B) (diff), F the transform of a set's indicator.  When
    B is A its transform is taken once."""
    mats = _chunk_matrices(A.spec)
    fa = _transform(A.bitmask, mats)
    fb = fa if B is A else _transform(B.bitmask, mats)
    fa *= fb if kind == "sum" else fb.conj()
    del fb  # free F_B before the inverse transform allocates
    return _transform(fa, mats, inverse=True).real / A.spec.q


def _transform_error_bound(spec: FieldSpec, cells: int) -> float:
    """Worst-case absolute error of any count from ``_transform_counts`` when
    |A||B| = cells.

    A pass over a chunk of side L computes each entry as a complex inner
    product of length L against rounded roots of unity, so it adds at most
    delta = sqrt(2)(L + 2) eps times the sum of the moduli it combines
    (eps = 2^-52, twice the unit roundoff, also covers the rounded matrix
    entries).  Every entry of the full transform has modulus 1, so after P
    passes each entry of F_A is off by at most about P delta |A|, and the
    product F_A * F_B by about 2 P delta |A||B|.  The inverse, scaled by
    1/q, passes that error on at most unchanged (q entries of modulus 1 per
    row) and adds its own P delta |A||B|: in all 3 P delta |A||B|, with L the
    largest chunk side.  The second-order terms, the rounding of the product
    and of the scaling fit in the slack that eps leaves."""
    mats = _chunk_matrices(spec)
    side = max(W.shape[0] for W in mats)
    return 3 * len(mats) * math.sqrt(2) * (side + 2) * np.finfo(np.float64).eps * cells


def _exact_counts(values: np.ndarray, total: int) -> np.ndarray | None:
    """values rounded to int64 counts, or None unless every value lies within
    1/4 of its integer, none is negative and they add up to total."""
    counts = np.rint(values)
    if (np.abs(values - counts).max() < 0.25 and counts.min() >= 0
            and int(counts.sum()) == total):
        return counts.astype(np.int64)
    return None


def set_op(A: FqSet, B: FqSet, kind: str) -> FqSet:
    """Exact pairwise sum/diff/prod/ratio set of A and B, built from the
    bitmask ``_pair_support`` marks (by the grid, or by the transform's
    counts for sum and diff, over the log residues for prod and ratio).  An
    empty operand gives the empty set."""
    _require_same_field(A, B)
    if kind not in SET_OPS:
        raise ValueError(f"unknown set op {kind!r}, expected one of {SET_OPS}")
    if len(A) == 0 or len(B) == 0:
        return FqSet.from_iterable(A.spec, ())
    return FqSet._from_bitmask(A.spec, _pair_support(A, B, kind))


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


def quotient_closure_failure(R: FqSet, rows: np.ndarray) -> tuple[int | None, int] | None:
    """First failure of the two closure tests on a quotient set R: (None, j)
    for the smallest R[j] with 1 + R[j] not in R, else (i, j) for the first
    row-major cell with rows[i] * R[j] not in R, else None.  rows is taken in
    the caller's order."""
    bad = np.flatnonzero(~R.bitmask[R.spec.add_arr(R.members, np.int64(1))])
    if bad.size:
        return None, int(bad[0])
    viol = np.flatnonzero(~R.bitmask[R.spec.mul_arr(rows[:, None], R.members[None, :])])
    return divmod(int(viol[0]), len(R)) if viol.size else None


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
    return RepSpectrum(counts=counts, total=int(binned.sum()), energy=_sum_of_squares(binned))


def _sum_of_squares(counts: np.ndarray) -> int:
    """sum(c^2) over a nonnegative int64 count array, exactly.

    The sum is at most sum(c) * max(c) (|A||B| times the largest count for
    pair counts, |A|^3 for an energy), which passes 2^63 once q nears the
    2^24 cap; from there it is summed in Python integers."""
    if counts.size == 0:
        return 0
    if int(counts.sum()) * int(counts.max()) < 1 << 63:
        return int(np.dot(counts, counts))
    return sum(c * c for c in counts.tolist())


def sum_representation_counts(A: FqSet) -> np.ndarray:
    """counts[s] = #{(a1, a2) in A^2 : a1 + a2 = s}, length q."""
    return _pair_counts(A, A, "sum")


def additive_energy(A: FqSet) -> int:
    """Number of quadruples with a1 + a2 = a3 + a4, via sum-representation counts."""
    if len(A) == 0:
        raise EmptySet("additive energy of the empty set")
    return _sum_of_squares(sum_representation_counts(A))


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
