"""Canonical subsets of GF(q) and the set-theoretic quantities built on them:
sum/product/difference/ratio sets, shifted products, the quotient set of a set,
ratio representation counts, additive and multiplicative energies, and the
structural growth condition, decided from each proper subfield's largest
coset-intersection count.

Pairwise sets are marked (``_pair_marks``) and pairwise counts are counted
(``_pair_counts``); both take their operands from ``_grid``.  Every pairwise
count array is int32 on every backend, 4 bytes an entry: no count exceeds
2q <= 2^25, and whatever squares or adds them up widens to int64 first
(``_sum_of_squares``).  Prod and ratio sets are marked on the log residues
Z/(q-1), sum and diff sets on the encodings.  ``set_op_size`` counts a set's
size on those marks, the rotation's still packed 8 to a byte, and ``set_op``
is the only place that maps residues to encodings (``_pair_support``, a
q-length bitmask).
``_plan`` alone chooses the backend of each op, among the three
``_backends`` that can serve it:

- the grid scores the |A||B| pairs block by block in ``_blocks`` and
  serves every op; of a set's sum or product with itself it scores one
  triangle (``_grid``), each pair of a count scored once and added twice;
- the rotation (``_rotate_support``) marks a support on a cycle Z/n as the
  union of the larger side's packed bitmask rotated by each residue of the
  smaller side: 64 pairs per word op, and it stops once every residue is
  seen.  It serves the prod and ratio sets (logs on Z/(q-1)) and the sum and
  diff sets over a prime field (Z/p);
- the transform serves sum and diff over GF(p^m), m > 1, while its
  worst-case float64 error (``_transform_error_bound``) is below 1/4, so
  rounding recovers every count (``_transform_counts``).  Its first pass
  multiplies every column of a set of at least q/L members, and only the
  occupied columns of a smaller one (``_columns``).  Counts that fail their
  check (``_exact_counts``) fall back to the grid.  ``additive_energy``
  stops after the forward transform and sums |F|^4 (Parseval) a few
  first-chunk rows at a time (``_batches``), never holding the whole half
  transform, under its own error bound and check (``_energy_error_bound``,
  ``_exact_energy``), and falls back to the squares of the counts.

FqSet values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
)
from .finite_field import FieldSpec, _clip, _scalar, proper_subfields, same_field

SET_OPS = ("sum", "diff", "prod", "ratio")
# grid cells per block of a pairwise count: bounds its memory, and keeps the int64
# temporaries of an odd-p block (DigitPacking's packed sums and gathered chunks) in cache;
# read only by ``_blocks`` and ``_batches``, whose batches every other blocked loop takes
PAIR_BLOCK_CELLS = 1 << 16
# cost model: one q-length transform costs about as much as this many grid cells per element
# (measured 1-2.4 on 2^12-2^20, 3^7-3^12, 5^8 and 7^7, single-threaded BLAS)
TRANSFORM_CELLS = 2
TRANSFORM_CHUNK = 32  # largest side p^k of a chunk matrix of the transform
# cost model: a rotated row of n residues costs ROTATION_ROW_CELLS + n / ROTATION_RESIDUES_PER_CELL
# grid cells (measured 190-1050 on 2^12-2^20 and 3^7-3^12, 160-790 on F_p, single-threaded)
ROTATION_ROW_CELLS = 250
ROTATION_RESIDUES_PER_CELL = 1200


@dataclass(frozen=True, eq=False)
class FqSet:
    """A subset of GF(q): sorted unique member encodings, and a q-length
    bitmask for O(1) lookups, built on first use (a set made from a bitmask
    keeps that one).  The ascending encoding order is the canonical order
    used for every smallest-witness tie-break downstream."""

    spec: FieldSpec
    members: np.ndarray  # sorted unique int64

    @cached_property
    def bitmask(self) -> np.ndarray:  # bool, length q, read-only
        bitmask = np.zeros(self.spec.q, dtype=bool)
        bitmask[self.members] = True
        bitmask.setflags(write=False)
        return bitmask

    @classmethod
    def from_iterable(cls, spec: FieldSpec, values: Iterable[int]) -> "FqSet":
        """The set of the given integer encodings.  A value that is not an
        integer raises MalformedLiteral, and one outside [0, q)
        ElementOutOfRange; an integer array is read as it is, not converted."""
        values = np.asarray(values if isinstance(values, np.ndarray) else list(values))
        # numpy keeps integers past int64 as objects; they sort and compare all the same
        integral = values.dtype.kind in "iu" or values.dtype == object and all(
            isinstance(v, (int, np.integer)) for v in values.flat)
        if values.size and not integral:
            raise MalformedLiteral(f"set elements must be integers, got {values.dtype} values")
        members = np.unique(values)
        if members.size and (members[0] < 0 or members[-1] >= spec.q):
            raise ElementOutOfRange(f"element out of range [0, {spec.q})")
        return cls._from_sorted(spec, members.astype(np.int64, copy=False))

    @classmethod
    def _from_sorted(cls, spec: FieldSpec, members: np.ndarray) -> "FqSet":
        members.setflags(write=False)
        return cls(spec=spec, members=members)

    @classmethod
    def _from_bitmask(cls, spec: FieldSpec, bitmask: np.ndarray) -> "FqSet":
        """The set whose q-length bool bitmask this is; it takes the array over."""
        bitmask.setflags(write=False)
        out = cls._from_sorted(spec, np.flatnonzero(bitmask))
        out.__dict__["bitmask"] = bitmask  # seeds the cached property
        return out

    @classmethod
    def from_literal(cls, spec: FieldSpec, text: str) -> "FqSet":
        """Parse the comma-separated encoding literal, e.g. "0,1,5"."""
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise MalformedLiteral(
                f"set literal {_clip(repr(text))} is not a list of integers") from None
        return cls.from_iterable(spec, values)

    def __len__(self) -> int:
        return int(self.members.size)

    def __contains__(self, value: int) -> bool:
        """A binary search on the sorted members: a membership test builds no
        q-length array."""
        if not 0 <= value < self.spec.q:
            return False
        i = int(self.members.searchsorted(value))
        return i < self.members.size and int(self.members[i]) == value

    def __iter__(self) -> Iterator[int]:
        return iter(self.members.tolist())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqSet)
            and same_field(self.spec, other.spec)
            and np.array_equal(self.members, other.members)
        )

    def __repr__(self) -> str:
        return f"FqSet({self.spec.descriptor}; {self.to_literal()})"

    def to_literal(self) -> str:
        return ",".join(map(str, self.members.tolist()))

    def to_json(self) -> dict:
        return {"field": self.spec.descriptor, "members": self.members.tolist()}

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
        """The set less the given integers; those not in it, in [0, q) or not, are ignored."""
        values = [_scalar(v, "value") for v in values]
        drop = np.array([v for v in values if 0 <= v < self.spec.q], dtype=np.int64)
        return FqSet._from_sorted(self.spec, self.members[~np.isin(self.members, drop)])

    def nonzero(self) -> "FqSet":
        return FqSet._from_sorted(self.spec, self.members[self.members != 0])

    def is_subset(self, other: "FqSet") -> bool:
        _require_same_field(self, other)
        return bool(np.all(other.bitmask[self.members])) if len(self) else True


def _require_same_field(A: FqSet, B) -> None:
    """MixedFields unless B, a set or a subfield handle, lies in A's field."""
    if not same_field(A.spec, B.spec):
        raise MixedFields(f"{A.spec.descriptor} vs {B.spec.descriptor}")


def translate(A: FqSet, alpha: int) -> FqSet:
    """A + alpha, for an element encoding alpha in [0, q)."""
    alpha = _scalar(alpha, "shift", A.spec.q)
    return FqSet._from_sorted(A.spec, np.sort(A.spec.add_arr(A.members, np.int64(alpha))))


def dilate(A: FqSet, c: int) -> FqSet:
    """c * A, for an element encoding c in [0, q) (c = 0 collapses a nonempty
    set to {0})."""
    c = _scalar(c, "factor", A.spec.q)
    return FqSet.from_iterable(A.spec, A.spec.mul_arr(A.members, np.int64(c)))


def _grid(A: FqSet, B: FqSet, kind: str):
    """(a, b, op, size, triangle): the grid op(a[i], b[j]) names the value of
    each pair of A x B as an index below size; ``triangle``, that it is the
    symmetric sum or product grid of a set with itself (B is A).

    Sum and diff combine encodings by add_arr/sub_arr (size q), except over
    an odd-p extension field: there a and b are packed once
    (``DigitPacking``), b as fill - pack(b) for diff, and op is
    ``add_packed``, so no block packs them again.  Prod and ratio combine
    the logs of the nonzero parts, int32 as the log table holds them, by
    np.add, ratio with q-1 - log b, so the values lie below 2(q-1) < 2^25
    and a value and its reduction mod q-1 name the same element: no
    % (q-1) per cell.  The rotation reads the same a and b as residues: for
    ratio b is reduced mod q-1 (the q-1 of log 1 = 0 becomes 0), and for a
    prime field's diff it is negated mod p."""
    spec, packing = A.spec, A.spec.packing
    triangle = B is A and kind in ("sum", "prod")
    if kind in ("sum", "diff"):
        if packing is None:
            op = spec.add_arr if kind == "sum" else spec.sub_arr
            return A.members, B.members, op, spec.q, triangle
        a, b = packing.pack(A.members), packing.pack(B.members)
        return a, b if kind == "sum" else packing.fill - b, packing.add_packed, spec.q, triangle
    if kind == "ratio" and 0 in B:
        raise ZeroDivisorInRatio("ratio set needs 0 not in B")
    n = spec.q - 1
    a = spec.log_table[A.members[A.members != 0]]
    b = spec.log_table[B.members[B.members != 0]]
    return a, (n - b if kind == "ratio" else b), np.add, 2 * n, triangle


def _blocks(a: np.ndarray, b: np.ndarray, op, triangle: bool = False) -> Iterator[np.ndarray]:
    """The grid op(a[i], b[j]) of ``_grid``'s operands, for every scan of a
    pair grid, in blocks of rows of about PAIR_BLOCK_CELLS cells each, so
    it is never held whole.  With ``triangle`` (as ``_grid`` reports it: a equal to b and op
    symmetric) a block skips the columns before its first row: a pair of
    rows of different blocks appears once, in one order, and a pair of rows
    of one block in both orders, in the block's leading square (its first as
    many columns as rows).  Its blocks also hold at most sqrt(|a|) rows:
    about sqrt(|a|) blocks then score about |a|^1.5 / 2 cells left of the
    diagonal, a 1/(2 sqrt(|a|)) share of the grid.  A consumer drops each
    block before it asks for the next, or two blocks are alive at once."""
    i = 0
    while i < a.size:
        j = i if triangle else 0
        rows = max(1, PAIR_BLOCK_CELLS // max(1, b.size - j))
        if triangle:
            rows = min(rows, math.isqrt(a.size))
        yield op(a[i: i + rows, None], b[None, j:])
        i += rows


def _batches(count: int, cells: int) -> Iterator[range]:
    """Consecutive ranges that cover range(count), for items of ``cells``
    >= 1 cells each: as many items a range as fit in PAIR_BLOCK_CELLS cells,
    and at least one.  The one batching rule of every blocked loop but
    ``_blocks``' grid rows: the energy's transform rows, the dyadic slice's
    rows, popular points' lines, the exhaustive subset scorer's subsets and
    the pivot lemma's candidates."""
    step = max(1, PAIR_BLOCK_CELLS // cells)
    return (range(i, min(count, i + step)) for i in range(0, count, step))


def _row_sizes(values: np.ndarray) -> np.ndarray:
    """The number of distinct values in each row of the 2-D array values,
    whose rows must be nonempty.  It sorts values in place along its rows and
    counts the changes: the one distinct-value count of the exhaustive subset
    scorer and the pivot lemma's candidates."""
    values.sort(axis=1)
    return 1 + np.count_nonzero(values[:, 1:] != values[:, :-1], axis=1)


def _rotate_support(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The set {x + y mod n : x in a, y in b}, for residues below n, as its
    packed length-n mask with the pad bits past n set: the union over x of
    the shorter side of the longer side's indicator rotated by x.

    The longer side's indicator, doubled to length 2n so that every rotation
    is one window of it, is packed 8 residues to a byte (little bit order)
    and read as little-endian words.  The rows go in order of their bit
    offset, and each offset r gets one copy shifted down by r bits (two word
    shifts and an OR) while its rows run, so that row x is the
    ceil(n/8)-byte window at byte (n-x) // 8 of copy (n-x) % 8, ORed into
    ``out`` by one ufunc call: one word op serves 64 pairs.  The pad bits
    past n in ``out``'s last byte start at 1, so once every byte is 0xFF
    every residue is seen and the remaining rows can only repeat it; this is
    checked every 32 rows."""
    if a.size > b.size:
        a, b = b, a
    width = -(-n // 8)
    words = -(-(n // 8 + width) // 8)  # words of a copy: the last window starts at byte n // 8
    doubled = np.zeros(64 * (words + 1), dtype=bool)
    doubled[b] = True
    doubled[b + n] = True
    packed = np.packbits(doubled, bitorder="little").view("<u8")
    del doubled
    starts = n - a
    starts = starts[np.argsort(starts & 7, kind="stable")]
    # out starts on a 64-byte line, so no wide store of the ORs splits a line:
    # left to the allocator, its start moved with the heap's history and the
    # same calls ran 10-15% slower on some starts
    out = np.zeros(width + 63, dtype=np.uint8)
    out = out[-out.ctypes.data % 64:][:width]
    if n % 8:
        out[-1] = 0xFF << n % 8 & 0xFF
    r = None
    for i, s in enumerate(starts.tolist(), 1):
        if s & 7 != r:
            r = s & 7
            copy = (packed[:-1] >> r | packed[1:] << 64 - r if r else packed[:-1]).view(np.uint8)
        k = s >> 3
        np.bitwise_or(out, copy[k: k + width], out=out)
        if i % 32 == 0 and out.min() == 0xFF:
            break
    return out


def _by_encoding(spec: FieldSpec, by_log: np.ndarray, zero) -> np.ndarray:
    """A length-q array from one indexed by log mod (q-1), with ``zero`` at 0:
    one gather through the log table."""
    out = np.empty(spec.q, dtype=by_log.dtype)
    out[0] = zero
    out[1:] = by_log[spec.log_table[1:]]
    return out


def _backends(A: FqSet, B: FqSet, kind: str, support: bool) -> tuple[str, ...]:
    """The backends that can serve a pair op, of the three: the grid, always
    (its triangle where ``_grid`` reports one); for a support, the rotation
    where it applies; the transform for sum and diff over GF(p^m), m > 1,
    within its error bound."""
    spec, names = A.spec, ["grid"]
    if support and (kind in ("prod", "ratio") or spec.m == 1):
        names.append("rotation")
    if kind in ("sum", "diff") and spec.m > 1 and _transform_error_bound(spec, len(A) * len(B)) < 0.25:
        names.append("transform")
    return tuple(names)


def _plan(A: FqSet, B: FqSet, kind: str, support: bool) -> str:
    """The backend of one pair op, its support or (not ``support``) its
    counts: the one choice among the ``_backends`` that can serve it.  The
    transform when |A||B| exceeds TRANSFORM_CELLS * q cells per transform
    (two when B is A, three otherwise); else the rotation when its rows, one
    per residue of the shorter side of the ``_grid`` plus 64 for its set-up
    (measured 37-100), cost less than the grid's cells (half for a
    triangle); else the grid."""
    spec, names = A.spec, _backends(A, B, kind, support)
    if "transform" in names and len(A) * len(B) > TRANSFORM_CELLS * (2 if B is A else 3) * spec.q:
        return "transform"
    if "rotation" in names:
        a, b, _, _, triangle = _grid(A, B, kind)
        n = spec.q - 1 if kind in ("prod", "ratio") else spec.q
        row = ROTATION_ROW_CELLS + n / ROTATION_RESIDUES_PER_CELL
        if a.size * b.size / (2 if triangle else 1) > (min(a.size, b.size) + 64) * row:
            return "rotation"
    return "grid"


def _pair_counts(A: FqSet, B: FqSet, kind: str) -> np.ndarray:
    """counts[v] = #{(a, b) in A x B : a ∘ b = v} for ∘ = kind, an int32
    array of length q on every backend.

    Counts that ``_plan`` sends to the transform must pass
    ``_exact_counts``, or the grid recounts them.  On the grid they
    accumulate into int32 (``np.add.at`` with an int32 operand, numpy's fast
    path: a Python int there costs some 25-30x the time an element; no
    q-length array per block) over the ``_blocks`` of the ``_grid``; for
    prod and ratio the int32 log sums are folded mod q-1 once, mapped to
    encodings by one gather, and 0 gets the closed form |A||B| - |A*||B*|.
    A triangle (``_grid``) scores half the grid: it adds each cell of a
    block twice, for both orders of its pair, and its leading square once
    less, whose pairs the block holds in both orders already and whose
    diagonal is one pair.  No count, nor a triangle's partial sum, exceeds
    2q <= 2^25."""
    cells = len(A) * len(B)
    if _plan(A, B, kind, False) == "transform":
        counts = _exact_counts(_transform_counts(A, B, kind), cells)
        if counts is not None:
            return counts
    a, b, op, size, triangle = _grid(A, B, kind)
    counts = np.zeros(size, dtype=np.int32)
    for values in _blocks(a, b, op, triangle):
        np.add.at(counts, values.ravel(), np.int32(2 if triangle else 1))
        if triangle:
            np.subtract.at(counts, values[:, : len(values)].ravel(), np.int32(1))
        del values
    if kind in ("sum", "diff"):
        return counts
    n = A.spec.q - 1
    counts[:n] += counts[n:]
    return _by_encoding(A.spec, counts[:n], cells - a.size * b.size)


def _pair_marks(A: FqSet, B: FqSet, kind: str) -> tuple[np.ndarray, int]:
    """(marks, n): the set {a ∘ b : a in A, b in B}, ∘ = kind, marked on its
    n residues before any is mapped to an encoding.  For sum and diff the
    residues are the encodings (n = q); for prod and ratio they are the logs
    mod q-1 of the nonzero values (n = q-1), and 0 is in the set iff it is
    in A or B.  ``marks`` is a length-n bool mask, or the rotation's packed
    uint8 mask (``_rotate_support``), by the backend ``_plan`` names.  The
    transform's support is that of its counts if they pass
    ``_exact_counts``, else the grid's.  On the grid each block sets
    ``seen[values]``; prod and ratio log sums are then folded mod q-1."""
    backend = _plan(A, B, kind, True)
    if backend == "transform":
        counts = _exact_counts(_transform_counts(A, B, kind), len(A) * len(B))
        if counts is not None:
            return counts > 0, A.spec.q
    a, b, op, size, triangle = _grid(A, B, kind)
    logs = kind in ("prod", "ratio")
    n = A.spec.q - 1 if logs else A.spec.q
    if backend == "rotation":
        return _rotate_support(a, -b % n if kind == "diff" else b % n, n), n
    seen = np.zeros(size, dtype=bool)
    for values in _blocks(a, b, op, triangle):
        seen[values] = True
        del values
    if logs:
        seen[:n] |= seen[n:]
    return seen[:n], n


def _pair_support(A: FqSet, B: FqSet, kind: str) -> np.ndarray:
    """The length-q bool bitmask of {a ∘ b : a in A, b in B}, ∘ = kind, for
    nonempty A and B: the ``_pair_marks``, unpacked if packed, and for prod
    and ratio mapped from log residues to encodings by one gather."""
    marks, n = _pair_marks(A, B, kind)
    if marks.dtype == np.uint8:
        marks = np.unpackbits(marks, count=n, bitorder="little").view(bool)
    if kind in ("sum", "diff"):
        return marks
    return _by_encoding(A.spec, marks, 0 in A or 0 in B)


# ---------------------------------------------------------------------------
# the transform backend: characters of (Z/p)^m
# ---------------------------------------------------------------------------


def _chunk_matrices(spec: FieldSpec) -> tuple[int, np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """The plan (h, first, mats, final) of the character transform of
    (Z/p)^m, cached in ``spec._derived``.

    The m base-p digits of an encoding are split into chunks, most
    significant first, as few as keep p^k <= TRANSFORM_CHUNK (one digit at
    least) and as evenly as possible.  Chunk i has the DFT matrix W_i of
    (Z/p)^k: entry [u, x] is w^(-<u, x>), w = exp(2 pi i / p), with u and x
    read as the k digits of their index.  Each W_i is symmetric, and real (a
    +-1 Hadamard block) for p = 2; ``mats`` holds (W_i, conj W_i), i = 2..P.

    The transform F of a real array is Hermitian, F(-u) = conj F(u) with -u
    the digit-wise negation, so the characters whose first chunk is one
    representative of each pair {u, -u} determine it.  H holds the
    representatives u <= -u of the L first-chunk indices: h = (L+1)/2 of
    them for odd p (0 is its own pair), all L for p = 2, where every
    character is real.  ``first`` is W_1[:, H] (L x h), for odd p as its Re
    and Im columns interleaved (L x 2h), which a real indicator multiplies
    in one real GEMM, half a complex one's work.  ``final`` adds each
    representative's conjugate back: once the later chunks are inverted,
    entry x of the inverse is sum_{u in H} w_u Re(conj(W_1[u, x]) g_u) / q,
    w_u = 1 if u = -u and 2 otherwise, so it is the real matrix
    [w Re W_1[:, H] | w Im W_1[:, H]] / q (L x 2h; L x h for p = 2)
    against [Re g; Im g]."""
    plan = spec._derived.get("transform_plan")
    if plan is None:
        p, m = spec.p, spec.m
        k = 1
        while p ** (k + 1) <= TRANSFORM_CHUNK:
            k += 1
        passes = -(-m // k)
        roots = np.array([1.0, -1.0]) if p == 2 else np.exp(-2j * np.pi * np.arange(p) / p)
        sizes = [m // passes + (i < m % passes) for i in range(passes)]
        mats = []
        for n in sizes:
            digits = np.arange(p**n)[:, None] // p ** np.arange(n) % p
            mats.append(roots[digits @ digits.T % p])
        place = p ** np.arange(sizes[0])
        index = np.arange(p * place[-1])
        neg = -(index[:, None] // place) % p @ place
        half = np.flatnonzero(index <= neg)
        weight = np.where(half == neg[half], 1.0, 2.0)
        W = np.ascontiguousarray(mats.pop(0)[:, half])
        final = weight * W if p == 2 else np.hstack((weight * W.real, weight * W.imag))
        final /= spec.q
        plan = (half.size, W.view(np.float64), tuple((V, V.conj()) for V in mats), final)
        for a in (plan[1], final, *(V for pair in plan[2] for V in pair)):
            a.setflags(write=False)
        spec._derived["transform_plan"] = plan
    return plan


def _times(x: np.ndarray, W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ W, into out (of the product's shape) if given; a real x times a
    complex W is one real GEMM against W's Re and Im columns interleaved."""
    if W.dtype.kind == "c" != x.dtype.kind:
        out = None if out is None else out.view(np.float64)
        return np.matmul(x, W.view(np.float64), out=out).view(np.complex128)
    return np.matmul(x, W, out=out)


def _columns(spec: FieldSpec, members: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(cols, marks): the columns of a set's indicator that the first pass
    multiplies, the indicator read as L rows of q/L, one per first-chunk
    digit.  For at least q/L members every column, as a float (q/L, L) view
    of the whole indicator (cols None); otherwise the occupied ones, at most
    |A| of the q/L: cols ascending, and marks[i] the first-chunk digits of
    the members in column cols[i], a float 0/1 row of L."""
    L = len(_chunk_matrices(spec)[1])
    if members.size >= spec.q // L:
        marks = np.zeros(spec.q)
        marks[members] = 1
        return None, marks.reshape(L, -1).T  # row c: the indicator's column c
    digit, col = np.divmod(members, spec.q // L)
    row = np.zeros(spec.q // L, dtype=np.intp)  # each occupied column's index in cols
    row[col] = 1
    cols = np.flatnonzero(row)
    row[cols] = np.arange(cols.size)
    marks = np.zeros((cols.size, L))
    marks[row[col], digit] = 1
    return cols, marks


def _half_transform(spec: FieldSpec, members: np.ndarray, rows: range | None = None,
                    x: np.ndarray | None = None, y: np.ndarray | None = None,
                    columns: tuple | None = None) -> tuple:
    """(F, x, y): the (unnormalised) character transform F of a set's
    indicator at the characters whose first chunk is one of ``rows`` of H
    (all h if None), a len(rows) x q/L array (complex for odd p) in the
    buffer x, and y, free; x and y are new if None, else the front of the
    given buffers.  Each pass multiplies the leading chunk axis by its
    matrix into the free buffer and rotates that axis to the end, so a row
    of F needs no other row.  The first multiplies the set's ``_columns``
    (found here unless given, and then dropped before y is made) by the
    rows' columns of ``first``: every column into x, or the occupied ones
    into x zeroed."""
    h, first, mats, _ = _chunk_matrices(spec)
    rows = range(h) if rows is None else rows
    cols, marks = _columns(spec, members) if columns is None else columns
    per = first.shape[1] // h  # floats per entry: 2 for odd p, whose W_1 is complex
    W = first[:, rows.start * per: rows.stop * per]
    shape = (spec.q // len(first), len(rows))
    dtype = float if spec.p == 2 else complex
    f = x = np.empty(shape, dtype) if x is None else np.ndarray(shape, dtype, x)
    if cols is None:
        _times(marks, W, x.view(np.float64))
    else:
        f.fill(0)
        f.view(np.float64)[cols] = _times(marks, W)
    del cols, marks, columns  # before y is made
    y = np.empty_like(x) if y is None else np.ndarray(shape, dtype, y)
    for W, _ in mats:
        f, x, y = _times(f.reshape(len(W), -1).T, W, y.reshape(-1, len(W))), y, x
    return f.reshape(len(rows), -1), x, y


def _transform_counts(A: FqSet, B: FqSet, kind: str) -> np.ndarray:
    """Unrounded sum or diff counts: the inverse transform of F_A * F_B (sum)
    or of F_A * conj(F_B) (diff), with F the ``_half_transform`` of a set's
    indicator.  When B is A its transform is taken once, and for diff the
    product is the real |F_A|^2.  The inverse runs the later chunks'
    conjugate passes on each of the h rows, an (h, L_i, rest) matmul that
    leaves each row's chunks in encoding order, and then the one real GEMM
    of ``final``, whose output is in encoding order with no transpose.  Each
    step fills the free one of two buffers of h q/L complex (q reals for
    p = 2); a third is held while F_B's passes run.  The counts are the front
    q floats of the last buffer and keep all of it alive, (L+1)/L q for odd p."""
    h, _, mats, final = _chunk_matrices(A.spec)
    f, x, y = _half_transform(A.spec, A.members)
    if B is A and kind == "diff":
        f, x, y = _squared_moduli(f, x, y)
    else:
        fb, y = (f, y) if B is A else _half_transform(A.spec, B.members, x=y)[:2]
        f *= np.conjugate(fb, out=fb) if kind == "diff" else fb
    for _, W in mats:
        f, x, y = _times(f.reshape(h, len(W), -1).swapaxes(1, 2), W, y.reshape(h, -1, len(W))), y, x
    g = f.reshape(h, -1)
    if g.dtype.kind == "c":
        g, y = np.concatenate((g.real, g.imag), out=np.ndarray((2 * h, g.shape[1]), float, y)), x
    # a real g (p = 2, or |F_A|^2 with one chunk) has no imaginary block
    return _times(final[:, : len(g)], g, np.ndarray((len(final), g.shape[1]), float, y)).ravel()


def _squared_moduli(f: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """(|F|^2, x, y) for a half transform F in buffer x with y free, as
    ``_half_transform`` returns them: a real F squared in place, a complex
    one's Re^2 + Im^2 written into y, whereupon the buffers swap."""
    if f.dtype.kind != "c":
        return np.square(f, out=f), x, y
    parts = np.square(f.view(np.float64), out=f.view(np.float64))
    return np.add(parts[:, 0::2], parts[:, 1::2], out=np.ndarray(f.shape, float, y)), y, x


def _transform_energy(A: FqSet) -> float:
    """Unrounded E+(A) from the forward ``_half_transform`` alone, by
    Parseval: E+(A) = (1/q) sum_u |F_A(u)|^4 over the q characters.  The
    kept rows stand for all of them as in ``_chunk_matrices``' ``final``:
    F(-u) = conj F(u), so a representative u of the first chunk weighs w_u,
    and the one u = -u of odd p is u = 0, the first row.  Each row transforms
    on its own, so the h rows of q/L entries go in ``_batches`` of g rows
    through two buffers of g q/L entries, reused, after one search of the
    set's ``_columns``.  A group's |F|^2 goes into the free buffer
    (``_squared_moduli``) and is squared in place, and its weighted sum,
    numpy's pairwise one, is added to the total as it is formed: the peak is
    the two group buffers and the columns, not the two h q/L buffers of a
    count."""
    spec, members = A.spec, A.members
    h, first, _, _ = _chunk_matrices(spec)
    groups = list(_batches(h, spec.q // len(first)))
    columns = _columns(spec, members) if len(groups) > 1 else None  # one group finds and drops them
    total, x, y = 0.0, None, None
    for rows in groups:
        f, x, y = _half_transform(spec, members, rows, x, y, columns)
        f, x, y = _squared_moduli(f, x, y)
        part = float(np.square(f, out=f).sum())
        if spec.p > 2:
            part = 2 * part - (float(f[0].sum()) if rows.start == 0 else 0.0)
        total += part
    return total / spec.q


def _transform_error_bound(spec: FieldSpec, cells: int) -> float:
    """Worst-case absolute error of any count from ``_transform_counts`` when
    |A||B| = cells.

    A pass over a chunk of side L computes each entry as an inner product of
    length L against rounded roots of unity, so it adds at most delta =
    sqrt(2)(L + 2) eps times the sum of the moduli it combines (eps = 2^-52,
    twice the unit roundoff, also covers the rounded matrix entries and the
    1/q folded into ``final``); a pass on real data, as real inner products
    against Re W and Im W, stays inside delta.  The first pass forms these
    only on occupied columns (an empty one is an exact 0), and the buffers
    change where a pass writes, not what it sums.  Each kept
    entry of the half transform is an entry of the full one, of modulus 1
    per element, so after P passes it is off by at most about P delta |A|,
    and the product F_A * F_B by about 2 P delta |A||B|.  The inverse passes
    that error on at most unchanged and adds its own P delta |A||B|.  Its
    later passes are the full transform's on h of the L rows.  ``final``
    sums L + 1 real terms w_u (Re W Re g_u + Im W Im g_u) / q, w_u <= 2,
    each at most w_u |g_u| / q, and sum_{u in H} w_u |x_u| = sum_u |x_u|
    because the dropped half is the conjugate of the kept one, errors
    included: so it too errs by at most delta times the sum over all q
    characters / q.  In all 3 P delta |A||B|, with L the largest chunk side,
    the first's.  The second-order terms and the rounding of the product fit
    in the slack that eps leaves."""
    _, first, mats, _ = _chunk_matrices(spec)  # the first chunk is the largest
    return 3 * (1 + len(mats)) * math.sqrt(2) * (len(first) + 2) * math.ulp(1.0) * cells


def _energy_error_bound(spec: FieldSpec, size: int) -> float:
    """Worst-case absolute error of ``_transform_energy`` for |A| = size.

    In ``_transform_error_bound``'s terms each kept entry of F is off by at
    most e = P delta |A|.  Then ||F + e|^4 - |F|^4| <= 4 |F|^3 e to first
    order, and over the q characters sum_u |F(u)|^3 <= max |F| sum_u |F(u)|^2
    = |A| q |A| (Parseval), so after the 1/q the error is at most
    4 P delta |A|^3: 4/3 of that bound at |A|^3 cells.  The weights are
    exact, and the kept rows' weighted errors stay within the sum over all
    q as for ``final``; transforming the rows in groups changes where a
    pass writes, not what it sums.  The roundings, with u = eps/2: Re^2 +
    Im^2 and its square add 5u per term; each group's pairwise sum of at
    most q nonnegative terms adds (log2 q + 12) u; 2 S_i - S_0 (odd p, S_0
    in the first group only) weighs those sums' errors by sum_i 2 S_i + S_0
    = 2 S + S_0 <= 3 q E, and the subtraction and the 1/q add u each.  So
    they add at most 3 (log2 q + 18) u E <= 2 (log2 q + 18) eps |A|^3.  The
    G = ceil(h/g) group totals, each nonnegative, are then added one by one:
    every running total is at most 2 S + S_0 <= 3 q E, so each addition adds
    at most 3u q E, in all G 3u |A|^3 after the 1/q.  While the total stays
    below 1/4, |A|^3 < 2^53 and every energy below it is a float64
    integer."""
    h, first, _, _ = _chunk_matrices(spec)
    groups = sum(1 for _ in _batches(h, spec.q // len(first)))
    rounding = (2 * (math.log2(spec.q) + 18) + 1.5 * groups) * math.ulp(1.0)
    return 4 / 3 * _transform_error_bound(spec, size**3) + rounding * size**3


def _exact_energy(value: float, size: int, p: int) -> int | None:
    """value rounded to the energy E of a set of ``size`` elements in
    characteristic p, or None unless value lies within 1/4 of E,
    size^2 <= E <= size^3, and E has the residue mod 4 that the difference
    counts r force.  r(0) = |A| and E = sum_d r(d)^2.  For p = 2 every
    r(d), d != 0, is even (a - b = b - a), so E = |A|^2 mod 4.  For odd p,
    r(d) = r(-d) pairs the d != 0, whose r add up to |A|^2 - |A|, and
    r^2 = r mod 2, so E = |A|^2 + (|A|^2 - |A|) mod 4."""
    if not math.isfinite(value) or abs(value - round(value)) >= 0.25:
        return None
    energy = round(value)
    residue = size**2 if p == 2 else 2 * size**2 - size
    if size**2 <= energy <= size**3 and (energy - residue) % 4 == 0:
        return energy
    return None


def _exact_counts(values: np.ndarray, total: int) -> np.ndarray | None:
    """values rounded to int32 counts written over the front half of values'
    own buffer (their rint is the one q-length temporary), or None unless
    every value lies within 1/4 of its integer, none is negative and they add
    up to total.  The counts are a view that keeps the float buffer alive,
    as the values were."""
    counts, ints = np.rint(values), values.view(np.int32)[: values.size]
    values -= counts
    if np.abs(values, out=values).max() < 0.25 and counts.min() >= 0 and int(counts.sum()) == total:
        ints[:] = counts
        return ints
    return None


def _check_set_op(A: FqSet, B: FqSet, kind: str) -> None:
    _require_same_field(A, B)
    if kind not in SET_OPS:
        raise ValueError(f"unknown set op {kind!r}, expected one of {SET_OPS}")


def set_op(A: FqSet, B: FqSet, kind: str) -> FqSet:
    """Exact pairwise sum/diff/prod/ratio set of A and B, built from the
    bitmask ``_pair_support`` marks.  An empty operand gives the empty set."""
    _check_set_op(A, B, kind)
    if len(A) == 0 or len(B) == 0:
        return FqSet.from_iterable(A.spec, ())
    return FqSet._from_bitmask(A.spec, _pair_support(A, B, kind))


def set_op_size(A: FqSet, B: FqSet, kind: str) -> int:
    """len(set_op(A, B, kind)), counted on the ``_pair_marks``, the
    rotation's packed bytes less their pad bits or the bool mask, plus 1 for
    0 in a prod or ratio set, with no set built.  The errors are set_op's;
    an empty operand gives 0."""
    _check_set_op(A, B, kind)
    if len(A) == 0 or len(B) == 0:
        return 0
    marks, n = _pair_marks(A, B, kind)
    if marks.dtype == np.uint8:
        size = int(np.bitwise_count(marks).sum(dtype=np.int64)) - (8 * marks.size - n)
    else:
        size = int(np.count_nonzero(marks))
    return size + int(kind in ("prod", "ratio") and (0 in A or 0 in B))


def shifted_product(A: FqSet, alpha: int) -> FqSet:
    """A(A + alpha), the shifted-product growth quantity."""
    return set_op(A, translate(A, _scalar(alpha, "shift", A.spec.q, nonzero=True)), "prod")


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
    the caller's order and scored one row at a time, never as a rows x R grid.
    R = F_q passes both at once."""
    if len(R) == R.spec.q:
        return None
    bad = np.flatnonzero(~R.bitmask[R.spec.add_arr(R.members, np.int64(1))])
    if bad.size:
        return None, int(bad[0])
    for i, x in enumerate(rows):
        viol = np.flatnonzero(~R.bitmask[R.spec.mul_arr(x, R.members)])
        if viol.size:
            return i, int(viol[0])
    return None


def representation_spectrum(X: FqSet, Y: FqSet) -> np.ndarray:
    """counts[xi] = r(xi) = #{(x, y) in X x Y : y/x = xi}, an int32 array of
    length q: the ratio representation counts.  They add up to |X||Y| (first
    moment) and their ``_sum_of_squares`` is the multiplicative energy
    between X and Y (second moment)."""
    _require_same_field(X, Y)
    if 0 in X:
        raise ZeroInDenominatorSet("denominator set must avoid 0")
    return _pair_counts(Y, X, "ratio")


def _sum_of_squares(counts: np.ndarray) -> int:
    """sum(c^2) over a nonnegative int32 or int64 count array, exactly.

    The squares are accumulated in int64 (a plain int32 ``np.dot`` would
    overflow once a count passes 46,340); einsum widens the int32 counts in
    its own small buffers, with no q-length int64 copy.  The sum is at most
    sum(c) * max(c) (|A||B| times the largest count for pair counts, |A|^3
    for an energy), which passes 2^63 once q nears the 2^24 cap; from there
    it is summed in Python integers."""
    if counts.size == 0:
        return 0
    if int(counts.sum()) * int(counts.max()) < 1 << 63:
        return int(np.einsum("i,i->", counts, counts, dtype=np.int64))
    return sum(c * c for c in counts.tolist())


def sum_representation_counts(A: FqSet) -> np.ndarray:
    """counts[s] = #{(a1, a2) in A^2 : a1 + a2 = s}, an int32 array of length
    q, on the grid's triangle or by the transform.  From the transform it is
    a view that keeps the transform's (L+1)/L q floats."""
    return _pair_counts(A, A, "sum")


def additive_energy(A: FqSet) -> int:
    """Number of quadruples with a1 + a2 = a3 + a4.

    Where ``_plan`` names the transform for A + A and
    ``_energy_error_bound`` is below 1/4, it is the forward transform's
    Parseval sum (``_transform_energy``) if that passes ``_exact_energy``;
    otherwise the ``_sum_of_squares`` of the sum-representation counts."""
    if len(A) == 0:
        raise EmptySet("additive energy of the empty set")
    if _plan(A, A, "sum", False) == "transform" and _energy_error_bound(A.spec, len(A)) < 0.25:
        energy = _exact_energy(_transform_energy(A), len(A), A.spec.p)
        if energy is not None:
            return energy
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
    return _sum_of_squares(representation_spectrum(Xn, Yn)) + zero_pairs**2


def intersection_shift_counts(A: FqSet) -> np.ndarray:
    """counts[alpha] = |A ∩ (A - alpha)|, an int32 array of length q.

    Summed over the difference set this gives |A|^2, and the sum of squares
    gives the additive energy.  From the transform it is a view that keeps
    the transform's (L+1)/L q floats (``_transform_counts``)."""
    return _pair_counts(A, A, "diff")


# ---------------------------------------------------------------------------
# structural condition: coset-intersection counts
# ---------------------------------------------------------------------------


def coset_intersection_counts(A: FqSet, G) -> np.ndarray:
    """|A ∩ cG| for every coset cG of the subfield G, indexed by
    log c mod (q-1)/(|G|-1)."""
    _require_same_field(A, G)
    spec = A.spec
    n = (spec.q - 1) // (G.size - 1)
    logs = spec.log_table[A.members[A.members != 0]]
    return np.bincount(logs % n, minlength=n) + int(0 in A)


def _restriction(t: int, g: int, num: int, den: int, ref: int, kappa: int) -> tuple[bool, bool]:
    """(t^2 <= kappa^2 g, t^den <= kappa^den ref^num), exact in integers: the
    two sides of the structural bound kappa * max(g^(1/2), ref^(num/den)) on
    a count t on a coset of a g-element subfield, which holds iff either does."""
    return t**2 <= kappa**2 * g, t**den <= kappa**den * ref**num


def coset_profile(A: FqSet, exponent_num: int, exponent_den: int, reference: FqSet | int,
                  kappa: int = 1) -> bool:
    """The structural condition: |A ∩ cG| <= kappa * max(|G|^(1/2),
    |reference|^(num/den)) for every proper subfield G and every c; the
    reference is a set or its size.

    The bound grows with the count, so each subfield's largest count t
    decides all of its cosets, by one ``_restriction`` a subfield.  No
    count exceeds |G| (cG has |G| elements), so a subfield whose bound
    already holds at t = |G| passes whatever A is, and its cosets are not
    counted: on 2^20 that spares the q-1 cosets of F_2 and keeps the check
    off q-length arrays unless a large subfield can break the bound.  kappa,
    an integer >= 1 (ValueError otherwise), models the unknowable implied
    constant.  The exponents are integers, num >= 0 and den >= 1, and the
    reference a set or an integer size: a float or bool is MalformedLiteral
    and a value out of range ValueError, so every comparison is exact.  A
    prime field has no proper subfield and passes vacuously.
    """
    if _scalar(kappa, "kappa") < 1:
        raise ValueError(f"kappa must be at least 1, got {kappa!r}")
    num, den = _scalar(exponent_num, "exponent_num"), _scalar(exponent_den, "exponent_den")
    ref = len(reference) if isinstance(reference, FqSet) else _scalar(reference, "reference")
    if num < 0 or den < 1 or ref < 0:
        raise ValueError(f"need exponent_num >= 0, exponent_den >= 1 and a reference size"
                         f" >= 0, got {num}, {den} and {ref}")
    if ref == 0:
        raise EmptySet("reference set must be nonempty")
    bound = (num, den, ref, kappa)
    return all(any(_restriction(G.size, G.size, *bound))
               or any(_restriction(int(coset_intersection_counts(A, G).max()), G.size, *bound))
               for G in proper_subfields(A.spec))
