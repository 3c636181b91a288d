"""Exact arithmetic in GF(p^m), its subfield lattice, and multiplicative cosets.

Elements are encoded as integers in [0, q): the base-p digits of the encoding
are the coefficients of the residue polynomial (digit i = coefficient of X^i),
so prime fields encode elements as themselves.  Multiplication runs on full
discrete exp/log tables with respect to a fixed generator; the O(q) table
memory is what the construction cap is for.  The tables and the coset
representatives are int32, which holds every value below the largest cap
2^24 at half the bytes; sets and the vectorized operations' results are
int64.

Addition is digit-wise mod p.  Prime fields add mod p and p = 2 adds by XOR.
Every other field adds through a ``DigitPacking``: small tables (2^TABLE_BITS
entries at most, or one wide digit's 2^w) pack the digits, so that one integer
addition adds all m at once, and reduce each digit mod p to unpack the sum.

The modulus is the smallest monic irreducible that passes Ben-Or's gcd test.
The exp table, the power sequence of the generator, is written in place: each
block of L powers is "multiply by g^L" applied to the L powers before it, L
doubling up to BUILD_BLOCK.  The map is F_p-linear, so it runs through two
chunk tables over the low and high base-p digits of the encoding, whose
images are combined like a field addition.  The log table is one blocked
scatter of the exp table into an array prefilled with -1, which then shows
whether the powers are a bijection onto [1, q).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .errors import (
    DegreeZero,
    DivisionByZero,
    ElementOutOfRange,
    FieldTooLarge,
    InvalidCap,
    InvariantViolated,
    MalformedDescriptor,
    MalformedLiteral,
    MixedFields,
    NoIrreducibleFound,
    NotPrime,
    NotProperSubfield,
    ZeroShift,
)

DEFAULT_CAP = 1 << 20
MAX_CAP = 1 << 24  # the largest cap the environment may set
CAP_ENV_VAR = "FQLAB_CAP"

ARITH_OPS = ("add", "sub", "mul", "div", "neg", "inv", "pow")
TABLE_BITS = 12  # index bits of a chunk table (one digit or packed field may need more)
# powers mapped, or scattered into the log table, per step of the build: the
# step's int64 temporaries stay small beside the int32 tables
BUILD_BLOCK = 1 << 15
ECHO_CHARS = 40  # longest descriptor, p or m an error message repeats whole


def field_cap() -> int:
    """Current construction cap on q (env override must be a power of two <= 2^24)."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: rejected with the rest below
    if cap < 2 or cap > MAX_CAP or cap & (cap - 1):
        raise InvalidCap(f"{CAP_ENV_VAR} must be a power of two <= 2^24, got {raw!r}")
    return cap


def is_prime(n: int) -> bool:
    """Deterministic: n is its own only prime factor.  Fast for p <= the cap."""
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# construction-time polynomial arithmetic over F_p
# (coefficient tuples, low-degree-first; only used before the tables exist)
# ---------------------------------------------------------------------------


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod(a, b, modulus, p):
    """a*b mod modulus, all low-degree-first tuples over F_p; modulus monic."""
    m = len(modulus) - 1
    prod_ = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod_[i + j] = (prod_[i + j] + ai * bj) % p
    # reduce: X^m == -(modulus[:m])
    for k in range(len(prod_) - 1, m - 1, -1):
        c = prod_[k]
        if c:
            prod_[k] = 0
            for i in range(m):
                prod_[k - m + i] = (prod_[k - m + i] - c * modulus[i]) % p
    return tuple(prod_[:m]) + (0,) * (m - len(prod_))


def _poly_powmod(base, e, modulus, p):
    """base**e mod modulus by squaring, all low-degree-first tuples over F_p."""
    result = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    """A gcd of a and b over F_p (not made monic: only its degree is read)."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        rem, inv = list(a), pow(b[-1], -1, p)
        for k in range(len(a) - len(b), -1, -1):
            c = rem[k + len(b) - 1] * inv % p
            if c:
                for i, bi in enumerate(b):
                    rem[k + i] = (rem[k + i] - c * bi) % p
        a, b = b, _poly_trim(tuple(rem))
    return a


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test: a monic f of degree m with f(0) != 0 is irreducible iff
    gcd(X^(p^i) - X mod f, f) = 1 for i = 1..m//2, since X^(p^i) - X is the
    product of the monic irreducibles whose degree divides i."""
    m = len(poly) - 1
    if m == 1:
        return True
    if poly[0] == 0:  # divisible by X
        return False
    h = (0, 1) + (0,) * (m - 2)  # X^(p^i) mod f, starting at i = 0
    for _ in range(m // 2):
        h = _poly_powmod(h, p, poly, p)
        if len(_poly_gcd(h[:1] + ((h[1] - 1) % p,) + h[2:], poly, p)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m, coefficients
    compared low-degree-first, by Ben-Or's test on each candidate in order.
    For m >= 2 the scan starts at constant term 1: X divides every candidate
    with constant term 0."""
    constant = range(p) if m == 1 else range(1, p)
    for low in product(constant, *[range(p)] * (m - 1)):
        cand = low + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise NoIrreducibleFound(f"no monic irreducible of degree {m} over F_{p}")


def _digits(value: int, p: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        value, r = divmod(value, p)
        out.append(r)
    return tuple(out)


def _find_generator(p: int, m: int, q: int, modulus) -> int:
    """Smallest-encoded element of multiplicative order q-1."""
    if q == 2:
        return 1
    cofactors = [(q - 1) // f for f in prime_factors(q - 1)]
    one = (1,) + (0,) * (m - 1)
    for cand in range(2, q):
        cd = _digits(cand, p, m)
        if all(_poly_powmod(cd, e, modulus, p) != one for e in cofactors):
            return cand
    raise NoIrreducibleFound(f"no generator found for GF({p}^{m})")  # unreachable


@dataclass(frozen=True, eq=False)
class DigitPacking:
    """Addition tables of GF(p^m) for odd p and m > 1.

    pack(x) is the base-p digits of x packed w = bit_length(2p-1) bits each,
    so the fields of pack(a) + pack(b), and of pack(a) + (fill - pack(b)),
    stay below 2^w without carries.  It splits x by // and % p^k into chunks
    of k digits, as even as possible with p^k <= 2^TABLE_BITS, each gathered
    from digits[j] shifted to its place.  A packed sum is reduced chunk by
    chunk: tables[j] maps the bits of chunk j to its digits mod p, scaled to
    the encoding.  No table exceeds 2^TABLE_BITS entries, or 2^w if larger.
    """

    width: int  # w
    fill: int  # p in every field
    radix: int  # p^k
    digits: tuple[np.ndarray, ...]
    chunk_bits: int
    tables: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, p: int, m: int) -> "DigitPacking":
        w = (2 * p - 1).bit_length()
        if m * w > 62:
            raise InvariantViolated(f"packed digits of GF({p}^{m}) need {m * w} bits, over 62")
        k = next(-(-m // n) for n in range(1, m + 1) if p ** -(-m // n) <= 1 << TABLE_BITS)
        base = np.zeros(1, dtype=np.int64)
        for i in range(k):  # digits of [0, p^(i+1)): digit i major, the lower digits minor
            base = np.add.outer(np.arange(p, dtype=np.int64) << (w * i), base).ravel()
        f = max(1, TABLE_BITS // w)  # fields per reduction chunk
        chunk = np.arange(1 << (f * w), dtype=np.int64)
        reduced = sum((chunk >> (w * i) & ((1 << w) - 1)) % p * p**i for i in range(f))
        digits = tuple(base << (w * k * j) for j in range(-(-m // k)))
        tables = tuple(reduced * p ** (f * j) for j in range(-(-m // f)))
        for t in digits + tables:
            t.setflags(write=False)
        return cls(width=w, fill=sum(p << (w * i) for i in range(m)), radix=p**k, digits=digits,
                   chunk_bits=f * w, tables=tables)

    def pack(self, x, j: int = 0):
        """Packed digits of encodings x, placed as digit chunk j and up."""
        if j == len(self.digits) - 1:
            return self.digits[j][x]
        high = x // self.radix
        return self.digits[j][x - high * self.radix] + self.pack(high, j + 1)

    def reduce(self, s: np.ndarray) -> np.ndarray:
        """Encodings of packed sums s (every field below 2^w)."""
        mask = (1 << self.chunk_bits) - 1
        out = self.tables[0][s & mask]
        for j, t in enumerate(self.tables[1:], 1):
            out += t[(s >> (j * self.chunk_bits)) & mask]
        return out

    def add_packed(self, s, t):  # the encodings of packed s + t
        return self.reduce(s + t)

    def add(self, a, b):
        return self.add_packed(self.pack(a), self.pack(b))

    def neg(self, a):
        return self.reduce(self.fill - self.pack(a))

    def sub(self, a, b):
        return self.add_packed(self.pack(a), self.fill - self.pack(b))


def _build_tables(p: int, m: int, q: int, modulus, generator: int, add, width: int = 1):
    """int32 exp/log tables, the power sequence written in place into one
    q-length exp array.  cols holds the encodings of g^L, g^L X, ...,
    g^L X^(m-1): the columns of the F_p-linear map "multiply by g^L", which
    maps the L powers before each block of L to the block.  L doubles, the
    map squared by applying it to its own columns, until it reaches
    BUILD_BLOCK.  It runs through two chunk tables, of the low ceil(m/2)
    base-p digits and the rest, with digit i of an image at bit width * i:
    ``add`` turns two images into an encoding, by XOR for p = 2 (width 1), by
    reducing their packed sum for odd p.  Prime fields multiply by g^L mod p.

    The log table is one blocked scatter into an array prefilled with -1.  The
    powers are a bijection onto [1, q) iff all lie in [1, q), checked before
    the scatter (a negative index would wrap), and no slot of [1, q) is left
    at -1; slot 0 is then untouched and becomes the sentinel 0."""
    k = -(-m // 2)
    pk = p**k
    powers = p ** np.arange(m, dtype=np.int64)
    weights = np.int64(1) << width * np.arange(m, dtype=np.int64)

    def mapper(cols: np.ndarray):
        if m == 1:
            return lambda x: x * cols[0] % p
        col_digits = cols[:, None] // powers % p
        values = np.arange(pk, dtype=np.int64)[:, None] // powers[:k] % p
        low, high = (values[: p**n, :n] @ col_digits[s: s + n] % p @ weights
                     for s, n in ((0, k), (k, m - k)))

        def apply(x: np.ndarray) -> np.ndarray:
            rest = x // pk
            return add(low[x - rest * pk], high[rest])
        return apply

    gd = _digits(generator, p, m)
    xi = (1,) + (0,) * (m - 1)
    cols = []
    for _ in range(m):
        cols.append(int(np.dot(_poly_mulmod(gd, xi, modulus, p), powers)))
        xi = _poly_mulmod(xi, (0, 1) + (0,) * (m - 2), modulus, p)
    cols = np.array(cols, dtype=np.int64)
    exp_table = np.empty(q, dtype=np.int32)
    exp_table[0] = exp_table[q - 1] = 1
    size = L = 1
    apply = mapper(cols)
    while size < q - 1:
        n = min(L, q - 1 - size)
        exp_table[size: size + n] = apply(exp_table[size - L: size - L + n])
        size += n
        if L < BUILD_BLOCK:
            cols, L = apply(cols), 2 * L
            apply = mapper(cols)
    enc = exp_table[: q - 1]
    log_table = np.full(q, -1, dtype=np.int32)
    if enc.min() >= 1 and enc.max() < q:
        for i in range(0, q - 1, BUILD_BLOCK):
            log_table[enc[i: i + BUILD_BLOCK]] = np.arange(i, min(i + BUILD_BLOCK, q - 1),
                                                           dtype=np.int32)
    if log_table[1:].min() < 0:
        raise NoIrreducibleFound("generator power table is not a bijection (construction bug)")
    log_table[0] = 0
    exp_table.setflags(write=False)
    log_table.setflags(write=False)
    return exp_table, log_table


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A concrete GF(p^m) with fixed modulus and precomputed exp/log tables.

    Addition is mod p in prime fields, XOR for p = 2 and, for every other
    field, one integer addition of digits packed and reduced through the
    small tables of ``packing``: a field's only q-length arrays are its two
    int32 tables.  Scalar add, neg and sub are the array operations on single
    encodings; mul, div, inv and pow keep scalar forms, several times faster
    on one element than the array forms.
    Immutable after construction; every operation below is pure, so a spec
    can be shared freely across threads.
    """

    p: int
    m: int
    q: int
    modulus: tuple[int, ...]  # monic, low-degree-first, length m+1
    generator: int
    exp_table: np.ndarray  # int32, exp_table[k] = generator^k, period q-1, length q
    log_table: np.ndarray  # int32, log_table[x] for x in [1, q); index 0 is a sentinel
    packing: DigitPacking | None = None  # odd p and m > 1 only
    _derived: dict = field(default_factory=dict, repr=False)

    @property
    def descriptor(self) -> str:
        return f"{self.p}^{self.m}"

    def __repr__(self) -> str:  # keep the tables out of reprs
        return f"FieldSpec({self.descriptor}, modulus={self.modulus}, g={self.generator})"

    # -- scalar operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_arr(a, b))

    def neg(self, a: int) -> int:
        return int(self.neg_arr(a))

    def sub(self, a: int, b: int) -> int:
        return int(self.sub_arr(a, b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[(int(self.log_table[a]) + int(self.log_table[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.exp_table[(-int(self.log_table[a])) % (self.q - 1)])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by 0")
        if a == 0:
            return 0
        return int(self.exp_table[(int(self.log_table[a]) - int(self.log_table[b])) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        """a**e with the exponent reduced mod q-1 for nonzero a."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of 0")
            return 0
        return int(self.exp_table[(int(self.log_table[a]) * e) % (self.q - 1)])

    # -- vectorized operations on int64 arrays (add, neg, sub: or ints) ----
    # Results are int64, though the tables they read are int32.

    def add_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.packing.add(a, b)

    def neg_arr(self, a: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a ^ 0  # a copy that keeps an int an int
        return self.packing.neg(a)

    def sub_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.packing is None:
            return self.add_arr(a, self.neg_arr(b))
        return self.packing.sub(a, b)

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        zero = (a == 0) | (b == 0)
        lg = (self.log_table[a] + self.log_table[b]) % (self.q - 1)
        return np.where(zero, np.int64(0), self.exp_table[lg])

    def inv_arr(self, a: np.ndarray) -> np.ndarray:
        if np.any(a == 0):
            raise DivisionByZero("inverse of 0")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)].astype(np.int64)

    def div_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if np.any(b == 0):
            raise DivisionByZero("division by 0")
        lg = (self.log_table[a] - self.log_table[b]) % (self.q - 1)
        return np.where(a == 0, np.int64(0), self.exp_table[lg])

    def pow_arr(self, a: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            return self.inv_arr(self.pow_arr(a, -e))
        # e is reduced first: log * e could pass 2^63 (or e alone not fit int64)
        lg = self.log_table[a] * np.int64(e % (self.q - 1)) % (self.q - 1)
        out = np.where(a == 0, np.int64(0), self.exp_table[lg])
        if e == 0:
            out = np.where(a == 0, 1, out)
        return out

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "p": self.p,
            "m": self.m,
            "q": self.q,
            "modulus": list(self.modulus),
            "generator": self.generator,
        }


@dataclass(frozen=True, eq=False)
class SubfieldHandle:
    """The subfield of p^d elements: 0 and the powers of generator^((q-1)/(p^d-1)).

    A handle holds only d and its field.  Its size is p^d, and its element
    set is built the first time ``elements`` is read, then kept; until then
    the handle holds no array of the subfield's size or of the field's."""

    d: int
    is_proper: bool
    spec: FieldSpec = field(repr=False)

    @property
    def size(self) -> int:
        return self.spec.p**self.d

    @cached_property
    def elements(self) -> "FqSet":  # noqa: F821 - set_algebra imports this module
        from .set_algebra import FqSet  # deferred: set_algebra depends on this module

        spec = self.spec
        powers = np.sort(spec.exp_table[: spec.q - 1 : (spec.q - 1) // (self.size - 1)])
        return FqSet._from_sorted(spec, np.concatenate(([0], powers)))


_FIELD_CACHE: dict[tuple[int, int, int], FieldSpec] = {}


def build_field(p: int, m: int) -> FieldSpec:
    """Deterministic GF(p^m): lexicographically smallest monic irreducible
    modulus and the smallest-encoded primitive element as generator."""
    cap = field_cap()
    key = (p, m, cap)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    if m < 1:
        raise DegreeZero(f"extension degree must be >= 1, got {_clip(str(m))}")
    # refused before is_prime or p**m can run long; no message formats q
    if p > cap:
        raise FieldTooLarge(f"the characteristic p exceeds cap {cap}")
    if not is_prime(p):
        raise NotPrime(f"{_clip(str(p))} is not prime")
    bits = cap.bit_length()
    if m >= bits or p**m > cap:  # p >= 2, so m >= bits alone puts q over the cap
        raise FieldTooLarge(f"q = {p}^{m} exceeds cap {cap}" if m <= bits
                            else f"q = {p}^m exceeds cap {cap} for every m >= {bits}")
    q = p**m
    modulus = _smallest_irreducible(p, m)
    generator = _find_generator(p, m, q, modulus)
    packing = DigitPacking.build(p, m) if p > 2 and m > 1 else None
    add, width = (np.bitwise_xor, 1) if packing is None else (packing.add_packed, packing.width)
    exp_table, log_table = _build_tables(p, m, q, modulus, generator, add, width)
    spec = FieldSpec(p=p, m=m, q=q, modulus=modulus, generator=generator,
                     exp_table=exp_table, log_table=log_table, packing=packing)
    _FIELD_CACHE[key] = spec
    return spec


def parse_descriptor(text: str) -> FieldSpec:
    """Build the field named by a descriptor like "7" or "3^2"."""
    p_str, caret, m_str = text.strip().partition("^")
    try:
        p, m = _descriptor_int(p_str), _descriptor_int(m_str) if caret else 1
    except ValueError:
        raise MalformedDescriptor(
            f"expected a field like 7 or 3^2, got {_clip(repr(text))}") from None
    return build_field(p, m)


def _descriptor_int(token: str) -> int:
    """int(token), except that a decimal with more digits than the largest
    cap, which int() refuses past 4300 digits, reads as MAX_CAP + 1:
    build_field reports that p or m as over the cap either way, in the same
    words."""
    digits = token.strip().removeprefix("+").lstrip("0")
    if digits.isdecimal() and len(digits) > len(str(MAX_CAP)):
        return MAX_CAP + 1
    return int(token)


def _clip(text: str) -> str:
    """text for an error message, cut to ECHO_CHARS characters."""
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def _scalar(value, what: str, q: int | None = None, nonzero: bool = False) -> int:
    """value as a Python int; a bool or a non-integer is MalformedLiteral, as
    in FqSet.from_iterable.  With q it is an encoding: with ``nonzero`` a
    multiple of q is ZeroShift first, then one outside [0, q) ElementOutOfRange."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise MalformedLiteral(f"{what} must be an integer, got {_clip(repr(value))}")
    if q is not None:
        if nonzero and value % q == 0:
            raise ZeroShift(f"{what} must be nonzero")
        if not 0 <= value < q:
            raise ElementOutOfRange(f"{what} {_clip(str(value))} out of range [0, {q})")
    return int(value)


def arith(spec: FieldSpec, op: str, a: int, b: int | None = None) -> int:
    """Dispatch a single field operation; operands are validated encodings."""
    if op not in ARITH_OPS:
        raise ValueError(f"unknown op {op!r}, expected one of {ARITH_OPS}")
    a = _scalar(a, "operand", spec.q)
    unary = op in ("neg", "inv")
    if not unary:
        if b is None:
            raise ValueError(f"op {op!r} needs a second operand")
        b = _scalar(b, "operand", None if op == "pow" else spec.q)  # any integer exponent
    return getattr(spec, op)(a) if unary else getattr(spec, op)(a, b)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_subfields(spec: FieldSpec) -> list[SubfieldHandle]:
    """One handle per divisor d of m (ascending), cached on the spec; a
    handle builds its element set, {0} and the powers of g^s with
    s = (q-1)/(p^d-1), only when asked for it.  The powers need no check
    beyond the power table's bijection: the stride gives p^d - 1 distinct
    powers, and each is fixed by x -> x^(p^d), as g^(ks p^d) =
    g^(ks) g^(ks(p^d-1)) and s(p^d-1) = q-1."""
    cached = spec._derived.get("subfields")
    if cached is None:
        cached = spec._derived["subfields"] = [
            SubfieldHandle(d=d, is_proper=d < spec.m, spec=spec) for d in divisors(spec.m)]
    return cached


def proper_subfields(spec: FieldSpec) -> list[SubfieldHandle]:
    return [h for h in enumerate_subfields(spec) if h.is_proper]


def same_field(a: FieldSpec, b: FieldSpec) -> bool:
    return a is b or (a.p == b.p and a.m == b.m and a.modulus == b.modulus)


def coset_representatives(spec: FieldSpec, G: SubfieldHandle) -> np.ndarray:
    """Smallest-encoded representative of each distinct dilate cG, c in F_q^*,
    as a cached, read-only, sorted int32 array.

    The dilates correspond to cosets of G^* in the cyclic group F_q^*, so there
    are exactly (q-1)/(|G|-1) of them and their union covers F_q.  Each coset's
    minimum is written into the array of that length, which is then sorted in
    place: no other array of its length is made.
    """
    if not same_field(spec, G.spec):
        raise MixedFields(f"{spec.descriptor} vs a subfield of {G.spec.descriptor}")
    if not G.is_proper:
        raise NotProperSubfield(f"subfield of size {G.size} is the whole field")
    cache = spec._derived.setdefault("coset_reps", {})
    if G.d not in cache:
        # column i of this exp-table view is coset i: the x != 0 with log x = i mod (q-1)/(|G|-1)
        columns = spec.exp_table[: spec.q - 1].reshape(G.size - 1, -1)
        reps = np.empty(columns.shape[1], dtype=np.int32)
        columns.min(axis=0, out=reps)
        reps.sort()
        reps.flags.writeable = False
        cache[G.d] = reps
    return cache[G.d]
