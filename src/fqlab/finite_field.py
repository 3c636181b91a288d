"""Exact arithmetic in GF(p^m), its subfield lattice, and multiplicative cosets.

Elements are encoded as integers in [0, q): the base-p digits of the encoding
are the coefficients of the residue polynomial (digit i = coefficient of X^i),
so prime fields encode elements as themselves.  Multiplication runs on full
discrete exp/log tables with respect to a fixed generator; the O(q) table
memory is what the construction cap is for.

Addition is digit-wise mod p.  Prime fields add mod p and p = 2 adds by XOR.
Every other field adds through a ``DigitPacking``: a q-length table of packed
digits, so that one integer addition adds all m digits at once, and 2-3
lookups in small tables that reduce each digit mod p and unpack the sum.

The exp table is the power sequence of the generator, built by doubling:
"multiply by g^L" is F_p-linear, so it is applied to the first L powers
through chunk tables over a few base-p digits of the encoding, whose images
are combined with the field addition.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import (
    DegreeZero,
    DivisionByZero,
    FieldTooLarge,
    InvalidCap,
    InvariantViolated,
    MalformedDescriptor,
    NoIrreducibleFound,
    NotPrime,
    NotProperSubfield,
)

DEFAULT_CAP = 1 << 20
CAP_ENV_VAR = "FQLAB_CAP"

ARITH_OPS = ("add", "sub", "mul", "div", "neg", "inv", "pow")
TABLE_BITS = 12  # index bits of a chunk table (one digit or packed field may need more)


def field_cap() -> int:
    """Current construction cap on q (env override must be a power of two <= 2^24)."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: rejected with the rest below
    if cap < 2 or cap > (1 << 24) or cap & (cap - 1):
        raise InvalidCap(f"{CAP_ENV_VAR} must be a power of two <= 2^24, got {raw!r}")
    return cap


def is_prime(n: int) -> bool:
    """Deterministic trial division; enough for p below the construction cap."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


def _poly_divisible(num, den, p):
    """True if den divides num over F_p (den monic, low-degree-first)."""
    rem = list(num)
    dd = len(den) - 1
    while len(_poly_trim(tuple(rem))) - 1 >= dd:
        rem = list(_poly_trim(tuple(rem)))
        lead = rem[-1]
        shift = len(rem) - 1 - dd
        for i in range(dd + 1):
            rem[shift + i] = (rem[shift + i] - lead * den[i]) % p
    return not _poly_trim(tuple(rem))


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(poly)/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by X
        return False
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            if _poly_divisible(poly, low + (1,), p):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m, coefficients
    compared low-degree-first.  For m >= 2 the scan starts at constant term 1:
    X divides every candidate with constant term 0."""
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
    factors = prime_factors(q - 1)
    cofactors = [(q - 1) // f for f in factors]

    def powmod(base_digits, e):
        result = (1,) + (0,) * (m - 1)
        cur = base_digits
        while e:
            if e & 1:
                result = _poly_mulmod(result, cur, modulus, p)
            cur = _poly_mulmod(cur, cur, modulus, p)
            e >>= 1
        return result

    one = (1,) + (0,) * (m - 1)
    for cand in range(2, q):
        cd = _digits(cand, p, m)
        if all(powmod(cd, e) != one for e in cofactors):
            return cand
    raise NoIrreducibleFound(f"no generator found for GF({p}^{m})")  # unreachable


@dataclass(frozen=True, eq=False)
class DigitPacking:
    """Addition tables of GF(p^m) for odd p and m > 1.

    digits[x] holds the base-p digits of x packed w = bit_length(2p-1) bits
    each, so the fields of digits[a] + digits[b], and of digits[a] + (fill -
    digits[b]) with p in every field of fill, stay below 2^w without carries.
    A packed sum is reduced chunk by chunk: tables[j] maps the bits of chunk j
    to its digits mod p, already scaled to the encoding.  ``reduce`` is the one
    reduction path: it takes an array or a single packed sum alike.
    """

    digits: np.ndarray  # length q, read-only
    fill: int  # p in every w-bit field
    chunk_bits: int
    tables: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, p: int, m: int) -> "DigitPacking":
        w = (2 * p - 1).bit_length()
        if m * w > 62:
            raise InvariantViolated(f"packed digits of GF({p}^{m}) need {m * w} bits, over 62")
        digits = np.zeros(1, dtype=np.int64)
        for i in range(m):  # digits of [0, p^(i+1)): digit i major, the lower digits minor
            digits = np.add.outer(np.arange(p, dtype=np.int64) << (w * i), digits).ravel()
        digits.setflags(write=False)
        k = max(1, TABLE_BITS // w)  # fields per chunk
        chunk = np.arange(1 << (k * w), dtype=np.int64)
        base = sum((chunk >> (w * i) & ((1 << w) - 1)) % p * p**i for i in range(k))
        tables = tuple(base * p ** (k * j) for j in range(-(-m // k)))
        for t in tables:
            t.setflags(write=False)
        return cls(digits=digits, fill=sum(p << (w * i) for i in range(m)), chunk_bits=k * w,
                   tables=tables)

    def reduce(self, s: np.ndarray) -> np.ndarray:
        """Encodings of packed sums s (every field below 2^w)."""
        mask = (1 << self.chunk_bits) - 1
        out = self.tables[0][s & mask]
        for j, t in enumerate(self.tables[1:], 1):
            out += t[(s >> (j * self.chunk_bits)) & mask]
        return out

    def add(self, a, b):
        return self.reduce(self.digits[a] + self.digits[b])


def _build_tables(p: int, m: int, q: int, modulus, generator: int, add):
    """exp/log tables by repeated doubling of the power sequence.  cols holds
    the encodings of g^L, g^L X, ..., g^L X^(m-1): the columns of the
    F_p-linear map "multiply by g^L", L the current length.  The map is
    applied through chunk tables over k base-p digits whose images are
    combined by ``add``, and squared by applying it to its own columns.  The
    tables are rebuilt at every doubling, so k is at most half the digits
    (and p^k <= 2^TABLE_BITS): two tables of about sqrt(q) entries where
    they fit.  Prime fields multiply by g^L mod p instead."""
    k = 1
    while 2 * k < m and p ** (k + 1) <= 1 << TABLE_BITS:
        k += 1
    starts = range(0, m, k)
    powers = p ** np.arange(m, dtype=np.int64)

    def mapper(cols: np.ndarray):
        if m == 1:
            return lambda x: x * cols[0] % p
        col_digits = cols[:, None] // powers % p
        tables = []
        for s in starts:  # the last chunk may have fewer than k digits
            n = min(k, m - s)
            values = np.arange(p**n, dtype=np.int64)[:, None] // powers[:n] % p
            tables.append(values @ col_digits[s: s + n] % p @ powers)

        def apply(x: np.ndarray) -> np.ndarray:
            out = tables[0][x % p**k]
            for s, t in zip(starts[1:], tables[1:]):
                out = add(out, t[x // p**s % p**k])
            return out
        return apply

    gd = _digits(generator, p, m)
    xi = (1,) + (0,) * (m - 1)
    cols = []
    for _ in range(m):
        cols.append(int(np.dot(_poly_mulmod(gd, xi, modulus, p), powers)))
        xi = _poly_mulmod(xi, (0, 1) + (0,) * (m - 2), modulus, p)
    cols = np.array(cols, dtype=np.int64)
    enc = np.ones(1, dtype=np.int64)
    while enc.size < q - 1:
        apply = mapper(cols)
        enc = np.concatenate([enc, apply(enc[: q - 1 - enc.size])])
        cols = apply(cols)
    hits = np.bincount(enc, minlength=q)
    if hits.size != q or not (hits[1:] == 1).all():
        raise NoIrreducibleFound("generator power table is not a bijection (construction bug)")
    exp_table = np.concatenate([enc, np.array([1], dtype=np.int64)])
    log_table = np.zeros(q, dtype=np.int64)
    log_table[enc] = np.arange(q - 1, dtype=np.int64)
    exp_table.setflags(write=False)
    log_table.setflags(write=False)
    return exp_table, log_table


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """A concrete GF(p^m) with fixed modulus and precomputed exp/log tables.

    Addition is mod p in prime fields, XOR for p = 2 and, for every other
    field, one integer addition of packed digits reduced through the small
    tables of ``packing`` (subtraction adds ``packing.fill - digits[b]``, so
    no negation table is needed).  Scalar add, neg and sub are the array
    operations on single encodings; mul, div, inv and pow keep scalar forms,
    which are several times faster on one element than the array forms.
    Immutable after construction; every operation below is pure, so a spec
    can be shared freely across threads.
    """

    p: int
    m: int
    q: int
    modulus: tuple[int, ...]  # monic, low-degree-first, length m+1
    generator: int
    exp_table: np.ndarray  # exp_table[k] = generator^k, period q-1, length q
    log_table: np.ndarray  # log_table[x] for x in [1, q); index 0 is a sentinel
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
        pk = self.packing
        return pk.reduce(pk.fill - pk.digits[a])

    def sub_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        pk = self.packing
        if pk is None:
            return self.add_arr(a, self.neg_arr(b))
        return pk.reduce(pk.digits[a] + (pk.fill - pk.digits[b]))

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        zero = (a == 0) | (b == 0)
        lg = (self.log_table[a] + self.log_table[b]) % (self.q - 1)
        return np.where(zero, 0, self.exp_table[lg])

    def inv_arr(self, a: np.ndarray) -> np.ndarray:
        if np.any(a == 0):
            raise DivisionByZero("inverse of 0")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def div_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if np.any(b == 0):
            raise DivisionByZero("division by 0")
        lg = (self.log_table[a] - self.log_table[b]) % (self.q - 1)
        return np.where(a == 0, 0, self.exp_table[lg])

    def pow_arr(self, a: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            return self.inv_arr(self.pow_arr(a, -e))
        lg = (self.log_table[a] * e) % (self.q - 1)
        out = np.where(a == 0, 0, self.exp_table[lg])
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
    """The subfield of p^d elements: 0 and the powers of generator^((q-1)/(p^d-1))."""

    d: int
    elements: "FqSet"  # noqa: F821 - set_algebra imports this module
    is_proper: bool

    @property
    def size(self) -> int:
        return len(self.elements)


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
        raise DegreeZero(f"extension degree must be >= 1, got {m}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    q = p**m
    if q > cap:
        raise FieldTooLarge(f"q = {p}^{m} = {q} exceeds cap {cap}")
    modulus = _smallest_irreducible(p, m)
    generator = _find_generator(p, m, q, modulus)
    packing = DigitPacking.build(p, m) if p > 2 and m > 1 else None
    exp_table, log_table = _build_tables(p, m, q, modulus, generator,
                                         np.bitwise_xor if packing is None else packing.add)
    spec = FieldSpec(p=p, m=m, q=q, modulus=modulus, generator=generator,
                     exp_table=exp_table, log_table=log_table, packing=packing)
    _FIELD_CACHE[key] = spec
    return spec


def parse_descriptor(text: str) -> FieldSpec:
    """Build the field named by a descriptor like "7" or "3^2"."""
    p_str, caret, m_str = text.strip().partition("^")
    try:
        p, m = int(p_str), int(m_str) if caret else 1
    except ValueError:
        raise MalformedDescriptor(f"expected a field like 7 or 3^2, got {text!r}") from None
    return build_field(p, m)


def arith(spec: FieldSpec, op: str, a: int, b: int | None = None) -> int:
    """Dispatch a single field operation; operands are validated encodings."""
    if op not in ARITH_OPS:
        raise ValueError(f"unknown op {op!r}, expected one of {ARITH_OPS}")
    if not 0 <= a < spec.q:
        raise ValueError(f"operand {a} out of range [0, {spec.q})")
    unary = op in ("neg", "inv")
    if not unary:
        if b is None:
            raise ValueError(f"op {op!r} needs a second operand")
        if op != "pow" and not 0 <= b < spec.q:
            raise ValueError(f"operand {b} out of range [0, {spec.q})")
    return getattr(spec, op)(a) if unary else getattr(spec, op)(a, b)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_subfields(spec: FieldSpec) -> list[SubfieldHandle]:
    """One handle per divisor d of m (ascending): {0} and the powers of
    generator^((q-1)/(p^d-1))."""
    cached = spec._derived.get("subfields")
    if cached is not None:
        return cached
    from .set_algebra import FqSet  # deferred: set_algebra depends on this module

    handles = []
    for d in divisors(spec.m):
        size = spec.p**d
        bitmask = np.zeros(spec.q, dtype=bool)
        bitmask[spec.exp_table[: spec.q - 1 : (spec.q - 1) // (size - 1)]] = True
        bitmask[0] = True
        elements = FqSet._from_bitmask(spec, bitmask)
        members = elements.members
        if members.size != size or not (spec.pow_arr(members, size) == members).all():
            raise NoIrreducibleFound("subfield is not fixed by x -> x^(p^d) (construction bug)")
        handles.append(SubfieldHandle(d=d, elements=elements, is_proper=d < spec.m))
    spec._derived["subfields"] = handles
    return handles


def proper_subfields(spec: FieldSpec) -> list[SubfieldHandle]:
    return [h for h in enumerate_subfields(spec) if h.is_proper]


def coset_representatives(spec: FieldSpec, G: SubfieldHandle) -> np.ndarray:
    """Smallest-encoded representative of each distinct dilate cG, c in F_q^*,
    as a cached, read-only, sorted int64 array.

    The dilates correspond to cosets of G^* in the cyclic group F_q^*, so there
    are exactly (q-1)/(|G|-1) of them and their union covers F_q.
    """
    if not G.is_proper:
        raise NotProperSubfield(f"subfield of size {G.size} is the whole field")
    cache = spec._derived.setdefault("coset_reps", {})
    if G.d not in cache:
        # column i of this exp-table view is coset i: the x != 0 with log x = i mod (q-1)/(|G|-1)
        columns = spec.exp_table[: spec.q - 1].reshape(G.size - 1, -1)
        cache[G.d] = np.sort(columns.min(axis=0))
        cache[G.d].flags.writeable = False
    return cache[G.d]
