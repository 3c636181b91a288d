"""Executable verdicts for the combinatorial lemmas the library is built on.

Constant-free statements (cardinality identities, Cauchy-Schwarz, sumset
triangle inequalities) are asserted outright and report ExactPass or Fail;
existence statements are resolved by explicit witness search (WitnessFound);
statements with an unknowable implied constant are measured and reported as
MeasuredRatio so the constants can be studied empirically.  The subset
searches are the proof trace's refinement stages, run from `decompositions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    EmptySet,
    NotApplicable,
    NotSubsets,
    SetTooSmall,
    ZeroElement,
    ZeroInSet,
)
from .decompositions import (
    _plunnecke_terms,
    covering_number,
    dyadic_energy_slice,
    points_certificates,
    popular_points,
    popularity_subset,
    refine_stage,
    shift_stage,
    slice_certificates,
)
from .finite_field import FieldSpec, enumerate_subfields, parse_descriptor
from .set_algebra import (
    SET_OPS,
    FqSet,
    _batches,
    _require_same_field,
    _row_sizes,
    _sum_of_squares,
    additive_energy,
    dilate,
    intersection_shift_counts,
    multiplicative_energy,
    quotient_closure_failure,
    quotient_set,
    representation_spectrum,
    set_op,
    set_op_size,
    translate,
)

EXACT_PASS = "ExactPass"
WITNESS_FOUND = "WitnessFound"
MEASURED = "MeasuredRatio"
FAIL = "Fail"


@dataclass(frozen=True)
class LemmaReport:
    """Machine-readable verdict for one lemma on one instance.

    ExactPass/Fail are reserved for constant-free statements, MeasuredRatio
    for statements whose implied constant the library cannot know.
    """

    lemma_id: str
    instance: dict
    verdict: str
    value: float | None = None
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "instance": self.instance,
            "verdict": self.verdict,
            "value": self.value,
            "witness": self.witness,
        }


def _instance(spec: FieldSpec, **sets) -> dict:
    out = {"field": spec.descriptor}
    for name, val in sets.items():
        if isinstance(val, FqSet):
            out[name] = val.to_literal()
        elif isinstance(val, (list, tuple)):
            out[name] = [s.to_literal() if isinstance(s, FqSet) else s for s in val]
        else:
            out[name] = val
    return out


def _report(lemma_id, instance, verdict, value=None, witness=None):
    return LemmaReport(lemma_id=lemma_id, instance=instance, verdict=verdict,
                       value=None if value is None else float(value), witness=witness)


# ---------------------------------------------------------------------------
# quotient-set lemmas
# ---------------------------------------------------------------------------


def check_rbcard(X: FqSet, r: int, X1: FqSet, X2: FqSet) -> LemmaReport:
    """|X1 - r*X2| = |X1||X2| whenever r avoids the quotient set of X."""
    if len(X1) == 0 or len(X2) == 0 or not (X1.is_subset(X) and X2.is_subset(X)):
        raise NotSubsets("X1, X2 must be nonempty subsets of X")
    if r % X.spec.q == 0:
        raise ZeroElement("r must be nonzero")
    inst = _instance(X.spec, X=X, X1=X1, X2=X2, r=int(r))
    in_quotient = len(X) >= 2 and r in quotient_set(X)
    size = set_op_size(X1, dilate(X2, r), "diff")
    product = len(X1) * len(X2)
    if not in_quotient:
        verdict = EXACT_PASS if size == product else FAIL
        return _report("rbcard", inst, verdict,
                       witness={"size": size, "product": product})
    collision = _first_collision(X1, X2, r)
    if collision is None:
        return _report("rbcard", inst, EXACT_PASS,
                       witness={"size": size, "product": product,
                                "r_in_quotient": True})
    return _report("rbcard", inst, WITNESS_FOUND,
                   witness={"size": size, "product": product,
                            "collision": collision})


def _first_collision(X1: FqSet, X2: FqSet, r: int):
    """The first value of x1 - r*x2 to repeat over X1 x X2 in row-major order:
    {"first": the pair where it first occurred, "second": the pair repeating
    it}, or None when all |X1||X2| values differ.  The first repeat of a
    prefix of rows is the grid's, so the prefix doubles until one repeats:
    the work is under four times the rows the answer needs."""
    spec = X1.spec
    scaled = spec.mul_arr(np.int64(r), X2.members)
    rows = 1
    while True:
        values = spec.sub_arr(X1.members[:rows, None], scaled[None, :]).ravel()
        _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
        repeats = np.flatnonzero(first[inverse] != np.arange(values.size))
        if repeats.size:
            break
        if rows >= len(X1):
            return None
        rows *= 2
    i, j = np.divmod([first[inverse[repeats[0]]], repeats[0]], len(X2))
    earlier, later = zip(X1.members[i].tolist(), X2.members[j].tolist())
    return {"first": earlier, "second": later}


def check_rbfq(X: FqSet) -> LemmaReport:
    """|X| > sqrt(q) forces the quotient set of X to be the whole field."""
    if len(X) < 2:
        raise SetTooSmall("need |X| >= 2")
    q = X.spec.q
    R = quotient_set(X)
    inst = _instance(X.spec, X=X)
    if len(X) ** 2 > q:
        return _report("rbfq", inst, EXACT_PASS if len(R) == q else FAIL,
                       witness={"quotient_size": len(R)})
    return _report("rbfq", inst, MEASURED, value=Fraction(len(R), q),
                   witness={"quotient_size": len(R)})


def check_quotient_subfield(X: FqSet) -> LemmaReport:
    """If 1 + R(X) and X*R(X) both stay inside R(X), then R(X) is exactly the
    smallest subfield containing X normalized by its smallest nonzero element."""
    if len(X) < 2:
        raise SetTooSmall("need |X| >= 2")
    spec = X.spec
    R = quotient_set(X)
    inst = _instance(spec, X=X)

    failure = quotient_closure_failure(R, X.members)
    if failure is not None:
        i, j = failure
        rho = int(R.members[j])
        if i is None:
            witness = {"hypothesis": "1+R", "violator": rho}
        else:
            x = int(X.members[i])
            witness = {"hypothesis": "X*R", "violator": spec.mul(x, rho), "x": x, "rho": rho}
        return _report("quotient_subfield", inst, WITNESS_FOUND, witness=witness)

    closed = _closed_under_field_ops(R)
    x0 = int(X.members[X.members != 0][0])
    scaled = dilate(X, spec.inv(x0))
    generated = _generated_subfield(scaled)
    ok = closed and np.array_equal(R.members, generated)
    return _report("quotient_subfield", inst, EXACT_PASS if ok else FAIL,
                   witness={"quotient_size": len(R), "closed": closed,
                            "generated_size": int(generated.size)})


def _closed_under_field_ops(R: FqSet) -> bool:
    nonzero = R.nonzero()
    return all(set_op(R, nonzero if kind == "ratio" else R, kind).is_subset(R)
               for kind in SET_OPS)


def _generated_subfield(S: FqSet) -> np.ndarray:
    """Elements of the intersection of all subfields containing S: the first
    of them in ascending degree.  The subfields containing S are closed under
    intersection, since GF(p^a) ∩ GF(p^b) = GF(p^gcd(a,b)), so the smallest
    one lies inside every other."""
    return next(h.elements.members for h in enumerate_subfields(S.spec)
                if len(S) <= h.size and S.is_subset(h.elements))


# ---------------------------------------------------------------------------
# pivot lemmas
# ---------------------------------------------------------------------------


def _dilated_sumset_sizes(X: FqSet, Y: FqSet, cs: np.ndarray) -> np.ndarray:
    """|X + c*Y| for every c in cs.  The candidates are scored in
    ``_batches`` of |X||Y| cells each, one row of sums a candidate, its
    distinct values counted by ``_row_sizes``, so the cost is O(|X||Y| log)
    per candidate, not O(q)."""
    spec = X.spec
    sizes = np.empty(cs.size, dtype=np.int64)
    for batch in _batches(cs.size, len(X) * len(Y)):
        c = cs[batch.start:batch.stop]
        dilates = spec.mul_arr(c[:, None], Y.members[None, :])
        sums = spec.add_arr(X.members[None, :, None], dilates[:, None, :])
        sizes[batch.start:batch.stop] = _row_sizes(sums.reshape(c.size, -1))
    return sizes


PIVOT_THRESHOLD = Fraction(1, 2)  # find_pivot_r needs |R(X)| >= this * |X|^2
PIVOT_SAMPLES = 20  # subsets find_pivot_r draws when |X| > 10


def find_pivot_r(X: FqSet) -> LemmaReport:
    """Search for r in R(X) keeping |X' + r*X'| large over large subsets X'.

    Applies only when the quotient set is quadratically large (>= PIVOT_THRESHOLD * |X|^2);
    the subset sweep is exhaustive at >= 3|X|/4 for |X| <= 10, and takes
    PIVOT_SAMPLES seeded draws above.
    """
    if len(X) < 2:
        raise SetTooSmall("need |X| >= 2")
    R = quotient_set(X)
    n = len(X)
    if len(R) < PIVOT_THRESHOLD * n * n:
        raise NotApplicable(f"|R(X)| = {len(R)} below {PIVOT_THRESHOLD} * |X|^2")
    floor = max(1, math.ceil(Fraction(3 * n, 4)))
    spec = X.spec
    if n <= 10:
        subsets = [FqSet.from_iterable(spec, c) for c in combinations(X.members.tolist(), floor)]
    else:
        rng = np.random.default_rng([0, n, spec.q])
        subsets = [FqSet.from_iterable(spec, rng.choice(X.members, size=floor, replace=False))
                   for _ in range(PIVOT_SAMPLES)]
    worst = _dilated_sumset_sizes(subsets[0], subsets[0], R.members)
    for sub in subsets[1:]:
        np.minimum(worst, _dilated_sumset_sizes(sub, sub, R.members), out=worst)
    best = int(np.argmax(worst))  # the first maximiser, in ascending r
    best_r, best_min = int(R.members[best]), int(worst[best])
    inst = _instance(spec, X=X)
    return _report("pivot", inst, MEASURED, value=Fraction(best_min, n * n),
                   witness={"r": best_r, "min_sumset": best_min,
                            "subset_size": floor})


def find_pivot_xi(X1: FqSet, X2: FqSet) -> LemmaReport:
    """Exhaust xi over the nonzero field elements; some |X1 + xi*X2| always
    reaches |X1||X2|(q-1) / (|X1||X2| + q - 1), an exact unconditional bound."""
    _require_same_field(X1, X2)
    if len(X1) == 0 or len(X2) == 0:
        raise EmptySet("both sets must be nonempty")
    spec = X1.spec
    q = spec.q
    sizes = _dilated_sumset_sizes(X1, X2, np.arange(1, q, dtype=np.int64))
    best_xi = 1 + int(np.argmax(sizes))  # the first maximiser, in ascending xi
    best = int(sizes[best_xi - 1])
    bound = Fraction(len(X1) * len(X2) * (q - 1), len(X1) * len(X2) + q - 1)
    verdict = WITNESS_FOUND if best >= bound else FAIL
    inst = _instance(spec, X1=X1, X2=X2)
    return _report("bou_glib_pivot", inst, verdict,
                   witness={"xi": best_xi, "max_sumset": best,
                            "bound": f"{bound.numerator}/{bound.denominator}"})


# ---------------------------------------------------------------------------
# sumset calculus
# ---------------------------------------------------------------------------


def check_ruzsa_triangle(X: FqSet, B1: FqSet, B2: FqSet) -> LemmaReport:
    """|X||B1 - B2| <= |X + B1||X + B2|, compared exactly.  The sumset
    inequalities are constant-free: a Fail signals an implementation bug, not
    a mathematical failure."""
    if not (len(X) and len(B1) and len(B2)):
        raise EmptySet("all sets must be nonempty")
    lhs = set_op_size(B1, B2, "diff") * len(X)
    rhs = set_op_size(X, B1, "sum") * set_op_size(X, B2, "sum")
    inst = _instance(X.spec, X=X, Bs=[B1, B2], kind="RuzsaTriangle")
    return _report("ruzsa_triangle", inst, EXACT_PASS if lhs <= rhs else FAIL,
                   witness={"lhs": lhs, "rhs": rhs})


def check_plunnecke(X: FqSet, Bs: list[FqSet]) -> LemmaReport:
    """|B1 + ... + Bk| |X|^(k-1) <= |X + B1| ... |X + Bk|, compared exactly."""
    total, rhs = _plunnecke_terms(X, Bs)
    lhs = len(total) * len(X) ** (len(Bs) - 1)
    inst = _instance(X.spec, X=X, Bs=Bs, kind="Plunnecke")
    return _report("plunnecke", inst, EXACT_PASS if lhs <= rhs else FAIL,
                   witness={"lhs": lhs, "rhs": rhs, "k": len(Bs)})


def check_ratio_to_shift(A: FqSet) -> LemmaReport:
    """|A/A||A| <= |A(A+1)|^2 for A avoiding 0, compared exactly."""
    if len(A) == 0:
        raise EmptySet("A must be nonempty")
    if 0 in A:
        raise ZeroInSet("A must avoid 0")
    lhs = set_op_size(A, A, "ratio") * len(A)
    rhs = set_op_size(A, translate(A, 1), "prod") ** 2
    inst = _instance(A.spec, A=A, kind="RatioToShift")
    return _report("ratio_to_shift", inst, EXACT_PASS if lhs <= rhs else FAIL,
                   witness={"lhs": lhs, "rhs": rhs})


def refined_plunnecke_subset(X: FqSet, Bs: list[FqSet], eps) -> LemmaReport:
    """X' of proportion >= 1-eps minimizing |X' + S|, S = B1 + ... + Bk, found
    by `decompositions.refine_stage`; the ratio against the product bound is
    reported, never asserted (its constant depends on eps)."""
    eps = Fraction(eps)
    subset, size, ratio = refine_stage(X, Bs, eps)
    inst = _instance(X.spec, X=X, Bs=Bs, eps=f"{eps.numerator}/{eps.denominator}")
    return _report("plunnecke_refined", inst, MEASURED, value=ratio,
                   witness={"subset": [int(v) for v in subset.members],
                            "sumset_size": size, "floor": len(subset)})


def basic_shift_subset(A: FqSet, alpha: int = 1) -> LemmaReport:
    """A' of at least half size minimizing |A' - A'|, found by
    `decompositions.shift_stage`; the ratio against |A(A+alpha)|^4 |A/A|^2 /
    |A|^5 is measured (the constant is unknown)."""
    if len(A) == 0:
        raise EmptySet("A must be nonempty")
    if 0 in A:
        raise ZeroInSet("A must avoid 0")
    subset, size, value = shift_stage(A, alpha)
    inst = _instance(A.spec, A=A, alpha=int(alpha))
    return _report("basic_shift_bound", inst, MEASURED, value=value,
                   witness={"subset": [int(v) for v in subset.members],
                            "diff_size": size, "floor": len(subset)})


# ---------------------------------------------------------------------------
# energy and decomposition wrappers
# ---------------------------------------------------------------------------


def check_popularity(domain: FqSet, f: dict[int, int], K: int,
                     M_cap: int | None = None) -> LemmaReport:
    Y = popularity_subset(domain, f, K, M_cap)
    mass = sum(f[int(y)] for y in Y)
    ok = 2 * mass >= K and (M_cap is None or 2 * M_cap * len(Y) >= K)
    inst = _instance(domain.spec, domain=domain, K=K, M_cap=M_cap)
    return _report("popularity", inst, EXACT_PASS if ok else FAIL,
                   witness={"kept": len(Y), "mass": mass})


def product_energy(X: FqSet, Y: FqSet) -> int:
    """Multiplicative energy by product-representation counts: an independent
    route from the ratio spectrum (used for the second-moment cross-check)."""
    _require_same_field(X, Y)
    prods = X.spec.mul_arr(X.members[:, None], Y.members[None, :]).ravel()
    counts = np.bincount(prods, minlength=X.spec.q)
    return _sum_of_squares(counts)


def check_energy_identities(X: FqSet, Y: FqSet) -> LemmaReport:
    """First and second moment identities of the ratio counts, plus the two
    difference-count identities for X: sum |X ∩ (X-a)| = |X|^2 and
    sum |X ∩ (X-a)|^2 = E+(X).  The last crosses two routes: the
    difference counts against ``additive_energy``, which takes a large
    X's energy from the forward transform alone by Parseval and a small
    one's from the sum counts of the grid's triangle."""
    ratios = representation_spectrum(X, Y)
    first = int(ratios.sum()) == len(X) * len(Y)
    second = _sum_of_squares(ratios) == product_energy(X, Y)
    counts = intersection_shift_counts(X)
    sum_ok = int(counts.sum()) == len(X) ** 2
    energy_ok = _sum_of_squares(counts) == additive_energy(X)
    ok = first and second and sum_ok and energy_ok
    inst = _instance(X.spec, X=X, Y=Y)
    return _report("energy_identities", inst, EXACT_PASS if ok else FAIL,
                   witness={"first_moment": first, "second_moment": second,
                            "difference_sum": sum_ok, "difference_energy": energy_ok})


def check_energy_cs(X: FqSet, Y: FqSet) -> LemmaReport:
    """E(X,Y) * |XY| >= |X|^2 |Y|^2 (Cauchy-Schwarz)."""
    energy = multiplicative_energy(X, Y)
    prod = set_op_size(X, Y, "prod")
    lhs = energy * prod
    rhs = (len(X) * len(Y)) ** 2
    inst = _instance(X.spec, X=X, Y=Y)
    return _report("energy_cs", inst, EXACT_PASS if lhs >= rhs else FAIL,
                   witness={"energy": energy, "product_size": prod})


def check_dyadic_energy(X: FqSet, Y: FqSet) -> LemmaReport:
    """The three slice certificates, on the shapes ``DyadicSlice`` covers:
    |X||Y| >= 2 and a nonzero element in Y."""
    sl = dyadic_energy_slice(X, Y)
    if len(X) * len(Y) < 2 or len(Y.nonzero()) == 0:
        raise NotApplicable("the slice certificates need |X||Y| >= 2 and a nonzero element in Y")
    certs = slice_certificates(sl)
    ok = certs["level_band"] and certs["energy_ok"] and certs["mass_strict"]
    inst = _instance(X.spec, X=X, Y=Y)
    return _report("dyadic_energy", inst, EXACT_PASS if ok else FAIL,
                   witness={"L": sl.L, "N": sl.N, **{k: v for k, v in certs.items()
                                                     if isinstance(v, bool)}})


def check_rudnev(X: FqSet, Y: FqSet) -> LemmaReport:
    """Popular-point chain with tracked constants, plus a recount of every
    stored slice set from the slice's pairs alone: S_z must be the abscissas
    in B_y0 of the pairs on slope z/x0, ascending as the pairs are sorted."""
    sl = dyadic_energy_slice(X, Y)
    pts = popular_points(sl)
    chain = points_certificates(sl, pts)
    spec = X.spec
    xs = sl.pairs[:, 0]
    slopes, on_B = spec.div_arr(sl.pairs[:, 1], xs), pts.B_y0.bitmask[xs]
    recompute_ok = all(np.array_equal(xs[on_B & (slopes == spec.div(z, pts.x0))], stored.members)
                       for z, stored in pts.S.items())
    ok = chain["all"] and recompute_ok
    inst = _instance(spec, X=X, Y=Y)
    return _report("rudnev", inst, EXACT_PASS if ok else FAIL,
                   witness={"x0": pts.x0, "y0": pts.y0,
                            "chain": chain["all"], "recompute": recompute_ok})


def check_covering_by_shifts(Z: FqSet, x: int, y: int, X: FqSet, Y: FqSet) -> LemmaReport:
    """Measured covering counts of X by translates of Y and of -Y, reported
    against |Z(Z+1)|^2 |Z/Z| / (|X||Y|^2); the bound's constant is unknown."""
    spec = Z.spec
    if 0 in Z:
        raise ZeroInSet("Z must avoid 0")
    if x % spec.q == 0:
        raise ZeroElement("x must be nonzero")
    frame = translate(dilate(Z, x), y)
    if not (len(X) and len(Y) and X.is_subset(frame) and Y.is_subset(frame)):
        raise NotSubsets("X and Y must be nonempty subsets of x*Z + y")
    count_pos, _ = covering_number(X, Y, +1)
    count_neg, _ = covering_number(X, Y, -1)
    curve = Fraction(set_op_size(Z, translate(Z, 1), "prod") ** 2 * set_op_size(Z, Z, "ratio"),
                     len(X) * len(Y) ** 2)
    inst = _instance(spec, Z=Z, x=int(x), y=int(y), X=X, Y=Y)
    return _report("covering_by_shifts", inst, MEASURED,
                   value=Fraction(max(count_pos, count_neg)) / curve,
                   witness={"count_pos": count_pos, "count_neg": count_neg,
                            "curve": f"{curve.numerator}/{curve.denominator}"})


# ---------------------------------------------------------------------------
# batch verification with seeded instance generation
# ---------------------------------------------------------------------------

DEFAULT_FIELDS = ("2^2", "5^1", "7^1", "2^3", "3^2", "11^1", "13^1", "2^4",
                  "5^2", "3^3", "2^6", "3^4", "11^2", "5^3")
LARGE_FIELD = "2^10"
LARGE_FIELD_EVERY = 20  # every nth instance runs on the large field


def _rng_for(lemma_id: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, LEMMA_IDS.index(lemma_id), index])


def _field_for(index: int, fields=DEFAULT_FIELDS) -> FieldSpec:
    if index % LARGE_FIELD_EVERY == LARGE_FIELD_EVERY - 1:
        return parse_descriptor(LARGE_FIELD)
    return parse_descriptor(fields[index % len(fields)])


def random_set(rng: np.random.Generator, spec: FieldSpec, size: int,
               nonzero: bool = False) -> FqSet:
    lo = 1 if nonzero else 0
    pool = np.arange(lo, spec.q, dtype=np.int64)
    size = min(size, pool.size)
    return FqSet.from_iterable(spec, rng.choice(pool, size=size, replace=False))


def _rand_size(rng, spec, lo=2, hi=12):
    return int(rng.integers(lo, min(hi, spec.q - 1) + 1))


def generate_instance(lemma_id: str, seed: int, index: int):
    """Deterministic instance for one lemma check; returns kwargs for the
    lemma's checker in LEMMAS (or None when the draw is inapplicable)."""
    _lemma(lemma_id)
    rng = _rng_for(lemma_id, seed, index)
    spec = _field_for(index)

    def draw(lo=2, hi=12, nonzero=False):
        return random_set(rng, spec, _rand_size(rng, spec, lo, hi), nonzero)

    if lemma_id == "rbcard":
        for _ in range(8):
            X = draw(2, 8)
            R = quotient_set(X)
            outside = np.flatnonzero(~R.bitmask[1:]) + 1
            if outside.size:
                r = int(rng.choice(outside))
                k1 = int(rng.integers(1, len(X) + 1))
                k2 = int(rng.integers(1, len(X) + 1))
                X1 = FqSet.from_iterable(spec, rng.choice(X.members, k1, replace=False))
                X2 = FqSet.from_iterable(spec, rng.choice(X.members, k2, replace=False))
                return {"X": X, "r": r, "X1": X1, "X2": X2}
        return None
    if lemma_id == "rbfq":
        root = math.isqrt(spec.q)
        hi = min(spec.q, root + 5)
        size = int(rng.integers(root + 1, hi + 1))
        return {"X": random_set(rng, spec, size)}
    if lemma_id == "energy_identities":
        return {"X": draw(nonzero=True), "Y": draw()}
    if lemma_id == "energy_cs":
        return {"X": draw(), "Y": draw()}
    if lemma_id == "ruzsa_triangle":
        return {"X": draw(2, 10), "B1": draw(2, 10), "B2": draw(2, 10)}
    if lemma_id == "plunnecke":
        k = int(rng.integers(2, 5))
        return {"X": draw(2, 8), "Bs": [draw(2, 8) for _ in range(k)]}
    if lemma_id == "ratio_to_shift":
        return {"A": draw(2, 10, nonzero=True)}
    if lemma_id == "dyadic_energy" or lemma_id == "rudnev":
        X = draw(nonzero=True)
        Y = random_set(rng, spec, min(_rand_size(rng, spec, 2, 12), len(X)))
        return {"X": X, "Y": Y}
    if lemma_id == "bou_glib_pivot":
        return {"X1": draw(1, 8), "X2": draw(1, 8)}
    if lemma_id == "popularity":
        domain = draw(2, 10)
        f = {int(v): int(rng.integers(1, 9)) for v in domain}
        total = sum(f.values())
        K = int(rng.integers(1, total + 1))
        return {"domain": domain, "f": f, "K": K, "M_cap": max(f.values())}
    if lemma_id == "plunnecke_refined":
        k = int(rng.integers(1, 4))
        return {"X": draw(2, 10), "Bs": [draw(2, 6) for _ in range(k)], "eps": Fraction(1, 4)}
    if lemma_id == "basic_shift_bound":
        return {"A": draw(2, 10, nonzero=True)}
    if lemma_id == "covering_by_shifts":
        Z = draw(2, 10, nonzero=True)
        x = int(rng.integers(1, spec.q))
        y = int(rng.integers(0, spec.q))
        frame = translate(dilate(Z, x), y)
        kx = int(rng.integers(1, len(frame) + 1))
        ky = int(rng.integers(1, len(frame) + 1))
        X = FqSet.from_iterable(spec, rng.choice(frame.members, kx, replace=False))
        Y = FqSet.from_iterable(spec, rng.choice(frame.members, ky, replace=False))
        return {"Z": Z, "x": x, "y": y, "X": X, "Y": Y}
    if lemma_id == "quotient_subfield":
        # bias toward subfield-structured sets so the hypotheses sometimes hold
        subs = [h for h in enumerate_subfields(spec) if h.size >= 2]
        h = subs[int(rng.integers(0, len(subs)))]
        if rng.integers(0, 2) and h.size < spec.q:
            return {"X": h.elements}
        return {"X": draw(2, 6)}
    if lemma_id == "pivot":
        for _ in range(8):
            X = draw(2, 5, nonzero=True)
            if len(quotient_set(X)) >= Fraction(1, 2) * len(X) ** 2:
                return {"X": X}
        return None


# lemma id -> (checker, the checker parameters that `verify --sets X;Y;...`
# fills in order; a trailing "Bs" takes the remaining sets, at least one; ()
# marks a batch-only lemma).  The order fixes each lemma's seed stream.
LEMMAS = {
    "rbcard": (check_rbcard, ("X", "X1", "X2")),
    "rbfq": (check_rbfq, ("X",)),
    "quotient_subfield": (check_quotient_subfield, ("X",)),
    "pivot": (find_pivot_r, ("X",)),
    "bou_glib_pivot": (find_pivot_xi, ("X1", "X2")),
    "ruzsa_triangle": (check_ruzsa_triangle, ("X", "B1", "B2")),
    "ratio_to_shift": (check_ratio_to_shift, ("A",)),
    "plunnecke": (check_plunnecke, ("X", "Bs")),
    "plunnecke_refined": (refined_plunnecke_subset, ("X", "Bs")),
    "covering_by_shifts": (check_covering_by_shifts, ()),
    "basic_shift_bound": (basic_shift_subset, ("A",)),
    "popularity": (check_popularity, ()),
    "energy_identities": (check_energy_identities, ("X", "Y")),
    "energy_cs": (check_energy_cs, ("X", "Y")),
    "dyadic_energy": (check_dyadic_energy, ("X", "Y")),
    "rudnev": (check_rudnev, ("X", "Y")),
}
LEMMA_IDS = tuple(LEMMAS)


def _lemma(lemma_id: str) -> tuple:
    """LEMMAS[lemma_id], or the one ValueError of every entry point for an
    unknown id."""
    if lemma_id not in LEMMAS:
        raise ValueError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")
    return LEMMAS[lemma_id]


def run_lemma(lemma_id: str, **kwargs) -> LemmaReport:
    """Run one lemma's checker on keyword arguments."""
    checker, _ = _lemma(lemma_id)
    return checker(**kwargs)


def batch_verify(lemma_id: str, trials: int, seed: int = 0) -> list[LemmaReport]:
    """Run `trials` seeded instances of one lemma check, deterministically."""
    _lemma(lemma_id)
    reports = []
    index = 0
    while len(reports) < trials:
        kwargs = generate_instance(lemma_id, seed, index)
        index += 1
        if kwargs is not None:
            reports.append(run_lemma(lemma_id, **kwargs))
    return reports
