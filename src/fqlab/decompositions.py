"""Constructive combinatorial engines: popularity pigeonholing, dyadic energy
slicing, popular-point extraction with an explicit tracked constant chain,
covering by translates (greedy plus exact branch-and-bound for small targets),
and the full shifted-product proof trace with case classification.

Everything here is pure and deterministic; ties always break toward the
smallest canonical encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateSlice,
    EmptySet,
    EmptySpectrum,
    InvariantViolated,
    SecondSetLarger,
    SumBelowK,
    TraceDegenerate,
    ZeroInSet,
    ZeroShift,
)
from .finite_field import proper_subfields
from .set_algebra import (
    FqSet,
    RepSpectrum,
    coset_intersection_counts,
    dilate,
    quotient_closure_failure,
    quotient_set,
    representation_spectrum,
    set_op,
    shifted_product,
    translate,
)

EXACT_SEARCH_LIMIT = 12  # subset/cover searches go exhaustive at or below this size


# ---------------------------------------------------------------------------
# popularity pigeonhole
# ---------------------------------------------------------------------------


def _popularity(keys, counts, K, M_cap=None):
    """Core of the popularity pigeonhole: keep the keys whose count f reaches
    K/(2|domain|), compared exactly as 2*|domain|*f >= K.

    keys is the domain in ascending order and counts holds f on it.  Returns
    (kept keys, threshold, kept mass).  The kept mass is always at least K/2,
    and when f <= M_cap the number of kept keys is at least K/(2*M_cap); both
    guarantees are exact integer facts, checked here (an f above M_cap breaks
    the second and raises InvariantViolated).
    """
    keys, counts = np.asarray(keys), np.asarray(counts)
    if (counts <= 0).any():
        raise ValueError("popularity requires f > 0 on the domain")
    total = int(counts.sum())
    if total < K:
        raise SumBelowK(f"sum of f is {total} < K = {K}")
    keep = 2 * len(keys) * counts >= K
    mass = int(counts[keep].sum())
    if 2 * mass < K:
        raise InvariantViolated(f"kept mass {mass} is below K/2 = {K}/2")
    if M_cap is not None:
        if (counts > M_cap).any():
            raise InvariantViolated(f"f exceeds M_cap = {M_cap}")
        if 2 * M_cap * int(keep.sum()) < K:
            raise InvariantViolated(f"{int(keep.sum())} kept elements are below K/(2*M_cap)")
    return keys[keep], Fraction(K, 2 * len(keys)), mass


def popularity_subset(domain: FqSet, f: dict[int, int], K: int,
                      M_cap: int | None = None) -> FqSet:
    """Subset of elements whose f-value reaches K/(2|domain|); keeps at least
    half the total mass.  Threshold comparison is exact."""
    counts = [f[x] for x in domain]
    kept, _, _ = _popularity(domain.members, counts, K, M_cap)
    return FqSet.from_iterable(domain.spec, kept)


def _pigeonhole(counts: np.ndarray, K: int, capped: bool = False):
    """One pigeonhole step over the positions with a positive count.  Returns
    (kept positions, threshold, kept mass, domain size, cap), the cap being the
    largest count when `capped` (else None)."""
    hit = np.flatnonzero(counts)
    cap = int(counts.max()) if capped else None
    kept, threshold, mass = _popularity(hit, counts[hit], K, M_cap=cap)
    return kept, threshold, mass, len(hit), cap


# ---------------------------------------------------------------------------
# dyadic energy slice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicSlice:
    """Dominant dyadic level of the ratio spectrum between X and Y.

    D holds the popular slopes, every one carrying between N and 2N-1 point
    pairs; P is the set of pairs supported on those slopes.  The certificates
    r(xi) in [N, 2N), multiplicative energy <= (floor(log2 |X|)+1)*4*L*N^2 and
    L*N < |X||Y| hold whenever |X||Y| >= 2 and Y contains a nonzero element:
    the two excluded shapes (a 1x1 instance, and Y = {0} whose pairs all sit
    on the slope-zero line) concentrate the whole first moment on a single
    slope, where nothing can be dropped below it.
    """

    X: FqSet
    Y: FqSet
    D: FqSet
    N: int
    L: int
    M: int
    pairs: np.ndarray  # (k, 2) int64 rows (x, y), lexicographically sorted
    spectrum: RepSpectrum

    @property
    def energy(self) -> int:
        return self.spectrum.energy


def dyadic_energy_slice(X: FqSet, Y: FqSet) -> DyadicSlice:
    """Bucket the ratio counts by powers of two and keep the level with the
    largest squared mass (smallest level on ties).

    A perfectly flat spectrum at a power of two would make L*N equal |X||Y|
    exactly; in that case the largest-encoded slope is dropped, which keeps
    every certificate valid with room to spare.
    """
    if len(Y) > len(X):
        raise SecondSetLarger("need |Y| <= |X|")
    spectrum = representation_spectrum(X, Y)
    if not spectrum.counts:
        raise EmptySpectrum("no ratio pairs between X and Y")
    levels: dict[int, int] = {}
    for count in spectrum.counts.values():
        j = count.bit_length() - 1
        levels[j] = levels.get(j, 0) + count * count
    best_j = min(j for j, s in levels.items() if s == max(levels.values()))
    N = 1 << best_j
    slopes = sorted(xi for xi, c in spectrum.counts.items() if N <= c < 2 * N)
    if len(slopes) * N == len(X) * len(Y) and len(slopes) >= 2:
        slopes = slopes[:-1]
    D = FqSet.from_iterable(X.spec, slopes)
    ratio_grid = X.spec.div_arr(Y.members[None, :], X.members[:, None])
    xi_idx, yi_idx = np.nonzero(D.bitmask[ratio_grid])
    pairs = np.column_stack([X.members[xi_idx], Y.members[yi_idx]])  # row-major: (x, y) sorted
    L = len(D)
    return DyadicSlice(X=X, Y=Y, D=D, N=N, L=L, M=L * N * N, pairs=pairs,
                       spectrum=spectrum)


def slice_certificates(sl: DyadicSlice) -> dict:
    """The three exact slice certificates, with the numbers behind them."""
    counts = [sl.spectrum.counts[int(xi)] for xi in sl.D.members]
    log_factor = len(sl.X).bit_length() - 1 + 1  # floor(log2 |X|) + 1
    return {
        "level_band": all(sl.N <= c < 2 * sl.N for c in counts),
        "energy": sl.energy,
        "energy_bound": log_factor * 4 * sl.L * sl.N**2,
        "energy_ok": sl.energy <= log_factor * 4 * sl.L * sl.N**2,
        "mass": sl.L * sl.N,
        "mass_bound": len(sl.X) * len(sl.Y),
        "mass_strict": sl.L * sl.N < len(sl.X) * len(sl.Y),
    }


# ---------------------------------------------------------------------------
# popular points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopularPoints:
    """Replay of the popular-point extraction over a dyadic slice.

    x0 is the popular abscissa, y0 the popular ordinate; A_x0 holds the
    ordinates over x0 and B_y0 the abscissas under y0.  For every z in A_tilde
    the stored S[z] equals the line of slope z/x0 intersected with B_y0, and
    the thresholds in `constants` reproduce the inequality chain exactly: each
    pigeonhole step keeps half the mass.  Every count behind them is a
    bincount or a 0/1 matrix product over the slice's pairs (see
    `popular_points`), never a list of the pairs per row, column or line.
    """

    x0: int
    y0: int
    A_x0: FqSet
    B_y0: FqSet
    A_tilde: FqSet
    S: dict[int, FqSet]
    y_popular: FqSet  # popular ordinate rows
    x_popular: FqSet  # popular abscissa columns
    d_popular: FqSet  # popular slopes inside the restricted point set
    constants: dict


# proven composite constants of the pigeonhole chain (each factor is exact)
C_ROWS = Fraction(1, 2)       # |B_y0| >= (1/2) * L*N / |Y|
C_COLS = Fraction(1, 4)       # |A_x0| >= (1/4) * L*N / |X|
C_TILDE = Fraction(1, 16384)  # |A_tilde| >= c * L^2*N^2 / (|X|^2 |Y|)
C_SLICE_SETS = Fraction(1, 8192)  # |S_z| >= c * L^2*N^3 / (|X|^2 |Y|^2)


def popular_points(sl: DyadicSlice) -> PopularPoints:
    """Popular-point extraction over the slice's pairs, by counting.

    Each pair (x, y) gets three indices, computed once: its line (position of
    y/x in D), column (position of x in X) and row (position of y in Y).  The
    pigeonhole steps are bincounts over masks of pairs: rows count `row`;
    columns count `col` over the pairs in popular rows; slopes count `line`
    over the pairs in popular rows and columns.  With `lines` the 0/1
    (line, x) incidence and `points` the 0/1 (x, y) incidence of the pairs,
    C = lines @ points[:, popular rows] gives C[l, j] = |P_l ∩ X_(y_j)|, and
    the double sum over (x, y) in x_popular × y_popular is lines[:, popular
    columns].T @ C; its first row-major maximum is the smallest (x0, y0) on
    ties.  The last step reads column y0 of C at the lines of the pairs over
    x0: the number of pairs on each such line whose x lies in B_y0.
    """
    if sl.L == 0 or sl.pairs.size == 0:
        raise DegenerateSlice("slice has no popular slopes")
    spec = sl.X.spec
    xs, ys = sl.pairs[:, 0], sl.pairs[:, 1]
    line = np.searchsorted(sl.D.members, spec.div_arr(ys, xs))
    col = np.searchsorted(sl.X.members, xs)
    row = np.searchsorted(sl.Y.members, ys)
    p_size = len(xs)

    # rows: keep ordinates whose pair count reaches half the average
    rows, t_rows, mass_rows, row_domain, _ = _pigeonhole(
        np.bincount(row, minlength=len(sl.Y)), p_size)
    y_popular = FqSet.from_iterable(spec, sl.Y.members[rows])
    in_rows = y_popular.bitmask[ys]

    # columns: restrict to the kept rows, then pigeonhole abscissas
    cols, t_cols, mass_cols, col_domain, _ = _pigeonhole(
        np.bincount(col[in_rows], minlength=len(sl.X)), mass_rows)
    x_popular = FqSet.from_iterable(spec, sl.X.members[cols])
    in_cols = x_popular.bitmask[xs]

    # slopes: pigeonhole the doubly-restricted point set by its lines
    slope_counts = np.bincount(line[in_rows & in_cols], minlength=sl.L)
    mass_dd = int(slope_counts.sum())
    slopes, t_slopes, _, slope_domain, slope_cap = _pigeonhole(
        slope_counts, mass_dd, capped=True)
    d_popular = FqSet.from_iterable(spec, sl.D.members[slopes])

    # the double sum and its exact maximizing cell, smallest (x0, y0) on ties
    lines = np.zeros((sl.L, len(sl.X)), dtype=np.int64)
    lines[line, col] = 1
    points = np.zeros((len(sl.X), len(sl.Y)), dtype=np.int64)
    points[col, row] = 1
    C = lines @ points[:, rows]
    sums = lines[:, cols].T @ C
    i, j = np.unravel_index(int(np.argmax(sums)), sums.shape)
    x0, y0 = int(sl.X.members[cols[i]]), int(sl.Y.members[rows[j]])
    inner_max, sigma = int(sums[i, j]), int(sums.sum())

    over_x0 = xs == x0
    A_x0 = FqSet.from_iterable(spec, ys[over_x0])
    B_y0 = FqSet.from_iterable(spec, xs[ys == y0])

    # final pigeonhole: ordinates over x0 whose slice set inside B_y0 is popular
    z_lines = line[over_x0]
    tilde, t_z, _, z_domain, z_cap = _pigeonhole(C[z_lines, j], inner_max, capped=True)
    A_tilde = FqSet.from_iterable(spec, ys[over_x0][tilde])
    on_B = B_y0.bitmask[xs]
    S = {int(z): FqSet.from_iterable(spec, xs[on_B & (line == l)])
         for z, l in zip(A_tilde.members, z_lines[tilde])}

    constants = {
        "p_size": p_size,
        "row_threshold": t_rows, "row_domain": row_domain, "row_mass": mass_rows,
        "col_threshold": t_cols, "col_domain": col_domain, "col_mass": mass_cols,
        "slope_threshold": t_slopes, "slope_domain": slope_domain, "slope_cap": slope_cap,
        "slope_mass": mass_dd, "d_popular_size": len(d_popular),
        "sigma": sigma, "inner_max": inner_max,
        "tilde_threshold": t_z, "tilde_domain": z_domain, "tilde_cap": z_cap,
        "pigeonhole_factor": Fraction(1, 2), "pigeonhole_steps": 4,
        "c_rows": C_ROWS, "c_cols": C_COLS, "c_tilde": C_TILDE, "c_slice_sets": C_SLICE_SETS,
    }
    return PopularPoints(x0=x0, y0=y0, A_x0=A_x0, B_y0=B_y0, A_tilde=A_tilde, S=S,
                         y_popular=y_popular, x_popular=x_popular, d_popular=d_popular,
                         constants=constants)


def points_certificates(sl: DyadicSlice, pts: PopularPoints) -> dict:
    """Exact inequality chain of the popular-point construction, evaluated with
    the tracked constants (never the constant-free asymptotic forms)."""
    L, N = sl.L, sl.N
    nx, ny = len(sl.X), len(sl.Y)
    c = pts.constants
    sigma_floor = (c["d_popular_size"] * c["slope_threshold"] ** 2 * c["col_threshold"])
    checks = {
        "p_mass": c["p_size"] >= L * N,
        "rows_kept_mass": 2 * c["row_mass"] >= c["p_size"],
        "cols_kept_mass": 2 * c["col_mass"] >= c["row_mass"],
        "b_y0_size": len(pts.B_y0) >= C_ROWS * Fraction(L * N, ny),
        "a_x0_size": len(pts.A_x0) >= C_COLS * Fraction(L * N, nx),
        "sigma_floor": Fraction(c["sigma"]) >= sigma_floor,
        "inner_max_avg": (Fraction(c["inner_max"])
                          >= Fraction(c["sigma"], len(pts.x_popular) * len(pts.y_popular))),
        "a_tilde_size": len(pts.A_tilde) >= C_TILDE * Fraction(L**2 * N**2, nx**2 * ny),
        "slice_sets_size": all(
            len(s) >= C_SLICE_SETS * Fraction(L**2 * N**3, nx**2 * ny**2)
            for s in pts.S.values()
        ),
        "slopes_in_band": all(int(z) in sl.D for z in
                              sl.X.spec.div_arr(pts.A_x0.members, np.int64(pts.x0))),
        "factor_product_ok": (c["pigeonhole_factor"] ** c["pigeonhole_steps"]
                              >= Fraction(1, 2) ** c["pigeonhole_steps"]),
    }
    checks["all"] = all(v for k, v in checks.items() if isinstance(v, bool))
    return checks


# ---------------------------------------------------------------------------
# covering by translates
# ---------------------------------------------------------------------------


def _greedy_cover(target: FqSet, candidates: np.ndarray, hits: np.ndarray):
    uncovered = target.bitmask.copy()
    shifts = []
    while uncovered.any():
        gains = uncovered[hits].sum(axis=1)
        best = int(np.argmax(gains))  # first maximum = smallest shift
        if gains[best] == 0:
            raise InvariantViolated("no candidate shift covers an uncovered element")
        shifts.append(int(candidates[best]))
        uncovered[hits[best]] = False
    return len(shifts), shifts


def _exact_cover(target: FqSet, candidates: np.ndarray, hits: np.ndarray):
    """Branch-and-bound minimum cover; only used for |target| <= EXACT_SEARCH_LIMIT."""
    n = len(target)
    bit_of = {int(v): i for i, v in enumerate(target.members)}
    full = (1 << n) - 1
    mask_of: dict[int, int] = {}
    for t, row in zip(candidates, hits):
        mask = 0
        for v in row:
            i = bit_of.get(int(v))
            if i is not None:
                mask |= 1 << i
        if mask and mask not in mask_of:
            mask_of[mask] = int(t)  # first (= smallest) shift wins
    masks = sorted(mask_of)
    covers_elem = [[m for m in masks if (m >> i) & 1] for i in range(n)]

    best_count, best_shifts = _greedy_cover(target, candidates, hits)

    def dfs(covered: int, chosen: list[int]):
        nonlocal best_count, best_shifts
        if covered == full:
            if len(chosen) < best_count:
                best_count = len(chosen)
                best_shifts = [mask_of[m] for m in chosen]
            return
        if len(chosen) + 1 >= best_count:
            remaining = full & ~covered
            max_gain = max((bin(m & remaining).count("1") for m in masks), default=0)
            if max_gain == 0 or len(chosen) + math.ceil(
                    bin(remaining).count("1") / max_gain) >= best_count:
                return
        remaining = full & ~covered
        elem = min((i for i in range(n) if (remaining >> i) & 1),
                   key=lambda i: len(covers_elem[i]))
        options = sorted(covers_elem[elem],
                         key=lambda m: -bin(m & remaining).count("1"))
        for m in options:
            if len(chosen) + 1 >= best_count:
                break
            chosen.append(m)
            dfs(covered | m, chosen)
            chosen.pop()

    dfs(0, [])
    return best_count, best_shifts


def covering_number(target: FqSet, tile: FqSet, sign: int | str = +1,
                    mode: str = "auto"):
    """Fewest translates t + sign*tile covering target: greedy with the
    smallest-shift tie-break, or the exact minimum (branch and bound) when
    |target| <= 12.  Returns (count, shifts)."""
    if len(tile) == 0:
        raise EmptySet("covering tile must be nonempty")
    sign = {"+": 1, "-": -1}.get(sign, sign)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1, -1, '+' or '-', got {sign!r}")
    if len(target) == 0:
        return 0, []
    spec = target.spec
    shifted_tile = tile if sign == 1 else FqSet.from_iterable(spec, spec.neg_arr(tile.members))
    # every shift t whose translate meets the target, ascending, and its hits
    candidates = set_op(target, shifted_tile, "diff").members
    hits = spec.add_arr(candidates[:, None], shifted_tile.members[None, :])
    if mode == "exact" or (mode == "auto" and len(target) <= EXACT_SEARCH_LIMIT):
        return _exact_cover(target, candidates, hits)
    return _greedy_cover(target, candidates, hits)


# ---------------------------------------------------------------------------
# proof trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceParams:
    epsilon: Fraction = Fraction(1, 4)  # proportion dropped by the refinement stage
    kappa: int = 1  # implied-constant slack for the structural comparisons
    measure_covers: bool = True


@dataclass(frozen=True)
class ProofTrace:
    """All intermediates of the shifted-product growth pipeline on one input.

    a_prime and a_dprime are the two refinement stages (kept distinct from the
    input; nothing is renamed back).  The slice and points are built over
    X = a_dprime + alpha and Y = a_dprime, and `case` is the branch of the
    growth argument the input lands in, with re-verifiable witnesses and the
    exact certificates checked along that branch.
    """

    field: str
    input_set: tuple[int, ...]
    alpha: int
    a_prime: tuple[int, ...]
    a_dprime: tuple[int, ...]
    removed_minus_alpha: bool
    diff_ratio: Fraction
    iterated_ratio: Fraction
    gamma: Fraction
    slice: DyadicSlice
    points: PopularPoints
    case: str
    witnesses: dict
    certificates: dict

    def to_json(self) -> dict:
        sl, pts = self.slice, self.points
        return _jsonable({
            "field": self.field, "input": self.input_set, "alpha": self.alpha,
            "a_prime": self.a_prime, "a_dprime": self.a_dprime,
            "removed_minus_alpha": self.removed_minus_alpha,
            "diff_ratio": self.diff_ratio, "iterated_ratio": self.iterated_ratio,
            "gamma": self.gamma,
            "slice": {"D": sl.D, "N": sl.N, "L": sl.L, "M": sl.M,
                      "pair_count": sl.pairs.shape[0]},
            "points": {"x0": pts.x0, "y0": pts.y0, "A_x0": pts.A_x0, "B_y0": pts.B_y0,
                       "A_tilde": pts.A_tilde, "S": pts.S},
            "case": self.case, "witnesses": self.witnesses, "certificates": self.certificates,
        })


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, FqSet):
        return [int(v) for v in obj.members]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _first_ratio_quadruple(S: FqSet, r: int):
    """Lexicographically first (a, b, c, d) in S^4 with (a-b)/(c-d) = r (r != 0)."""
    spec = S.spec
    first_cd: dict[int, tuple[int, int]] = {}
    for c in S:
        for d in S:
            if c == d:
                continue
            delta = spec.sub(c, d)
            if delta not in first_cd:
                first_cd[delta] = (c, d)
    for a in S:
        for b in S:
            if a == b:
                continue
            need = spec.div(spec.sub(a, b), r)
            if need in first_cd:
                c, d = first_cd[need]
                return a, b, c, d
    return None


def run_proof_trace(A: FqSet, alpha: int, params: TraceParams = TraceParams()) -> ProofTrace:
    """Run the whole growth pipeline on (A, alpha) and classify the branch.

    Requires alpha != 0, 0 not in A and |A| >= 4; the derived popular sets must
    carry at least two elements each for the quotient-set machinery, otherwise
    the input is rejected as degenerate.  Structural comparisons in the case-4
    family are evaluated against the original input set.
    """
    from .lemma_oracles import basic_shift_subset, refined_plunnecke_subset

    spec = A.spec
    if alpha % spec.q == 0:
        raise ZeroShift("alpha must be nonzero")
    if 0 in A:
        raise ZeroInSet("translate or dilate the input away from 0 first")
    if len(A) < 4:
        raise TraceDegenerate("need |A| >= 4")

    shift_report = basic_shift_subset(A, alpha=alpha)
    A1 = FqSet.from_iterable(spec, shift_report.witness["subset"])
    neg_A1 = FqSet.from_iterable(spec, spec.neg_arr(A1.members))
    refine_report = refined_plunnecke_subset(A1, [neg_A1, neg_A1, neg_A1], params.epsilon)
    A2 = FqSet.from_iterable(spec, refine_report.witness["subset"])

    minus_alpha = spec.neg(alpha % spec.q)
    removed = minus_alpha in A2
    if removed:
        A2 = A2.without([minus_alpha])
    if len(A2) < 2:
        raise TraceDegenerate("refined subset too small after removing -alpha")

    shifted = shifted_product(A2, alpha)
    diff2 = set_op(A2, A2, "diff")
    diff4 = set_op(set_op(diff2, A2, "diff"), A2, "diff")  # A - A - A - A
    n2 = len(A2)
    diff_ratio = Fraction(len(diff2) * n2**7, len(shifted) ** 8)
    iterated_ratio = Fraction(len(diff4) * n2**23, len(shifted) ** 24)

    X = translate(A2, alpha)
    Y = A2
    sl = dyadic_energy_slice(X, Y)
    pts = popular_points(sl)
    gamma = Fraction(n2**2 * len(shifted) ** 4, sl.M**2)

    if len(pts.A_tilde) < 2 or len(pts.B_y0) < 2:
        raise TraceDegenerate("popular sets too small for quotient machinery")

    ratio_set = set_op(A2, A2, "ratio")
    certificates = {
        "slice": slice_certificates(sl),
        "points_chain": points_certificates(sl, pts),
        "ratio_to_shift": {
            "lhs": len(ratio_set) * n2,
            "rhs": len(shifted) ** 2,
            "ok": len(ratio_set) * n2 <= len(shifted) ** 2,
        },
        "shift_stage_ratio": shift_report.value,
        "refine_stage_ratio": refine_report.value,
    }

    case, witnesses, case_certs = _classify(A, A2, alpha, sl, pts, params)
    certificates.update(case_certs)

    if params.measure_covers:
        certificates["covers"] = _measure_covers(A2, len(shifted), sl, pts, gamma, case,
                                                   witnesses)

    return ProofTrace(
        field=spec.descriptor,
        input_set=tuple(int(v) for v in A.members),
        alpha=int(alpha),
        a_prime=tuple(int(v) for v in A1.members),
        a_dprime=tuple(int(v) for v in A2.members),
        removed_minus_alpha=removed,
        diff_ratio=diff_ratio,
        iterated_ratio=iterated_ratio,
        gamma=gamma,
        slice=sl,
        points=pts,
        case=case,
        witnesses=witnesses,
        certificates=certificates,
    )


def _classify(A_input: FqSet, A2: FqSet, alpha: int, sl: DyadicSlice,
              pts: PopularPoints, params: TraceParams):
    spec = A_input.spec
    kappa = params.kappa
    At, B = pts.A_tilde, pts.B_y0
    R_A = quotient_set(At)
    named = {"A_tilde": (At, R_A), "B_y0": (B, quotient_set(B))}

    # case 1: the quotient sets differ; 1.1 when R(A_tilde) has a ratio R(B_y0) lacks
    for case, side, other in (("1.1", "A_tilde", "B_y0"), ("1.2", "B_y0", "A_tilde")):
        (S, R_S), (T, R_T) = named[side], named[other]
        extra = np.setdiff1d(R_S.members, R_T.members)
        if extra.size:
            r = int(extra[0])
            eq = len(set_op(T, dilate(T, r), "diff")) == len(T) ** 2
            return case, {"r": r, "quadruple": _first_ratio_quadruple(S, r), "side": side}, {
                "rbcard_equality": {"set": other, "r": r, "ok": eq}}

    # case 2: 1 + R not contained in R; case 3: (A_tilde / x0) * R not contained in R
    failure = quotient_closure_failure(R_A, spec.div_arr(At.members, np.int64(pts.x0)))
    if failure is not None:
        i, j = failure
        rho = int(R_A.members[j])
        quad = _first_ratio_quadruple(At, rho)
        if i is None:
            r = spec.add(1, rho)
            S_a = pts.S.get(quad[0])
            cert = {"rho": rho, "r": r}
            if S_a is not None and len(S_a):
                cert["rbcard_equality"] = {
                    "set": "B_y0 - r*S_a", "r": r,
                    "ok": len(set_op(B, dilate(S_a, r), "diff")) == len(B) * len(S_a)}
            return "2", {"rho": rho, "r": r, "quadruple": quad}, {"case2": cert}
        a = int(At.members[i])
        r = spec.mul(spec.div(a, pts.x0), rho)
        return "3", {"a": a, "rho": rho, "r": r, "quadruple": quad}, {
            "case3": {"r": r, "not_in_quotient": r not in R_A}}

    # case 4: R(A_tilde) is the subfield generated by A_tilde / x0
    if len(R_A) == spec.q:
        if len(At) ** 2 > spec.q:
            return "4.1", {"quotient": "full field", "a_tilde_size": len(At)}, {
                "case4": {"full_field": True, "above_sqrt_q": True}}
        return "4.2", {"quotient": "full field", "a_tilde_size": len(At)}, {
            "case4": {"full_field": True, "above_sqrt_q": False}}
    G0 = next((G for G in proper_subfields(spec) if R_A == G.elements), None)
    if G0 is None:
        raise InvariantViolated("closure held but the quotient set is not a subfield")
    counts = coset_intersection_counts(A_input, G0)
    max_size = int(counts.max())
    sqrt_ok = max_size**2 <= kappa**2 * G0.size
    if sqrt_ok:
        return "4.2", {"subfield_degree": G0.d, "max_coset_intersection": max_size}, {
            "case4": {"full_field": False, "sqrt_condition": True, "kappa": kappa}}
    # x0 != 0 (-alpha was removed from A''), so x0*G0 is the coset at log x0
    inter = int(counts[spec.log_table[pts.x0] % counts.size])
    cond = inter**26 <= kappa**26 * len(A_input) ** 25
    return "4.3", {"subfield_degree": G0.d, "x0_coset_intersection": inter}, {
        "case4": {"full_field": False, "sqrt_condition": False,
                  "exponent_condition": cond, "kappa": kappa}}


def _measure_covers(A2: FqSet, shifted_size: int, sl: DyadicSlice, pts: PopularPoints,
                    gamma: Fraction, case: str, witnesses: dict):
    """Measured covering counts for the translate families the active branch
    uses, with shifted_size = |A2(A2+alpha)|; the asymptotic covering bound
    carries an unknown constant, so counts and curves are reported side by
    side, never asserted."""
    spec = A2.spec
    s4 = shifted_size**4
    n2 = len(A2)
    L, N, M = sl.L, sl.N, sl.M
    tile_x = dilate(A2, pts.x0)
    tile_y = dilate(A2, pts.y0)
    out = []

    def measure(role, target, tile, sign, curve):
        if len(target) == 0:
            return
        count, _ = covering_number(target, tile, sign)
        out.append({"role": role, "target_size": len(target), "sign": sign,
                    "count": count, "curve": curve,
                    "ratio": float(count / curve) if curve else None})

    if case == "1.1":
        a, b, c, d = witnesses["quadruple"]
        curve = Fraction(s4, L * N**3)
        for w in (a, b, c):
            measure(f"w={w}*B_y0", dilate(pts.B_y0, w), tile_x, +1, curve)
        measure(f"w={d}*B_y0", dilate(pts.B_y0, d), tile_x, -1, curve)
    elif case in ("1.2", "4.1", "4.2"):
        sample = [int(v) for v in pts.B_y0.members[:4]]
        for i, w in enumerate(sample):
            sign = -1 if i == len(sample) - 1 else +1
            measure(f"w={w}*A_tilde", dilate(pts.A_tilde, w), tile_y, sign, gamma)
    elif case == "2":
        a, b, c, d = witnesses["quadruple"]
        curve_b = Fraction(s4, L * N**3)
        measure(f"w={c}*B_y0", dilate(pts.B_y0, c), tile_x, +1, curve_b)
        measure(f"w={d}*B_y0", dilate(pts.B_y0, d), tile_x, +1, curve_b)
        S_a = pts.S.get(a)
        if S_a is not None and len(S_a):
            measure(f"w={b}*S_a", dilate(S_a, b), tile_x, -1,
                    Fraction(n2**3 * s4, L * M * N**3))
    elif case == "3":  # rho != 0 (0 * rows stays in R), so the quadruple exists
        b, c, d, e = witnesses["quadruple"]
        S_d = pts.S.get(d)
        if S_d is not None and len(S_d):
            measure(f"w={e}*S_d", dilate(S_d, e), tile_x, +1,
                    Fraction(n2**3 * s4, L * M * N**3))
        slopes = spec.div_arr(sl.pairs[:, 1], sl.pairs[:, 0])
        line = FqSet.from_iterable(spec, sl.pairs[slopes == spec.div(c, pts.x0), 0])
        if len(line):
            measure(f"w={b}*P_line", dilate(line, b), tile_x, -1,
                    Fraction(s4, n2 * N**3))
    return out
